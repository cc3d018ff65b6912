//! The load generator: an in-process `lcl-serve` on loopback, driven over
//! TCP by at most two generator threads and two connections.

use crate::inputs::{
    reply_complexity, split_reply, Expect, Frame, LabelingCheck, StreamCase, Tables,
};
use crate::layers::Tracer;
use crate::util::Hist;
use lcl_paths::Engine;
use lcl_server::{Backend, Server, ServerHandle, Service};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The CPU the server's threads (reactor and pool) run on.
pub const SERVER_CPU: usize = 0;
/// The CPU the load generator's threads run on.
pub const GENERATOR_CPU: usize = 1;

/// The served system: one `Service` on the reactor backend with two pool
/// workers, listening on an ephemeral loopback port.
pub struct Served {
    pub service: Arc<Service>,
    pub addr: SocketAddr,
    handle: Option<ServerHandle>,
}

impl Served {
    /// Starts the server with its threads on `SERVER_CPU`, then moves the
    /// calling thread (and every generator thread it spawns later) to
    /// `GENERATOR_CPU`.
    pub fn start() -> io::Result<Served> {
        pin_to_cpu(SERVER_CPU);
        let served = Self::start_here();
        pin_to_cpu(GENERATOR_CPU);
        served
    }

    fn start_here() -> io::Result<Served> {
        let service = Arc::new(Service::new(Engine::builder().parallelism(2).build()));
        let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0")?
            .backend(Backend::Reactor)
            .start()?;
        Ok(Served {
            service,
            addr: handle.addr(),
            handle: Some(handle),
        })
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

/// Pins the calling thread to one CPU; threads it creates afterwards
/// inherit the mask. Best effort: on a host with fewer CPUs, or without
/// the call, placement stays the scheduler's.
pub fn pin_to_cpu(cpu: usize) {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        let mask: u64 = 1 << cpu;
        // SAFETY: `mask` is a live, initialized 8-byte CPU set, the size
        // passed matches it, and pid 0 names the calling thread.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = cpu;
}

/// Asks for 1 µs timer slack on the calling thread (default 50 µs), so
/// the open-loop sender wakes close to each due time. Best effort.
fn tight_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
        // no memory of the caller.
        let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0) };
    }
}

/// One failed operation, with what reproduces it.
pub struct Failure {
    pub problem: String,
    pub instance: String,
    pub why: String,
}

/// Attempted and failed operations of a run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub examples: Vec<Failure>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, problem: &str, instance: &str, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.examples.len() < 20 {
            self.examples.push(Failure {
                problem: problem.to_string(),
                instance: instance.to_string(),
                why,
            });
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.examples {
            if self.examples.len() < 20 {
                self.examples.push(f);
            }
        }
    }
}

/// A blocking NDJSON connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    pub next_id: i64,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 16, stream),
            line: String::new(),
            next_id: 1,
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    pub fn recv(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end_matches(['\n', '\r']))
    }

    fn take_id(&mut self) -> i64 {
        self.next_id += 1;
        self.next_id - 1
    }
}

/// The warm workloads' traffic: frames, the reply each must get, and the
/// seeded order in which they are sent.
pub struct WarmPlan {
    pub frames: Vec<Frame>,
    /// Index into `origins` / `expected` of each frame's problem.
    pub frame_problem: Vec<usize>,
    pub origins: Vec<String>,
    /// Everything after `{"id":<id>,` of the reply each problem must get;
    /// `None` if its warm-up verdict failed the oracle.
    pub expected: Vec<Option<String>>,
    pub ops: Vec<u32>,
}

impl WarmPlan {
    pub fn check(&self, frame: usize, id: i64, line: &str, tally: &mut Tally) {
        let problem = self.frame_problem[frame];
        let good = match (&self.expected[problem], split_reply(line)) {
            (Some(expected), Some((got_id, rest))) => got_id == id && rest == expected,
            _ => false,
        };
        if good {
            tally.ok();
        } else {
            let shown: String = line.chars().take(160).collect();
            tally.fail(
                &self.origins[problem],
                "-",
                format!("reply to id {id} differs from the checked verdict: {shown}"),
            );
        }
    }
}

/// Pool queue depths sampled while a phase runs.
#[derive(Default)]
pub struct Sampled {
    pub queue_depth: Vec<f64>,
}

/// Closed loop over one pipelined connection: `window` requests stay in
/// flight, refilled in half-window bursts, until `duration` has passed;
/// then the window drains. Returns the requests completed and the time
/// they took.
#[allow(clippy::too_many_arguments)]
pub fn closed_pipelined(
    conn: &mut Conn,
    plan: &WarmPlan,
    cursor: &mut usize,
    duration: Duration,
    window: usize,
    tally: &mut Tally,
    sampled: &mut Sampled,
    engine: &Engine,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<(u64, Duration)> {
    let started = Instant::now();
    let deadline = started + duration;
    let mut in_flight: std::collections::VecDeque<(usize, i64, Instant)> = Default::default();
    let mut burst = Vec::with_capacity(window * 1024);
    let mut done = 0u64;
    loop {
        let now = Instant::now();
        if now < deadline && in_flight.len() <= window / 2 {
            burst.clear();
            while in_flight.len() < window {
                let frame = plan.ops[*cursor % plan.ops.len()] as usize;
                *cursor += 1;
                let id = conn.take_id();
                plan.frames[frame].write_with_id(&mut burst, id);
                in_flight.push_back((frame, id, now));
            }
            conn.send(&burst)?;
        }
        let Some((frame, id, sent)) = in_flight.pop_front() else {
            break;
        };
        let line = conn.recv()?;
        let arrived = Instant::now();
        plan.check(frame, id, line, tally);
        if let Some(t) = tracer.as_deref_mut() {
            t.record("loadgen.request", sent, arrived, None, id as u64);
        }
        done += 1;
        if done.is_multiple_of(64) {
            sampled
                .queue_depth
                .push(engine.pool_stats().queue_depth as f64);
        }
    }
    Ok((done, started.elapsed()))
}

/// What one open-loop segment measured: each reply's latency from its
/// request's due time, how late the sender wrote each request, and how
/// many requests were unanswered when sending stopped.
pub struct OpenLoop {
    pub latency: Hist,
    pub lag: Hist,
    pub backlog_end: u64,
    pub sent: u64,
}

/// A segment of the open-loop schedule is invalid when the generator's
/// p99 send lag in it exceeds this: the offered load then was not the rate.
pub const LAG_LIMIT_US: f64 = 1000.0;
const SENTINEL_ID: i64 = -7;

/// Open loop at a fixed `rate` on a new connection: a sender thread writes
/// every request at its due time (batching those already due), a receiver
/// thread times each reply from its due time, so a stall counts against
/// every request queued behind it.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: SocketAddr,
    plan: &WarmPlan,
    cursor: usize,
    rate: f64,
    duration: Duration,
    tally: &mut Tally,
    sampled: &mut Sampled,
    engine: &Engine,
) -> io::Result<OpenLoop> {
    let conn = Conn::connect(addr)?;
    let Conn {
        mut reader,
        mut writer,
        ..
    } = conn;
    let total = (duration.as_secs_f64() * rate).max(1.0) as u64;
    let received = AtomicU64::new(0);
    let receiver_tally = Mutex::new(Tally::default());
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = |j: u64| t0 + Duration::from_secs_f64(j as f64 / rate);
    let base_id = 1i64 << 40;
    let (lag, backlog, latency, depths) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| -> io::Result<(Hist, Vec<f64>)> {
            let mut latency = Hist::new();
            let mut depths = Vec::new();
            let mut line = String::new();
            let mut local = Tally::default();
            loop {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ));
                }
                let now = Instant::now();
                let trimmed = line.trim_end();
                let Some((id, _)) = split_reply(trimmed) else {
                    local.fail("-", "-", format!("unparseable reply {trimmed:.120}"));
                    continue;
                };
                if id == SENTINEL_ID {
                    break;
                }
                let j = (id - base_id) as u64;
                if j >= total {
                    local.fail("-", "-", format!("unexpected reply id {id}"));
                    continue;
                }
                latency.record_us(now.duration_since(due(j)).as_secs_f64() * 1e6);
                let frame = plan.ops[(cursor + j as usize) % plan.ops.len()] as usize;
                plan.check(frame, id, trimmed, &mut local);
                let n = received.fetch_add(1, Ordering::Relaxed) + 1;
                if n.is_multiple_of(64) {
                    depths.push(engine.pool_stats().queue_depth as f64);
                }
            }
            receiver_tally.lock().expect("tally lock").merge(local);
            Ok((latency, depths))
        });
        tight_timer_slack();
        let mut lag = Hist::new();
        let mut burst = Vec::new();
        let mut next = 0u64;
        let mut send_error = None;
        while next < total {
            let now = Instant::now();
            let due_next = due(next);
            if due_next > now {
                std::thread::sleep(due_next - now);
                continue;
            }
            burst.clear();
            while next < total && due(next) <= now {
                let frame = plan.ops[(cursor + next as usize) % plan.ops.len()] as usize;
                plan.frames[frame].write_with_id(&mut burst, base_id + next as i64);
                lag.record_us(now.duration_since(due(next)).as_secs_f64() * 1e6);
                next += 1;
            }
            if let Err(e) = writer.write_all(&burst) {
                send_error = Some(e);
                break;
            }
        }
        let backlog = next - received.load(Ordering::Relaxed);
        let sentinel = format!("{{\"id\":{SENTINEL_ID},\"kind\":\"health\",\"v\":1}}\n");
        let sentinel_sent = writer.write_all(sentinel.as_bytes());
        let received_all = receiver.join().expect("receiver thread panicked");
        if let Some(e) = send_error {
            return Err(e);
        }
        sentinel_sent?;
        let (latency, depths) = received_all?;
        Ok::<_, io::Error>((lag, backlog, latency, depths))
    })?;
    tally.merge(receiver_tally.into_inner().expect("tally lock"));
    sampled.queue_depth.extend(depths);
    Ok(OpenLoop {
        latency,
        lag,
        backlog_end: backlog,
        sent: total,
    })
}

/// One lock-step classify exchange; returns the round trip.
pub fn classify_once(
    conn: &mut Conn,
    spec_json: &str,
    expect: Expect,
    origin: &str,
    tally: &mut Tally,
) -> io::Result<Duration> {
    let id = conn.take_id();
    let frame = Frame::classify(spec_json, crate::inputs::Spelling::Canonical).with_id(id);
    let sent = Instant::now();
    conn.send_line(&frame)?;
    let line = conn.recv()?;
    let rtt = sent.elapsed();
    let id_ok = split_reply(line).is_some_and(|(got, _)| got == id);
    match reply_complexity(line) {
        Some(c) if id_ok && expect.admits(&c) => tally.ok(),
        other => {
            let shown: String = line.chars().take(160).collect();
            tally.fail(
                origin,
                "-",
                format!("expected {expect:?}, got {other:?}: {shown}"),
            );
        }
    }
    Ok(rtt)
}

/// One client's share of a lock-step round: round trips, turnaround lags,
/// its tally and its spans.
type ClientRound = (Vec<f64>, Vec<f64>, Tally, Option<Tracer>);

/// Two lock-step clients drain `problems` in order from a shared index.
/// With a tracer, each client records a span per request inside the timed
/// round. Returns every round trip (µs) and the wall time of the round.
pub fn lockstep_round(
    addr: SocketAddr,
    problems: &[crate::inputs::Problem],
    tally: &mut Tally,
    lag_us: &mut Vec<f64>,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<(Vec<f64>, Duration)> {
    let next = AtomicUsize::new(0);
    let forks: Vec<Option<Tracer>> = (0..2)
        .map(|_| tracer.as_deref().map(Tracer::fork))
        .collect();
    let started = Instant::now();
    let results = std::thread::scope(|scope| {
        let workers: Vec<_> = forks
            .into_iter()
            .map(|mut fork| {
                let next = &next;
                scope.spawn(move || -> io::Result<ClientRound> {
                    let mut conn = Conn::connect(addr)?;
                    let mut rtts = Vec::new();
                    let mut lags = Vec::new();
                    let mut local = Tally::default();
                    let mut last_reply: Option<Instant> = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = problems.get(i) else { break };
                        if let Some(at) = last_reply {
                            lags.push(at.elapsed().as_secs_f64() * 1e6);
                        }
                        let sent = Instant::now();
                        let rtt = classify_once(
                            &mut conn,
                            &p.spec_json,
                            p.expect,
                            &p.origin,
                            &mut local,
                        )?;
                        let arrived = Instant::now();
                        if let Some(t) = fork.as_mut() {
                            t.record("loadgen.request", sent, arrived, None, i as u64);
                        }
                        last_reply = Some(arrived);
                        rtts.push(rtt.as_secs_f64() * 1e6);
                    }
                    Ok((rtts, lags, local, fork))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall = started.elapsed();
    let mut rtts = Vec::new();
    for r in results {
        let (r, lags, local, fork) = r?;
        rtts.extend(r);
        lag_us.extend(lags);
        tally.merge(local);
        if let (Some(t), Some(fork)) = (tracer.as_deref_mut(), fork) {
            t.absorb(fork);
        }
    }
    Ok((rtts, wall))
}

/// Parses a chunk payload `{"offset":O,"outputs":[…],"seq":S}}` without a
/// JSON tree: the chunk frames are the bulk of the traffic.
fn parse_chunk(rest: &str, outputs: &mut Vec<u16>) -> Option<(u64, u64)> {
    let rest =
        rest.strip_prefix("\"kind\":\"solve_stream\",\"ok\":true,\"payload\":{\"offset\":")?;
    let (offset, rest) = rest.split_once(",\"outputs\":[")?;
    let (list, rest) = rest.split_once(']')?;
    let seq = rest.strip_prefix(",\"seq\":")?.strip_suffix("}}")?;
    outputs.clear();
    if !list.is_empty() {
        for item in list.split(',') {
            outputs.push(item.parse().ok()?);
        }
    }
    Some((offset.parse().ok()?, seq.parse().ok()?))
}

/// One lock-step `solve_stream`: sends the frame, reads every chunk, checks
/// the labeling against the spec's tables and the summary against the
/// oracle.
pub fn stream_once(
    conn: &mut Conn,
    frame: &Frame,
    case: &StreamCase,
    tables: &Tables,
    expect: Expect,
) -> io::Result<Result<(), String>> {
    let id = conn.take_id();
    conn.send_line(&frame.with_id(id))?;
    let mut check = LabelingCheck::new(tables, case);
    let mut outputs = Vec::new();
    let mut next_seq = 0u64;
    loop {
        let line = conn.recv()?;
        let Some((got, rest)) = split_reply(line) else {
            return Ok(Err(format!(
                "error reply or unparseable frame: {line:.160}"
            )));
        };
        if got != id {
            return Ok(Err(format!("frame id {got}, expected {id}")));
        }
        if let Some((offset, seq)) = parse_chunk(rest, &mut outputs) {
            if seq != next_seq {
                return Ok(Err(format!("chunk seq {seq}, expected {next_seq}")));
            }
            next_seq += 1;
            check.chunk(offset, &outputs);
            continue;
        }
        let value = lcl_paths::problem::json::JsonValue::parse(line).ok();
        let payload = value.as_ref().and_then(|v| v.get("payload"));
        let done = payload
            .and_then(|p| p.get("done"))
            .and_then(|d| d.as_bool().ok())
            == Some(true);
        if !done {
            return Ok(Err(format!("stream ended without a summary: {line:.200}")));
        }
        let payload = payload.expect("checked above");
        let nodes = payload
            .get("nodes")
            .and_then(|n| n.as_int().ok())
            .unwrap_or(-1);
        let complexity = payload
            .get("complexity")
            .and_then(|c| c.as_str().ok())
            .unwrap_or("");
        if let Some(violation) = check.finish() {
            return Ok(Err(format!("invalid labeling: {violation}")));
        }
        if nodes != case.length as i64 {
            return Ok(Err(format!(
                "summary says {nodes} nodes of {}",
                case.length
            )));
        }
        if !expect.admits(complexity) {
            return Ok(Err(format!(
                "summary complexity {complexity}, expected {expect:?}"
            )));
        }
        return Ok(Ok(()));
    }
}
