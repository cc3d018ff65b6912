//! `lclbench`: the repository benchmark. It drives an in-process
//! `lcl-serve` (reactor backend, two pool workers) over loopback TCP with
//! one of two seeded workloads, checks every reply with oracles that share
//! no code with the classifier, and prints the metrics named in
//! `BENCHMARK.json` as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path lclbench/Cargo.toml -- \
//!     --workload warm_wide --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, their times scaled to a
//! reference host speed measured during the run (see `calib`) so that the
//! shared host's drift cancels; `--trace 1` runs the same
//! inputs with spans around the public call into each layer and reports the
//! per-layer metrics, writing the spans to
//! `$CARGO_TARGET_DIR/lclbench-traces/` (default `lclbench/target/`).
//! `--known-failures` probes the inputs known to fail at this revision and
//! prints one reproducer line for each. See `lclbench/WORKLOADS.md`.

mod calib;
mod inputs;
mod layers;
mod load;
mod steal;
mod util;

use calib::HostSpeed;
use inputs::{Frame, Problem, Spelling, StreamCase, Tables};
use layers::{replay_classify, replay_front, replay_stream, Feasibility, Tracer};
use load::{Conn, Sampled, Served, Tally, WarmPlan, GENERATOR_CPU, SERVER_CPU};
use std::collections::HashSet;
use std::io;
use std::time::{Duration, Instant};
use steal::{Clean, StealWatch};
use util::{json_str, median, percentile, sorted, Hist, Metrics, Rng};

const WORKLOADS: [&str; 2] = ["warm_wide", "cold_classify"];
/// Set-up runs at least this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Requests the closed-loop client keeps in flight on its pipelined
/// connection. Warm replies resolve in the server's fast lane and take no
/// slot of its 32-frame per-connection window, so a deeper client window
/// keeps the reactor busy instead of waiting on client wake-ups.
const WINDOW: usize = 128;
/// Labels per chunk frame under the server's default 256 KiB chunk cap.
const CHUNK_NODES: usize = (256 * 1024 - 128) / 8;
/// Generated problems per family × alphabet cell in a `cold_classify`
/// round (72 cells, plus the 27 ladder problems).
const COLD_PER_CELL: usize = 4;
/// The closed loop of `warm_wide` runs in segments of this length, each
/// checked for steal.
const CLOSED_SEGMENT: Duration = Duration::from_millis(500);
/// The open loop of `warm_wide` runs in segments of this length, each on a
/// new connection and checked for steal and generator lag.
const OPEN_SEGMENT: Duration = Duration::from_secs(1);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    known_failures: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        known_failures: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--known-failures" {
            args.known_failures = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.known_failures && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lclbench: {e}");
            eprintln!("usage: lclbench --workload <name> --seed <n> --seconds <s> --trace <0|1> | --known-failures");
            std::process::exit(2);
        }
    };
    if args.known_failures {
        match known_failures(&args) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("lclbench: {e}");
                std::process::exit(1);
            }
        }
    }
    let run = match args.workload.as_str() {
        "warm_wide" => warm(&args),
        _ => cold(&args),
    };
    match run {
        Ok(run) => run.print(&args),
        Err(e) => {
            eprintln!("lclbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

/// A finished run: the tally, the metrics and the supporting detail.
struct Run {
    tally: Tally,
    metrics: Metrics,
    detail: Vec<(&'static str, String)>,
}

impl Run {
    fn new(tally: Tally) -> Run {
        Run {
            tally,
            metrics: Metrics::default(),
            detail: Vec::new(),
        }
    }

    fn note(&mut self, key: &'static str, value: impl ToString) {
        self.detail.push((key, value.to_string()));
    }

    /// Reproducers, then the detail line, then the result line.
    fn print(&self, args: &Args) {
        for f in &self.tally.examples {
            println!(
                "REPRO workload={} seed={} problem={} instance={} why={}",
                args.workload,
                args.seed,
                json_str(&f.problem),
                json_str(&f.instance),
                json_str(&f.why)
            );
        }
        let detail: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!("DETAIL {{{}}}", detail.join(", "));
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted.max(1),
            self.tally.failed,
            self.metrics.to_json()
        );
    }

    /// The metrics every untraced run reports. `latency` holds every
    /// counted request's latency, `tail_us` is the tail latency and
    /// `tail_basis` says how it was taken; times are scaled to the
    /// reference host ([`calib`]), and `slowness` is the host's median
    /// slowness.
    fn end_to_end(
        &mut self,
        setup_s: f64,
        ops_per_s: f64,
        latency: &Hist,
        (tail_us, tail_basis): (f64, String),
        slowness: f64,
    ) {
        self.metrics.put("setup_s", setup_s, "s");
        self.metrics.put("ops_per_s", ops_per_s, "1/s");
        self.metrics
            .put("lat_p50_us", latency.quantile_us(0.5), "us");
        self.metrics.put("lat_tail_us", tail_us, "us");
        self.metrics.put("peak_rss_mb", util::peak_rss_mb(), "MB");
        self.note("host_slowness", slowness);
        self.note("lat_tail_basis", json_str(&tail_basis));
        self.note("lat_p90_us", latency.quantile_us(0.9));
        self.note("lat_p99_us", latency.quantile_us(0.99));
        self.note("lat_samples", latency.len());
        self.note(
            "failed_frac",
            self.tally.failed as f64 / self.tally.attempted.max(1) as f64,
        );
    }
}

/// Runs set-up at least `SETUP_REPS` times, and more (up to 25) while
/// they take under a second together, each discarding the previous state;
/// keeps the last and returns it with the median set-up time, each scaled
/// to the reference host ([`calib`]) by the slowness of `cpu`, the CPU
/// that does most of the set-up's work.
fn timed_setup<S>(cpu: usize, mut setup: impl FnMut() -> io::Result<S>) -> io::Result<(S, f64)> {
    let mut times: Vec<f64> = Vec::new();
    let mut total = 0.0;
    let mut state = None;
    let mut speed = HostSpeed::start(cpu);
    while times.len() < SETUP_REPS || (times.len() < 25 && total < 1.0) {
        drop(state.take());
        let started = Instant::now();
        state = Some(setup()?);
        let took = started.elapsed().as_secs_f64();
        total += took;
        times.push(took / speed.segment());
    }
    Ok((state.expect("SETUP_REPS > 0"), median(&times)))
}

fn secs(total: f64, share: f64) -> Duration {
    Duration::from_secs_f64(total * share)
}

/// Server-side counters, read before and after a load phase.
#[derive(Default, Clone, Copy)]
struct Counters {
    hits: u64,
    misses: u64,
    bytes_hits: u64,
    bytes_misses: u64,
    evictions: u64,
    writev: u64,
    spliced: u64,
    jobs: u64,
}

impl Counters {
    fn read(served: &Served) -> Counters {
        let engine = served.service.engine();
        let cache = engine.cache_stats();
        Counters {
            hits: cache.hits,
            misses: cache.misses,
            bytes_hits: cache.bytes_hits,
            bytes_misses: cache.bytes_misses,
            evictions: cache.evictions,
            writev: served.service.metrics().writev_batches(),
            spliced: served.service.metrics().spliced_frames(),
            jobs: engine.pool_stats().jobs_completed,
        }
    }

    /// Adds what changed between `before` and `after`.
    fn add_delta(&mut self, before: Counters, after: Counters) {
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.bytes_hits += after.bytes_hits - before.bytes_hits;
        self.bytes_misses += after.bytes_misses - before.bytes_misses;
        self.evictions += after.evictions - before.evictions;
        self.writev += after.writev - before.writev;
        self.spliced += after.spliced - before.spliced;
        self.jobs += after.jobs - before.jobs;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What the load phase of a traced run observed.
struct LoadObs {
    delta: Counters,
    /// Classify reply frames the client read during the load phase.
    frames: u64,
    sampled: Sampled,
    lag_p99_us: f64,
    backlog_end: u64,
    overhead_frac: f64,
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
fn per_layer(run: &mut Run, t: &Tracer, feas: &[Feasibility], obs: &LoadObs) {
    let dur = |span: &str| median(&t.durations_us(span));
    let own = |span: &str| median(&t.self_us(span));
    // The share of a span that its children leave unexplained.
    let own_frac = |span: &str| {
        let shares: Vec<f64> = t
            .durations_us(span)
            .iter()
            .zip(t.self_us(span))
            .map(|(d, s)| if *d > 0.0 { s / d } else { 0.0 })
            .collect();
        median(&shares)
    };
    let count = |name: &str| t.counts.get(name).map_or(0.0, |v| median(v));
    let d = &obs.delta;
    let queue_p99 = percentile(&sorted(obs.sampled.queue_depth.clone()), 0.99);
    let metrics = [
        ("server.wire.self_us", own("server.wire"), "us"),
        (
            "server.frames_per_writev",
            ratio(obs.frames, d.writev),
            "count",
        ),
        ("server.service.us", dur("server.service"), "us"),
        (
            "server.spliced_share",
            ratio(d.spliced, obs.frames),
            "ratio",
        ),
        ("problem.parse.us", dur("problem.parse"), "us"),
        ("problem.normalize.us", dur("problem.normalize"), "us"),
        ("problem.render.us", dur("problem.render"), "us"),
        ("core.cache.probe.us", dur("core.cache.probe"), "us"),
        (
            "core.cache.hit_ratio",
            ratio(d.hits, d.hits + d.misses),
            "ratio",
        ),
        (
            "core.cache.bytes_hit_ratio",
            ratio(d.bytes_hits, d.bytes_hits + d.bytes_misses),
            "ratio",
        ),
        ("core.cache.evictions", d.evictions as f64, "count"),
        ("core.pool.queue_depth_p99", queue_p99, "count"),
        ("core.pool.jobs", d.jobs as f64, "count"),
        ("semigroup.transfer.us", dur("semigroup.transfer"), "us"),
        ("semigroup.enumerate.us", dur("semigroup.enumerate"), "us"),
        ("semigroup.types", count("semigroup.types"), "count"),
        ("core.gap_types.us", own("core.gap_types"), "us"),
        ("core.solvability.us", dur("core.solvability"), "us"),
        (
            "core.quantified_types",
            count("core.quantified_types"),
            "count",
        ),
        (
            "core.feasibility.constant.us",
            dur("core.feasibility.constant"),
            "us",
        ),
        (
            "core.feasibility.logstar.us",
            dur("core.feasibility.logstar"),
            "us",
        ),
        ("core.synthesis.us", dur("core.synthesis"), "us"),
        (
            "core.synthesis.radius",
            count("core.synthesis.radius"),
            "count",
        ),
        ("core.stream.setup.us", dur("core.stream.setup"), "us"),
        (
            "core.stream.ns_per_node",
            count("core.stream.ns_per_node"),
            "ns",
        ),
        (
            "core.stream.peak_resident_nodes",
            count("core.stream.peak_resident_nodes"),
            "count",
        ),
        ("core.classify.us", dur("core.classify"), "us"),
        (
            "core.classify.self_frac",
            own_frac("core.classify"),
            "ratio",
        ),
        ("loadgen.lag_p99_us", obs.lag_p99_us, "us"),
        ("loadgen.backlog_end", obs.backlog_end as f64, "count"),
        ("trace.overhead_frac", obs.overhead_frac, "ratio"),
    ];
    for (name, value, unit) in metrics {
        run.metrics.put(name, value, unit);
    }
    run.note("server.service.self_frac", own_frac("server.service"));
    run.note("feasibility_by_beta", feasibility_buckets(feas));
    run.note("spans", t.spans.len());
}

/// Median feasibility-search time per test and output-alphabet bucket.
fn feasibility_buckets(feas: &[Feasibility]) -> String {
    let buckets = [(1, 4), (5, 8), (9, 16), (17, 64)];
    let mut parts = Vec::new();
    for test in ["constant", "logstar"] {
        for (lo, hi) in buckets {
            let us: Vec<f64> = feas
                .iter()
                .filter(|f| f.test == test && (lo..=hi).contains(&f.beta))
                .map(|f| f.us)
                .collect();
            if !us.is_empty() {
                parts.push(format!(
                    "\"{test}.beta{lo}-{hi}\": {{\"median_us\": {}, \"n\": {}}}",
                    median(&us),
                    us.len()
                ));
            }
        }
    }
    format!("{{{}}}", parts.join(", "))
}

fn trace_path(args: &Args) -> std::path::PathBuf {
    let target =
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "lclbench/target".to_string());
    std::path::Path::new(&target)
        .join("lclbench-traces")
        .join(format!("{}-{}.jsonl", args.workload, args.seed))
}

fn finish_trace(run: &mut Run, args: &Args, t: &Tracer) {
    let path = trace_path(args);
    match t.write_jsonl(&path) {
        Ok(()) => run.note("trace_file", json_str(&path.display().to_string())),
        Err(e) => eprintln!("lclbench: could not write {}: {e}", path.display()),
    }
}

/// Streams a short seeded cycle for a few of a classify workload's
/// solvable problems, so its trace also times the stream layer those
/// problems would use. Errors are reported in the detail line.
fn stream_probe(
    t: &mut Tracer,
    engine: &lcl_paths::Engine,
    problems: &[&Problem],
    seed: u64,
) -> usize {
    let mut errors = 0;
    let solvable = problems.iter().filter(|p| {
        p.problem.num_outputs() <= 4
            && engine.cached(&p.problem).is_some_and(|c| {
                matches!(
                    c.complexity(),
                    lcl_paths::classifier::Complexity::Constant
                        | lcl_paths::classifier::Complexity::LogStar
                )
            })
    });
    for (i, p) in solvable.take(4).enumerate() {
        let case = StreamCase {
            topology: lcl_paths::problem::Topology::Cycle,
            length: 256,
            seed: seed ^ i as u64,
            alphabet: p.problem.num_inputs(),
        };
        if replay_stream(
            t,
            engine,
            &p.problem,
            &case,
            CHUNK_NODES,
            None,
            u64::MAX - i as u64,
        )
        .is_err()
        {
            errors += 1;
        }
    }
    errors
}

// ---------------------------------------------------------------- warm ---

/// `warm_wide` draws its structures from this generator seed and salts
/// the run seed with it.
const WARM_SALT: u64 = 0x77696465;
/// Structures warmed: more canonical lines than the server's 1024-line
/// raw-text memo holds, fewer than its 4096-entry engine cache.
const WARM_DISTINCT: usize = 1500;
/// Renamed copies of warmed structures, which the cache can only serve
/// through the rendered reply lane.
const WARM_TWINS: usize = 500;
/// Share of frames spelled non-canonically (parse path, no memo).
const NON_CANONICAL_PCT: u64 = 50;
/// The open loop's request rate: about a third of the closed-loop
/// throughput on the 2-vCPU host the benchmark was tuned on; at half of it
/// the queue, and with it the latency, swung with the host's drift.
const OPEN_RATE: f64 = 24_000.0;

struct Warm {
    served: Served,
    problems: Vec<Problem>,
    plan: WarmPlan,
    tally: Tally,
}

/// Sends canonical classify frames pipelined, a window at a time, and
/// returns the replies in order.
fn warm_pass(conn: &mut Conn, problems: &[&Problem]) -> io::Result<Vec<String>> {
    let mut replies = Vec::with_capacity(problems.len());
    for batch in problems.chunks(WINDOW) {
        let mut burst = Vec::new();
        for p in batch {
            let id = conn.next_id;
            conn.next_id += 1;
            Frame::classify(&p.spec_json, Spelling::Canonical).write_with_id(&mut burst, id);
        }
        conn.send(&burst)?;
        for _ in batch {
            replies.push(conn.recv()?.to_string());
        }
    }
    Ok(replies)
}

fn warm_setup(seed: u64) -> io::Result<Warm> {
    let served = Served::start()?;
    let mut rng = Rng::new(seed ^ WARM_SALT);
    let problems = inputs::warm_set(
        &mut rng,
        WARM_SALT,
        WARM_DISTINCT,
        WARM_TWINS,
        (1, 3),
        (2, 5),
    );
    let spellings = [Spelling::Canonical, Spelling::Spaced, Spelling::Reordered];
    let mut frames = Vec::new();
    let mut frame_problem = Vec::new();
    for (i, p) in problems.iter().enumerate() {
        for s in spellings {
            frames.push(Frame::classify(&p.spec_json, s));
            frame_problem.push(i);
        }
    }
    let ops = (0..1 << 16)
        .map(|_| {
            let p = rng.range(0, problems.len() - 1);
            let s = if rng.chance(NON_CANONICAL_PCT) {
                rng.range(1, 2)
            } else {
                0
            };
            (p * spellings.len() + s) as u32
        })
        .collect();
    // Warm-up: compute every structure, then serve the originals once more
    // so their reply bytes attach and the memo learns their lines, then the
    // twins (which the cache can only serve through the render lane).
    let mut conn = Conn::connect(served.addr)?;
    let originals: Vec<&Problem> = problems[..WARM_DISTINCT].iter().collect();
    let twins: Vec<&Problem> = problems[WARM_DISTINCT..].iter().collect();
    warm_pass(&mut conn, &originals)?;
    let mut replies = warm_pass(&mut conn, &originals)?;
    replies.extend(warm_pass(&mut conn, &twins)?);
    let mut tally = Tally::default();
    let mut expected = Vec::with_capacity(problems.len());
    for (p, reply) in problems.iter().zip(&replies) {
        match inputs::reply_complexity(reply) {
            Some(c) if p.expect.admits(&c) => {
                tally.ok();
                expected.push(inputs::split_reply(reply).map(|(_, rest)| rest.to_string()));
            }
            other => {
                tally.fail(
                    &p.origin,
                    "-",
                    format!("warm-up verdict {other:?}, expected {:?}", p.expect),
                );
                expected.push(None);
            }
        }
    }
    let origins = problems.iter().map(|p| p.origin.clone()).collect();
    Ok(Warm {
        served,
        problems,
        plan: WarmPlan {
            frames,
            frame_problem,
            origins,
            expected,
            ops,
        },
        tally,
    })
}

/// What the open-loop phase of `warm_wide` measured.
struct OpenPhase {
    /// Latency over the valid segments (over all of them if none was).
    latency: Hist,
    lag: Hist,
    /// The largest backlog at the end of a segment.
    backlog_end: u64,
    segments: usize,
    valid: usize,
    sent: u64,
}

/// Open loop at `OPEN_RATE` in `OPEN_SEGMENT`s until `duration` has
/// passed. A segment is valid when the host stole no time from either CPU
/// during it ([`StealWatch`]) and the sender's p99 lag stayed within
/// `LAG_LIMIT_US`. The latencies of the valid segments, each scaled by the
/// host's slowness over its segment ([`HostSpeed`]), are pooled.
fn open_phase(
    served: &Served,
    plan: &WarmPlan,
    cursor: &mut usize,
    duration: Duration,
    tally: &mut Tally,
    sampled: &mut Sampled,
) -> io::Result<OpenPhase> {
    let deadline = Instant::now() + duration;
    let mut steal = StealWatch::start();
    let mut speed = HostSpeed::start(SERVER_CPU);
    let mut latency = Clean::<Hist>::default();
    let mut phase = OpenPhase {
        latency: Hist::new(),
        lag: Hist::new(),
        backlog_end: 0,
        segments: 0,
        valid: 0,
        sent: 0,
    };
    while phase.segments == 0 || Instant::now() < deadline {
        let seg = load::open_loop(
            served.addr,
            plan,
            *cursor,
            OPEN_RATE,
            OPEN_SEGMENT,
            tally,
            sampled,
            served.service.engine(),
        )?;
        let valid = steal.segment_clean() && seg.lag.quantile_us(0.99) <= load::LAG_LIMIT_US;
        let scale = 1.0 / speed.segment();
        *cursor += seg.sent as usize;
        phase.sent += seg.sent;
        phase.segments += 1;
        phase.valid += usize::from(valid);
        phase.backlog_end = phase.backlog_end.max(seg.backlog_end);
        latency.add(valid, |h| h.merge_scaled(&seg.latency, scale));
        phase.lag.merge(&seg.lag);
    }
    phase.latency = latency.take();
    Ok(phase)
}

fn warm(args: &Args) -> io::Result<Run> {
    // Most of set-up is the warm-up's classification on the server's CPU.
    let (warm, setup_s) = timed_setup(SERVER_CPU, || warm_setup(args.seed))?;
    let Warm {
        served,
        problems,
        plan,
        mut tally,
    } = warm;
    let engine = served.service.engine();
    let mut conn = Conn::connect(served.addr)?;
    let mut cursor = 0usize;
    let mut sampled = Sampled::default();
    let s = args.seconds;
    if !args.trace {
        // Closed loop in segments; segments with steal are left out, and
        // each segment's time is scaled to the reference host.
        let deadline = Instant::now() + secs(s, 1.0 / 3.0);
        let mut steal = StealWatch::start();
        let mut speed = HostSpeed::start(SERVER_CPU);
        let mut rate = Clean::<(u64, f64)>::default();
        while steal.segments == 0 || Instant::now() < deadline {
            let (done, took) = load::closed_pipelined(
                &mut conn,
                &plan,
                &mut cursor,
                CLOSED_SEGMENT,
                WINDOW,
                &mut tally,
                &mut sampled,
                engine,
                None,
            )?;
            let took = took.as_secs_f64() / speed.segment();
            rate.add(steal.segment_clean(), |r| *r = (r.0 + done, r.1 + took));
        }
        let open = open_phase(
            &served,
            &plan,
            &mut cursor,
            secs(s, 2.0 / 3.0),
            &mut tally,
            &mut sampled,
        )?;
        let mut run = Run::new(tally);
        run.note("closed_loop_clean_segments", steal.summary());
        run.note("open_loop_rate", OPEN_RATE);
        run.note(
            "open_loop_valid_segments",
            format!("\"{}/{}\"", open.valid, open.segments),
        );
        run.note("open_loop_lag_p99_us", open.lag.quantile_us(0.99));
        run.note("open_loop_backlog_end", open.backlog_end);
        let (done, busy) = rate.take();
        // The tail is p90, not p99: on a shared VM, vCPU stalls the steal
        // counter does not show moved the pooled p99 between 0.4 and 3.8 ms
        // from run to run. The p99 is in the detail line.
        let tail = (
            open.latency.quantile_us(0.9),
            "p90 of the valid open-loop segments' pooled latencies".to_string(),
        );
        run.end_to_end(
            setup_s,
            done as f64 / busy,
            &open.latency,
            tail,
            speed.median(),
        );
        return Ok(run);
    }
    let before = Counters::read(&served);
    // Short plain and span-recording closed-loop slices alternate, so
    // drift over the phase cancels out of the tracing overhead.
    let mut t = Tracer::new();
    let (mut d0, mut e0, mut d1, mut e1) = (0u64, Duration::ZERO, 0u64, Duration::ZERO);
    for slice in 0..8 {
        let tracer = (slice % 2 == 1).then_some(&mut t);
        let traced = tracer.is_some();
        let (d, e) = load::closed_pipelined(
            &mut conn,
            &plan,
            &mut cursor,
            secs(s, 0.25 / 8.0),
            WINDOW,
            &mut tally,
            &mut sampled,
            engine,
            tracer,
        )?;
        if traced {
            (d1, e1) = (d1 + d, e1 + e);
        } else {
            (d0, e0) = (d0 + d, e0 + e);
        }
    }
    let untraced = d0 as f64 / e0.as_secs_f64();
    let open = open_phase(
        &served,
        &plan,
        &mut cursor,
        secs(s, 0.25),
        &mut tally,
        &mut sampled,
    )?;
    let mut delta = Counters::default();
    delta.add_delta(before, Counters::read(&served));
    let obs = LoadObs {
        delta,
        frames: d0 + d1 + open.sent,
        sampled,
        lag_p99_us: open.lag.quantile_us(0.99),
        backlog_end: open.backlog_end,
        overhead_frac: 1.0 - (d1 as f64 / e1.as_secs_f64()) / untraced,
    };
    // Replay: every frame over the wire, through `handle_line`, and through
    // the request front; every distinct problem through the classifier.
    let deadline = Instant::now() + secs(s, 0.5);
    let mut feas = Vec::new();
    let mut classified = HashSet::new();
    let mut op = 0u64;
    while Instant::now() < deadline {
        let frame = plan.ops[cursor % plan.ops.len()] as usize;
        cursor += 1;
        op += 1;
        let problem = plan.frame_problem[frame];
        let id = conn.next_id;
        conn.next_id += 1;
        let text = plan.frames[frame].with_id(id);
        let sent = Instant::now();
        conn.send_line(&text)?;
        let line = conn.recv()?.to_string();
        let wire = t.record("server.wire", sent, Instant::now(), None, op);
        let mut check = Tally::default();
        plan.check(frame, id, &line, &mut check);
        tally.merge(check);
        let (_, service) = t.time("server.service", Some(wire), op, || {
            served.service.handle_line(&text)
        });
        replay_front(&mut t, engine, &text, service, op, None);
        if classified.insert(problem) {
            replay_classify(&mut t, &mut feas, &problems[problem].problem, None, op);
        }
    }
    let all: Vec<&Problem> = problems.iter().collect();
    let probe_errors = stream_probe(&mut t, engine, &all, args.seed);
    let mut run = Run::new(tally);
    per_layer(&mut run, &t, &feas, &obs);
    run.note("stream_probe_errors", probe_errors);
    run.note(
        "open_loop_valid_segments",
        format!("\"{}/{}\"", open.valid, open.segments),
    );
    finish_trace(&mut run, args, &t);
    Ok(run)
}

// ---------------------------------------------------------------- cold ---

fn cold(args: &Args) -> io::Result<Run> {
    // Set-up generates the inputs on the generator's CPU.
    let ((served, base, mut problems, mut rng), setup_s) = timed_setup(GENERATOR_CPU, || {
        let served = Served::start()?;
        let base = inputs::cold_base(COLD_PER_CELL);
        let mut rng = Rng::new(args.seed ^ 0x636f6c64);
        let first = inputs::cold_round(&base, &mut rng);
        Ok((served, base, first, rng))
    })?;
    let engine = served.service.engine();
    let mut tally = Tally::default();
    let mut lag = Vec::new();
    let s = args.seconds;
    let load_deadline = Instant::now() + secs(s, if args.trace { 0.5 } else { 1.0 });
    // Every round sends a fresh relabeling of the base to an emptied cache,
    // so each request is a cold classification. Rounds with steal are left
    // out of the end-to-end metrics, and each round's times are scaled to
    // the reference host.
    let mut steal = StealWatch::start();
    let mut speed = HostSpeed::start(SERVER_CPU);
    let mut rate = Clean::<(u64, f64)>::default();
    let mut latency = Clean::<Hist>::default();
    let mut t = Tracer::new();
    let (mut plain, mut spanned) = ((0u64, 0f64), (0u64, 0f64));
    let mut delta = Counters::default();
    let mut sampled = Sampled::default();
    let mut round = 0u64;
    while round == 0 || Instant::now() < load_deadline {
        if round > 0 {
            problems = inputs::cold_round(&base, &mut rng);
        }
        engine.clear_cache();
        let before = Counters::read(&served);
        // Traced runs record every odd round's requests as spans inside
        // the timed round; the two rates give the tracing overhead.
        let traced = args.trace && round % 2 == 1;
        let (rtts, took) = load::lockstep_round(
            served.addr,
            &problems,
            &mut tally,
            &mut lag,
            traced.then_some(&mut t),
        )?;
        delta.add_delta(before, Counters::read(&served));
        sampled
            .queue_depth
            .push(engine.pool_stats().queue_depth as f64);
        let slow = speed.segment();
        let (n, took) = (rtts.len() as u64, took.as_secs_f64() / slow);
        let side = if traced { &mut spanned } else { &mut plain };
        *side = (side.0 + n, side.1 + took);
        let clean = steal.segment_clean();
        rate.add(clean, |r| *r = (r.0 + n, r.1 + took));
        latency.add(clean, |h| {
            for rtt in &rtts {
                h.record_us(rtt / slow);
            }
        });
        round += 1;
    }
    if !args.trace {
        let mut run = Run::new(tally);
        run.note("rounds", round);
        run.note("clean_rounds", steal.summary());
        let (done, busy) = rate.take();
        let latency = latency.take();
        let pct = util::tail_pct(latency.len());
        let tail = (
            latency.quantile_us(pct),
            format!("p{} of all round trips", pct * 100.0),
        );
        run.end_to_end(setup_s, done as f64 / busy, &latency, tail, speed.median());
        return Ok(run);
    }
    let overhead = if plain.1 > 0.0 && spanned.1 > 0.0 {
        1.0 - (spanned.0 as f64 / spanned.1) / (plain.0 as f64 / plain.1)
    } else {
        0.0
    };
    // Replay: the served engine for the wire, a separate in-process service
    // for `handle_line` and a separate engine for the front's cache probe,
    // all emptied per pass, so every call sees the problem cold.
    let deadline = Instant::now() + secs(s, 0.5);
    let mut feas = Vec::new();
    let mut op = 0u64;
    let mut conn = Conn::connect(served.addr)?;
    let b = lcl_server::Service::new(lcl_paths::Engine::builder().parallelism(2).build());
    let c = lcl_paths::Engine::builder().parallelism(1).build();
    'passes: loop {
        for engine in [engine, b.engine(), &c] {
            engine.clear_cache();
        }
        for p in &problems {
            if Instant::now() >= deadline {
                break 'passes;
            }
            op += 1;
            let classification = replay_classify(&mut t, &mut feas, &p.problem, None, op);
            let id = conn.next_id;
            conn.next_id += 1;
            let text = Frame::classify(&p.spec_json, Spelling::Canonical).with_id(id);
            let sent = Instant::now();
            conn.send_line(&text)?;
            let line = conn.recv()?.to_string();
            let wire = t.record("server.wire", sent, Instant::now(), None, op);
            match inputs::reply_complexity(&line) {
                Some(c) if p.expect.admits(&c) => tally.ok(),
                other => tally.fail(
                    &p.origin,
                    "-",
                    format!("expected {:?}, got {other:?}", p.expect),
                ),
            }
            let (_, service) = t.time("server.service", Some(wire), op, || b.handle_line(&text));
            replay_front(&mut t, &c, &text, service, op, classification.as_ref());
        }
    }
    let small: Vec<&Problem> = problems
        .iter()
        .filter(|p| p.problem.num_outputs() <= 4)
        .collect();
    let probe_errors = stream_probe(&mut t, b.engine(), &small, args.seed);
    let obs = LoadObs {
        delta,
        frames: plain.0 + spanned.0,
        sampled,
        lag_p99_us: percentile(&sorted(lag), 0.99),
        backlog_end: 0,
        overhead_frac: overhead,
    };
    let mut run = Run::new(tally);
    per_layer(&mut run, &t, &feas, &obs);
    run.note("stream_probe_errors", probe_errors);
    run.note("rounds", round);
    finish_trace(&mut run, args, &t);
    Ok(run)
}

// ------------------------------------------------------ known failures ---

/// Probes the inputs that fail at this revision and prints a reproducer
/// for each failure; the timed workloads leave these inputs out.
fn known_failures(args: &Args) -> io::Result<()> {
    let served = Served::start()?;
    let mut conn = Conn::connect(served.addr)?;
    let mut tally = Tally::default();
    for p in inputs::known_failing_verdicts() {
        load::classify_once(&mut conn, &p.spec_json, p.expect, &p.origin, &mut tally)?;
    }
    let mut rng = Rng::new(args.seed);
    for p in inputs::stream_problems() {
        let tables = Tables::from_spec_json(&p.spec_json);
        for topology in [
            lcl_paths::problem::Topology::Path,
            lcl_paths::problem::Topology::Cycle,
        ] {
            for length in [300u64, 1000] {
                let case = StreamCase {
                    topology,
                    length,
                    seed: rng.next_u64() >> 1,
                    alphabet: p.problem.num_inputs(),
                };
                if !inputs::known_failing_case(&p, &case) {
                    continue;
                }
                let frame = Frame::solve_stream(&p.spec_json, &case);
                match load::stream_once(&mut conn, &frame, &case, &tables, p.expect)? {
                    Ok(()) => tally.ok(),
                    Err(why) => {
                        tally.fail(&p.origin, &case.describe(), why);
                        conn = Conn::connect(served.addr)?;
                    }
                }
            }
        }
    }
    for f in &tally.examples {
        println!(
            "REPRO workload=known_failures seed={} problem={} instance={} why={}",
            args.seed,
            json_str(&f.problem),
            json_str(&f.instance),
            json_str(&f.why)
        );
    }
    println!(
        "known failures: {} of {} probes failed",
        tally.failed, tally.attempted
    );
    Ok(())
}
