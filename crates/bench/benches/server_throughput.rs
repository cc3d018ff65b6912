//! E-SERVER: the persistent worker pool against the PR 1 scoped-thread
//! baseline, and end-to-end NDJSON service throughput over loopback TCP.
//!
//! Eight experiments, the first four at 1/4/8 pool workers:
//!
//! 1. **cold batch** — `classify_many` over the corpus from a cold cache,
//!    vs the original design (replicated below) that spawned a fresh
//!    `std::thread::scope` per call;
//! 2. **warm batch** — the same comparison with a warm cache, where real
//!    work is ~zero and per-call thread churn dominates: this isolates what
//!    the persistent pool buys a long-lived service;
//! 3. **end-to-end TCP** — requests/sec for single `classify` round-trips
//!    through `lcl-server` on a loopback socket (warm cache, so the wire +
//!    dispatch + pool path is what's measured);
//! 4. **single-connection pipelining** — the PR 3 addition: one connection
//!    sweeping the corpus lock-step (read each reply before the next
//!    request) vs pipelined (`Client::classify_many_pipelined`, a window of
//!    requests in flight). Lock-step pays a full round-trip of latency per
//!    request; pipelining overlaps wire, dispatch, pool and write stages,
//!    so one client pipe can finally keep the pool busy;
//! 5. **many connections** — 512 simultaneously open pipelined connections
//!    sweeping the corpus, served by the epoll reactor. Printed:
//!    requests/sec and the **process thread count** while all 512
//!    connections were open. The reactor holds it at
//!    `constant + pool workers`, and the run asserts it stays under
//!    [`MANY_CONNS_THREAD_CAP`]. Every reply frame is asserted
//!    byte-identical to the in-process service's;
//! 6. **observability overhead** — warm pipelined sweeps with detailed
//!    metrics (latency histograms + stage traces) enabled vs the no-op
//!    recorder (`set_detailed(false)`), interleaved on one server and one
//!    connection so clock drift cannot land on one side. Each round yields
//!    one on/off time ratio; the median ratio must show the observability
//!    layer costing under 5% of throughput, and the run asserts it.
//! 7. **zero-serialization hit path** — warm corpus sweeps through the
//!    stdio front-end with the reply-bytes splice lane on vs off
//!    (`set_reply_splice` is a live toggle), interleaved every round and
//!    fastest-of per mode. The off mode is the verdict-cache-only baseline:
//!    every hit takes a pool job that re-serializes its reply; the on mode
//!    answers hits on the reading thread by splicing the request id into
//!    the cached payload bytes. Printed as ns/frame; the outputs of the two
//!    modes are asserted byte-identical and the spliced mode must cut
//!    hit-path time at least 2x.
//! 8. **admission + persistence** — the production-posture gates. Three
//!    measurements: (a) with thresholds far above the workload, warm
//!    pipelined sweeps must shed exactly zero frames (admission is
//!    invisible below its limits); (b) with the one worker held by gate
//!    jobs (one running, the shed threshold's worth queued) and queue-depth
//!    shedding armed, a probe connection's rejections must come back under
//!    1ms at p99 — a shed takes no pool slot, so its cost is the admission
//!    check + a pre-rendered error frame; (c) a verdict cache snapshotted to disk and restored into a
//!    fresh engine must answer the first corpus sweep at a > 0.9 hit
//!    ratio.
//!
//! The acceptance bar is experiment 1/2 (the pool must be no slower than
//! the scoped-thread baseline), experiment 4 (pipelined must beat
//! lock-step clearly — the PR targets ≥ 2x on warm sweeps), experiment 5
//! (the reactor must complete the 512-connection run on its fixed thread
//! budget with byte-identical replies), experiment 6 (< 5% observability
//! overhead), experiment 7 (≥ 2x on the memoized classify hit path,
//! byte-identical replies) and experiment 8 (zero sheds below thresholds,
//! shed-path reply p99 < 1ms, restored-snapshot first-pass hit ratio
//! > 0.9).

use lcl_bench::banner;
use lcl_classifier::{Classification, Engine};
use lcl_problem::NormalizedLcl;
use lcl_problems::corpus;
use lcl_server::{Client, Server, Service};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

const REPS: usize = 3;
const WARM_BATCHES: usize = 50;

/// The PR 1 `classify_many`: spawn `workers` scoped threads per call over a
/// work-stealing cursor. Kept here as the baseline after the engine moved to
/// a persistent pool.
fn classify_many_scoped(
    engine: &Engine,
    problems: &[NormalizedLcl],
    workers: usize,
) -> Vec<lcl_classifier::Result<Arc<Classification>>> {
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    thread::scope(|scope| {
        for _ in 0..workers.min(problems.len()).max(1) {
            let tx = tx.clone();
            let cursor = &cursor;
            scope.spawn(move || loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(problem) = problems.get(k) else {
                    break;
                };
                let result = engine.classify(problem);
                if tx.send((k, result)).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut results: Vec<_> = rx.into_iter().collect();
    results.sort_by_key(|(k, _)| *k);
    results.into_iter().map(|(_, r)| r).collect()
}

fn main() {
    banner(
        "E-SERVER",
        "the lcl-server service + persistent engine pool (this repository's addition)",
        "pool vs scoped-thread classify_many, and end-to-end NDJSON requests/sec over TCP",
    );

    let problems: Vec<_> = corpus().into_iter().map(|e| e.problem).collect();
    let specs: Vec<_> = problems.iter().map(NormalizedLcl::to_spec).collect();
    println!(
        "corpus: {} problems, {REPS} repetitions per configuration\n",
        problems.len()
    );

    println!("-- cold cache: full corpus batch ------------------------------");
    for workers in [1usize, 4, 8] {
        let scoped = measure(|| {
            let engine = Engine::builder().parallelism(1).build();
            let results = classify_many_scoped(&engine, &problems, workers);
            assert!(results.iter().all(Result::is_ok));
        });
        let pooled = measure(|| {
            let engine = Engine::builder().parallelism(workers).build();
            let results = engine.classify_many(&problems);
            assert!(results.iter().all(Result::is_ok));
        });
        compare(workers, "cold corpus batch", scoped, pooled);
    }

    println!("\n-- warm cache: {WARM_BATCHES} repeated batches (spawn churn isolated) ----");
    for workers in [1usize, 4, 8] {
        let engine = Engine::builder().parallelism(workers).build();
        let _ = engine.classify_many(&problems); // warm up the cache
        let scoped = measure(|| {
            for _ in 0..WARM_BATCHES {
                let results = classify_many_scoped(&engine, &problems, workers);
                assert!(results.iter().all(Result::is_ok));
            }
        });
        let pooled = measure(|| {
            for _ in 0..WARM_BATCHES {
                let results = engine.classify_many(&problems);
                assert!(results.iter().all(Result::is_ok));
            }
        });
        compare(workers, "warm repeated batches", scoped, pooled);
    }

    println!("\n-- end-to-end TCP: single-classify round-trips (warm) ---------");
    for workers in [1usize, 4, 8] {
        let service = Arc::new(Service::new(Engine::builder().parallelism(workers).build()));
        let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
        let handle = server.start().expect("start server");
        let mut client = Client::connect(handle.addr()).expect("connect");
        // Warm both the cache and the connection.
        for spec in &specs {
            client.classify(spec).expect("warm-up classify");
        }
        let mut requests = 0u64;
        let elapsed = measure(|| {
            for spec in &specs {
                client.classify(spec).expect("classify round-trip");
                requests += 1;
            }
        });
        let per_rep = specs.len() as f64;
        let rps = per_rep / elapsed.as_secs_f64().max(1e-12);
        println!(
            "{workers} pool worker(s): {:>10.2?} per corpus sweep   {rps:>9.0} req/s",
            elapsed
        );
        drop(client);
        handle.shutdown();
        let pool = service.engine().pool_stats();
        assert_eq!(
            pool.workers, workers,
            "pool width must match the configuration"
        );
    }
    println!("\n-- single connection: lock-step vs pipelined (warm) -----------");
    // Context first: on a single-core host the two sides of one connection
    // cannot actually run concurrently, so even a zero-work echo server
    // caps the pipelined/lock-step ratio well below what the design reaches
    // on real hardware (where N workers parse/classify N frames at once).
    let cores = thread::available_parallelism().map_or(1, |p| p.get());
    let (echo_lockstep, echo_pipelined) = wire_ceiling();
    println!(
        "host: {cores} core(s); bare TCP line-echo ceiling: lock-step {echo_lockstep:.0} req/s, \
         pipelined {echo_pipelined:.0} req/s ({:.2}x)",
        echo_pipelined / echo_lockstep.max(1e-12)
    );
    const SWEEPS: usize = 20;
    for workers in [1usize, 4, 8] {
        let service = Arc::new(Service::new(Engine::builder().parallelism(workers).build()));
        let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
        let handle = server.start().expect("start server");
        let mut client = Client::connect(handle.addr()).expect("connect");
        for spec in &specs {
            client.classify(spec).expect("warm-up classify");
        }
        let lockstep = measure(|| {
            for _ in 0..SWEEPS {
                for spec in &specs {
                    client.classify(spec).expect("lock-step classify");
                }
            }
        });
        let pipelined = measure(|| {
            for _ in 0..SWEEPS {
                let outcomes = client
                    .classify_many_pipelined(&specs, 0)
                    .expect("pipelined sweep");
                assert!(outcomes.iter().all(Result::is_ok));
            }
        });
        let per_sweep = (specs.len() * SWEEPS) as f64;
        let lockstep_rps = per_sweep / lockstep.as_secs_f64().max(1e-12);
        let pipelined_rps = per_sweep / pipelined.as_secs_f64().max(1e-12);
        let speedup = lockstep.as_secs_f64() / pipelined.as_secs_f64().max(1e-12);
        println!(
            "{workers} pool worker(s): lock-step {lockstep_rps:>9.0} req/s   pipelined {pipelined_rps:>9.0} req/s   {speedup:>5.2}x"
        );
        drop(client);
        handle.shutdown();
    }

    println!("\n-- many connections: {MANY_CONNS} pipelined conns on the reactor --");
    let outcome = many_connections(&specs);
    println!(
        "{MANY_CONNS} conns x {FRAMES_PER_CONN} reqs   {:>10.2?} total   {:>9.0} req/s   {} process threads",
        outcome.elapsed,
        outcome.rps,
        outcome
            .threads
            .map_or_else(|| "n/a".to_string(), |t| t.to_string()),
    );
    if let Some(threads) = outcome.threads {
        assert!(
            threads <= MANY_CONNS_THREAD_CAP,
            "the reactor must serve {MANY_CONNS} connections on a fixed thread budget, \
             but the process ran {threads} threads"
        );
    }
    println!("         every reply frame matched the in-process service byte for byte");

    println!("\n-- observability overhead: detailed metrics on vs off (warm) --");
    let ratios = obs_compare(&specs);
    let overhead = ratios[ratios.len() / 2] - 1.0;
    println!(
        "on/off time ratio over {} rounds: min {:.3}  median {:.3}  max {:.3}   overhead {:+.2}%",
        ratios.len(),
        ratios[0],
        ratios[ratios.len() / 2],
        ratios[ratios.len() - 1],
        overhead * 100.0
    );
    assert!(
        overhead < 0.05,
        "observability must cost < 5% of warm pipelined throughput (measured {:+.2}%)",
        overhead * 100.0
    );

    println!("\n-- zero-serialization hit path: splice on vs off (warm) -------");
    let (spliced, rendered, frames_per_mode) = splice_compare(&specs);
    let spliced_ns = spliced.as_nanos() as f64 / frames_per_mode as f64;
    let rendered_ns = rendered.as_nanos() as f64 / frames_per_mode as f64;
    let speedup = rendered_ns / spliced_ns.max(1e-12);
    println!(
        "splice on {spliced_ns:>8.0} ns/frame   splice off {rendered_ns:>8.0} ns/frame   {speedup:>5.2}x"
    );
    assert!(
        speedup >= 2.0,
        "the spliced hit path must be at least 2x faster than re-serializing \
         every memoized reply (measured {speedup:.2}x)"
    );

    println!("\n-- admission control + snapshot persistence -------------------");
    let clean_sheds = clean_path_sheds(&specs);
    println!("below thresholds: {clean_sheds} frames shed across 3 warm pipelined sweeps");
    assert_eq!(
        clean_sheds, 0,
        "admission must be invisible below its thresholds ({clean_sheds} frames shed)"
    );
    let (shed_p99, probes) = shed_latency();
    println!("shed path: {probes} probe rejections against a pinned pool, p99 {shed_p99:?}");
    assert!(
        shed_p99 < Duration::from_millis(1),
        "a shed reply must not cost a pool slot's worth of latency (p99 {shed_p99:?} >= 1ms)"
    );
    let (restored_hits, swept) = restored_warmth(&specs);
    let ratio = restored_hits as f64 / swept as f64;
    println!(
        "restored warmth: {restored_hits}/{swept} first-pass cache hits after a snapshot restore ({ratio:.2})"
    );
    assert!(
        ratio > 0.9,
        "a restored snapshot must answer the first corpus sweep mostly from cache (hit ratio {ratio:.2})"
    );

    println!("\n(no thread is spawned on any per-request path above: all classification runs on the engines' persistent pools)");
}

/// Experiment 8a: thresholds far above the workload. Warm pipelined corpus
/// sweeps run with every admission signal armed but generous; afterwards
/// the per-kind shed counters must all read zero — admission control may
/// only cost anything when it actually rejects.
fn clean_path_sheds(specs: &[lcl_problem::ProblemSpec]) -> u64 {
    use lcl_server::{AdmissionConfig, RequestKind};

    let service = Arc::new(
        Service::new(Engine::builder().parallelism(4).build()).with_admission(AdmissionConfig {
            shed_queue_depth: 1_000_000,
            shed_p99_micros: 60_000_000,
            quota_rps: 1_000_000,
            quota_burst: 1_000_000,
        }),
    );
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind loopback")
        .start()
        .expect("start server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for _ in 0..3 {
        let outcomes = client
            .classify_many_pipelined(specs, 0)
            .expect("pipelined sweep");
        assert!(outcomes.iter().all(Result::is_ok));
    }
    drop(client);
    handle.shutdown();
    RequestKind::ALL
        .iter()
        .map(|&kind| service.metrics_snapshot().kind(Some(kind)).shed)
        .sum()
}

/// Experiment 8b: shed-path reply latency. The single worker is held by
/// gate jobs blocked on a channel — one running and `SHED_QUEUE_DEPTH`
/// queued — so the pool reads as saturated for exactly as long as the
/// probes take, however fast real work would have drained. A probe
/// connection then times rejected classify round-trips; it has nothing
/// pending, so each rejection's latency is pure shed path: admission check
/// plus a pre-rendered `overloaded` frame. Releasing the gates afterwards
/// drains the pool.
fn shed_latency() -> (Duration, usize) {
    use lcl_problem::json::JsonValue;
    use lcl_problem::{RequestEnvelope, ResponseEnvelope};
    use lcl_server::AdmissionConfig;
    use std::io::{BufRead, BufReader, Write};

    const PROBES: usize = 200;
    const SHED_QUEUE_DEPTH: usize = 2;
    let service = Arc::new(
        Service::new(Engine::builder().parallelism(1).build()).with_admission(AdmissionConfig {
            shed_queue_depth: SHED_QUEUE_DEPTH,
            shed_p99_micros: 0,
            quota_rps: 0,
            quota_burst: 0,
        }),
    );
    // Keep probes on the dispatch path: a cache hit would answer from the
    // splice lane, which bypasses admission by design.
    service.set_reply_splice(false);
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind loopback")
        .start()
        .expect("start server");

    let (gates, finished): (Vec<mpsc::Sender<()>>, Vec<mpsc::Receiver<()>>) = (0
        ..=SHED_QUEUE_DEPTH)
        .map(|_| {
            let (release, hold) = mpsc::channel::<()>();
            let done = service.engine().dispatch(move || {
                let _ = hold.recv(); // returns once the sender drops
            });
            (release, done)
        })
        .unzip();
    // Once the worker has picked up the first gate, the rest stay queued.
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.engine().pool_stats().queue_depth != SHED_QUEUE_DEPTH {
        assert!(Instant::now() < deadline, "the worker never took a gate");
        thread::yield_now();
    }

    let spec = lcl_problems::coloring(3).to_spec();
    let probe_stream = std::net::TcpStream::connect(handle.addr()).expect("connect probe");
    probe_stream.set_nodelay(true).expect("nodelay");
    let mut probe_writer = probe_stream.try_clone().expect("clone probe stream");
    let mut probe_reader = BufReader::new(probe_stream);
    let mut probe_line = RequestEnvelope::new(
        0,
        "classify",
        JsonValue::object([("problem", spec.to_json())]),
    )
    .to_json_string();
    probe_line.push('\n');
    let mut latencies = Vec::with_capacity(PROBES);
    for _ in 0..PROBES {
        let start = Instant::now();
        probe_writer
            .write_all(probe_line.as_bytes())
            .expect("probe send");
        let mut reply = String::new();
        assert!(
            probe_reader.read_line(&mut reply).expect("probe reply") > 0,
            "probe connection closed"
        );
        latencies.push(start.elapsed());
        let error = ResponseEnvelope::from_json_str(reply.trim_end())
            .expect("probe reply parses")
            .result
            .expect_err("probe sheds while the pool is pinned");
        assert_eq!(error.category, "overloaded", "{}", error.message);
        assert_eq!(error.retryable, Some(true));
        assert!(error.retry_after_millis.unwrap_or(0) >= 1);
    }
    drop(gates);
    for done in finished {
        done.recv().expect("gate job finishes once released");
    }
    drop(probe_writer);
    drop(probe_reader);
    handle.shutdown();
    latencies.sort();
    let p99 = latencies[latencies.len() - 1 - latencies.len() / 100];
    (p99, PROBES)
}

/// Experiment 8c: restored warmth. Warm a service over the corpus, write
/// its verdict cache snapshot, restore the file into a fresh service, and
/// sweep the corpus once. Returns `(first-pass cache hits, frames swept)`
/// — the hit ratio must clear 0.9 for the restore to have been worth the
/// disk round-trip.
fn restored_warmth(specs: &[lcl_problem::ProblemSpec]) -> (u64, usize) {
    use lcl_problem::json::JsonValue;
    use lcl_problem::RequestEnvelope;

    let dir = std::env::temp_dir().join(format!("lcl-bench-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create snapshot dir");
    let path = dir.join("warm.snapshot");
    let lines: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let payload = JsonValue::object([("problem", spec.to_json())]);
            RequestEnvelope::new(i as i64, "classify", payload).to_json_string()
        })
        .collect();

    let warm = Service::new(Engine::builder().parallelism(4).build())
        .with_cache_snapshot_path(path.clone());
    for line in &lines {
        assert!(warm.handle_line(line).is_ok(), "warm-up classify succeeds");
    }
    warm.write_cache_snapshot()
        .expect("snapshot path configured")
        .expect("snapshot writes");

    let restored =
        Service::new(Engine::builder().parallelism(4).build()).with_cache_snapshot_path(path);
    restored
        .restore_cache_snapshot()
        .expect("snapshot file present")
        .expect("snapshot restores");
    let before = restored.engine().cache_stats();
    for line in &lines {
        assert!(
            restored.handle_line(line).is_ok(),
            "restored classify succeeds"
        );
    }
    let hits = restored.engine().cache_stats().hits - before.hits;
    let _ = std::fs::remove_dir_all(&dir);
    (hits, lines.len())
}

/// Experiment 6: warm pipelined corpus sweeps with the observability layer
/// (histograms + stage traces) enabled vs replaced by the no-op recorder,
/// returning the per-round detailed/no-op time ratios, sorted.
///
/// Both modes run on the *same* server and connection, back to back in
/// every round (`set_detailed` is a live toggle), so frequency scaling or
/// noisy neighbors degrade both sides of a round alike; the median ratio
/// then discards the rounds a burst of noise landed on one side of.
fn obs_compare(specs: &[lcl_problem::ProblemSpec]) -> Vec<f64> {
    const OBS_SWEEPS: usize = 20;
    const OBS_ROUNDS: usize = 9;
    let service = Arc::new(Service::new(Engine::builder().parallelism(4).build()));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let handle = server.start().expect("start server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let sweep = |client: &mut Client| {
        let outcomes = client
            .classify_many_pipelined(specs, 0)
            .expect("pipelined sweep");
        assert!(outcomes.iter().all(Result::is_ok));
    };
    sweep(&mut client); // warm the cache and the connection
    let mut ratios = Vec::with_capacity(OBS_ROUNDS);
    for _ in 0..OBS_ROUNDS {
        let mut elapsed = [Duration::ZERO; 2];
        for (mode, detailed) in [(0, true), (1, false)] {
            service.metrics().set_detailed(detailed);
            sweep(&mut client); // settle: drain requests dispatched pre-toggle
            let start = Instant::now();
            for _ in 0..OBS_SWEEPS {
                sweep(&mut client);
            }
            elapsed[mode] = start.elapsed();
        }
        ratios.push(elapsed[0].as_secs_f64() / elapsed[1].as_secs_f64().max(1e-12));
    }
    drop(client);
    handle.shutdown();
    ratios.sort_by(f64::total_cmp);
    ratios
}

/// Experiment 7: warm corpus sweeps through the stdio front-end with the
/// reply-bytes splice lane on vs off, returning `(spliced, rendered,
/// frames per timed mode)` with the fastest batch per mode.
///
/// The stdio front-end isolates the hit path: no sockets, no pipelining —
/// each frame is dispatched and its reply written before the next is read,
/// so the spliced mode costs the calling thread's cache probe + id-splice
/// and the off mode a pool job's parse + memoized lookup + serialization. Both modes run on the *same*
/// service (the cache stays warm and `set_reply_splice` toggles live),
/// interleaved every round like experiment 6 so noise lands on both sides.
/// Every reply line of the two modes is asserted byte-identical, and the
/// counters must show the fast lane actually engaged.
fn splice_compare(specs: &[lcl_problem::ProblemSpec]) -> (Duration, Duration, usize) {
    use lcl_problem::json::JsonValue;
    use lcl_problem::RequestEnvelope;
    use lcl_server::serve_stdio;

    const SPLICE_SWEEPS: usize = 30;
    const SPLICE_ROUNDS: usize = 8;
    let service = Arc::new(Service::new(Engine::builder().parallelism(1).build()));
    let input: String = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let payload = JsonValue::object([("problem", spec.to_json())]);
            RequestEnvelope::new(i as i64, "classify", payload).to_json_string() + "\n"
        })
        .collect();
    let sweep = |service: &Arc<Service>| -> Vec<u8> {
        let mut output = Vec::with_capacity(64 * 1024);
        serve_stdio(service, input.as_bytes(), &mut output).expect("stdio sweep");
        output
    };

    // Warm the verdict cache on the baseline path, then pin each mode's
    // reply bytes for the identity check.
    service.set_reply_splice(false);
    let rendered_replies = sweep(&service);
    service.set_reply_splice(true);
    sweep(&service); // attaches the cached reply bytes (bytes misses)
    let spliced_replies = sweep(&service); // pure bytes hits
    assert_eq!(
        spliced_replies, rendered_replies,
        "spliced replies must be byte-identical to freshly serialized ones"
    );
    assert!(service.metrics().spliced_frames() >= 2 * specs.len() as u64);
    assert!(service.engine().cache_stats().bytes_hits >= specs.len() as u64);

    let mut fastest = [Duration::MAX; 2];
    for _ in 0..SPLICE_ROUNDS {
        for (mode, splice) in [(0, true), (1, false)] {
            service.set_reply_splice(splice);
            let start = Instant::now();
            for _ in 0..SPLICE_SWEEPS {
                let output = sweep(&service);
                assert_eq!(output.len(), rendered_replies.len());
            }
            fastest[mode] = fastest[mode].min(start.elapsed());
        }
    }
    (fastest[0], fastest[1], SPLICE_SWEEPS * specs.len())
}

/// Experiment 5 configuration: how many simultaneously open connections,
/// and how many pipelined classify requests each sends.
const MANY_CONNS: usize = 512;
const FRAMES_PER_CONN: usize = 8;
/// Most process threads experiment 5 may run with every connection open:
/// the bench's main thread, the reactor and the 4 pool workers, plus
/// slack, and far below one thread per connection.
const MANY_CONNS_THREAD_CAP: usize = 32;

struct ManyConnOutcome {
    elapsed: Duration,
    rps: f64,
    /// Process thread count sampled while all connections were open.
    threads: Option<usize>,
}

/// Opens [`MANY_CONNS`] connections against a server, floods
/// [`FRAMES_PER_CONN`] pipelined classify frames down each, then drains
/// every reply and checks it against the in-process service's bytes.
fn many_connections(specs: &[lcl_problem::ProblemSpec]) -> ManyConnOutcome {
    use lcl_problem::json::JsonValue;
    use lcl_problem::RequestEnvelope;

    let service = Arc::new(Service::new(Engine::builder().parallelism(4).build()));
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind loopback")
        .start()
        .expect("start server");
    let addr = handle.addr();

    // Warm the cache so the run measures the connection machinery, not
    // first-time classification.
    let mut warm = Client::connect(addr).expect("connect warm-up");
    for spec in specs {
        warm.classify(spec).expect("warm-up classify");
    }
    drop(warm);

    let mut conns: Vec<Client> = (0..MANY_CONNS)
        .map(|i| Client::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}")))
        .collect();
    // The reactor accounts connections asynchronously; sample the thread
    // count only once every connection is actually being served.
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.metrics_snapshot().connections_open < MANY_CONNS as u64 {
        assert!(Instant::now() < deadline, "connections never all opened");
        thread::yield_now();
    }
    let threads = process_threads();

    // Serialize all request frames up front, so the timed section is wire +
    // dispatch + pool + write.
    let frames: Vec<Vec<String>> = (0..MANY_CONNS)
        .map(|i| {
            (0..FRAMES_PER_CONN)
                .map(|j| {
                    let slot = i * FRAMES_PER_CONN + j;
                    let spec = &specs[slot % specs.len()];
                    let payload = JsonValue::object([("problem", spec.to_json())]);
                    RequestEnvelope::new(slot as i64, "classify", payload).to_json_string()
                })
                .collect()
        })
        .collect();

    let start = Instant::now();
    for (conn, conn_frames) in conns.iter_mut().zip(&frames) {
        for frame in conn_frames {
            conn.send_frame(frame).expect("send frame");
        }
    }
    let mut replies: Vec<String> = Vec::with_capacity(MANY_CONNS * FRAMES_PER_CONN);
    for conn in &mut conns {
        for _ in 0..FRAMES_PER_CONN {
            replies.push(conn.recv_frame().expect("reply arrives"));
        }
    }
    let elapsed = start.elapsed();
    let rps = (MANY_CONNS * FRAMES_PER_CONN) as f64 / elapsed.as_secs_f64().max(1e-12);

    drop(conns);
    handle.shutdown();
    // Ids echo in request order and every frame is the in-process reply.
    let in_process = Service::new(Engine::builder().parallelism(1).build());
    for (reply, frame) in replies.iter().zip(frames.iter().flatten()) {
        assert_eq!(
            *reply,
            in_process.handle_line(frame).into_json_string(),
            "reply frame differs from the in-process service"
        );
    }
    ManyConnOutcome {
        elapsed,
        rps,
        threads,
    }
}

/// The current process's thread count from `/proc/self/status` (Linux; the
/// experiment prints `n/a` elsewhere).
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|value| value.trim().parse().ok())
}

/// Measures the host's single-connection ceiling with a trivial line-echo
/// server: requests/sec for 230-byte lines, lock-step and with a 32-deep
/// window. No parsing, no classification — any gap between these two
/// numbers is pure wire/scheduling behavior, the upper bound on what
/// pipelining a *real* server can gain on this host.
fn wire_ceiling() -> (f64, f64) {
    use std::io::{BufRead, BufReader, BufWriter, Write};
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
    let addr = listener.local_addr().expect("echo addr");
    let echo = thread::spawn(move || {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        let _ = stream.set_nodelay(true);
        let Ok(writer) = stream.try_clone() else {
            return;
        };
        let mut writer = BufWriter::new(writer);
        let reader = BufReader::new(stream);
        for line in reader.split(b'\n') {
            let Ok(line) = line else { break };
            if writer
                .write_all(&line)
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush())
                .is_err()
            {
                break;
            }
        }
    });

    let stream = TcpStream::connect(addr).expect("connect echo");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone echo stream");
    let mut reader = BufReader::new(stream);
    let frame = [b'x'; 230];
    let mut line = Vec::new();
    let mut read_reply = |reader: &mut BufReader<TcpStream>| {
        line.clear();
        reader.read_until(b'\n', &mut line).expect("echo reply")
    };
    const N: usize = 20_000;

    let start = Instant::now();
    for _ in 0..N {
        writer.write_all(&frame).expect("echo send");
        writer.write_all(b"\n").expect("echo send");
        read_reply(&mut reader);
    }
    let lockstep = N as f64 / start.elapsed().as_secs_f64().max(1e-12);

    let start = Instant::now();
    let (mut sent, mut received) = (0usize, 0usize);
    while received < N {
        while sent < N && sent - received < 32 {
            writer.write_all(&frame).expect("echo send");
            writer.write_all(b"\n").expect("echo send");
            sent += 1;
        }
        read_reply(&mut reader);
        received += 1;
    }
    let pipelined = N as f64 / start.elapsed().as_secs_f64().max(1e-12);

    drop(writer);
    drop(reader); // closes the socket; the echo thread sees EOF
    let _ = echo.join();
    (lockstep, pipelined)
}

fn measure(mut run: impl FnMut()) -> Duration {
    // One untimed warm-up repetition.
    run();
    let start = Instant::now();
    for _ in 0..REPS {
        run();
    }
    start.elapsed() / REPS as u32
}

fn compare(workers: usize, what: &str, scoped: Duration, pooled: Duration) {
    let speedup = scoped.as_secs_f64() / pooled.as_secs_f64().max(1e-12);
    let verdict = if speedup >= 1.0 {
        "pool wins"
    } else {
        "scoped wins"
    };
    println!(
        "{workers} worker(s), {what:<24} scoped {scoped:>10.2?}   pool {pooled:>10.2?}   {speedup:>5.2}x ({verdict})"
    );
}
