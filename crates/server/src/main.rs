//! `lcl-serve` — serve the LCL classification engine over TCP or stdio.
//!
//! ```text
//! lcl-serve --addr 127.0.0.1:7171            # NDJSON over TCP
//! echo '{"v":1,"id":1,"kind":"health"}' | lcl-serve --stdio
//! lcl-serve --smoke                          # self-check: serve + round-trip
//! ```

use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::RequestEnvelope;
use lcl_paths::{problems, Engine};
use lcl_server::{
    serve_stdio, validate_exposition, AdmissionConfig, Client, MetricsListener, Server, Service,
    MAX_FRAME_BYTES,
};
use std::io::{stdin, stdout, Read, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// The smallest accepted `--max-chunk-bytes`; below this the chunk framing
/// overhead dominates the payload (the service clamps to the same floor).
const MIN_CHUNK_BYTES: usize = 1024;

const USAGE: &str = "\
lcl-serve: serve the LCL classification engine over NDJSON

USAGE:
    lcl-serve --addr HOST:PORT [OPTIONS]   serve over TCP (foreground)
    lcl-serve --stdio [OPTIONS]            serve stdin/stdout until EOF
    lcl-serve --smoke [OPTIONS]            start on a loopback port, drive one
                                           classify and one health round-trip
                                           through the client, then exit

OPTIONS:
    --workers N           persistent pool workers (default: available cores)
    --cache-capacity N    memo cache bound in entries: one LRU under one
                          lock (default: 4096)
    --cache-weight-bytes N
                          bound the memo cache by approximate resident
                          bytes instead, priced per entry by result size;
                          replaces the --cache-capacity bound (default:
                          unset — count-bound only)
    --max-chunk-bytes N   ceiling on one serialized solve_stream chunk
                          frame; clamped to 1024..=1048576
                          (default: 262144)
    --max-inflight N      per-connection pipelined request window for TCP
                          connections (default: 32; 1 = lock-step)
    --max-conns N         cap on simultaneously served TCP connections;
                          the excess is closed at accept (default: unbounded)
    --metrics-addr HOST:PORT
                          also serve a pull-style plaintext metrics
                          exposition over HTTP at /metrics (Prometheus text
                          format; port 0 picks an ephemeral port). The same
                          document is always available in-protocol via the
                          `metrics` request kind.
    --trace-slow-micros N
                          emit one structured NDJSON line to stderr for
                          every request whose end-to-end latency reaches N
                          microseconds (per-stage breakdown, cache hit/miss,
                          problem hash; default: disabled)
    --shed-queue-depth N  shed compute requests (structured `overloaded`
                          reply with a retry hint, no pool slot taken) while
                          the worker pool backlog is at least N jobs
                          (default: disabled)
    --shed-p99-micros N   shed compute requests while the request kind's
                          p99 latency exceeds N microseconds
                          (default: disabled)
    --quota-rps N         per-client token-bucket quota: sustained requests
                          per second per peer IP; rejected frames get the
                          same `overloaded` reply (default: disabled)
    --quota-burst N       per-client burst allowance on top of --quota-rps
                          (default: the --quota-rps value)
    --cache-snapshot PATH persist the warm memo cache: restored (checksum-
                          verified, never fatal) at startup, written on
                          graceful shutdown and on the `snapshot` request
                          kind (default: disabled)
    --help                print this help
";

#[derive(Debug, Default)]
struct Options {
    addr: Option<String>,
    stdio: bool,
    smoke: bool,
    workers: Option<usize>,
    cache_capacity: Option<usize>,
    cache_weight_bytes: Option<u64>,
    max_chunk_bytes: Option<usize>,
    max_inflight: Option<usize>,
    max_conns: Option<usize>,
    metrics_addr: Option<String>,
    trace_slow_micros: Option<u64>,
    shed_queue_depth: Option<usize>,
    shed_p99_micros: Option<u64>,
    quota_rps: Option<u64>,
    quota_burst: Option<u64>,
    cache_snapshot: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => {
                let value = iter.next().ok_or("--addr requires HOST:PORT")?;
                options.addr = Some(value.clone());
            }
            "--stdio" => options.stdio = true,
            "--smoke" => options.smoke = true,
            "--workers" => {
                let value = iter.next().ok_or("--workers requires a count")?;
                let parsed: usize = value
                    .parse()
                    .map_err(|_| format!("invalid --workers value `{value}`"))?;
                if parsed == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
                options.workers = Some(parsed);
            }
            "--cache-capacity" => {
                let value = iter.next().ok_or("--cache-capacity requires a count")?;
                let parsed: usize = value
                    .parse()
                    .map_err(|_| format!("invalid --cache-capacity value `{value}`"))?;
                if parsed == 0 {
                    return Err("--cache-capacity must be at least 1".to_string());
                }
                options.cache_capacity = Some(parsed);
            }
            "--cache-weight-bytes" => {
                let value = iter
                    .next()
                    .ok_or("--cache-weight-bytes requires a byte count")?;
                let parsed: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid --cache-weight-bytes value `{value}`"))?;
                if parsed == 0 {
                    return Err("--cache-weight-bytes must be at least 1".to_string());
                }
                options.cache_weight_bytes = Some(parsed);
            }
            "--max-chunk-bytes" => {
                let value = iter
                    .next()
                    .ok_or("--max-chunk-bytes requires a byte count")?;
                let parsed: usize = value
                    .parse()
                    .map_err(|_| format!("invalid --max-chunk-bytes value `{value}`"))?;
                if !(MIN_CHUNK_BYTES..=MAX_FRAME_BYTES).contains(&parsed) {
                    return Err(format!(
                        "--max-chunk-bytes must be in {MIN_CHUNK_BYTES}..={MAX_FRAME_BYTES}, \
                         got {parsed}"
                    ));
                }
                options.max_chunk_bytes = Some(parsed);
            }
            "--max-inflight" => {
                let value = iter.next().ok_or("--max-inflight requires a count")?;
                let parsed: usize = value
                    .parse()
                    .map_err(|_| format!("invalid --max-inflight value `{value}`"))?;
                if parsed == 0 {
                    return Err("--max-inflight must be at least 1".to_string());
                }
                options.max_inflight = Some(parsed);
            }
            "--max-conns" => {
                let value = iter.next().ok_or("--max-conns requires a count")?;
                let parsed: usize = value
                    .parse()
                    .map_err(|_| format!("invalid --max-conns value `{value}`"))?;
                if parsed == 0 {
                    return Err("--max-conns must be at least 1".to_string());
                }
                options.max_conns = Some(parsed);
            }
            "--metrics-addr" => {
                let value = iter.next().ok_or("--metrics-addr requires HOST:PORT")?;
                options.metrics_addr = Some(value.clone());
            }
            "--trace-slow-micros" => {
                let value = iter
                    .next()
                    .ok_or("--trace-slow-micros requires a microsecond count")?;
                let parsed: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid --trace-slow-micros value `{value}`"))?;
                if parsed == 0 {
                    return Err("--trace-slow-micros must be at least 1".to_string());
                }
                options.trace_slow_micros = Some(parsed);
            }
            "--shed-queue-depth" => {
                let value = iter.next().ok_or("--shed-queue-depth requires a count")?;
                let parsed: usize = value
                    .parse()
                    .map_err(|_| format!("invalid --shed-queue-depth value `{value}`"))?;
                if parsed == 0 {
                    return Err("--shed-queue-depth must be at least 1".to_string());
                }
                options.shed_queue_depth = Some(parsed);
            }
            "--shed-p99-micros" => {
                let value = iter
                    .next()
                    .ok_or("--shed-p99-micros requires a microsecond count")?;
                let parsed: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid --shed-p99-micros value `{value}`"))?;
                if parsed == 0 {
                    return Err("--shed-p99-micros must be at least 1".to_string());
                }
                options.shed_p99_micros = Some(parsed);
            }
            "--quota-rps" => {
                let value = iter.next().ok_or("--quota-rps requires a count")?;
                let parsed: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid --quota-rps value `{value}`"))?;
                if parsed == 0 {
                    return Err("--quota-rps must be at least 1".to_string());
                }
                options.quota_rps = Some(parsed);
            }
            "--quota-burst" => {
                let value = iter.next().ok_or("--quota-burst requires a count")?;
                let parsed: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid --quota-burst value `{value}`"))?;
                if parsed == 0 {
                    return Err("--quota-burst must be at least 1".to_string());
                }
                options.quota_burst = Some(parsed);
            }
            "--cache-snapshot" => {
                let value = iter.next().ok_or("--cache-snapshot requires a PATH")?;
                if value.is_empty() {
                    return Err("--cache-snapshot requires a non-empty PATH".to_string());
                }
                options.cache_snapshot = Some(PathBuf::from(value));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let modes = usize::from(options.addr.is_some())
        + usize::from(options.stdio)
        + usize::from(options.smoke);
    if modes != 1 {
        return Err("exactly one of --addr, --stdio or --smoke is required".to_string());
    }
    if options.quota_burst.is_some() && options.quota_rps.is_none() {
        return Err("--quota-burst requires --quota-rps".to_string());
    }
    Ok(options)
}

fn build_service(options: &Options) -> Arc<Service> {
    let mut builder = Engine::builder();
    if let Some(workers) = options.workers {
        builder = builder.parallelism(workers);
    }
    if let Some(capacity) = options.cache_capacity {
        builder = builder.cache_capacity(capacity);
    }
    if let Some(weight) = options.cache_weight_bytes {
        builder = builder.cache_weight_capacity(weight);
    }
    let mut service = Service::new(builder.build());
    if let Some(bytes) = options.max_chunk_bytes {
        service = service.with_max_chunk_bytes(bytes);
    }
    service = service.with_admission(AdmissionConfig {
        shed_p99_micros: options.shed_p99_micros.unwrap_or(0),
        shed_queue_depth: options.shed_queue_depth.unwrap_or(0),
        quota_rps: options.quota_rps.unwrap_or(0),
        quota_burst: options.quota_burst.unwrap_or(0),
    });
    if let Some(path) = &options.cache_snapshot {
        service = service.with_cache_snapshot_path(path.clone());
    }
    service
        .trace_sink()
        .set_slow_micros(options.trace_slow_micros);
    Arc::new(service)
}

/// Restores the warm-cache snapshot at startup when `--cache-snapshot` is
/// configured and the file exists. Never fatal: a corrupt, truncated or
/// version-skewed snapshot is logged and ignored — the server starts cold.
fn restore_snapshot_logged(service: &Arc<Service>) {
    match service.restore_cache_snapshot() {
        None => {}
        Some(Ok(summary)) => eprintln!("lcl-serve {summary}"),
        Some(Err(message)) => eprintln!("lcl-serve {message}"),
    }
}

/// Writes the warm-cache snapshot on graceful shutdown when
/// `--cache-snapshot` is configured. A write failure is logged, not fatal —
/// the serve already completed.
fn write_snapshot_logged(service: &Arc<Service>) {
    match service.write_cache_snapshot() {
        None => {}
        Some(Ok(summary)) => eprintln!("lcl-serve {summary}"),
        Some(Err(e)) => eprintln!("lcl-serve cache snapshot write failed: {e}"),
    }
}

/// Binds the `--metrics-addr` HTTP scrape endpoint when requested; the
/// returned listener serves until dropped.
fn bind_metrics(
    service: &Arc<Service>,
    options: &Options,
) -> Result<Option<MetricsListener>, String> {
    match &options.metrics_addr {
        None => Ok(None),
        Some(addr) => {
            let listener = MetricsListener::bind(Arc::clone(service), addr)
                .map_err(|e| format!("bind metrics {addr}: {e}"))?;
            eprintln!("lcl-serve metrics on http://{}/metrics", listener.addr());
            Ok(Some(listener))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            if message.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let service = build_service(&options);

    let outcome = if options.smoke {
        run_smoke(service, &options)
    } else if options.stdio {
        run_stdio(&service, &options)
    } else {
        run_tcp(
            service,
            options.addr.as_deref().unwrap_or_default(),
            &options,
        )
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Applies the shared TCP options (window, connection cap) to a bound
/// server.
fn configure(mut server: Server, options: &Options) -> Server {
    if let Some(window) = options.max_inflight {
        server = server.max_inflight(window);
    }
    if let Some(cap) = options.max_conns {
        server = server.max_conns(cap);
    }
    server
}

fn run_tcp(service: Arc<Service>, addr: &str, options: &Options) -> Result<(), String> {
    let _metrics = bind_metrics(&service, options)?;
    restore_snapshot_logged(&service);
    let server =
        Server::bind(Arc::clone(&service), addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let server = configure(server, options);
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!("lcl-serve listening on {bound}");
    server.run().map_err(|e| format!("serve {bound}: {e}"))?;
    write_snapshot_logged(&service);
    Ok(())
}

fn run_stdio(service: &Arc<Service>, options: &Options) -> Result<(), String> {
    let _metrics = bind_metrics(service, options)?;
    restore_snapshot_logged(service);
    serve_stdio(service, stdin().lock(), stdout().lock()).map_err(|e| e.to_string())?;
    write_snapshot_logged(service);
    // One summary line on exit; CacheStats and PoolStats do the formatting.
    eprintln!(
        "lcl-serve stdio session done: {}; {}",
        service.engine().cache_stats(),
        service.engine().pool_stats()
    );
    Ok(())
}

/// The CI smoke mode: start on an ephemeral loopback port, drive a
/// `classify` round-trip, a pipelined burst, `generate`, `solve_stream`,
/// `health` and both metrics surfaces through the client helper, verify
/// them and shut down gracefully; then run the admission leg.
fn run_smoke(service: Arc<Service>, options: &Options) -> Result<(), String> {
    smoke_tcp(service, options)?;
    smoke_admission()
}

/// Admission + persistence smoke: a warm-cache snapshot written over the
/// wire round-trips into a fresh engine, and a tightly quota'd server sheds
/// a flood with structured retryable `overloaded` replies, then recovers.
fn smoke_admission() -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("lcl-serve-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("smoke temp dir: {e}"))?;
    let path = dir.join("cache.snapshot");
    let result = (|| -> Result<(), String> {
        // Snapshot leg: warm one entry, write through the `snapshot` kind,
        // restore into a fresh engine and verify the verdict comes from the
        // restored cache.
        let warm = Arc::new(
            Service::new(Engine::builder().parallelism(2).build())
                .with_cache_snapshot_path(path.clone()),
        );
        let handle = Server::bind(Arc::clone(&warm), "127.0.0.1:0")
            .map_err(|e| format!("bind loopback: {e}"))?
            .start()
            .map_err(|e| format!("start snapshot server: {e}"))?;
        let spec = problems::coloring(3).to_spec();
        let snapshot_outcome = (|| -> Result<(), String> {
            let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
            let verdict = client
                .classify(&spec)
                .map_err(|e| format!("warm classify: {e}"))?;
            let written = client
                .call("snapshot", JsonValue::object([]))
                .map_err(|e| format!("snapshot request: {e}"))?;
            let entries = written
                .require("entries")
                .and_then(|v| v.as_int())
                .map_err(|e| format!("malformed snapshot payload: {e}"))?;
            if entries != 1 {
                return Err(format!("snapshot wrote {entries} entries, expected 1"));
            }
            let restored = Service::new(Engine::builder().parallelism(2).build())
                .with_cache_snapshot_path(path.clone());
            match restored.restore_cache_snapshot() {
                Some(Ok(_)) => {}
                other => return Err(format!("snapshot restore failed: {other:?}")),
            }
            let hits_before = restored.engine().cache_stats().hits;
            let reply = restored.handle_line(
                &RequestEnvelope::new(1, "classify", spec_payload(&spec)).to_json_string(),
            );
            if !reply.is_ok() {
                return Err("restored engine failed to classify".to_string());
            }
            if restored.engine().cache_stats().hits != hits_before + 1 {
                return Err("restored engine missed the snapshotted entry".to_string());
            }
            let _ = verdict;
            Ok(())
        })();
        handle.shutdown();
        snapshot_outcome?;

        // Overload leg: quota one request/s with burst 2, flood 12 distinct
        // problems down one connection, expect structured sheds and a
        // healthy server afterwards.
        let quota = Arc::new(
            Service::new(Engine::builder().parallelism(2).build()).with_admission(
                AdmissionConfig {
                    quota_rps: 1,
                    quota_burst: 2,
                    ..AdmissionConfig::default()
                },
            ),
        );
        let handle = Server::bind(Arc::clone(&quota), "127.0.0.1:0")
            .map_err(|e| format!("bind loopback: {e}"))?
            .start()
            .map_err(|e| format!("start quota server: {e}"))?;
        let flood_outcome = (|| -> Result<(), String> {
            let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
            let count = 12usize;
            for i in 0..count {
                let spec = problems::coloring(2 + i).to_spec();
                let line = RequestEnvelope::new(i as i64, "classify", spec_payload(&spec))
                    .to_json_string();
                client
                    .send_frame(&line)
                    .map_err(|e| format!("flood send: {e}"))?;
            }
            let mut shed = 0usize;
            for _ in 0..count {
                let line = client
                    .recv_frame()
                    .map_err(|e| format!("flood recv: {e}"))?;
                let reply = lcl_paths::problem::ResponseEnvelope::from_json_str(&line)
                    .map_err(|e| format!("flood reply parse: {e}"))?;
                if let Err(error) = &reply.result {
                    if error.category != "overloaded" || error.retryable != Some(true) {
                        return Err(format!(
                            "flood produced a non-overloaded error: {} {}",
                            error.category, error.message
                        ));
                    }
                    shed += 1;
                }
            }
            if shed == 0 {
                return Err("flood past the quota shed nothing".to_string());
            }
            // Control kinds stay reachable, and the shed counter is on the
            // exposition — the overloaded server remains observable.
            let exposition = client
                .metrics()
                .map_err(|e| format!("metrics during overload: {e}"))?;
            if !exposition.contains("lcl_shed_total{kind=\"classify\"}") {
                return Err("exposition is missing the shed counter".to_string());
            }
            println!(
                "smoke ok (admission): {shed}/{count} flood frames shed, snapshot round-trip 1 entry"
            );
            Ok(())
        })();
        handle.shutdown();
        flood_outcome
    })();
    std::fs::remove_dir_all(&dir).ok();
    result
}

/// Wraps a problem spec as a `classify` payload.
fn spec_payload(spec: &lcl_paths::problem::ProblemSpec) -> JsonValue {
    JsonValue::object([("problem", spec.to_json())])
}

fn smoke_tcp(service: Arc<Service>, options: &Options) -> Result<(), String> {
    let scrape_service = Arc::clone(&service);
    let server = Server::bind(service, "127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    let handle = configure(server, options)
        .start()
        .map_err(|e| format!("start server: {e}"))?;
    let addr = handle.addr();

    let result = (|| -> Result<(), String> {
        let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let problem = problems::coloring(3);
        let verdict = client
            .classify(&problem.to_spec())
            .map_err(|e| format!("classify round-trip: {e}"))?;
        if verdict.complexity.wire_name() != "log-star" {
            return Err(format!(
                "unexpected verdict for 3-coloring: {}",
                verdict.complexity
            ));
        }
        // A pipelined burst over the same connection: several requests in
        // flight at once, replies required in request order.
        let specs: Vec<_> = (2..=5).map(|k| problems::coloring(k).to_spec()).collect();
        let outcomes = client
            .classify_many_pipelined(&specs, 0)
            .map_err(|e| format!("pipelined burst: {e}"))?;
        if outcomes.len() != specs.len() || outcomes.iter().any(Result::is_err) {
            return Err(format!("pipelined burst returned {outcomes:?}"));
        }
        // The generator round-trip: the served spec must hash identically
        // to a local regeneration from the same seed.
        let config = lcl_paths::gen::GenConfig::new(11).family(lcl_paths::gen::Family::Solvable);
        let (generated, hash) = client
            .generate(&config)
            .map_err(|e| format!("generate round-trip: {e}"))?;
        let local =
            lcl_paths::gen::generate(&config).map_err(|e| format!("local generation: {e}"))?;
        if hash != format!("{:016x}", local.canonical_hash()) {
            return Err(format!("generate hash mismatch: served {hash}"));
        }
        let _ = generated;
        // A streamed solve: chunked labeling of a cycle, verified by the
        // client's ordering checks plus a local color-validity scan. The
        // LogStar algorithm costs ~0.5 ms/node, so the smoke stays short;
        // the solve_stream bench covers the million-node case.
        let instance = lcl_paths::problem::StreamInstanceSpec {
            topology: lcl_paths::problem::Topology::Cycle,
            length: 2_000,
            inputs: lcl_paths::problem::StreamInputs::Uniform { label: 0 },
        };
        let mut labels: Vec<u16> = Vec::new();
        let summary = client
            .solve_stream(&problem.to_spec(), &instance, |_, outputs| {
                labels.extend_from_slice(outputs);
            })
            .map_err(|e| format!("solve_stream round-trip: {e}"))?;
        if summary.nodes != instance.length || labels.len() as u64 != instance.length {
            return Err(format!(
                "solve_stream delivered {} of {} labels",
                labels.len(),
                instance.length
            ));
        }
        if (0..labels.len()).any(|i| labels[i] == labels[(i + 1) % labels.len()]) {
            return Err("solve_stream labeling is invalid".to_string());
        }
        let health = client
            .health()
            .map_err(|e| format!("health round-trip: {e}"))?;
        let status = health
            .require("status")
            .and_then(|v| v.as_str().map(str::to_string))
            .map_err(|e| format!("malformed health payload: {e}"))?;
        if status != "ok" {
            return Err(format!("unexpected health status `{status}`"));
        }
        // The observability surface, both ways in: the in-protocol
        // `metrics` kind and an HTTP scrape of an ephemeral listener must
        // each produce a well-formed exposition that reflects this run.
        let exposition = client
            .metrics()
            .map_err(|e| format!("metrics round-trip: {e}"))?;
        validate_exposition(&exposition)
            .map_err(|e| format!("malformed protocol exposition: {e}"))?;
        if !exposition.contains("lcl_requests_total{kind=\"classify\"}") {
            return Err("exposition is missing the classify counter".to_string());
        }
        let scraped = {
            let mut listener = MetricsListener::bind(Arc::clone(&scrape_service), "127.0.0.1:0")
                .map_err(|e| format!("bind scrape listener: {e}"))?;
            let body =
                http_get(listener.addr(), "/metrics").map_err(|e| format!("HTTP scrape: {e}"))?;
            listener.shutdown();
            body
        };
        validate_exposition(&scraped).map_err(|e| format!("malformed scraped exposition: {e}"))?;
        println!("smoke ok @ {addr}: {verdict}");
        Ok(())
    })();
    handle.shutdown();
    result
}

/// A one-shot `GET` against the scrape endpoint, returning the body. The
/// smoke check uses a raw socket deliberately — it validates the listener's
/// actual HTTP framing, not a client library's tolerance of it.
fn http_get(addr: std::net::SocketAddr, path: &str) -> Result<String, String> {
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: lcl\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send request: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read response: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or("response has no header/body separator")?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "expected 200, got: {}",
            head.lines().next().unwrap_or("")
        ));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn zero_valued_flags_are_rejected_at_parse_time() {
        for flag in [
            "--workers",
            "--cache-capacity",
            "--cache-weight-bytes",
            "--max-inflight",
            "--max-conns",
            "--trace-slow-micros",
            "--shed-queue-depth",
            "--shed-p99-micros",
            "--quota-rps",
            "--quota-burst",
        ] {
            let error = parse(&["--stdio", flag, "0"]).expect_err(flag);
            assert!(
                error.contains(flag) && error.contains("at least 1"),
                "{flag}: {error}"
            );
        }
    }

    #[test]
    fn max_chunk_bytes_is_bounded_at_parse_time() {
        // In-range values parse, including both boundaries.
        for ok in ["1024", "262144", "1048576"] {
            let options = parse(&["--stdio", "--max-chunk-bytes", ok]).expect(ok);
            assert_eq!(options.max_chunk_bytes, Some(ok.parse().unwrap()));
        }
        // Out-of-range values are rejected with the range in the message,
        // not silently clamped by the service.
        for bad in ["0", "1023", "1048577", "not-a-number"] {
            let error = parse(&["--stdio", "--max-chunk-bytes", bad]).expect_err(bad);
            assert!(error.contains("--max-chunk-bytes"), "{bad}: {error}");
        }
    }

    #[test]
    fn admission_flags_parse_and_validate() {
        let options = parse(&[
            "--stdio",
            "--shed-queue-depth",
            "64",
            "--shed-p99-micros",
            "5000",
            "--quota-rps",
            "100",
            "--quota-burst",
            "200",
            "--cache-snapshot",
            "/tmp/cache.snap",
        ])
        .expect("full admission flag set parses");
        assert_eq!(options.shed_queue_depth, Some(64));
        assert_eq!(options.shed_p99_micros, Some(5_000));
        assert_eq!(options.quota_rps, Some(100));
        assert_eq!(options.quota_burst, Some(200));
        assert_eq!(
            options.cache_snapshot,
            Some(PathBuf::from("/tmp/cache.snap"))
        );

        // Burst without a sustained rate is meaningless.
        let error = parse(&["--stdio", "--quota-burst", "5"]).expect_err("burst alone");
        assert!(error.contains("--quota-rps"), "{error}");

        // Missing or empty values are rejected.
        assert!(parse(&["--stdio", "--cache-snapshot", ""]).is_err());
        assert!(parse(&["--stdio", "--quota-rps"]).is_err());
    }

    #[test]
    fn removed_cache_shards_flag_is_a_usage_error() {
        let error = parse(&["--stdio", "--cache-shards", "2"]).expect_err("no such flag");
        assert!(
            error.contains("unknown argument `--cache-shards`"),
            "{error}"
        );
    }

    #[test]
    fn exactly_one_mode_is_required() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--stdio", "--smoke"]).is_err());
        assert!(parse(&["--addr", "127.0.0.1:0", "--stdio"]).is_err());
        assert!(parse(&["--stdio"]).is_ok());
    }
}
