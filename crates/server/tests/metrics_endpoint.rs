//! Observability integration tests: the `metrics` request kind, the HTTP
//! scrape listener, the latency histograms and the stage-trace slow log,
//! driven end-to-end through every front-end (the TCP reactor and stdio).

use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::{
    Instance, RequestEnvelope, ResponseEnvelope, StreamInputs, StreamInstanceSpec, Topology,
};
use lcl_paths::{problems, Engine};
use lcl_server::{
    serve_stdio, validate_exposition, AdmissionConfig, Client, MetricsListener, Server, Service,
    TraceSink, MAX_FRAME_BYTES,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

/// A fresh service with a pinned, platform-independent configuration so
/// two runs produce comparable counter state.
fn service() -> Arc<Service> {
    Arc::new(Service::new(Engine::builder().parallelism(2).build()))
}

/// Drives the same small workload through one connection: three classifies
/// (one repeated, so the cache hits), a solve, a streamed solve and a
/// health probe.
fn drive_workload(client: &mut Client) {
    let spec = problems::coloring(3).to_spec();
    client.classify(&spec).expect("classify");
    client.classify(&spec).expect("classify again (cache hit)");
    client
        .classify(&problems::coloring(4).to_spec())
        .expect("classify a second problem");
    let instance = Instance::from_indices(Topology::Cycle, &[0; 12]);
    client.solve(&spec, &instance).expect("solve");
    let stream = StreamInstanceSpec {
        topology: Topology::Cycle,
        length: 64,
        inputs: StreamInputs::Uniform { label: 0 },
    };
    client
        .solve_stream(&spec, &stream, |_, _| {})
        .expect("solve_stream");
    client.health().expect("health");
}

/// Extracts the value of the unique sample line starting with `prefix `.
fn sample_value(expo: &str, prefix: &str) -> u64 {
    let matches: Vec<&str> = expo
        .lines()
        .filter(|line| {
            line.strip_prefix(prefix)
                .is_some_and(|r| r.starts_with(' '))
        })
        .collect();
    assert_eq!(matches.len(), 1, "expected exactly one `{prefix}` sample");
    matches[0]
        .rsplit_once(' ')
        .expect("sample has a value")
        .1
        .parse()
        .expect("sample value parses")
}

#[test]
fn the_metrics_kind_serves_a_valid_exposition_over_tcp() {
    let handle = Server::bind(service(), "127.0.0.1:0")
        .expect("bind")
        .start()
        .expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");
    drive_workload(&mut client);

    let expo = client.metrics().expect("metrics round-trip");
    validate_exposition(&expo).unwrap_or_else(|e| panic!("invalid: {e}"));

    // Counters reflect the workload exactly.
    assert_eq!(
        sample_value(&expo, "lcl_requests_total{kind=\"classify\"}"),
        3
    );
    assert_eq!(sample_value(&expo, "lcl_requests_total{kind=\"solve\"}"), 1);
    assert_eq!(
        sample_value(&expo, "lcl_requests_total{kind=\"solve_stream\"}"),
        1
    );
    assert_eq!(
        sample_value(&expo, "lcl_requests_total{kind=\"health\"}"),
        1
    );
    // The metrics request renders before recording itself.
    assert_eq!(
        sample_value(&expo, "lcl_requests_total{kind=\"metrics\"}"),
        0
    );
    // One hit from the repeated classify, one each from solve and
    // solve_stream re-consulting the cache for the same problem.
    assert_eq!(sample_value(&expo, "lcl_cache_hits_total"), 3);
    // The repeated classify took the zero-serialization lane: its hit
    // rendered and attached the reply bytes (one bytes miss, no reuse
    // yet) and went out as a spliced frame.
    assert_eq!(sample_value(&expo, "lcl_cache_bytes_misses_total"), 1);
    assert_eq!(sample_value(&expo, "lcl_cache_bytes_hits_total"), 0);
    assert_eq!(sample_value(&expo, "lcl_spliced_frames_total"), 1);
    assert_eq!(
        "reactor",
        expo.lines()
            .find(|l| l.starts_with("lcl_build_info{"))
            .and_then(|l| l.split("backend=\"").nth(1))
            .and_then(|l| l.split('"').next())
            .expect("build_info carries the backend label"),
    );

    // Every kind's latency histogram count equals its request counter —
    // the histograms observe exactly the accounted frames.
    for kind in [
        "classify",
        "classify_many",
        "solve",
        "solve_stream",
        "generate",
        "stats",
        "health",
        "metrics",
        "snapshot",
        "invalid",
    ] {
        assert_eq!(
            sample_value(
                &expo,
                &format!("lcl_request_latency_micros_count{{kind=\"{kind}\"}}")
            ),
            sample_value(&expo, &format!("lcl_requests_total{{kind=\"{kind}\"}}")),
            "histogram/counter mismatch for `{kind}`"
        );
        // Admission is not configured here: the shed family renders for
        // every kind and every sample is zero.
        assert_eq!(
            sample_value(&expo, &format!("lcl_shed_total{{kind=\"{kind}\"}}")),
            0,
            "nothing sheds below the (disabled) thresholds"
        );
    }

    // The streamed solve recorded its time-to-first-chunk separately.
    assert_eq!(
        sample_value(&expo, "lcl_stream_first_chunk_micros_count"),
        1
    );
    assert!(sample_value(&expo, "lcl_stream_first_chunk_micros_sum") >= 1);

    handle.shutdown();
}

/// The families whose values are a deterministic function of the driven
/// workload — no wall clock, no backend-internal counters.
fn deterministic_lines(expo: &str) -> String {
    const FAMILIES: [&str; 5] = [
        "lcl_requests_total",
        "lcl_request_errors_total",
        "lcl_cache_",
        "lcl_pool_workers",
        "lcl_connections_accepted_total",
    ];
    expo.lines()
        .filter(|line| {
            line.starts_with("# ") || FAMILIES.iter().any(|family| line.starts_with(family))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn identical_workloads_render_identical_counter_lines_on_two_servers() {
    let documents: Vec<String> = (0..2)
        .map(|_| {
            let handle = Server::bind(service(), "127.0.0.1:0")
                .expect("bind")
                .start()
                .expect("start");
            let mut client = Client::connect(handle.addr()).expect("connect");
            drive_workload(&mut client);
            let expo = client.metrics().expect("metrics");
            handle.shutdown();
            expo
        })
        .collect();
    assert_eq!(
        deterministic_lines(&documents[0]),
        deterministic_lines(&documents[1]),
        "two servers disagree on deterministic counter lines"
    );
}

#[test]
fn the_exposition_agrees_with_the_json_stats_when_quiesced() {
    let handle = Server::bind(service(), "127.0.0.1:0")
        .expect("bind")
        .start()
        .expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");
    drive_workload(&mut client);

    let stats = client.stats().expect("stats");
    let expo = client.metrics().expect("metrics");
    validate_exposition(&expo).expect("valid exposition");

    let kinds = stats
        .require("server")
        .and_then(|s| s.require("kinds"))
        .expect("stats has server.kinds");
    // Compare the kinds the workload drove before either snapshot was
    // taken; `stats` and `metrics` each record themselves only after
    // building their own reply, so those two counters race the snapshots.
    for kind in ["classify", "solve", "solve_stream", "health", "invalid"] {
        let from_stats = kinds
            .require(kind)
            .and_then(|k| k.require("count"))
            .unwrap_or_else(|e| panic!("stats kinds.{kind}.count: {e}"))
            .as_int()
            .expect("count is an int") as u64;
        let from_expo = sample_value(&expo, &format!("lcl_requests_total{{kind=\"{kind}\"}}"));
        assert_eq!(from_stats, from_expo, "count mismatch for `{kind}`");
    }
    let cache = stats.require("cache").expect("stats has cache");
    for (field, family) in [
        ("hits", "lcl_cache_hits_total"),
        ("misses", "lcl_cache_misses_total"),
        ("entries", "lcl_cache_entries"),
        ("inserts", "lcl_cache_inserts_total"),
        ("flight_leaders", "lcl_cache_flight_leaders_total"),
        ("flight_joins", "lcl_cache_flight_joins_total"),
        ("bytes_hits", "lcl_cache_bytes_hits_total"),
        ("bytes_misses", "lcl_cache_bytes_misses_total"),
    ] {
        assert_eq!(
            cache.require(field).unwrap().as_int().unwrap() as u64,
            sample_value(&expo, family),
            "cache `{field}` disagrees with `{family}`"
        );
    }
    // Every join is also a hit.
    assert!(
        cache.require("flight_joins").unwrap().as_int().unwrap()
            <= cache.require("hits").unwrap().as_int().unwrap()
    );
    // Single-connection workload: every computation was a leader, nothing
    // had anyone to join.
    assert_eq!(
        cache.require("flight_leaders").unwrap().as_int().unwrap() as u64,
        sample_value(&expo, "lcl_cache_misses_total"),
    );

    // The satellite `server` block carries the identity fields.
    let server = stats.require("server").expect("server block");
    // The splice counter is quiesced (stats/metrics requests never splice);
    // the writev counter keeps ticking as replies flush, so it can only
    // have grown between the two snapshots.
    assert_eq!(
        server.require("spliced_frames").unwrap().as_int().unwrap() as u64,
        sample_value(&expo, "lcl_spliced_frames_total"),
    );
    assert!(
        sample_value(&expo, "lcl_writev_batches_total")
            >= server.require("writev_batches").unwrap().as_int().unwrap() as u64
    );
    assert_eq!(
        server.require("version").unwrap().as_str().unwrap(),
        env!("CARGO_PKG_VERSION")
    );
    assert_eq!(
        server.require("workers").unwrap().as_int().unwrap(),
        2,
        "pinned worker count"
    );
    assert!(server.require("uptime_seconds").unwrap().as_int().unwrap() >= 0);
    assert!(server.require("backend").unwrap().as_str().is_ok());
    handle.shutdown();
}

#[test]
fn the_http_scrape_serves_the_same_document_as_the_protocol() {
    // Unlike an HTTP scrape, the protocol request is itself in flight
    // while it renders: it holds a pipeline slot and cost the reactor some
    // wakeups. Those gauges — and the wall clock — are the only lines that
    // may differ.
    fn strip_volatile(expo: &str) -> String {
        const VOLATILE: [&str; 4] = [
            "lcl_uptime_seconds ",
            "lcl_pipeline_inflight ",
            "lcl_reactor_wakeups_total ",
            "lcl_reactor_completions_total ",
        ];
        expo.lines()
            .filter(|line| !VOLATILE.iter().any(|v| line.starts_with(v)))
            .collect::<Vec<_>>()
            .join("\n")
    }
    let service = service();
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind")
        .start()
        .expect("start");
    let listener = MetricsListener::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind scrape");
    let mut client = Client::connect(handle.addr()).expect("connect");
    drive_workload(&mut client);

    let mut stream = TcpStream::connect(listener.addr()).expect("connect scrape");
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, scraped) = response.split_once("\r\n\r\n").expect("http framing");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    validate_exposition(scraped).expect("scraped document validates");

    // A scrape records nothing, and the protocol reply renders before
    // recording itself, so the two documents agree on every counter.
    let via_protocol = client.metrics().expect("metrics");
    assert_eq!(strip_volatile(scraped), strip_volatile(&via_protocol));
    handle.shutdown();
}

#[test]
fn oversized_frames_record_nonzero_invalid_latency_on_every_front_end() {
    let oversized = "x".repeat(MAX_FRAME_BYTES + 16);

    let handle = Server::bind(service(), "127.0.0.1:0")
        .expect("bind")
        .start()
        .expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.send_frame(&oversized).expect("send oversized");
    let reply = client.recv_frame().expect("rejection reply");
    let envelope = ResponseEnvelope::from_json_str(&reply).expect("structured reply");
    assert!(!envelope.is_ok(), "oversized frames are rejected");

    let expo = client.metrics().expect("metrics");
    assert_eq!(
        sample_value(&expo, "lcl_requests_total{kind=\"invalid\"}"),
        1,
        "the rejection is accounted"
    );
    assert_eq!(
        sample_value(&expo, "lcl_request_latency_micros_count{kind=\"invalid\"}"),
        1,
        "the rejection reaches the histogram"
    );
    assert!(
        sample_value(&expo, "lcl_request_latency_micros_sum{kind=\"invalid\"}") >= 1,
        "accounted latency is never zero"
    );
    handle.shutdown();

    // The stdio front-end too: same frame, same accounting.
    let service = service();
    let input = format!(
        "{oversized}\n{}\n",
        RequestEnvelope::new(1, "metrics", JsonValue::Null).to_json_string()
    );
    let mut output = Vec::new();
    serve_stdio(&service, input.as_bytes(), &mut output).expect("stdio session");
    let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
    assert_eq!(lines.len(), 2);
    let reply = ResponseEnvelope::from_json_str(lines[1]).expect("metrics reply");
    let expo = reply
        .result
        .expect("metrics is ok")
        .require("exposition")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    validate_exposition(&expo).expect("stdio exposition validates");
    assert_eq!(
        sample_value(&expo, "lcl_requests_total{kind=\"invalid\"}"),
        1
    );
    assert!(sample_value(&expo, "lcl_request_latency_micros_sum{kind=\"invalid\"}") >= 1);
    assert!(expo.contains("lcl_build_info{backend=\"stdio\""));
}

#[test]
fn shed_frames_stay_in_the_latency_accounting_over_tcp() {
    let service = Arc::new(
        Service::new(Engine::builder().parallelism(2).build()).with_admission(AdmissionConfig {
            quota_rps: 1,
            quota_burst: 2,
            ..AdmissionConfig::default()
        }),
    );
    // The splice lane legitimately bypasses admission; keep every frame
    // on the quota'd path so the shed count is predictable.
    service.set_reply_splice(false);
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind")
        .start()
        .expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Flood eight distinct problems down one pipelined connection: the
    // burst of two admits the head, the rest shed.
    let specs: Vec<_> = (2..=9).map(|k| problems::coloring(k).to_spec()).collect();
    let outcomes = client
        .classify_many_pipelined(&specs, 0)
        .expect("pipelined flood");
    let shed = outcomes.iter().filter(|o| o.is_err()).count();
    assert!(shed >= 1, "the flood must shed something");
    for outcome in &outcomes {
        if let Err(error) = outcome {
            assert_eq!(error.category, "overloaded");
            assert_eq!(error.retryable, Some(true));
            assert!(
                error.retry_after_millis.unwrap_or(0) >= 1,
                "sheds carry a retry hint"
            );
        }
    }

    let expo = client.metrics().expect("metrics");
    validate_exposition(&expo).unwrap_or_else(|e| panic!("invalid: {e}"));
    // The shed counter, the request counter, the error counter and the
    // latency histogram must all agree on what happened: a shed frame
    // is accounted exactly like a served one.
    assert_eq!(
        sample_value(&expo, "lcl_shed_total{kind=\"classify\"}"),
        shed as u64
    );
    assert_eq!(
        sample_value(&expo, "lcl_requests_total{kind=\"classify\"}"),
        specs.len() as u64,
        "shed frames stay in requests_total"
    );
    assert!(
        sample_value(&expo, "lcl_request_errors_total{kind=\"classify\"}") >= shed as u64,
        "shed frames are errors"
    );
    assert_eq!(
        sample_value(&expo, "lcl_request_latency_micros_count{kind=\"classify\"}"),
        sample_value(&expo, "lcl_requests_total{kind=\"classify\"}"),
        "shed frames reach the histogram"
    );
    handle.shutdown();
}

/// A trace sink whose slow log (threshold 1µs, so every request) captures
/// its lines as parsed JSON.
fn capturing_sink() -> (Arc<TraceSink>, Arc<Mutex<Vec<JsonValue>>>) {
    let captured: Arc<Mutex<Vec<JsonValue>>> = Arc::new(Mutex::new(Vec::new()));
    let captured_in_sink = Arc::clone(&captured);
    let sink = Arc::new(TraceSink::with_emitter(move |line| {
        let parsed = JsonValue::parse(line).expect("slow line is valid JSON");
        captured_in_sink.lock().unwrap().push(parsed);
    }));
    sink.set_slow_micros(Some(1));
    (sink, captured)
}

fn micros(line: &JsonValue, field: &str) -> i64 {
    line.require(field).unwrap().as_int().unwrap()
}

#[test]
fn stage_traces_reach_the_slow_log_on_stdio() {
    let (sink, captured) = capturing_sink();
    let service =
        Arc::new(Service::new(Engine::builder().parallelism(1).build()).with_trace_sink(sink));

    let spec = problems::coloring(3).to_spec();
    let classify = RequestEnvelope::new(
        7,
        "classify",
        JsonValue::object([("problem", spec.to_json())]),
    )
    .to_json_string();
    let input = format!("{classify}\nnot json at all\n");
    let mut output = Vec::new();
    serve_stdio(&service, input.as_bytes(), &mut output).expect("stdio session");

    // Both requests crossed the slow threshold, in frame order: the
    // classify, then the unparseable frame.
    let lines = captured.lock().unwrap();
    assert_eq!(lines.len(), 2, "one trace per frame");
    assert_eq!(micros(&lines[0], "id"), 7);
    assert!(lines[0].require("ok").unwrap().as_bool().unwrap());
    // Stdio frames run as pool jobs, which observe where the classification
    // came from: this one was a cold miss.
    assert!(!lines[0].require("cache_hit").unwrap().as_bool().unwrap());
    assert!(lines[0].get("problem_hash").is_some());
    assert!(!lines[1].require("ok").unwrap().as_bool().unwrap());
    for line in lines.iter() {
        assert_eq!(line.require("trace").unwrap().as_str().unwrap(), "slow");
        let total = micros(line, "total_micros");
        assert!(total >= 1, "traces never report zero latency");
        let stage_sum: i64 = ["queue", "parse", "compute", "serialize", "write"]
            .iter()
            .map(|stage| micros(line, &format!("{stage}_micros")))
            .sum();
        assert!(
            stage_sum <= total,
            "disjoint stages cannot exceed the end-to-end time"
        );
    }
    let kinds: Vec<&str> = lines
        .iter()
        .map(|line| line.require("kind").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(kinds, ["classify", "invalid"]);
}

#[test]
fn tcp_traces_capture_the_write_stage() {
    let (sink, captured) = capturing_sink();
    let service =
        Arc::new(Service::new(Engine::builder().parallelism(2).build()).with_trace_sink(sink));
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind")
        .start()
        .expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .classify(&problems::coloring(3).to_spec())
        .expect("classify");
    // The write stage is stamped when the reply's bytes reach the socket;
    // the client has the reply in hand, so the stamp happened — but the
    // slow-log line races the reply by one scheduler step on the reactor
    // (the flush observes the write after EPOLLOUT). Poll briefly.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    let line = loop {
        let lines = captured.lock().unwrap();
        if let Some(line) = lines
            .iter()
            .find(|line| line.require("kind").unwrap().as_str().unwrap() == "classify")
        {
            break line.clone();
        }
        drop(lines);
        assert!(
            std::time::Instant::now() < deadline,
            "classify trace never reached the slow log"
        );
        std::thread::yield_now();
    };
    assert!(line.require("ok").unwrap().as_bool().unwrap());
    assert!(micros(&line, "total_micros") >= 1);
    handle.shutdown();
}
