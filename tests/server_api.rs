//! End-to-end tests for the `lcl-server` subsystem: the full corpus served
//! over real loopback TCP through the engine's persistent worker pool, the
//! stdio framing, request-id echoing, structured errors and graceful
//! shutdown.

use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::{Instance, RequestEnvelope, ResponseEnvelope, Topology};
use lcl_paths::problems::{corpus, KnownComplexity};
use lcl_paths::Engine;
use lcl_server::{serve_stdio, Client, ClientError, Server, ServerHandle, Service};
use std::sync::Arc;

fn start_server(workers: usize) -> (ServerHandle, Arc<Service>) {
    let engine = Engine::builder().parallelism(workers).build();
    let service = Arc::new(Service::new(engine));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let handle = server.start().expect("start accept loop");
    (handle, service)
}

/// Every corpus problem round-trips over TCP with verdict JSON
/// byte-identical to the in-process engine, at several pool widths, each
/// classified inline on the reactor or on the persistent pool.
#[test]
fn corpus_verdicts_over_tcp_are_byte_identical_to_in_process() {
    let reference = Engine::new();
    for workers in [1, 4] {
        let (handle, service) = start_server(workers);
        let mut client = Client::connect(handle.addr()).expect("connect");
        for entry in corpus() {
            let payload = JsonValue::object([("problem", entry.problem.to_spec().to_json())]);
            let reply = client
                .call("classify", payload)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.problem.name()));
            let wire = reply
                .require("verdict")
                .expect("verdict field")
                .to_json_string();
            let local = reference
                .verdict(&entry.problem)
                .expect("in-process verdict")
                .to_json_string();
            assert_eq!(
                wire,
                local,
                "{}: wire and in-process verdict JSON differ at {workers} workers",
                entry.problem.name()
            );
        }
        // Each classification ran inline on the reactor, within its work
        // slice, or as exactly one pool job; none on scoped threads.
        let lanes = service.metrics_snapshot().classify_lanes;
        let (inline, handed_off) = (lanes[0], lanes[1..].iter().sum::<u64>());
        assert_eq!(
            inline + handed_off,
            corpus().len() as u64,
            "every miss takes one lane: {lanes:?}"
        );
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while service.engine().pool_stats().jobs_completed < handed_off {
            assert!(std::time::Instant::now() < deadline, "{lanes:?}");
            std::thread::yield_now();
        }
        let pool = service.engine().pool_stats();
        assert_eq!(pool.workers, workers);
        assert_eq!(pool.jobs_completed, handed_off, "one job per hand-off");
        drop(client);
        handle.shutdown();
    }
}

/// The pipelining acceptance bar: every corpus classify frame is written
/// before a single reply is read, and the replies still arrive in request
/// order, echo the right ids, and are byte-identical to the in-process
/// verdict JSON.
#[test]
fn pipelined_burst_replies_in_order_and_byte_identical() {
    let reference = Engine::new();
    let (handle, service) = start_server(4);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let entries = corpus();

    // Flood the connection: N frames out, zero replies consumed so far.
    for (i, entry) in entries.iter().enumerate() {
        let payload = JsonValue::object([("problem", entry.problem.to_spec().to_json())]);
        let frame = RequestEnvelope::new(100 + i as i64, "classify", payload).to_json_string();
        client.send_frame(&frame).expect("send burst frame");
    }
    for (i, entry) in entries.iter().enumerate() {
        let reply = ResponseEnvelope::from_json_str(&client.recv_frame().expect("recv"))
            .expect("reply parses");
        assert_eq!(
            reply.id,
            Some(100 + i as i64),
            "replies must arrive in request order ({})",
            entry.problem.name()
        );
        let wire = reply
            .result
            .expect("classification succeeds")
            .require("verdict")
            .expect("verdict field")
            .to_json_string();
        let local = reference
            .verdict(&entry.problem)
            .expect("in-process verdict")
            .to_json_string();
        assert_eq!(
            wire,
            local,
            "{}: pipelined wire verdict differs from in-process",
            entry.problem.name()
        );
    }

    // The window fully drained and the gauges saw the burst.
    let stats = client.stats().expect("stats");
    let pipeline = stats
        .require("server")
        .unwrap()
        .require("pipeline")
        .expect("pipeline gauges in stats");
    // The stats request itself runs as a pipelined job, so the snapshot it
    // reports may count itself — but nothing else from the drained burst.
    assert!(
        pipeline.require("inflight").unwrap().as_int().unwrap() <= 1,
        "window must drain once all replies are read"
    );
    assert!(pipeline.require("peak_inflight").unwrap().as_int().unwrap() >= 1);
    // Once the stats reply has been received its own job has exited the
    // window too: the gauge must read exactly zero now.
    assert_eq!(service.metrics_snapshot().pipeline_inflight, 0);
    drop(client);
    handle.shutdown();
}

/// A tiny in-flight window (2) against a much larger burst: the reader-side
/// backpressure must delay frame consumption, never drop, reorder or
/// deadlock.
#[test]
fn small_inflight_window_backpressures_without_reordering() {
    let engine = Engine::builder().parallelism(2).build();
    let service = Arc::new(Service::new(engine));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind loopback")
        .max_inflight(2);
    let handle = server.start().expect("start accept loop");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let spec = lcl_paths::problems::coloring(3).to_spec();
    const BURST: i64 = 24;
    for id in 0..BURST {
        let payload = JsonValue::object([("problem", spec.to_json())]);
        let frame = RequestEnvelope::new(id, "classify", payload).to_json_string();
        client.send_frame(&frame).expect("send");
    }
    for id in 0..BURST {
        let reply = ResponseEnvelope::from_json_str(&client.recv_frame().expect("recv"))
            .expect("reply parses");
        assert_eq!(reply.id, Some(id), "strict request order under window 2");
        assert!(reply.is_ok());
    }
    // The window bound is exact: at no instant were more than 2 requests of
    // this connection dispatched-but-unwritten (the reader takes a slot
    // before dispatching, the writer frees it after writing).
    assert!(
        service.metrics_snapshot().pipeline_peak <= 2,
        "window 2 must cap concurrent dispatches at 2, saw peak {}",
        service.metrics_snapshot().pipeline_peak
    );
    drop(client);
    handle.shutdown();
}

/// `Client::classify_many_pipelined` agrees with the ground truth and with
/// the lock-step `classify_many` decoding.
#[test]
fn classify_many_pipelined_matches_ground_truth() {
    let (handle, _service) = start_server(4);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let entries = corpus();
    let specs: Vec<_> = entries.iter().map(|e| e.problem.to_spec()).collect();
    let pipelined = client
        .classify_many_pipelined(&specs, 8)
        .expect("pipelined sweep");
    let batched = client.classify_many(&specs).expect("batched sweep");
    assert_eq!(pipelined.len(), entries.len());
    for ((entry, pipelined), batched) in entries.iter().zip(&pipelined).zip(&batched) {
        let verdict = pipelined
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", entry.problem.name()));
        let expected = match entry.expected {
            KnownComplexity::Unsolvable => "unsolvable",
            KnownComplexity::Constant => "constant",
            KnownComplexity::LogStar => "log-star",
            KnownComplexity::Linear => "linear",
        };
        assert_eq!(
            verdict.complexity.wire_name(),
            expected,
            "{}",
            entry.problem.name()
        );
        assert_eq!(
            verdict,
            batched.as_ref().expect("batched verdict"),
            "{}: pipelined and batched verdicts must agree",
            entry.problem.name()
        );
    }
    drop(client);
    handle.shutdown();
}

/// One `classify_many` request over TCP agrees with the corpus ground truth
/// and with the typed client decoding.
#[test]
fn classify_many_over_tcp_matches_ground_truth() {
    let (handle, _service) = start_server(4);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let entries = corpus();
    let specs: Vec<_> = entries.iter().map(|e| e.problem.to_spec()).collect();
    let verdicts = client.classify_many(&specs).expect("batch round-trip");
    assert_eq!(verdicts.len(), entries.len());
    for (entry, verdict) in entries.iter().zip(verdicts) {
        let verdict = verdict.unwrap_or_else(|e| panic!("{}: {e}", entry.problem.name()));
        let expected = match entry.expected {
            KnownComplexity::Unsolvable => "unsolvable",
            KnownComplexity::Constant => "constant",
            KnownComplexity::LogStar => "log-star",
            KnownComplexity::Linear => "linear",
        };
        assert_eq!(
            verdict.complexity.wire_name(),
            expected,
            "{}",
            entry.problem.name()
        );
        assert_eq!(verdict.problem_hash, entry.problem.canonical_hash());
    }
    drop(client);
    handle.shutdown();
}

/// `solve` over TCP returns a labeling the problem verifier accepts.
#[test]
fn solve_over_tcp_returns_a_valid_labeling() {
    let (handle, _service) = start_server(2);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let problem = lcl_paths::problems::coloring(3);
    let instance = Instance::from_indices(Topology::Cycle, &[0; 30]);
    let reply = client
        .solve(&problem.to_spec(), &instance)
        .expect("solve round-trip");
    assert_eq!(reply.labeling.len(), 30);
    assert!(reply.rounds > 0);
    assert!(
        problem.is_valid(&instance, &reply.labeling),
        "server-produced labeling must verify locally"
    );

    // Unsolvable-on-instance errors come back structured, not as hangups.
    let err = client
        .solve(
            &problem.to_spec(),
            &Instance::from_indices(Topology::Cycle, &[0]),
        )
        .expect_err("1-node cycle is not 3-colorable");
    match err {
        ClientError::Remote(reply) => {
            assert_eq!(reply.category, "classifier");
            assert!(
                reply.message.contains("admits no valid labeling"),
                "{}",
                reply.message
            );
        }
        other => panic!("expected a structured server error, got {other}"),
    }
    drop(client);
    handle.shutdown();
}

/// Request ids are echoed per connection; malformed frames produce structured
/// `protocol` errors and never kill the connection.
#[test]
fn ids_echo_and_errors_are_structured_over_tcp() {
    let (handle, _service) = start_server(1);
    let mut client = Client::connect(handle.addr()).expect("connect");

    client.send_frame("this is not json").expect("send");
    let reply = ResponseEnvelope::from_json_str(&client.recv_frame().expect("recv")).unwrap();
    assert_eq!(reply.id, None);
    assert_eq!(reply.result.unwrap_err().category, "protocol");

    client
        .send_frame(r#"{"v":99,"id":41,"kind":"health"}"#)
        .expect("send");
    let reply = ResponseEnvelope::from_json_str(&client.recv_frame().expect("recv")).unwrap();
    assert_eq!(reply.id, Some(41), "id salvaged from a bad envelope");
    assert!(!reply.is_ok());

    // The connection survived both; a well-formed request still works and
    // echoes its id.
    let health = client.health().expect("health after malformed frames");
    assert_eq!(health.require("status").unwrap().as_str().unwrap(), "ok");

    // stats reflects the traffic this connection produced.
    let stats = client.stats().expect("stats");
    let server = stats.require("server").unwrap();
    let kinds = server.require("kinds").unwrap();
    assert_eq!(
        kinds
            .require("invalid")
            .unwrap()
            .require("errors")
            .unwrap()
            .as_int()
            .unwrap(),
        2
    );
    drop(client);
    handle.shutdown();
}

/// The same dispatch runs over the stdio framing: frames in, frames out,
/// terminated by EOF.
#[test]
fn stdio_framing_serves_the_same_protocol() {
    let service = Arc::new(Service::new(Engine::builder().parallelism(1).build()));
    let problem = lcl_paths::problems::coloring(3);
    let classify = RequestEnvelope::new(
        10,
        "classify",
        JsonValue::object([("problem", problem.to_spec().to_json())]),
    )
    .to_json_string();
    let input = format!("{classify}\n{{\"v\":1,\"id\":11,\"kind\":\"stats\"}}\n");
    let mut output = Vec::new();
    serve_stdio(&service, input.as_bytes(), &mut output).expect("stdio serve");

    let text = String::from_utf8(output).expect("utf-8 output");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    let classify_reply = ResponseEnvelope::from_json_str(lines[0]).unwrap();
    assert_eq!(classify_reply.id, Some(10));
    let wire = classify_reply
        .result
        .expect("classification ok")
        .require("verdict")
        .unwrap()
        .to_json_string();
    let local = Engine::new().verdict(&problem).unwrap().to_json_string();
    assert_eq!(wire, local, "stdio and in-process verdicts must agree");
    let stats_reply = ResponseEnvelope::from_json_str(lines[1]).unwrap();
    assert!(stats_reply.is_ok());
}

/// Graceful shutdown: the handle returns with connections open, and the
/// port stops accepting afterwards.
#[test]
fn shutdown_is_graceful_and_closes_the_listener() {
    let (handle, _service) = start_server(1);
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    client.health().expect("health");

    // Shut down while the client connection is still open and idle; this
    // must not hang.
    handle.shutdown();

    // The old connection is dead…
    assert!(
        client.health().is_err(),
        "connection must be closed by shutdown"
    );
    // …and the listener is gone (give the OS a moment to tear it down).
    let refused = (0..50).any(|_| {
        std::thread::sleep(std::time::Duration::from_millis(10));
        std::net::TcpStream::connect(addr).is_err()
    });
    assert!(refused, "listener must stop accepting after shutdown");
}
