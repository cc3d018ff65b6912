//! Many-connection soak tests for the TCP server: ≥128 simultaneously open
//! pipelined clients, reply frames byte-identical to the in-process
//! service, per-id echo, connection-gauge consistency, the `--max-conns`
//! accept cap, and shutdown that never dials its own listen address.

use lcl_paths::gen::{generate, Family, GenConfig};
use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::{RequestEnvelope, ResponseEnvelope};
use lcl_paths::{problems, Engine};
use lcl_server::{Client, Server, ServerHandle, Service};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrently open pipelined clients in the soak.
const CLIENTS: usize = 128;
/// Classify frames each client pipelines (distinct problems, so the cache
/// serves most of them after the first wave).
const FRAMES_PER_CLIENT: usize = 3;

fn start_server() -> (ServerHandle, Arc<Service>) {
    let service = Arc::new(Service::new(Engine::builder().parallelism(2).build()));
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind loopback")
        .start()
        .expect("start server");
    (handle, service)
}

/// Polls `condition` until it holds (or panics after `secs` seconds).
fn wait_until(what: &str, secs: u64, condition: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !condition() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The problem each (client, frame) slot classifies; varied so the batch
/// covers several cache entries.
fn spec_for(frame: usize) -> lcl_paths::problem::ProblemSpec {
    problems::coloring(2 + frame % 3).to_spec()
}

fn request_id(client: usize, frame: usize) -> i64 {
    (client as i64) * 1000 + frame as i64
}

/// The soak itself: ≥128 simultaneous pipelined clients, asserting reply
/// frames byte-identical to the in-process service, per-id echo and gauge
/// consistency.
#[test]
fn soak_128_concurrent_pipelined_clients_per_backend() {
    let (handle, service) = start_server();
    let addr = handle.addr();

    // Open every client before any work starts, so all CLIENTS connections
    // are provably simultaneous.
    let clients: Vec<Client> = (0..CLIENTS)
        .map(|i| Client::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}")))
        .collect();
    wait_until(&format!("all {CLIENTS} connections open"), 30, || {
        service.metrics_snapshot().connections_open >= CLIENTS as u64
    });
    assert!(
        service.metrics_snapshot().connections_peak >= CLIENTS as u64,
        "peak gauge must see the soak"
    );

    // The connection gauges are live on the wire too, not just in-process.
    let mut probe = Client::connect(addr).expect("connect stats probe");
    let stats = probe.stats().expect("stats over the wire");
    let connections = stats
        .require("server")
        .and_then(|s| s.require("connections"))
        .expect("server.connections in stats");
    assert!(
        connections.require("peak").unwrap().as_int().unwrap() >= CLIENTS as i64,
        "wire-visible peak"
    );
    assert!(
        connections.require("accepted").unwrap().as_int().unwrap() > CLIENTS as i64,
        "accepted counts the probe too"
    );
    drop(probe);

    // Every client floods its whole burst, then reads the replies: ids must
    // echo in request order, verdicts must be byte-identical to the
    // in-process engine and whole frames to the in-process service.
    let reference = Engine::new();
    let in_process = Arc::new(Service::new(Engine::new()));
    let expected: Vec<String> = (0..FRAMES_PER_CLIENT)
        .map(|frame| {
            reference
                .verdict(&spec_for(frame).to_problem().expect("corpus problem"))
                .expect("in-process verdict")
                .to_json_string()
        })
        .collect();
    let workers: Vec<std::thread::JoinHandle<()>> = clients
        .into_iter()
        .enumerate()
        .map(|(i, mut client)| {
            let expected = expected.clone();
            let in_process = Arc::clone(&in_process);
            std::thread::spawn(move || {
                let lines: Vec<String> = (0..FRAMES_PER_CLIENT)
                    .map(|frame| {
                        let payload = JsonValue::object([("problem", spec_for(frame).to_json())]);
                        RequestEnvelope::new(request_id(i, frame), "classify", payload)
                            .to_json_string()
                    })
                    .collect();
                for line in &lines {
                    client.send_frame(line).expect("send frame");
                }
                for (frame, expected) in expected.iter().enumerate() {
                    let raw = client.recv_frame().expect("reply arrives");
                    assert_eq!(
                        raw,
                        in_process.handle_line(&lines[frame]).into_json_string(),
                        "client {i} frame {frame}: reply frame must match the in-process service"
                    );
                    let reply = ResponseEnvelope::from_json_str(&raw).expect("reply parses");
                    assert_eq!(
                        reply.id,
                        Some(request_id(i, frame)),
                        "client {i}: replies echo ids in request order"
                    );
                    let verdict = reply
                        .result
                        .expect("classification succeeds")
                        .require("verdict")
                        .expect("verdict field")
                        .to_json_string();
                    assert_eq!(
                        &verdict, expected,
                        "client {i} frame {frame}: wire verdict must be byte-identical"
                    );
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("soak client thread");
    }

    // Every client has disconnected: the open gauge must settle back to 0
    // (connection teardown is asynchronous).
    wait_until("open connections back to 0", 30, || {
        service.metrics_snapshot().connections_open == 0
    });
    assert!(
        service.metrics_snapshot().connections_accepted >= (CLIENTS + 1) as u64,
        "accepted all soak clients"
    );
    handle.shutdown();
}

/// Connections in the single-cold-key stampede.
const STAMPEDE_CLIENTS: usize = 64;

/// One stampede attempt: 64 pipelined connections fire the same cold
/// classify at once. Returns the aggregate flight_joins reported by the
/// wire `stats` reply; everything that must hold on *every* attempt — one
/// computation total, byte-identical verdicts, one pool job per frame — is
/// hard-asserted inside.
fn stampede_once() -> i64 {
    // As many pool workers as connections, so every frame's job can be
    // in-flight at once and 63 of them can park on the leader's flight
    // (waiters park on the leader's *inline* computation, never on queued
    // pool work, so a pool full of waiters cannot deadlock).
    let service = Arc::new(Service::new(
        Engine::builder().parallelism(STAMPEDE_CLIENTS).build(),
    ));
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind loopback")
        .start()
        .expect("start server");
    let addr = handle.addr();

    // A problem slow enough (~90ms cold in a debug build, ~10ms in release;
    // medians of 5 on a 2-vCPU host) that every late requester reaches the
    // flight table while the leader is still computing. Its cost is the type semigroup (615 types) and the
    // unsolvability witness, not the feasibility search.
    let config = GenConfig::new(2)
        .family(Family::Uniform)
        .input_labels(4)
        .output_labels(6);
    let spec = generate(&config).expect("valid config").to_spec();
    let expected = Engine::new()
        .verdict(&spec.to_problem().expect("generated problem"))
        .expect("in-process verdict")
        .to_json_string();

    // Open all connections first, then release the requests as closely
    // together as threads allow.
    let clients: Vec<Client> = (0..STAMPEDE_CLIENTS)
        .map(|i| Client::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}")))
        .collect();
    let barrier = Arc::new(std::sync::Barrier::new(STAMPEDE_CLIENTS));
    let workers: Vec<std::thread::JoinHandle<()>> = clients
        .into_iter()
        .enumerate()
        .map(|(i, mut client)| {
            let spec = spec.clone();
            let expected = expected.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let payload = JsonValue::object([("problem", spec.to_json())]);
                let line = RequestEnvelope::new(i as i64, "classify", payload).to_json_string();
                barrier.wait();
                client.send_frame(&line).expect("send classify");
                let raw = client.recv_frame().expect("reply arrives");
                let reply = ResponseEnvelope::from_json_str(&raw).expect("reply parses");
                assert_eq!(reply.id, Some(i as i64));
                let verdict = reply
                    .result
                    .expect("classification succeeds")
                    .require("verdict")
                    .expect("verdict field")
                    .to_json_string();
                assert_eq!(
                    verdict, expected,
                    "client {i}: stampede verdict must be byte-identical"
                );
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("stampede client thread");
    }

    // However the 64 threads interleaved, the cache performed exactly one
    // classification: one flight leader, one miss, one insert.
    let cache = service.engine().cache_stats();
    assert_eq!(
        (cache.misses, cache.flight_leaders, cache.inserts),
        (1, 1, 1),
        "64-way cold miss must compute exactly once: {cache:?}"
    );
    assert_eq!(
        cache.hits + cache.misses,
        STAMPEDE_CLIENTS as u64,
        "every request is exactly one of hit/join/lead: {cache:?}"
    );
    // One pool job per pipelined frame — the stampede did not fan out 64
    // classifications onto the pool (the job bookkeeping settles just after
    // the replies are written).
    wait_until("64 frame jobs complete", 10, || {
        service.engine().pool_stats().jobs_completed == STAMPEDE_CLIENTS as u64
    });

    // The join count is also visible over the wire, in the stats reply.
    let mut probe = Client::connect(addr).expect("connect stats probe");
    let stats = probe.stats().expect("stats over the wire");
    let wire_cache = stats.require("cache").expect("cache block");
    assert_eq!(
        wire_cache
            .require("flight_leaders")
            .unwrap()
            .as_int()
            .unwrap(),
        1,
        "wire-visible leader count"
    );
    let joins = wire_cache
        .require("flight_joins")
        .unwrap()
        .as_int()
        .unwrap();
    drop(probe);
    handle.shutdown();
    joins
}

/// The single-key stampede: 64 pipelined connections issue the same cold
/// `classify` simultaneously. Exactly one classification
/// happens (hard-asserted every attempt); and in at least one attempt the
/// other 63 requests are absorbed as flight *joins* — parked on
/// the leader's computation rather than served later from the warm cache.
/// The join/hit split depends on scheduling (a request that arrives after
/// the leader commits is a plain hit), so that half retries a few times on
/// a loaded machine.
#[test]
fn stampede_on_one_cold_key_classifies_once_with_63_joiners() {
    const ATTEMPTS: usize = 6;
    let mut best_joins = 0;
    for _ in 0..ATTEMPTS {
        best_joins = best_joins.max(stampede_once());
        if best_joins >= (STAMPEDE_CLIENTS - 1) as i64 {
            break;
        }
    }
    assert!(
        best_joins >= (STAMPEDE_CLIENTS - 1) as i64,
        "stampede never fully joined: best {best_joins} of {}",
        STAMPEDE_CLIENTS - 1
    );
}

/// `--max-conns`: connections past the cap are closed at accept
/// (reject-with-close), the gauge counts them, and capacity freed by a
/// closing client is reusable.
#[test]
fn max_conns_rejects_excess_connections_on_every_backend() {
    let service = Arc::new(Service::new(Engine::builder().parallelism(1).build()));
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind loopback")
        .max_conns(2)
        .start()
        .expect("start server");
    let addr = handle.addr();

    let mut first = Client::connect(addr).expect("first connect");
    let mut second = Client::connect(addr).expect("second connect");
    first.health().unwrap_or_else(|e| panic!("first: {e}"));
    second.health().unwrap_or_else(|e| panic!("second: {e}"));

    // The third connect succeeds at TCP level (listen backlog) but the
    // server closes it instead of serving: the first call must fail.
    let mut third = Client::connect(addr).expect("third connect");
    assert!(
        third.health().is_err(),
        "connection past --max-conns must be closed unserved"
    );
    wait_until("rejection counted", 10, || {
        service.metrics_snapshot().connections_rejected >= 1
    });
    assert_eq!(
        service.metrics_snapshot().connections_open,
        2,
        "rejected connection must not occupy a slot"
    );

    // Freeing a slot makes room again.
    drop(second);
    wait_until("slot freed", 10, || {
        service.metrics_snapshot().connections_open == 1
    });
    let mut fourth = Client::connect(addr).expect("fourth connect");
    fourth
        .health()
        .unwrap_or_else(|e| panic!("freed capacity must serve: {e}"));

    drop(first);
    drop(third);
    drop(fourth);
    handle.shutdown();
}

/// Shutdown is driven by the eventfd/poll wakeup, not by the old hack of
/// connecting to the listen address: after an immediate shutdown the accept
/// counter has never moved.
#[test]
fn shutdown_never_dials_its_own_listener() {
    let (handle, service) = start_server();
    handle.shutdown();
    assert_eq!(
        service.metrics_snapshot().connections_accepted,
        0,
        "shutdown must not fabricate a connection to wake accept"
    );
}
