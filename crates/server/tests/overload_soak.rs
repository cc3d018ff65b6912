//! Overload soak: flood the TCP server far past the worker pool's
//! capacity with queue-depth shedding armed. Every frame must come back as
//! either a verdict or a structured retryable `overloaded` rejection — no
//! deadlock, no connection loss, no unstructured failure — and once the
//! flood drains the server must admit work again.

use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::{Instance, RequestEnvelope, ResponseEnvelope, Topology};
use lcl_paths::{problems, Engine};
use lcl_server::{AdmissionConfig, Client, Server, Service};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn a_flood_past_capacity_sheds_structurally_and_recovers() {
    const FLOOD: usize = 200;
    // One worker and a shallow shed threshold: the pipelined flood
    // below outruns the pool by construction.
    let service = Arc::new(
        Service::new(Engine::builder().parallelism(1).build()).with_admission(AdmissionConfig {
            shed_queue_depth: 4,
            ..AdmissionConfig::default()
        }),
    );
    // Cache hits would bypass the pool (and the queue) on the splice
    // lane; keep every frame on the dispatch path.
    service.set_reply_splice(false);
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind")
        .start()
        .expect("start");
    // Blast the whole flood from a side thread while this one reads
    // replies: the sender never waits on a reply, so the arrival rate
    // outruns the one worker and the queue trips the shed threshold.
    // (Reading concurrently matters — with both directions' kernel
    // buffers finite, a send-everything-then-read client and the
    // server's reply stream would backpressure each other to a halt.)
    let stream = std::net::TcpStream::connect(handle.addr()).expect("connect flood");
    stream.set_nodelay(true).expect("nodelay");
    let mut flood_writer = stream.try_clone().expect("clone flood writer");
    let sender = std::thread::spawn(move || {
        use std::io::Write;
        // The head of the flood is a handful of slow solves (a few
        // hundred LOCAL rounds each on one worker): they pin the pool
        // while the classify flood behind them piles into the queue and
        // trips the threshold. The classifies cycle through a few cheap
        // specs — arrival rate is what matters, not per-frame cost.
        let spec = problems::coloring(3).to_spec();
        let instance = Instance::from_indices(Topology::Cycle, &[0; 400]);
        for id in 0..FLOOD {
            let mut line = if id < 4 {
                RequestEnvelope::new(
                    id as i64,
                    "solve",
                    JsonValue::object([
                        ("problem", spec.to_json()),
                        ("instance", instance.to_json()),
                    ]),
                )
                .to_json_string()
            } else {
                let spec = problems::coloring(2 + (id % 8)).to_spec();
                RequestEnvelope::new(
                    id as i64,
                    "classify",
                    JsonValue::object([("problem", spec.to_json())]),
                )
                .to_json_string()
            };
            line.push('\n');
            flood_writer.write_all(line.as_bytes()).expect("flood send");
        }
        flood_writer.flush().expect("flood flush");
    });

    let mut reader = std::io::BufReader::new(stream);
    let mut served = 0usize;
    let mut shed = 0usize;
    for id in 0..FLOOD {
        use std::io::BufRead;
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("flood reply") > 0,
            "connection closed mid-flood"
        );
        let reply = ResponseEnvelope::from_json_str(line.trim_end()).expect("structured reply");
        assert_eq!(reply.id, Some(id as i64), "in-order replies");
        match reply.result {
            Ok(_) => served += 1,
            Err(error) => {
                assert_eq!(
                    error.category, "overloaded",
                    "the only failure mode under flood is a shed: {}",
                    error.message
                );
                assert_eq!(error.retryable, Some(true));
                assert!(
                    error.retry_after_millis.unwrap_or(0) >= 1,
                    "sheds carry a retry hint"
                );
                shed += 1;
            }
        }
    }
    assert_eq!(served + shed, FLOOD, "every frame answered");
    assert!(served >= 1, "the pool kept serving under flood");
    assert!(
        shed >= 1,
        "a {FLOOD}-frame flood against one worker must shed"
    );

    sender.join().expect("flood sender");
    drop(reader);

    // Recovery: once the backlog drains, fresh work is admitted again.
    // Poll briefly — the queue empties as fast as the worker finishes.
    let mut client = Client::connect(handle.addr()).expect("connect after flood");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.classify(&problems::coloring(3).to_spec()) {
            Ok(verdict) => {
                assert_eq!(verdict.complexity.wire_name(), "log-star");
                break;
            }
            Err(lcl_server::ClientError::Remote(error))
                if error.category == "overloaded" && Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(
                    error.retry_after_millis.unwrap_or(10),
                ));
            }
            Err(e) => panic!("server did not recover: {e}"),
        }
    }

    // The connection and the control plane survived the whole episode.
    let health = client.health().expect("health after flood");
    assert_eq!(health.require("status").unwrap().as_str().unwrap(), "ok");
    handle.shutdown();
}
