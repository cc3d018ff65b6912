//! Protocol-robustness tests: a seeded-RNG fuzz loop feeds truncated,
//! oversized and otherwise malformed NDJSON frames to the server dispatch
//! and asserts that every frame gets a structured, parseable reply, and that
//! the connection — and the engine's worker pool behind it — survive.

use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::{RequestEnvelope, ResponseEnvelope};
use lcl_paths::{problems, Engine};
use lcl_server::{serve_stdio, Client, Server, Service, MAX_FRAME_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Well-formed frames the mutator starts from, covering every request kind.
fn seed_frames() -> Vec<String> {
    let spec = problems::coloring(3).to_spec().to_json();
    let instance =
        lcl_paths::problem::Instance::from_indices(lcl_paths::problem::Topology::Cycle, &[0; 12])
            .to_json();
    vec![
        RequestEnvelope::new(
            1,
            "classify",
            JsonValue::object([("problem", spec.clone())]),
        )
        .to_json_string(),
        RequestEnvelope::new(
            2,
            "classify_many",
            JsonValue::object([("problems", JsonValue::Array(vec![spec.clone()]))]),
        )
        .to_json_string(),
        RequestEnvelope::new(
            3,
            "solve",
            JsonValue::object([("problem", spec), ("instance", instance)]),
        )
        .to_json_string(),
        RequestEnvelope::new(4, "stats", JsonValue::Null).to_json_string(),
        RequestEnvelope::new(5, "health", JsonValue::Null).to_json_string(),
        // Structurally hostile bases.
        "{}".to_string(),
        "[1,2,3]".to_string(),
        "\"just a string\"".to_string(),
        String::new(),
    ]
}

/// Applies 1–4 random mutations: truncation, byte flips, insertions,
/// duplicated slices. Newlines are stripped so each result stays one frame.
fn mutate(rng: &mut StdRng, base: &str) -> String {
    let mut bytes = base.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..5usize) {
        if bytes.is_empty() {
            bytes.extend_from_slice(b"{\"v\":");
            continue;
        }
        match rng.gen_range(0..4u32) {
            0 => {
                // Truncate at a random point.
                let cut = rng.gen_range(0..bytes.len());
                bytes.truncate(cut);
            }
            1 => {
                // Flip one byte to a random printable-or-not value.
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen_range(1..256u32) as u8;
            }
            2 => {
                // Insert a random byte.
                let at = rng.gen_range(0..bytes.len() + 1);
                bytes.insert(at, rng.gen_range(1..256u32) as u8);
            }
            _ => {
                // Duplicate a random slice (grows nesting/garbage).
                let start = rng.gen_range(0..bytes.len());
                let end = rng.gen_range(start..bytes.len().min(start + 32) + 1);
                let slice: Vec<u8> = bytes[start..end].to_vec();
                let at = rng.gen_range(0..bytes.len() + 1);
                bytes.splice(at..at, slice);
            }
        }
    }
    bytes.retain(|&b| b != b'\n' && b != b'\r');
    String::from_utf8_lossy(&bytes).into_owned()
}

/// 400 seeded mutations against the dispatch directly: every frame must
/// produce exactly one reply that parses back as a response envelope, with
/// protocol-or-domain categories on failures — and the service must still
/// classify afterwards.
#[test]
fn fuzzed_frames_always_get_structured_replies() {
    let service = Service::new(Engine::builder().parallelism(2).build());
    let seeds = seed_frames();
    let mut rng = StdRng::seed_from_u64(0x1c1_5e7f);
    let mut error_replies = 0u32;
    for round in 0..400 {
        let base = &seeds[rng.gen_range(0..seeds.len())];
        let frame = mutate(&mut rng, base);
        let reply = service.handle_line(&frame);
        // The reply must serialize and parse back as a valid envelope.
        let parsed = ResponseEnvelope::from_json_str(&reply.to_json_string())
            .unwrap_or_else(|e| panic!("round {round}: unparseable reply ({e}) for {frame:?}"));
        if let Err(error) = parsed.result {
            error_replies += 1;
            assert!(
                !error.category.is_empty() && !error.message.is_empty(),
                "round {round}: empty error structure for {frame:?}"
            );
        }
    }
    assert!(
        error_replies > 100,
        "the mutator should produce plenty of rejects, got {error_replies}"
    );

    // The pool and cache survived the bombardment.
    let verdicts = service
        .engine()
        .classify_many(&[problems::coloring(3), problems::coloring(2)]);
    assert!(verdicts.iter().all(Result::is_ok));
    let health = service.handle_line(r#"{"v":1,"id":9,"kind":"health"}"#);
    assert!(health.is_ok(), "service must stay healthy after fuzzing");
}

/// Oversized frames are rejected with a structured reply and the stream
/// keeps serving (stdio framing harness).
#[test]
fn oversized_frames_are_rejected_but_not_fatal() {
    let service = Arc::new(Service::new(Engine::builder().parallelism(1).build()));
    let mut input = Vec::new();
    input.extend_from_slice(&vec![b'a'; MAX_FRAME_BYTES + 16]);
    input.push(b'\n');
    input.extend_from_slice(b"{\"v\":1,\"id\":2,\"kind\":\"health\"}\n");
    let mut output = Vec::new();
    serve_stdio(&service, input.as_slice(), &mut output).expect("stdio serve");

    let text = String::from_utf8(output).expect("utf-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    let rejected = ResponseEnvelope::from_json_str(lines[0]).unwrap();
    let error = rejected.result.expect_err("oversized frame must fail");
    assert_eq!(error.category, "protocol");
    assert!(error.message.contains("exceeds"), "{}", error.message);
    let health = ResponseEnvelope::from_json_str(lines[1]).unwrap();
    assert_eq!(health.id, Some(2));
    assert!(health.is_ok(), "stream must survive the oversized frame");
}

/// Malformed frames *inside a pipelined burst*: the whole mixed burst is
/// written before any reply is read, over a deliberately small in-flight
/// window. Every non-blank frame must get exactly one reply, in frame
/// order; the known-good frames must succeed with their ids echoed; and the
/// connection and window must survive and drain.
#[test]
fn pipelined_burst_interleaving_malformed_frames_survives() {
    let service = Arc::new(Service::new(Engine::builder().parallelism(2).build()));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind")
        .max_inflight(4);
    let handle = server.start().expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let seeds = seed_frames();
    let mut rng = StdRng::seed_from_u64(0x10_aded_c0de);
    // Some(id): a known-good classify that must succeed with this id echoed.
    // None: hostile (mutated or oversized) — only "one parseable reply" is
    // guaranteed (a mutation can coincidentally stay well-formed).
    let mut frames: Vec<(String, Option<i64>)> = Vec::new();
    for round in 0..60i64 {
        match round % 3 {
            0 => {
                let k = 2 + (round % 4) as usize;
                let payload =
                    JsonValue::object([("problem", problems::coloring(k).to_spec().to_json())]);
                let id = 7000 + round;
                frames.push((
                    RequestEnvelope::new(id, "classify", payload).to_json_string(),
                    Some(id),
                ));
            }
            1 if round == 31 => {
                // One oversized line mid-burst: rejected, not fatal.
                frames.push(("x".repeat(MAX_FRAME_BYTES + 17), None));
            }
            _ => {
                let base = &seeds[rng.gen_range(0..seeds.len())];
                let frame = mutate(&mut rng, base);
                if frame.trim().is_empty() {
                    continue; // blank frames get no reply by design
                }
                frames.push((frame, None));
            }
        }
    }

    // Flood the entire mixed burst before reading anything.
    for (frame, _) in &frames {
        client.send_frame(frame).expect("send burst frame");
    }
    let mut rejects = 0u32;
    for (frame, expectation) in &frames {
        let reply = client.recv_frame().expect("every frame gets a reply");
        let parsed = ResponseEnvelope::from_json_str(&reply)
            .unwrap_or_else(|e| panic!("unparseable reply ({e}) for {frame:?}"));
        match expectation {
            Some(id) => {
                assert_eq!(parsed.id, Some(*id), "good frames echo ids in order");
                assert!(parsed.is_ok(), "good frame rejected: {reply}");
            }
            None => {
                if !parsed.is_ok() {
                    rejects += 1;
                }
            }
        }
    }
    assert!(
        rejects > 10,
        "the mutator should produce rejects: {rejects}"
    );

    // The window drained and the connection still classifies.
    let verdict = client
        .classify(&problems::coloring(3).to_spec())
        .expect("connection survives the mixed burst");
    assert_eq!(verdict.complexity.wire_name(), "log-star");
    assert_eq!(
        service.metrics_snapshot().pipeline_inflight,
        0,
        "window drained"
    );
    drop(client);
    handle.shutdown();
}

/// The same robustness over a real TCP connection: garbage frames, then a
/// well-formed request on the very same socket.
#[test]
fn tcp_connection_survives_fuzzed_frames() {
    let service = Arc::new(Service::new(Engine::builder().parallelism(1).build()));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let handle = server.start().expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let seeds = seed_frames();
    let mut rng = StdRng::seed_from_u64(0xbadf00d);
    for _ in 0..50 {
        let base = &seeds[rng.gen_range(0..seeds.len())];
        let frame = mutate(&mut rng, base);
        if frame.trim().is_empty() {
            continue; // blank frames get no reply by design
        }
        client.send_frame(&frame).expect("send fuzzed frame");
        let reply = client.recv_frame().expect("every frame gets a reply");
        ResponseEnvelope::from_json_str(&reply).expect("reply parses");
    }

    let verdict = client
        .classify(&problems::coloring(3).to_spec())
        .expect("connection must survive the fuzz loop");
    assert_eq!(verdict.complexity.wire_name(), "log-star");
    drop(client);
    handle.shutdown();
}
