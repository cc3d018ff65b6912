//! Byte-identity tests for the zero-serialization hot path: a spliced reply
//! (cached payload bytes with the request id patched in) must be
//! indistinguishable on the wire from a freshly serialized envelope — for
//! every request kind, over TCP and on stdio — and frames that
//! cannot splice (string ids, malformed payloads, error replies) must fall
//! back to the slow path without touching the bytes cache.

use lcl_paths::gen::GenConfig;
use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::{
    Instance, RequestEnvelope, ResponseEnvelope, StreamInputs, StreamInstanceSpec, Topology,
};
use lcl_paths::{problems, Engine};
use lcl_server::{serve_stdio, Client, Server, Service};
use std::sync::Arc;

fn service() -> Arc<Service> {
    Arc::new(Service::new(Engine::builder().parallelism(2).build()))
}

fn frame(id: i64, kind: &str, payload: JsonValue) -> String {
    RequestEnvelope::new(id, kind, payload).to_json_string()
}

fn classify_frame(id: i64) -> String {
    frame(
        id,
        "classify",
        JsonValue::object([("problem", problems::coloring(3).to_spec().to_json())]),
    )
}

/// One frame of every request kind. The first classify is the cold miss;
/// the second attaches the reply bytes; the extreme-id pair are pure bytes
/// hits exercising the longest and the sign-carrying id splices. The
/// streaming solve goes last so lock-step draining stays simple.
fn all_kind_frames() -> Vec<(String, bool)> {
    let spec = problems::coloring(3).to_spec();
    let stream = StreamInstanceSpec {
        topology: Topology::Cycle,
        length: 64,
        inputs: StreamInputs::Uniform { label: 0 },
    };
    vec![
        (classify_frame(1), false),
        (classify_frame(2), false),
        (classify_frame(i64::MAX), false),
        (classify_frame(i64::MIN), false),
        (
            frame(
                3,
                "classify_many",
                JsonValue::object([(
                    "problems",
                    JsonValue::Array(vec![
                        spec.to_json(),
                        problems::coloring(4).to_spec().to_json(),
                    ]),
                )]),
            ),
            false,
        ),
        (
            frame(
                4,
                "solve",
                JsonValue::object([
                    ("problem", spec.to_json()),
                    (
                        "instance",
                        Instance::from_indices(Topology::Cycle, &[0; 12]).to_json(),
                    ),
                ]),
            ),
            false,
        ),
        (frame(5, "generate", GenConfig::new(11).to_json()), false),
        (frame(6, "stats", JsonValue::Null), false),
        (frame(7, "health", JsonValue::Null), false),
        (frame(8, "metrics", JsonValue::Null), false),
        (
            frame(
                9,
                "solve_stream",
                JsonValue::object([("problem", spec.to_json()), ("instance", stream.to_json())]),
            ),
            true,
        ),
    ]
}

/// The wire line re-serialized through the canonical envelope writer must
/// reproduce itself exactly: a spliced reply and a fresh one are the same
/// bytes or this fails.
fn assert_canonical(line: &str, ctx: &str) {
    let envelope = ResponseEnvelope::from_json_str(line)
        .unwrap_or_else(|e| panic!("[{ctx}] unparseable reply `{line}`: {e}"));
    assert_eq!(
        envelope.into_json_string(),
        line,
        "[{ctx}] reply is not the canonical envelope serialization"
    );
}

/// `line` with its leading `"id":<id>` swapped for `"id":1` — the only
/// bytes a spliced twin may differ in.
fn with_id_1(line: &str, id: i64) -> String {
    line.replacen(&format!("\"id\":{id}"), "\"id\":1", 1)
}

/// Shared counter assertions for the all-kinds workload: the three hot
/// classifies all spliced; the first of them rendered and attached the
/// bytes, the other two reused them.
fn assert_fast_lane_engaged(service: &Service, ctx: &str) {
    assert_eq!(service.metrics().spliced_frames(), 3, "[{ctx}]");
    let cache = service.engine().cache_stats();
    assert_eq!(cache.bytes_misses, 1, "[{ctx}]");
    assert_eq!(cache.bytes_hits, 2, "[{ctx}]");
}

/// The all-kinds workload through `serve_stdio`, one line per reply frame.
fn stdio_replies(service: &Arc<Service>) -> Vec<String> {
    let input: String = all_kind_frames()
        .into_iter()
        .map(|(request, _)| format!("{request}\n"))
        .collect();
    let mut output = Vec::new();
    serve_stdio(service, input.as_bytes(), &mut output).expect("stdio session");
    String::from_utf8(output)
        .expect("replies are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn every_reply_is_canonical_envelope_bytes_over_tcp() {
    let ctx = "reactor";
    let stdio = stdio_replies(&service());
    let service = service();
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind")
        .start()
        .expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let mut replies: Vec<String> = Vec::new();
    for (request, streaming) in all_kind_frames() {
        client.send_frame(&request).expect("send");
        loop {
            let line = client.recv_frame().expect("recv");
            let done = !streaming
                || ResponseEnvelope::from_json_str(&line)
                    .ok()
                    .and_then(|e| e.result.ok())
                    .is_some_and(|p| p.get("done").is_some());
            replies.push(line);
            if done {
                break;
            }
        }
    }

    for line in &replies {
        assert_canonical(line, ctx);
    }
    // The spliced twins differ from the cold reply only in the id.
    assert_eq!(with_id_1(&replies[1], 2), replies[0], "[{ctx}]");
    assert_eq!(with_id_1(&replies[2], i64::MAX), replies[0], "[{ctx}]");
    assert_eq!(with_id_1(&replies[3], i64::MIN), replies[0], "[{ctx}]");
    assert_fast_lane_engaged(&service, ctx);
    handle.shutdown();

    // TCP and stdio serve the same bytes, apart from the wall-clock fields
    // of the `stats` (id 6) and `metrics` (id 8) replies.
    assert_eq!(replies.len(), stdio.len());
    for (tcp, stdio) in replies.iter().zip(&stdio) {
        if !tcp.starts_with("{\"id\":6,") && !tcp.starts_with("{\"id\":8,") {
            assert_eq!(tcp, stdio, "TCP and stdio replies differ");
        }
    }
}

#[test]
fn every_reply_is_canonical_envelope_bytes_on_stdio() {
    let service = service();
    let replies = stdio_replies(&service);
    assert!(
        replies.len() > all_kind_frames().len(),
        "chunks arrived too"
    );
    for line in &replies {
        assert_canonical(line, "stdio");
    }
    assert_eq!(with_id_1(&replies[1], 2), replies[0]);
    assert_eq!(with_id_1(&replies[2], i64::MAX), replies[0]);
    assert_eq!(with_id_1(&replies[3], i64::MIN), replies[0]);
    assert_fast_lane_engaged(&service, "stdio");
}

#[test]
fn splicing_on_and_off_produce_the_same_bytes_for_deterministic_kinds() {
    // `stats` and `metrics` replies embed wall-clock fields, so the
    // byte-for-byte comparison drives every *deterministic* kind; those two
    // are still covered by the canonical-roundtrip tests above.
    let deterministic: String = all_kind_frames()
        .into_iter()
        .filter(|(request, _)| !request.contains("\"stats\"") && !request.contains("\"metrics\""))
        .map(|(request, _)| format!("{request}\n"))
        .collect();
    let run = |splice: bool| -> (Vec<String>, u64) {
        let service = Arc::new(
            Service::new(Engine::builder().parallelism(1).build()).with_reply_splice(splice),
        );
        let mut output = Vec::new();
        serve_stdio(&service, deterministic.as_bytes(), &mut output).expect("stdio session");
        let lines = std::str::from_utf8(&output)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        (lines, service.metrics().spliced_frames())
    };
    let (spliced, fast) = run(true);
    let (rendered, slow) = run(false);
    assert_eq!(spliced, rendered, "the fast lane may never change the wire");
    assert_eq!(fast, 3, "the spliced run took the fast lane");
    assert_eq!(slow, 0, "the toggled-off run never spliced");
}

#[test]
fn string_ids_with_escapable_characters_error_and_never_splice() {
    let service = service();
    let problem = problems::coloring(3).to_spec().to_json().to_json_string();
    // Prime the bytes cache so a splice *would* be available if the broken
    // frames ever reached the fast lane.
    let mut input = format!("{}\n{}\n", classify_frame(1), classify_frame(2));
    // Ids must be integers; these are strings whose content lands in every
    // JSON escaping corner (quote, backslash, unicode) — each must come
    // back as a structured error, bypassing the splice lane entirely.
    for id in ["quo\"te", "back\\slash", "uni\u{1F980}code"] {
        let id_token = JsonValue::Str(id.to_string()).to_json_string();
        input.push_str(&format!(
            "{{\"v\":1,\"id\":{id_token},\"kind\":\"classify\",\"payload\":{{\"problem\":{problem}}}}}\n"
        ));
    }
    // And one structurally valid classify with a malformed problem, twice:
    // error replies are recomputed every time, never cached or spliced.
    for id in [50, 51] {
        input.push_str(&format!("{}\n", frame(id, "classify", JsonValue::Null)));
    }
    input.push_str(&format!("{}\n", classify_frame(60)));

    let mut output = Vec::new();
    serve_stdio(&service, input.as_bytes(), &mut output).expect("stdio session");
    let replies: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
    assert_eq!(replies.len(), 8);

    for line in &replies {
        assert_canonical(line, "stdio");
    }
    for line in &replies[2..5] {
        let envelope = ResponseEnvelope::from_json_str(line).unwrap();
        assert!(!envelope.is_ok(), "string ids must be rejected: {line}");
    }
    let (first_error, second_error) = (
        ResponseEnvelope::from_json_str(replies[5]).unwrap(),
        ResponseEnvelope::from_json_str(replies[6]).unwrap(),
    );
    assert!(!first_error.is_ok() && !second_error.is_ok());
    // The closing valid classify still splices, byte-identical to the hot
    // reply from before the broken frames.
    assert_eq!(with_id_1(replies[7], 60), replies[0]);

    // Exactly the two hot classifies touched the fast lane: one attach,
    // one reuse, zero contributions from the five broken frames.
    assert_eq!(service.metrics().spliced_frames(), 2);
    let cache = service.engine().cache_stats();
    assert_eq!(cache.bytes_misses, 1);
    assert_eq!(cache.bytes_hits, 1);
    assert_eq!(cache.entries, 1, "errors are never cached");
}
