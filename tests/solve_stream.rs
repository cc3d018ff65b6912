//! End-to-end tests for the `solve_stream` protocol kind: chunked labelings
//! that concatenate to exactly the materialized [`Engine::solve`] output,
//! byte-identical frame streams over TCP and the stdio transport, in-order
//! delivery when a stream is
//! pipelined with other requests, and structured rejection of workloads the
//! streaming path cannot serve (Θ(n) problems, out-of-alphabet inputs).

use std::sync::Arc;

use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::{
    Labeling, NormalizedLcl, RequestEnvelope, ResponseEnvelope, StreamInputs, StreamInstanceSpec,
    Topology,
};
use lcl_paths::{problems, Engine};
use lcl_server::{serve_stdio, Client, Server, ServerHandle, Service};

/// Small chunk ceiling (the `--max-chunk-bytes` clamp floor) so even short
/// test streams span several chunk frames: (1024 − 128) / 8 = 112 labels.
const CHUNK_BYTES: usize = 1024;

fn service() -> Arc<Service> {
    Arc::new(
        Service::new(Engine::builder().parallelism(2).build()).with_max_chunk_bytes(CHUNK_BYTES),
    )
}

fn start() -> ServerHandle {
    Server::bind(service(), "127.0.0.1:0")
        .expect("bind loopback")
        .start()
        .expect("start server")
}

/// The streaming workloads: a `Θ(log* n)` problem on a cycle and an `O(1)`
/// problem on a path, both long enough to need several chunks.
fn workloads() -> Vec<(NormalizedLcl, StreamInstanceSpec)> {
    vec![
        (
            problems::coloring(3),
            StreamInstanceSpec {
                topology: Topology::Cycle,
                length: 240,
                inputs: StreamInputs::Uniform { label: 0 },
            },
        ),
        (
            problems::copy_input(),
            StreamInstanceSpec {
                topology: Topology::Path,
                length: 2_000,
                inputs: StreamInputs::Pattern {
                    pattern: vec![0, 1],
                },
            },
        ),
    ]
}

/// Chunks arrive in order and concatenate to exactly the labeling a
/// materialized [`Engine::solve`] produces in-process.
#[test]
fn streamed_chunks_concatenate_to_the_materialized_solve() {
    let reference = Engine::builder().parallelism(1).build();
    let handle = start();
    let mut client = Client::connect(handle.addr()).expect("connect");

    for (problem, spec) in workloads() {
        let mut labels: Vec<u16> = Vec::new();
        let mut chunks = 0u64;
        let summary = client
            .solve_stream(&problem.to_spec(), &spec, |offset, outputs| {
                assert_eq!(
                    offset,
                    labels.len() as u64,
                    "{}: chunk offsets must be contiguous",
                    problem.name()
                );
                labels.extend_from_slice(outputs);
                chunks += 1;
            })
            .unwrap_or_else(|e| panic!("{}: {e}", problem.name()));

        assert_eq!(summary.nodes, spec.length, "node count");
        assert_eq!(summary.chunks, chunks, "chunk count");
        assert!(
            chunks >= 2,
            "{}: the workload must span several chunks, got {chunks}",
            problem.name()
        );

        // The stream is not merely *a* valid labeling: it is exactly the
        // labeling the materialized solve produces.
        let instance = spec.materialize(problem.num_inputs());
        let solved = reference
            .solve(&problem, &instance)
            .expect("materialized solve");
        let expected: Vec<u16> = solved.labeling().outputs().iter().map(|o| o.0).collect();
        assert_eq!(
            labels,
            expected,
            "{}: stream diverged from the materialized solve",
            problem.name()
        );
        assert_eq!(summary.rounds, solved.rounds(), "round count");
        assert_eq!(summary.complexity, solved.complexity(), "class");
        assert!(
            problem.is_valid(&instance, &Labeling::from_indices(&labels)),
            "{}: streamed labeling must verify",
            problem.name()
        );
    }

    drop(client);
    handle.shutdown();
}

/// The request line every transport replays in the byte-identity test.
fn stream_request_line(id: i64) -> String {
    let spec = StreamInstanceSpec {
        topology: Topology::Cycle,
        length: 240,
        inputs: StreamInputs::Uniform { label: 0 },
    };
    let payload = JsonValue::object([
        ("problem", problems::coloring(3).to_spec().to_json()),
        ("instance", spec.to_json()),
    ]);
    RequestEnvelope::new(id, "solve_stream", payload).into_json_string()
}

/// Reads raw reply frames for one stream until the terminal summary frame
/// (the one carrying `done`), returning every line verbatim.
fn collect_stream_frames(client: &mut Client, id: i64) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        let line = client.recv_frame().expect("stream frame");
        let response = ResponseEnvelope::from_json_str(&line).expect("frame parses");
        assert_eq!(response.id, Some(id), "every frame echoes the request id");
        let terminal = response
            .result
            .as_ref()
            .expect("stream frames are ok envelopes")
            .get("done")
            .is_some();
        lines.push(line);
        if terminal {
            return lines;
        }
    }
}

/// The full reply stream — every chunk frame and the terminal summary — is
/// byte-identical over TCP and the stdio transport.
#[test]
fn stream_frames_are_byte_identical_across_backends_and_stdio() {
    let request = stream_request_line(9);
    let handle = start();
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.send_frame(&request).expect("send");
    let tcp_lines = collect_stream_frames(&mut client, 9);
    drop(client);
    handle.shutdown();

    let mut output = Vec::new();
    serve_stdio(&service(), format!("{request}\n").as_bytes(), &mut output).expect("stdio");
    let stdio_lines: Vec<String> = std::str::from_utf8(&output)
        .expect("utf8 output")
        .lines()
        .map(str::to_string)
        .collect();

    assert!(
        tcp_lines.len() > 2,
        "stream must produce chunk frames before the summary"
    );
    assert_eq!(
        tcp_lines, stdio_lines,
        "TCP and stdio must produce byte-identical streams"
    );
}

/// A stream pipelined ahead of other requests holds the reply order: every
/// chunk frame and the stream's summary drain before the next reply.
#[test]
fn pipelined_requests_behind_a_stream_reply_in_order() {
    let handle = start();
    let mut client = Client::connect(handle.addr()).expect("connect");

    let spec = StreamInstanceSpec {
        topology: Topology::Path,
        length: 500,
        inputs: StreamInputs::Pattern {
            pattern: vec![0, 1],
        },
    };
    let payload = JsonValue::object([
        ("problem", problems::copy_input().to_spec().to_json()),
        ("instance", spec.to_json()),
    ]);
    let stream = RequestEnvelope::new(1, "solve_stream", payload).into_json_string();
    let health = r#"{"v":1,"id":2,"kind":"health"}"#;
    client.send_frame(&stream).expect("send stream");
    client.send_frame(health).expect("send health");

    let frames = collect_stream_frames(&mut client, 1);
    assert!(
        frames.len() >= 3,
        "500 nodes at 112 labels/chunk must span several frames"
    );
    let after = client.recv_frame().expect("health reply");
    let response = ResponseEnvelope::from_json_str(&after).expect("reply parses");
    assert_eq!(
        response.id,
        Some(2),
        "the pipelined health reply must follow the whole stream"
    );

    drop(client);
    handle.shutdown();
}

/// Workloads the streaming path cannot serve fail with one structured error
/// envelope and no chunk frames: a `Θ(n)` problem (streaming would need the
/// whole instance) and inputs outside the problem's alphabet.
#[test]
fn unstreamable_workloads_fail_with_a_structured_error() {
    let rejected = [
        (
            "linear problems cannot stream",
            problems::secret_broadcast(),
            StreamInstanceSpec {
                topology: Topology::Cycle,
                length: 100,
                inputs: StreamInputs::Uniform { label: 0 },
            },
        ),
        (
            "inputs must fit the alphabet",
            problems::coloring(3),
            StreamInstanceSpec {
                topology: Topology::Cycle,
                length: 100,
                inputs: StreamInputs::Uniform { label: 7 },
            },
        ),
    ];
    for (what, problem, spec) in rejected {
        let payload = JsonValue::object([
            ("problem", problem.to_spec().to_json()),
            ("instance", spec.to_json()),
        ]);
        let request = RequestEnvelope::new(5, "solve_stream", payload).into_json_string();
        let mut output = Vec::new();
        serve_stdio(&service(), format!("{request}\n").as_bytes(), &mut output).expect("stdio");
        let lines: Vec<&str> = std::str::from_utf8(&output)
            .expect("utf8")
            .lines()
            .collect();
        assert_eq!(lines.len(), 1, "{what}: no chunks before the error");
        let response = ResponseEnvelope::from_json_str(lines[0]).expect("error parses");
        assert_eq!(response.id, Some(5));
        assert!(
            response.result.is_err(),
            "{what}: must be an error envelope"
        );
    }
}
