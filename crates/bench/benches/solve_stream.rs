//! E-STREAM: the `solve_stream` protocol kind at its design point — labeling
//! paths and cycles of a **million nodes** without ever materializing them.
//!
//! Two experiments:
//!
//! 1. **engine streaming** — `Engine::solve_stream` over a 1,000,000-node
//!    path and cycle of the `O(1)` `copy-input` problem, drained in
//!    server-sized chunks. Printed: rows/sec and the cursor's peak resident
//!    window. **Asserted**: `peak_resident_nodes()` stays at
//!    `chunk + 2·radius + 1` — under 1/10 of the instance — so the solve
//!    provably never holds the instance in memory;
//! 2. **end-to-end TCP** — the same million-node instances streamed through
//!    an `lcl-serve` loopback connection (chunked reply frames, bounded
//!    write backlog, pipelined slot accounting). Printed: rows/sec.
//!    **Asserted**: the chunk count and the FNV-1a digest of the label
//!    stream equal the engine cursor's from experiment 1, and every stream
//!    passes the client's ordering checks (id echo, `seq` increments,
//!    contiguous offsets, node-count reconciliation).
//!
//! `copy-input` is the workload because its synthesized constant-round
//! algorithm streams at ~6 µs/node; a `Θ(log* n)` problem like 3-coloring
//! streams correctly through the same path (covered by tests) but pays
//! ~0.5 ms/node for its radius-470 views, which would make a million-node
//! bench run take minutes for no additional coverage.

use lcl_bench::banner;
use lcl_classifier::Engine;
use lcl_problem::{StreamInputs, StreamInstanceSpec, Topology};
use lcl_problems::copy_input;
use lcl_server::{Client, Server, Service, DEFAULT_MAX_CHUNK_BYTES};
use std::sync::Arc;
use std::time::Instant;

/// One million nodes: the scale the subsystem exists for.
const NODES: u64 = 1_000_000;

/// Labels per chunk at the server's default `--max-chunk-bytes`, mirrored
/// here so experiment 1 drains the cursor exactly as the service does.
fn server_chunk_nodes() -> usize {
    (DEFAULT_MAX_CHUNK_BYTES - 128) / 8
}

fn instances() -> Vec<StreamInstanceSpec> {
    vec![
        StreamInstanceSpec {
            topology: Topology::Path,
            length: NODES,
            inputs: StreamInputs::Pattern {
                pattern: vec![0, 1],
            },
        },
        StreamInstanceSpec {
            topology: Topology::Cycle,
            length: NODES,
            inputs: StreamInputs::Uniform { label: 0 },
        },
    ]
}

/// FNV-1a over the label stream: cheap enough to run inside the timed
/// region, strong enough to catch any engine-vs-wire divergence.
fn fnv1a(hash: u64, labels: &[u16]) -> u64 {
    labels.iter().fold(hash, |mut h, &l| {
        for byte in l.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    })
}

fn main() {
    banner(
        "E-STREAM",
        "million-node streaming solve: O(window) memory, chunked replies (this repository's addition)",
        "rows/sec for 1M-node path + cycle, in-engine and end-to-end over TCP",
    );

    let problem = copy_input();
    let chunk = server_chunk_nodes();
    println!(
        "workload: {} on {NODES} nodes, {chunk} labels per chunk (the server default)\n",
        problem.name()
    );

    println!("-- engine streaming: the cursor itself ------------------------");
    let engine = Engine::builder().parallelism(1).build();
    let mut engine_outcomes = Vec::new();
    for spec in instances() {
        let start = Instant::now();
        let mut solution = engine
            .solve_stream(&problem, &spec)
            .expect("stream must open");
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut emitted = 0u64;
        let mut chunks = 0u64;
        while let Some(part) = solution.next_chunk(chunk) {
            let part = part.expect("chunk must verify");
            let indices: Vec<u16> = part.iter().map(|o| o.0).collect();
            digest = fnv1a(digest, &indices);
            emitted += part.len() as u64;
            chunks += 1;
        }
        let elapsed = start.elapsed();
        assert_eq!(emitted, NODES, "every node must be labeled exactly once");

        // The O(window) claim, asserted: the cursor never held more than one
        // chunk plus the radius overlap — a fixed fraction of the instance.
        let peak = solution.peak_resident_nodes();
        let window = chunk + 2 * solution.rounds() + 1;
        assert!(
            peak <= window,
            "peak resident {peak} nodes exceeds the {window}-node window"
        );
        assert!(
            (peak as u64) < NODES / 10,
            "peak resident {peak} nodes: the instance was effectively materialized"
        );
        let rows = NODES as f64 / elapsed.as_secs_f64().max(1e-12);
        println!(
            "{:>6} x {NODES}: {elapsed:>8.2?}   {rows:>12.0} rows/s   peak window {peak} nodes ({:.2}% of instance)",
            spec.topology.to_string(),
            100.0 * peak as f64 / NODES as f64,
        );
        engine_outcomes.push((digest, chunks));
    }

    println!("\n-- end-to-end TCP: chunked reply frames -----------------------");
    let spec_wire = problem.to_spec();
    let service = Arc::new(Service::new(Engine::builder().parallelism(2).build()));
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind loopback")
        .start()
        .expect("start server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for (instance, engine_outcome) in instances().into_iter().zip(&engine_outcomes) {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let start = Instant::now();
        let summary = client
            .solve_stream(&spec_wire, &instance, |_, outputs| {
                digest = fnv1a(digest, outputs);
            })
            .unwrap_or_else(|e| panic!("stream: {e}"));
        let elapsed = start.elapsed();
        assert_eq!(summary.nodes, NODES, "node count");
        let rows = NODES as f64 / elapsed.as_secs_f64().max(1e-12);
        println!(
            "{:>6}: {elapsed:>8.2?}   {rows:>12.0} rows/s   {} chunk frames",
            instance.topology.to_string(),
            summary.chunks,
        );
        // Engine-vs-wire byte identity, via the digests.
        assert_eq!(
            (digest, summary.chunks),
            *engine_outcome,
            "the wire streamed different labels or chunks than the engine cursor"
        );
    }
    drop(client);
    handle.shutdown();
    println!(
        "\nthe wire streamed byte-identical labelings ({} instances, digests checked against the engine cursor)",
        engine_outcomes.len()
    );
}
