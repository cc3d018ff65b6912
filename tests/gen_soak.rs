//! Randomized differential soak over the `lcl-gen` workload.
//!
//! Two independent implementations of the decision procedure are run over
//! ~500 seeded generated problems sweeping every [`Family`] (including
//! `unsolvable` and `near-threshold`, per the acceptance criteria):
//!
//! 1. the **memoized** path — [`Engine::classify`] through the LRU memo
//!    cache, exactly as the server serves it, and
//! 2. the **naive semigroup** path — a fresh [`classify_with_options`] per
//!    problem, straight through the transfer-relation machinery with no
//!    cache in front,
//!
//! and every verdict is cross-checked against brute-force
//! [`TransferSystem`] solvability on sampled concrete instances. A second
//! test replays a slice of the corpus through the `generate` protocol kind
//! over TCP and asserts the wire replies are byte-identical to the
//! in-process service's.

use std::collections::BTreeMap;
use std::sync::Arc;

use lcl_paths::classifier::{classify_with_options, ClassifierOptions, Complexity};
use lcl_paths::gen::{generate, Family, GenConfig};
use lcl_paths::problem::{Instance, RequestEnvelope, Topology};
use lcl_paths::semigroup::TransferSystem;
use lcl_paths::Engine;
use lcl_server::{Client, Server, Service};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded problems in the soak (the acceptance floor is 500).
const SOAK_PROBLEMS: usize = 500;

/// Random concrete instances sampled per solvable problem for the
/// brute-force solvability cross-check.
const WORDS_PER_PROBLEM: usize = 3;

/// The deterministic soak corpus: the config for slot `i`. Families rotate
/// fastest so every contiguous slice covers all four; alphabets and
/// densities sweep on longer strides so the corpus is not 125 copies of the
/// same shape.
fn soak_config(i: usize) -> GenConfig {
    let density = [35, 60, 85];
    GenConfig::new(i as u64)
        .family(Family::ALL[i % Family::ALL.len()])
        .input_labels(1 + (i / 4) % 3)
        .output_labels(1 + (i / 12) % 3)
        .node_density_pct(density[(i / 36) % 3])
        .edge_density_pct(density[(i / 108) % 3])
        .out_degree(1 + (i as u32 / 2) % 2)
}

/// The differential soak proper: memoized engine vs uncached semigroup
/// classification over the full corpus, with brute-force spot checks.
#[test]
fn soak_generated_problems_classify_identically_on_both_paths() {
    let engine = Engine::builder().parallelism(2).build();
    let options = ClassifierOptions::default();
    let mut words = StdRng::seed_from_u64(0xD1FF_50AC);
    let mut by_complexity: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut by_family: BTreeMap<&'static str, usize> = BTreeMap::new();

    for i in 0..SOAK_PROBLEMS {
        let config = soak_config(i);
        let name = config.problem_name();
        let problem = generate(&config).unwrap_or_else(|e| panic!("{name}: generate: {e}"));

        let memoized = engine
            .classify(&problem)
            .unwrap_or_else(|e| panic!("{name}: engine path: {e}"));
        let naive = classify_with_options(&problem, &options)
            .unwrap_or_else(|e| panic!("{name}: semigroup path: {e}"));
        assert_eq!(
            memoized.complexity(),
            naive.complexity(),
            "{name}: memoized and naive paths disagree on the class"
        );
        assert_eq!(
            memoized.num_types(),
            naive.num_types(),
            "{name}: type-semigroup sizes diverged"
        );
        assert_eq!(
            memoized.pump_threshold(),
            naive.pump_threshold(),
            "{name}: pumping thresholds diverged"
        );

        // Brute force keeps both implementations honest: an unsolvable
        // verdict must come with a witness the transfer system rejects, and
        // a solvable verdict means every sampled cycle admits a labeling.
        let ts = TransferSystem::new(&problem);
        if memoized.complexity() == Complexity::Unsolvable {
            let witness = memoized
                .unsolvability_witness()
                .unwrap_or_else(|| panic!("{name}: unsolvable verdict without a witness"));
            assert!(
                !ts.instance_solvable(witness).unwrap(),
                "{name}: claimed witness is solvable by brute force"
            );
        } else {
            // Complexity is asymptotic: solvability is only promised for
            // cycles of length ≥ the pumping threshold (a triangle cannot
            // be 2-colored without making 2-coloring "unsolvable"), so the
            // sampled instances start there.
            let floor = memoized.pump_threshold().max(1);
            for _ in 0..WORDS_PER_PROBLEM {
                let len = floor + words.gen_range(0..6usize);
                let word: Vec<u16> = (0..len)
                    .map(|_| words.gen_range(0..problem.num_inputs() as u16))
                    .collect();
                let instance = Instance::from_indices(Topology::Cycle, &word);
                assert!(
                    ts.instance_solvable(&instance).unwrap(),
                    "{name}: classified {} but the cycle {word:?} has no labeling",
                    memoized.complexity()
                );
            }
        }

        *by_complexity
            .entry(memoized.complexity().wire_name())
            .or_default() += 1;
        *by_family.entry(config.family.wire_name()).or_default() += 1;
    }

    // The acceptance criteria: the soak must have exercised at least one
    // problem of the unsolvable-by-construction family and a real share of
    // near-threshold ones — and actually produced unsolvable verdicts.
    assert!(
        by_family.get("unsolvable").copied().unwrap_or(0) >= SOAK_PROBLEMS / 8,
        "family coverage collapsed: {by_family:?}"
    );
    assert!(
        by_family.get("near-threshold").copied().unwrap_or(0) >= SOAK_PROBLEMS / 8,
        "family coverage collapsed: {by_family:?}"
    );
    assert!(
        by_complexity.get("unsolvable").copied().unwrap_or(0) >= 1,
        "no unsolvable verdict in the whole soak: {by_complexity:?}"
    );
    assert!(
        by_complexity.len() >= 3,
        "the corpus should straddle at least three classes: {by_complexity:?}"
    );
}

/// A slice of the soak corpus replayed through the `generate` protocol kind:
/// the wire problem must be byte-identical to local generation, its verdict
/// must match the in-process engine, and every reply frame must match the
/// in-process service's byte for byte.
#[test]
fn generate_over_the_wire_matches_local_generation_on_every_backend() {
    let reference = Engine::builder().parallelism(1).build();
    let in_process = Service::new(Engine::builder().parallelism(1).build());
    let service = Arc::new(Service::new(Engine::builder().parallelism(2).build()));
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind loopback")
        .start()
        .expect("start server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    for i in (0..SOAK_PROBLEMS).step_by(16) {
        let config = soak_config(i);
        let line = RequestEnvelope::new(i as i64, "generate", config.to_json()).to_json_string();
        client.send_frame(&line).expect("send generate");
        assert_eq!(
            client.recv_frame().expect("generate reply"),
            in_process.handle_line(&line).into_json_string(),
            "{}: wire reply differs from the in-process service",
            config.problem_name()
        );
        let (spec, hash) = client
            .generate(&config)
            .unwrap_or_else(|e| panic!("{}: {e}", config.problem_name()));
        let local = generate(&config).expect("local generation");
        assert_eq!(
            hash,
            format!("{:016x}", local.canonical_hash()),
            "{}: wire hash disagrees with local generation",
            config.problem_name()
        );
        assert_eq!(
            spec.to_json_string(),
            local.to_spec().to_json_string(),
            "{}: wire spec is not byte-identical",
            config.problem_name()
        );

        // The generated spec round-trips straight back into `classify`.
        let verdict = client
            .classify(&spec)
            .unwrap_or_else(|e| panic!("classify generated spec: {e}"));
        let expected = reference.verdict(&local).expect("in-process verdict");
        assert_eq!(
            verdict.complexity,
            expected.complexity,
            "{}: wire and in-process verdicts disagree",
            config.problem_name()
        );
    }
    drop(client);
    handle.shutdown();
}
