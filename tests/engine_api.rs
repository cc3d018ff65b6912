//! Integration tests for the service-ready API: the `Engine` (memo cache,
//! parallel batch, end-to-end solve), the `ProblemSpec` wire format over the
//! whole corpus, and the unified error type.

use lcl_paths::classifier::{classify, Complexity, Verdict};
use lcl_paths::problem::{Instance, NormalizedLcl, ProblemSpec, Topology, PROBLEM_SPEC_VERSION};
use lcl_paths::problems::{corpus, KnownComplexity};
use lcl_paths::{Engine, Error};
use std::sync::Arc;

/// Every corpus problem survives the spec → JSON → spec → problem round trip
/// losslessly, with a stable canonical hash and the current format version.
#[test]
fn problem_spec_roundtrips_every_corpus_entry() {
    for entry in corpus() {
        let problem = &entry.problem;
        let spec = ProblemSpec::from_problem(problem);
        assert_eq!(spec.version, PROBLEM_SPEC_VERSION, "{}", problem.name());

        let json = spec.to_json_string();
        let parsed_spec = ProblemSpec::from_json_str(&json)
            .unwrap_or_else(|e| panic!("{}: spec parse failed: {e}", problem.name()));
        assert_eq!(parsed_spec, spec, "{}", problem.name());

        let rebuilt = parsed_spec
            .to_problem()
            .unwrap_or_else(|e| panic!("{}: rebuild failed: {e}", problem.name()));
        assert_eq!(
            &rebuilt,
            problem,
            "{}: round trip not lossless",
            problem.name()
        );
        assert_eq!(
            rebuilt.canonical_hash(),
            problem.canonical_hash(),
            "{}: canonical hash not stable across serialization",
            problem.name()
        );

        // Serializing the rebuilt problem reproduces the same canonical JSON.
        assert_eq!(rebuilt.to_json_string(), json, "{}", problem.name());
    }
}

/// Corpus problems are pairwise structurally distinct, so the canonical hash
/// must separate all of them.
#[test]
fn corpus_canonical_hashes_are_distinct() {
    let entries = corpus();
    for (i, a) in entries.iter().enumerate() {
        for b in entries.iter().skip(i + 1) {
            assert_ne!(
                a.problem.canonical_hash(),
                b.problem.canonical_hash(),
                "hash collision between {} and {}",
                a.problem.name(),
                b.problem.name()
            );
        }
    }
}

/// A second classification of the same problem must be served from the memo
/// cache: the miss counter stays put, the hit counter moves, and both calls
/// share one allocation (so no semigroup recomputation can have happened).
#[test]
fn second_classification_is_a_cache_hit() {
    let engine = Engine::new();
    let problem = corpus()[0].problem.clone();

    let first = engine.classify(&problem).expect("classification");
    let after_first = engine.cache_stats();
    assert_eq!(after_first.misses, 1);
    assert_eq!(after_first.hits, 0);
    assert_eq!(after_first.entries, 1);

    let second = engine.classify(&problem).expect("classification");
    let after_second = engine.cache_stats();
    assert_eq!(after_second.misses, 1, "second call recomputed the problem");
    assert_eq!(after_second.hits, 1);
    assert!(
        Arc::ptr_eq(&first, &second),
        "cache hit must return the identical classification"
    );

    // A structurally identical problem under a different name also hits.
    let mut renamed = NormalizedLcl::builder("renamed-copy");
    renamed.input_alphabet(problem.input_alphabet().clone());
    renamed.output_alphabet(problem.output_alphabet().clone());
    for (i, o) in problem.allowed_node_pairs() {
        renamed.allow_node_idx(i, o);
    }
    for (p, q) in problem.allowed_edge_pairs() {
        renamed.allow_edge_idx(p, q);
    }
    let renamed = renamed.build().expect("renamed copy builds");
    engine.classify(&renamed).expect("classification");
    assert_eq!(engine.cache_stats().hits, 2);
    assert_eq!(engine.cache_stats().misses, 1);
}

/// `classify_many` over the full corpus agrees verdict-for-verdict with
/// sequential `classify`, in input order, at several parallelism levels.
#[test]
fn classify_many_agrees_with_sequential_classify() {
    let entries = corpus();
    let problems: Vec<NormalizedLcl> = entries.iter().map(|e| e.problem.clone()).collect();

    let sequential: Vec<Complexity> = problems
        .iter()
        .map(|p| classify(p).expect("sequential classification").complexity())
        .collect();

    for workers in [1, 4, 8] {
        let engine = Engine::builder().parallelism(workers).build();
        let batch = engine.classify_many(&problems);
        assert_eq!(batch.len(), problems.len());
        for ((problem, result), expected) in problems.iter().zip(&batch).zip(&sequential) {
            let classification = result
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: batch classification failed: {e}", problem.name()));
            assert_eq!(
                &classification.complexity(),
                expected,
                "{} disagrees at parallelism {workers}",
                problem.name()
            );
        }
        // The batch populated the cache: every distinct problem was a miss,
        // and a re-run is all hits.
        let before = engine.cache_stats();
        assert_eq!(before.misses as usize, problems.len());
        let _ = engine.classify_many(&problems);
        let after = engine.cache_stats();
        assert_eq!(after.misses, before.misses, "re-run must not recompute");
        assert_eq!(after.hits, before.hits + problems.len() as u64);
    }
}

/// The batch verdicts also match the corpus ground truths.
#[test]
fn classify_many_matches_ground_truth() {
    let entries = corpus();
    let problems: Vec<NormalizedLcl> = entries.iter().map(|e| e.problem.clone()).collect();
    let engine = Engine::new();
    for (entry, result) in entries.iter().zip(engine.classify_many(&problems)) {
        let got = result.expect("classification").complexity();
        let expected = match entry.expected {
            KnownComplexity::Unsolvable => Complexity::Unsolvable,
            KnownComplexity::Constant => Complexity::Constant,
            KnownComplexity::LogStar => Complexity::LogStar,
            KnownComplexity::Linear => Complexity::Linear,
        };
        assert_eq!(got, expected, "{}", entry.problem.name());
    }
}

/// End-to-end solve on a solvable corpus problem returns a verified labeling
/// and a plausible round count.
#[test]
fn solve_returns_valid_labeling_and_rounds() {
    let engine = Engine::new();
    for entry in corpus() {
        if entry.expected == KnownComplexity::Unsolvable {
            continue;
        }
        let n = 48;
        let inputs: Vec<u16> = (0..n)
            .map(|i| (i % entry.problem.num_inputs()) as u16)
            .collect();
        let instance = Instance::from_indices(Topology::Cycle, &inputs);
        let solution = engine
            .solve(&entry.problem, &instance)
            .unwrap_or_else(|e| panic!("{}: solve failed: {e}", entry.problem.name()));
        assert!(
            entry.problem.is_valid(&instance, solution.labeling()),
            "{}: invalid labeling",
            entry.problem.name()
        );
        assert!(
            solution.rounds() <= n,
            "{}: round count {} exceeds n",
            entry.problem.name(),
            solution.rounds()
        );
    }
}

/// Engine verdicts serialize to JSON and round-trip, for every corpus entry.
#[test]
fn verdicts_roundtrip_over_the_corpus() {
    let engine = Engine::new();
    for entry in corpus() {
        let verdict = engine
            .verdict(&entry.problem)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.problem.name()));
        assert_eq!(verdict.problem_hash, entry.problem.canonical_hash());
        let back = Verdict::from_json_str(&verdict.to_json_string())
            .unwrap_or_else(|e| panic!("{}: {e}", entry.problem.name()));
        assert_eq!(back, verdict, "{}", entry.problem.name());
    }
}

/// Concurrency stress for the memo cache: 8 threads hammer `classify` over
/// an overlapping keyspace with the cache squeezed to 8 entries, so
/// hit-touch, miss-stampede, insert-race
/// and eviction all interleave constantly. While they run, an observer
/// samples `cache_stats()` and checks the live invariants; afterwards the
/// quiescent counters must balance exactly.
#[test]
fn concurrent_classify_stress_keeps_cache_invariants() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    const THREADS: usize = 8;
    const PASSES: usize = 2;
    const CAPACITY: usize = 8;

    let problems: Vec<NormalizedLcl> = corpus().into_iter().map(|e| e.problem).collect();
    // Ground truth: every verdict a stressed engine returns must be
    // byte-identical to a cold engine's recompute.
    let reference = Engine::builder().parallelism(1).build();
    let expected: Vec<String> = problems
        .iter()
        .map(|p| {
            reference
                .verdict(p)
                .expect("reference verdict")
                .to_json_string()
        })
        .collect();

    let engine = Engine::builder()
        .parallelism(2)
        .cache_capacity(CAPACITY)
        .build();

    // Counted via a drop guard so a panicking worker still counts down —
    // otherwise the observer loop below would spin forever and turn a test
    // failure into a CI hang (the scope join propagates the panic after).
    struct Done<'a>(&'a AtomicUsize);
    impl Drop for Done<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Release);
        }
    }

    let finished = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = &engine;
            let problems = &problems;
            let expected = &expected;
            let finished = &finished;
            scope.spawn(move || {
                let _done = Done(finished);
                for pass in 0..PASSES {
                    // Every thread sweeps the same overlapping keyspace in a
                    // different rotation, so the same keys are concurrently
                    // hit, missed, inserted and evicted.
                    for i in 0..problems.len() {
                        let at = (i + t * 3 + pass) % problems.len();
                        let classification =
                            engine.classify(&problems[at]).expect("stressed classify");
                        let verdict = Verdict::new(&problems[at], &classification);
                        assert_eq!(
                            verdict.to_json_string(),
                            expected[at],
                            "thread {t}: verdict diverged under stress for {}",
                            problems[at].name()
                        );
                    }
                }
            });
        }
        // Observer: every sample, even mid-stampede, must respect the
        // capacity bound and the snapshot consistency that the
        // single-critical-section counter updates guarantee.
        while finished.load(Ordering::Acquire) < THREADS {
            let stats = engine.cache_stats();
            assert!(
                stats.entries <= CAPACITY,
                "live entries {} exceeded capacity {CAPACITY}",
                stats.entries
            );
            assert!(
                stats.is_consistent(),
                "snapshot inconsistent mid-run: {stats:?}"
            );
            std::thread::yield_now();
        }
    });

    // Quiescent: every lookup was exactly one hit or one miss, nothing was
    // lost to a poisoned lock, and the books balance.
    let stats = engine.cache_stats();
    let lookups = (THREADS * PASSES * problems.len()) as u64;
    assert_eq!(
        stats.hits + stats.misses,
        lookups,
        "every classify counts exactly one hit or miss: {stats}"
    );
    assert!(stats.entries <= CAPACITY);
    assert_eq!(
        stats.entries as u64 + stats.evictions,
        stats.inserts,
        "quiescent snapshot must balance: {stats}"
    );
    assert!(stats.peak_entries <= CAPACITY);
    // The engine (and its locks) survived: a fresh problem still classifies.
    assert!(engine.classify(&problems[0]).is_ok());
}

/// The `cache_stats()` consistency fix: the old implementation sampled the
/// entry count and the eviction counters from different synchronization
/// domains, so `entries + evictions` could disagree with `inserts` even at
/// rest. The snapshot must balance exactly after a quiescent run —
/// and stay balanced across an explicit `clear_cache`.
#[test]
fn cache_stats_snapshot_balances_after_quiescence() {
    let problems: Vec<NormalizedLcl> = corpus().into_iter().map(|e| e.problem).collect();
    let engine = Engine::builder().parallelism(4).cache_capacity(4).build();
    std::thread::scope(|scope| {
        for t in 0..4 {
            let engine = &engine;
            let problems = &problems;
            scope.spawn(move || {
                for i in 0..problems.len() {
                    engine
                        .classify(&problems[(i + t) % problems.len()])
                        .expect("classify");
                }
            });
        }
    });
    let stats = engine.cache_stats();
    assert_eq!(
        stats.entries as u64 + stats.evictions,
        stats.inserts,
        "{stats}"
    );
    assert!(stats.is_consistent(), "{stats:?}");
    engine.clear_cache();
    let cleared = engine.cache_stats();
    assert_eq!(cleared.entries, 0);
    assert_eq!(cleared.evictions, cleared.inserts, "clear keeps the books");
}

/// The unified error type accepts errors from any subsystem through `?`.
#[test]
fn unified_error_spans_subsystems() {
    fn fails_in_problem() -> Result<(), Error> {
        NormalizedLcl::builder("empty").build()?;
        Ok(())
    }
    fn fails_in_classifier() -> Result<(), Error> {
        let engine = Engine::builder().type_budget(1).build();
        engine.classify(&corpus()[0].problem)?;
        Ok(())
    }
    assert!(matches!(fails_in_problem(), Err(Error::Problem(_))));
    assert!(matches!(fails_in_classifier(), Err(Error::Classifier(_))));
}

/// A snapshot-restored engine is indistinguishable from one that classified
/// the problems itself: verdict bytes, feasible structures, view radii,
/// solves and streamed labels all agree, and the restored engine never
/// classifies (no misses) or evicts anything to get there.
#[test]
fn restored_engine_equals_a_freshly_classified_one() {
    use lcl_paths::gen::{generate, Family, GenConfig};
    use lcl_paths::problem::{StreamInputs, StreamInstanceSpec};
    use lcl_paths::problems::{coloring, input_boundary_detection};
    use lcl_paths::sim::LocalAlgorithm;

    let fresh = Engine::builder().parallelism(1).build();
    let mut problems: Vec<NormalizedLcl> = corpus()
        .into_iter()
        .filter(|e| {
            matches!(
                e.expected,
                KnownComplexity::Constant | KnownComplexity::LogStar
            )
        })
        .map(|e| e.problem)
        .collect();
    // lcl-gen draws until 30 of them carry a feasible structure; the others
    // ride along.
    let mut structured = 0;
    for seed in 0..2000u64 {
        if structured == 30 {
            break;
        }
        let config = GenConfig::new(seed)
            .family(Family::ALL[seed as usize % Family::ALL.len()])
            .input_labels(1 + seed as usize % 2)
            .output_labels(2 + seed as usize % 3);
        let problem = generate(&config).unwrap();
        let Ok(classification) = fresh.classify(&problem) else {
            continue;
        };
        structured += usize::from(classification.algorithm().feasible_structure().is_some());
        problems.push(problem);
    }
    assert_eq!(structured, 30, "too few O(1) / Θ(log* n) draws");
    for problem in &problems {
        fresh.classify(problem).unwrap();
    }

    let restored = Engine::builder().parallelism(1).build();
    let report = restored
        .restore_snapshot(&fresh.snapshot_document())
        .unwrap();
    assert_eq!(report.skipped, 0, "{report:?}");
    for problem in &problems {
        let (want, got) = (
            fresh.classify(problem).unwrap(),
            restored.classify(problem).unwrap(),
        );
        let name = problem.name();
        assert_eq!(
            Verdict::new(problem, &got).to_json_string(),
            Verdict::new(problem, &want).to_json_string(),
            "{name}"
        );
        let structure = got.algorithm().feasible_structure();
        assert_eq!(structure, want.algorithm().feasible_structure(), "{name}");
        for n in [100, 10_000, 1 << 20] {
            let radius = got.algorithm().radius(n);
            assert_eq!(radius, want.algorithm().radius(n), "{name} at n = {n}");
        }
    }

    // Solves run the synthesized algorithm, above its gather threshold too.
    let cases = [
        (coloring(3), StreamInputs::Uniform { label: 0 }),
        (
            input_boundary_detection(),
            StreamInputs::Pattern {
                pattern: vec![0, 0, 1],
            },
        ),
    ];
    for (problem, inputs) in cases {
        let instance = Instance::from_indices(Topology::Cycle, &[0; 200]);
        let (want, got) = (
            fresh.solve(&problem, &instance).unwrap(),
            restored.solve(&problem, &instance).unwrap(),
        );
        assert_eq!(
            (got.labeling(), got.rounds()),
            (want.labeling(), want.rounds())
        );
        let spec = StreamInstanceSpec {
            topology: Topology::Cycle,
            length: 4096,
            inputs,
        };
        let stream = |engine: &Engine| {
            let mut solution = engine.solve_stream(&problem, &spec).unwrap();
            assert!(solution.rounds() < 4096, "{}: gathers", problem.name());
            let mut labels = Vec::new();
            while let Some(chunk) = solution.next_chunk(16) {
                labels.extend(chunk.unwrap());
            }
            (labels, solution.rounds(), solution.peak_resident_nodes())
        };
        assert_eq!(stream(&restored), stream(&fresh), "{}", problem.name());
    }

    let stats = restored.cache_stats();
    assert_eq!((stats.misses, stats.evictions), (0, 0), "{stats}");
    assert_eq!(stats.entries, report.restored);
    assert!(stats.is_consistent(), "{stats:?}");
    // The solves left the restored verdicts untouched.
    for problem in &problems {
        assert_eq!(
            restored.verdict(problem).unwrap().to_json_string(),
            fresh.verdict(problem).unwrap().to_json_string(),
            "{}",
            problem.name()
        );
    }
}

/// `peak_entries` is the high-water mark of the one cache: two batches
/// separated by a clear never were resident together, so the peak is the
/// larger batch, not the sum of per-part marks reached at different times.
#[test]
fn peak_entries_is_the_true_high_water_mark() {
    let problems: Vec<NormalizedLcl> = corpus().into_iter().map(|e| e.problem).collect();
    let (first, second) = problems.split_at(problems.len() / 2);
    let engine = Engine::builder().parallelism(2).build();
    for problem in first {
        engine.classify(problem).expect("classify");
    }
    engine.clear_cache();
    for problem in second {
        engine.classify(problem).expect("classify");
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.entries, second.len());
    assert_eq!(
        stats.peak_entries,
        first.len().max(second.len()),
        "{stats:?}"
    );
    assert!(stats.is_consistent(), "{stats:?}");
}

/// A snapshot lists the cache coldest first, so restoring it into a smaller
/// engine keeps exactly the most recently used entries, whatever the size.
#[test]
fn a_smaller_restore_target_keeps_exactly_the_most_recent_entries() {
    let problems: Vec<NormalizedLcl> = corpus().into_iter().map(|e| e.problem).collect();
    let engine = Engine::builder().parallelism(2).build();
    for problem in &problems {
        engine.classify(problem).expect("classify");
    }
    // Touch the first three again: recency is now problems[3..], then 0, 1, 2.
    let mut recency: Vec<usize> = (3..problems.len()).collect();
    for (at, problem) in problems.iter().enumerate().take(3) {
        engine.classify(problem).expect("hit");
        recency.push(at);
    }
    let document = engine.snapshot_document();

    for keep in 1..problems.len() {
        let hottest = &recency[recency.len() - keep..];
        let small = Engine::builder()
            .parallelism(2)
            .cache_capacity(keep)
            .build();
        let report = small.restore_snapshot(&document).expect("restore");
        assert_eq!(report.restored, problems.len());
        for (at, problem) in problems.iter().enumerate() {
            assert_eq!(
                small.cached(problem).is_some(),
                hottest.contains(&at),
                "{}: kept iff among the {keep} most recently used",
                problem.name()
            );
        }
    }
}

/// The weigher charges the type semigroup a cached `O(1)` or `Θ(log* n)`
/// algorithm keeps: every corpus entry's weight covers its semigroup's
/// resident bytes, and at 8 output labels the two product tables alone add
/// 4 KiB over the per-type estimate.
#[test]
fn cached_weight_covers_the_kept_semigroup() {
    use lcl_paths::classifier::{approximate_classification_weight, Classification};

    fn per_type_estimate(c: &Arc<Classification>) -> u64 {
        let witness = c.unsolvability_witness().map_or(0, |w| w.len() as u64);
        256 + 64 * c.num_types() as u64 + 2 * witness
    }

    let engine = Engine::builder().parallelism(1).build();
    let mut priced = 0;
    for entry in corpus() {
        let classification = engine.classify(&entry.problem).expect("classify");
        let weight = approximate_classification_weight(&classification);
        assert!(weight >= per_type_estimate(&classification));
        if let Some(semigroup) = classification.algorithm().semigroup() {
            assert!(
                weight >= semigroup.resident_bytes() as u64,
                "{}: weight {weight} < {} resident semigroup bytes",
                entry.problem.name(),
                semigroup.resident_bytes()
            );
            priced += 1;
        }
    }
    assert!(priced > 0, "the corpus has O(1) and log* entries");

    let eight = engine
        .classify(&lcl_paths::problems::coloring(8))
        .expect("8-coloring classifies");
    assert!(
        eight.algorithm().semigroup().is_some(),
        "8-coloring is log*"
    );
    assert!(
        approximate_classification_weight(&eight) >= per_type_estimate(&eight) + 4096,
        "the two 2 KiB product tables are charged"
    );
}
