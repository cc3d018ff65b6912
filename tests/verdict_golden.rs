//! Byte-identity golden for whole classifications.
//!
//! `tests/fixtures/verdict_golden.txt` holds one line per problem: the
//! verdict's wire JSON (complexity, `num_types`, `pump_threshold`, the
//! problem's name and canonical hash, the algorithm name and the
//! unsolvability witness) and the synthesized algorithm's radius at
//! `n = 2²⁰`, tab-separated. `tests/feasibility_golden.rs` pins the feasible
//! structures but neither the type count, the pumping threshold nor the
//! witness word, all of which follow from the semigroup's enumeration order.
//! A change meant to alter any of them rewrites the fixture: one [`render`]
//! line per entry of [`golden_problems`], in order.
//!
//! The problems: those of `tests/feasibility_golden.rs` (the colouring
//! ladder up to `coloring(14)`, the unconstrained ladder up to
//! `unconstrained(16)`, the corpus and 320 seeded draws), then the cold
//! problem base of the repository benchmark: its two ladders plus four
//! structurally new draws for every family × input alphabet (1–3) × output
//! alphabet (3–8) cell, drawn from the same fixed seed in the same order.

use lcl_paths::classifier::{classify_with_options, ClassifierOptions, Verdict};
use lcl_paths::gen::{generate, Family, GenConfig};
use lcl_paths::problem::NormalizedLcl;
use lcl_paths::problems;
use lcl_paths::sim::LocalAlgorithm;
use std::collections::HashSet;

/// The problems of `tests/feasibility_golden.rs`, in its order.
fn feasibility_golden_problems() -> Vec<NormalizedLcl> {
    let draw = |i: usize| {
        GenConfig::new(i as u64)
            .family(Family::ALL[i % Family::ALL.len()])
            .input_labels(1 + (i / 4) % 3)
            .output_labels(3 + (i / 12) % 8)
    };
    let mut out: Vec<NormalizedLcl> = (3..=14).map(problems::coloring).collect();
    out.extend((1..=16).map(problems::unconstrained));
    out.extend(problems::corpus().into_iter().map(|e| e.problem));
    out.extend((0..320).map(|i| generate(&draw(i)).expect("valid config")));
    out
}

/// The splitmix64 generator the benchmark draws its cold base with.
struct Rng(u64);

impl Rng {
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn new(seed: u64) -> Rng {
        Rng(Self::mix(seed ^ 0x6c63_6c62_656e_6368))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        Self::mix(self.0)
    }
}

/// The benchmark's cold problem base: the colouring ladder `3..=14`, the
/// unconstrained ladder `2..=16`, then per family × inputs × outputs cell the
/// first four draws whose structure is new.
fn cold_base() -> Vec<NormalizedLcl> {
    const PER_CELL: usize = 4;
    let mut rng = Rng::new(0x636f_6c64_6261_7365);
    let mut out: Vec<NormalizedLcl> = (3..=14).map(problems::coloring).collect();
    out.extend((2..=16).map(problems::unconstrained));
    let mut seen: HashSet<Vec<u8>> = out.iter().map(|p| p.structural_key()).collect();
    for family in Family::ALL {
        for inputs in 1..=3 {
            for outputs in 3..=8 {
                let mut drawn = 0;
                for _ in 0..PER_CELL * 20 {
                    if drawn == PER_CELL {
                        break;
                    }
                    // Each alphabet size is a draw from a one-value range,
                    // which still consumes one number.
                    let seed = rng.next_u64() >> 1;
                    rng.next_u64();
                    rng.next_u64();
                    let config = GenConfig::new(seed)
                        .family(family)
                        .input_labels(inputs)
                        .output_labels(outputs);
                    let problem = generate(&config).expect("valid config");
                    if seen.insert(problem.structural_key()) {
                        out.push(problem);
                        drawn += 1;
                    }
                }
            }
        }
    }
    out
}

/// Every problem of the golden, in fixture order.
fn golden_problems() -> Vec<NormalizedLcl> {
    let mut out = feasibility_golden_problems();
    out.extend(cold_base());
    out
}

/// One fixture line: the verdict JSON and `radius <r>` for `n = 2²⁰`, or the
/// error the classifier returned.
fn render(problem: &NormalizedLcl) -> String {
    match classify_with_options(problem, &ClassifierOptions::default()) {
        Ok(classification) => format!(
            "{}\tradius {}",
            Verdict::new(problem, &classification).to_json_string(),
            classification.algorithm().radius(1 << 20)
        ),
        Err(e) => format!("{}\terror {e}", problem.name()),
    }
}

#[test]
fn verdicts_are_byte_identical_to_the_golden() {
    let golden = include_str!("fixtures/verdict_golden.txt");
    let expected: Vec<&str> = golden.lines().collect();
    let problems = golden_problems();
    assert_eq!(
        expected.len(),
        problems.len(),
        "one fixture line per problem"
    );
    for (problem, want) in problems.iter().zip(&expected) {
        assert_eq!(
            &render(problem),
            want,
            "{}: verdict changed",
            problem.name()
        );
    }
    let witnesses = expected.iter().filter(|l| l.contains("\"cycle\"")).count();
    assert!(witnesses >= 50, "only {witnesses} lines carry a witness");
}

/// `Verdict::write_json` prints the bytes `to_json` serializes, on every
/// golden verdict.
#[test]
fn the_direct_verdict_writer_prints_the_golden_bytes() {
    let golden = include_str!("fixtures/verdict_golden.txt");
    let problems = golden_problems();
    let mut verdicts = 0;
    for (line, problem) in golden.lines().zip(&problems) {
        let (json, _) = line.split_once('\t').expect("a tab-separated line");
        let classification = classify_with_options(problem, &ClassifierOptions::default())
            .expect("every golden problem classifies");
        let mut direct = String::new();
        Verdict::write_json(problem, &classification, &mut direct);
        let tree = Verdict::new(problem, &classification)
            .to_json()
            .to_json_string();
        assert_eq!(direct, tree, "{}", problem.name());
        assert_eq!(direct, json, "{}", problem.name());
        verdicts += 1;
    }
    assert_eq!(verdicts, 673, "every golden problem has a verdict");
}
