//! Byte-identity golden for the feasibility search.
//!
//! `tests/fixtures/feasibility_golden.txt` holds one line per problem: its
//! complexity and, for `O(1)` and `Θ(log* n)` verdicts, the whole feasible
//! structure the classifier chose — the ordered facing sets, the periodic
//! pattern labelings and every `block()` entry. The fixture was written by
//! the subset-walk search that preceded concept enumeration, so any change to
//! the domains, their order, the block table or the chosen pattern labelings
//! shows up here as a changed line. A change meant to alter the search's
//! output rewrites the fixture: one [`render`] line per entry of
//! [`golden_problems`], in order.
//!
//! The problems: the colouring ladder up to `coloring(14)`, the unconstrained
//! ladder up to `unconstrained(16)`, the corpus and 320 seeded `lcl-gen` draws
//! over all four families with 1–3 input and 3–10 output labels.
//!
//! The facing sets are read through `left_facing(t)` and `right_facing(t)`,
//! and a second test checks that the cache weigher prices every golden
//! structure's resident bytes.

use lcl_paths::classifier::{classify_with_options, ClassifierOptions, FeasibleStructure};
use lcl_paths::gen::{generate, Family, GenConfig};
use lcl_paths::problem::{InLabel, NormalizedLcl, OutLabel};
use lcl_paths::problems;

/// Seeded `lcl-gen` draws in the golden.
const DRAWS: usize = 320;

/// The config of draw `i`: families rotate fastest, then the input alphabet
/// (1–3), then the output alphabet (3–10).
fn draw_config(i: usize) -> GenConfig {
    GenConfig::new(i as u64)
        .family(Family::ALL[i % Family::ALL.len()])
        .input_labels(1 + (i / 4) % 3)
        .output_labels(3 + (i / 12) % 8)
}

/// Every problem of the golden, in fixture order.
fn golden_problems() -> Vec<NormalizedLcl> {
    let mut out: Vec<NormalizedLcl> = (3..=14).map(problems::coloring).collect();
    out.extend((1..=16).map(problems::unconstrained));
    out.extend(problems::corpus().into_iter().map(|e| e.problem));
    out.extend((0..DRAWS).map(|i| generate(&draw_config(i)).expect("valid config")));
    out
}

fn labels(set: &[OutLabel]) -> String {
    let indices: Vec<String> = set.iter().map(|l| l.index().to_string()).collect();
    indices.join(",")
}

fn sets<'a>(sets: impl Iterator<Item = &'a [OutLabel]>) -> String {
    let rendered: Vec<String> = sets.map(labels).collect();
    rendered.join(" ")
}

/// The structure's block table in `(left type, S₀, S₁, right type)` order:
/// one `first.last` token per context (`-` if a context has none), with a
/// run of `n > 1` equal tokens written once as `token*n`.
fn blocks(structure: &FeasibleStructure, alpha: usize) -> String {
    let types = structure.num_types();
    let mut runs: Vec<(String, usize)> = Vec::new();
    for left in 0..types {
        for s0 in 0..alpha {
            for s1 in 0..alpha {
                for right in 0..types {
                    let (s0, s1) = (InLabel::from_index(s0), InLabel::from_index(s1));
                    let token = match structure.block(left, s0, s1, right) {
                        Some((first, last)) => format!("{}.{}", first.index(), last.index()),
                        None => "-".to_string(),
                    };
                    match runs.last_mut() {
                        Some((last, n)) if *last == token => *n += 1,
                        _ => runs.push((token, 1)),
                    }
                }
            }
        }
    }
    let tokens: Vec<String> = runs
        .into_iter()
        .map(|(token, n)| match n {
            1 => token,
            n => format!("{token}*{n}"),
        })
        .collect();
    tokens.join(" ")
}

/// One fixture line: `name`, complexity, then (for structures) the facing
/// sets `A(τ)` and `B(τ)`, the pattern labelings and the block table, all
/// tab-separated.
fn render(problem: &NormalizedLcl) -> String {
    let name = problem.name();
    let classification = match classify_with_options(problem, &ClassifierOptions::default()) {
        Ok(classification) => classification,
        Err(e) => return format!("{name}\terror {e}"),
    };
    let mut line = format!("{name}\t{}", classification.complexity().wire_name());
    if let Some(structure) = classification.algorithm().feasible_structure() {
        let patterns: Vec<String> = structure
            .patterns
            .iter()
            .map(|p| {
                let pattern: Vec<String> = p.pattern.iter().map(|s| s.0.to_string()).collect();
                format!("{}:{}", pattern.join(","), labels(&p.labeling))
            })
            .collect();
        let types = 0..structure.num_types();
        line.push_str(&format!(
            "\tA {}\tB {}\tP {}\tK {}",
            sets(types.clone().map(|t| structure.left_facing(t))),
            sets(types.map(|t| structure.right_facing(t))),
            patterns.join(" "),
            blocks(structure, problem.num_inputs()),
        ));
    }
    line
}

#[test]
fn feasible_structures_are_byte_identical_to_the_golden() {
    let golden = include_str!("fixtures/feasibility_golden.txt");
    let expected: Vec<&str> = golden.lines().collect();
    let problems = golden_problems();
    assert_eq!(
        expected.len(),
        problems.len(),
        "one fixture line per problem"
    );
    let mut structures = 0;
    for (problem, want) in problems.iter().zip(&expected) {
        let got = render(problem);
        structures += usize::from(got.contains("\tK "));
        assert_eq!(&got, want, "{}: feasible structure changed", problem.name());
    }
    assert!(
        structures >= 100,
        "only {structures} problems carry a structure"
    );
}

/// The cache weigher charges what a cached structure holds: every golden
/// entry's weight covers the resident bytes of its feasible structure and
/// its type semigroup.
#[test]
fn cached_weight_covers_every_golden_structure() {
    use lcl_paths::classifier::{approximate_classification_weight, Engine};

    let engine = Engine::builder().parallelism(1).build();
    let mut priced = 0;
    for problem in golden_problems() {
        let Ok(classification) = engine.classify(&problem) else {
            continue;
        };
        let algorithm = classification.algorithm();
        let Some(structure) = algorithm.feasible_structure() else {
            continue;
        };
        let semigroup = algorithm.semigroup().map_or(0, |s| s.resident_bytes());
        let bytes = (structure.resident_bytes() + semigroup) as u64;
        let weight = approximate_classification_weight(&classification);
        assert!(
            weight >= bytes,
            "{}: weight {weight} < {bytes} resident bytes",
            problem.name()
        );
        assert!(structure.resident_bytes() >= 2 * structure.num_types() * 8);
        priced += 1;
    }
    assert!(priced >= 100, "only {priced} structures priced");
}
