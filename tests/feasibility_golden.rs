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

fn sets(sets: &[Vec<OutLabel>]) -> String {
    let rendered: Vec<String> = sets.iter().map(|s| labels(s)).collect();
    rendered.join(" ")
}

/// The structure's block table in `(left type, S₀, S₁, right type)` order:
/// one `first.last` token per context (`-` if a context has none), with a
/// run of `n > 1` equal tokens written once as `token*n`.
fn blocks(structure: &FeasibleStructure, alpha: usize) -> String {
    let types = structure.left_facing.len();
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
        line.push_str(&format!(
            "\tA {}\tB {}\tP {}\tK {}",
            sets(&structure.left_facing),
            sets(&structure.right_facing),
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
