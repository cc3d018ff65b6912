//! # lcl-problems
//!
//! A library of concrete LCL problems on input-labeled directed paths and
//! cycles, each with its known deterministic LOCAL complexity. The corpus is
//! the ground truth against which the classifier (`lcl-classifier`) is
//! validated, and the workload set for the benchmark harness.
//!
//! Entries cover all four verdicts:
//!
//! * `O(1)` — input-copying and relaxation problems;
//! * `Θ(log* n)` — symmetry-breaking problems (colouring, MIS, matching);
//! * `Θ(n)` — information-propagation problems (secret broadcast, the
//!   `Π_{M_B}` family for looping machines);
//! * unsolvable — parity-constrained problems such as 2-colouring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lcl_hardness::{PiMb, Secret};
use lcl_lba::machines;
use lcl_problem::NormalizedLcl;

/// The known complexity of a corpus problem (ground truth from the
/// literature / first principles, independent of the classifier).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum KnownComplexity {
    /// Not solvable on all (sufficiently long) cycles.
    Unsolvable,
    /// `O(1)` rounds.
    Constant,
    /// `Θ(log* n)` rounds.
    LogStar,
    /// `Θ(n)` rounds.
    Linear,
}

/// A corpus entry: a problem plus its known complexity and a short
/// justification.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// The problem.
    pub problem: NormalizedLcl,
    /// Its known complexity on directed cycles.
    pub expected: KnownComplexity,
    /// Why (one sentence, for reports).
    pub why: &'static str,
}

/// Proper `k`-colouring of a directed cycle (inputs are irrelevant).
pub fn coloring(k: usize) -> NormalizedLcl {
    let mut b = NormalizedLcl::builder(format!("{k}-coloring"));
    b.input_labels(&["x"]);
    let names: Vec<String> = (1..=k).map(|i| i.to_string()).collect();
    b.output_labels(&names);
    b.allow_all_node_pairs();
    for p in 0..k as u16 {
        for q in 0..k as u16 {
            if p != q {
                b.allow_edge_idx(p, q);
            }
        }
    }
    b.build().expect("colouring is well-formed")
}

/// Copy your own input (binary input alphabet).
pub fn copy_input() -> NormalizedLcl {
    let mut b = NormalizedLcl::builder("copy-input");
    b.input_labels(&["a", "b"]);
    b.output_labels(&["a", "b"]);
    b.allow_node_idx(0, 0);
    b.allow_node_idx(1, 1);
    b.allow_all_edge_pairs();
    b.build().expect("copy-input is well-formed")
}

/// Report whether your input differs from your predecessor's: outputs carry
/// the node's own input together with a "same/diff" claim about the
/// predecessor, so the edge verifier can check it.
pub fn input_boundary_detection() -> NormalizedLcl {
    let mut b = NormalizedLcl::builder("input-boundary");
    b.input_labels(&["a", "b"]);
    // Output (own input, claim): claim S = same as predecessor, D = different.
    b.output_labels(&["aS", "aD", "bS", "bD"]);
    b.allow_node("a", "aS");
    b.allow_node("a", "aD");
    b.allow_node("b", "bS");
    b.allow_node("b", "bD");
    for pred in ["aS", "aD", "bS", "bD"] {
        for succ in ["aS", "aD", "bS", "bD"] {
            let pred_input = pred.as_bytes()[0];
            let succ_input = succ.as_bytes()[0];
            let claim_same = succ.as_bytes()[1] == b'S';
            if (pred_input == succ_input) == claim_same {
                b.allow_edge(pred, succ);
            }
        }
    }
    b.build().expect("input-boundary is well-formed")
}

/// Maximal independent set on directed cycles, with coverage encoded in the
/// output labels (`I`, out-and-covered-by-predecessor, out-and-expecting the
/// successor to be in).
pub fn maximal_independent_set() -> NormalizedLcl {
    let mut b = NormalizedLcl::builder("mis");
    b.input_labels(&["x"]);
    b.output_labels(&["I", "Oc", "Oe"]);
    b.allow_all_node_pairs();
    b.allow_edge("I", "Oc");
    b.allow_edge("I", "Oe");
    b.allow_edge("Oc", "I");
    b.allow_edge("Oc", "Oe");
    b.allow_edge("Oe", "I");
    b.build().expect("mis is well-formed")
}

/// Maximal matching on directed cycles: each node says whether it is matched
/// with its predecessor (`MP`), with its successor (`MS`), or unmatched (`U`);
/// two adjacent unmatched nodes are forbidden (maximality) and matching claims
/// must be mutual.
pub fn maximal_matching() -> NormalizedLcl {
    let mut b = NormalizedLcl::builder("maximal-matching");
    b.input_labels(&["x"]);
    b.output_labels(&["MP", "MS", "U"]);
    b.allow_all_node_pairs();
    // (pred, succ): if pred says "matched with successor" the successor must
    // say "matched with predecessor" and vice versa.
    b.allow_edge("MS", "MP");
    b.allow_edge("MP", "MS");
    b.allow_edge("MP", "U");
    b.allow_edge("U", "MS");
    // Two adjacent unmatched nodes would violate maximality: not allowed.
    b.build().expect("maximal-matching is well-formed")
}

/// The "secret broadcast" problem: `S_a`/`S_b` nodes announce a secret, plain
/// nodes must repeat the secret of the nearest announcer behind them, and `X`
/// is only allowed when the whole cycle has no announcer. Always solvable, but
/// `Θ(n)` because the secret has to travel.
pub fn secret_broadcast() -> NormalizedLcl {
    let mut b = NormalizedLcl::builder("secret-broadcast");
    b.input_labels(&["Sa", "Sb", "c"]);
    b.output_labels(&["a", "b", "X", "a*", "b*"]);
    b.allow_node("Sa", "a*");
    b.allow_node("Sb", "b*");
    b.allow_node("c", "a");
    b.allow_node("c", "b");
    b.allow_node("c", "X");
    b.allow_edge("a", "a");
    b.allow_edge("a*", "a");
    b.allow_edge("b", "b");
    b.allow_edge("b*", "b");
    b.allow_edge("X", "X");
    for pred in ["a", "b", "X", "a*", "b*"] {
        b.allow_edge(pred, "a*");
        b.allow_edge(pred, "b*");
    }
    b.build().expect("secret-broadcast is well-formed")
}

/// A fully unconstrained problem (every output allowed everywhere): `O(1)`.
pub fn unconstrained(outputs: usize) -> NormalizedLcl {
    let mut b = NormalizedLcl::builder(format!("unconstrained-{outputs}"));
    b.input_labels(&["x", "y"]);
    let names: Vec<String> = (0..outputs).map(|i| format!("o{i}")).collect();
    b.output_labels(&names);
    b.allow_all_node_pairs();
    b.allow_all_edge_pairs();
    b.build().expect("unconstrained is well-formed")
}

/// Runs of length `L`: inputs `{0, 1}`, outputs pairs `(k, c)` with
/// `k ∈ 0..=L+1` and `c ∈ {0, 1, 2}`, written `k.c`.
///
/// * An input-1 node outputs `k = 0`; an input-0 node outputs `k ≥ 1`.
/// * An input-0 node continues its predecessor's run: `k' = min(k + 1, L + 1)`
///   and `c' = c`.
/// * An input-1 node may pick any `c'`, except `c' = c` after a
///   predecessor with `k = L`.
///
/// On the input `(0^L 1)^∞` the 1-nodes must therefore be properly
/// 3-coloured, so the problem is `Θ(log* n)`; no other periodic input
/// constrains `c`. Only a pattern test that reaches period `L + 1` sees the
/// obstruction.
pub fn run(l: usize) -> NormalizedLcl {
    let mut b = NormalizedLcl::builder(format!("run-{l}"));
    b.input_labels(&["0", "1"]);
    let label = |k: usize, c: usize| (k * 3 + c) as u16;
    let names: Vec<String> = (0..=l + 1)
        .flat_map(|k| (0..3).map(move |c| format!("{k}.{c}")))
        .collect();
    b.output_labels(&names);
    for k in 0..=l + 1 {
        for c in 0..3 {
            b.allow_node_idx(u16::from(k == 0), label(k, c));
            for c2 in 0..3 {
                if c2 != c || k != l {
                    b.allow_edge_idx(label(k, c), label(0, c2));
                }
            }
            b.allow_edge_idx(label(k, c), label((k + 1).min(l + 1), c));
        }
    }
    b.build().expect("run is well-formed")
}

/// Outputs must strictly cycle through `0 → 1 → 2 → 0 → …`, which is solvable
/// only when the cycle length is divisible by 3: unsolvable in the asymptotic
/// sense used here.
pub fn mod3_counter() -> NormalizedLcl {
    let mut b = NormalizedLcl::builder("mod3-counter");
    b.input_labels(&["x"]);
    b.output_labels(&["0", "1", "2"]);
    b.allow_all_node_pairs();
    b.allow_edge_idx(0, 1);
    b.allow_edge_idx(1, 2);
    b.allow_edge_idx(2, 0);
    b.build().expect("mod3-counter is well-formed")
}

/// The `Π_{M_B}` problem of §3.2 for a given machine and tape size
/// (constructed through the `lcl-hardness` crate). Not part of the default
/// corpus because its normalized form exceeds the classifier's 64-output
/// limit; used by the hardness benchmarks directly.
pub fn pi_mb_for(machine_name: &str, tape_size: usize) -> PiMb {
    let machine = match machine_name {
        "unary-counter" => machines::unary_counter(),
        "binary-counter" => machines::binary_counter(),
        "always-loop" => machines::always_loop(),
        _ => machines::immediate_halt(),
    };
    PiMb::new(machine, tape_size)
}

/// Convenience: a good input (paper Definition 1) for a halting machine, or a
/// long prefix-like corrupted-free input for looping machines (which have no
/// good input).
pub fn pi_mb_good_input(
    problem: &PiMb,
    secret: Secret,
    padding: usize,
) -> Option<Vec<lcl_hardness::PiInput>> {
    problem.good_input(secret, padding)
}

/// The corpus: every problem with its known complexity.
pub fn corpus() -> Vec<CorpusEntry> {
    vec![
        CorpusEntry {
            problem: coloring(3),
            expected: KnownComplexity::LogStar,
            why: "3-colouring needs Ω(log* n) (Linial) and is solvable by Cole–Vishkin",
        },
        CorpusEntry {
            problem: coloring(4),
            expected: KnownComplexity::LogStar,
            why: "any O(1)-colouring with ≥3 colours is Θ(log* n) on cycles",
        },
        CorpusEntry {
            problem: coloring(2),
            expected: KnownComplexity::Unsolvable,
            why: "odd cycles are not 2-colourable",
        },
        CorpusEntry {
            problem: copy_input(),
            expected: KnownComplexity::Constant,
            why: "radius-0 rule: output your own input",
        },
        CorpusEntry {
            problem: input_boundary_detection(),
            expected: KnownComplexity::Constant,
            why: "radius-1 rule: compare your input with your predecessor's",
        },
        CorpusEntry {
            problem: maximal_independent_set(),
            expected: KnownComplexity::LogStar,
            why: "MIS on cycles is Θ(log* n) (Linial lower bound, CV upper bound)",
        },
        CorpusEntry {
            problem: maximal_matching(),
            expected: KnownComplexity::LogStar,
            why: "maximal matching on cycles is Θ(log* n)",
        },
        CorpusEntry {
            problem: secret_broadcast(),
            expected: KnownComplexity::Linear,
            why: "the announced secret must propagate across the whole cycle",
        },
        CorpusEntry {
            problem: unconstrained(2),
            expected: KnownComplexity::Constant,
            why: "any fixed output works",
        },
        CorpusEntry {
            problem: mod3_counter(),
            expected: KnownComplexity::Unsolvable,
            why: "solvable only when 3 divides n",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_problem::{Instance, Labeling, Topology};

    #[test]
    fn corpus_has_all_four_classes() {
        let c = corpus();
        assert!(c.len() >= 10);
        for class in [
            KnownComplexity::Unsolvable,
            KnownComplexity::Constant,
            KnownComplexity::LogStar,
            KnownComplexity::Linear,
        ] {
            assert!(
                c.iter().any(|e| e.expected == class),
                "corpus misses class {class:?}"
            );
        }
        for e in &c {
            assert!(!e.why.is_empty());
            assert!(e.problem.num_outputs() >= 1);
        }
    }

    #[test]
    fn mis_problem_accepts_actual_mis_labelings() {
        let p = maximal_independent_set();
        let inst = Instance::from_indices(Topology::Cycle, &[0; 6]);
        // I Oc I Oc I Oc: alternating MIS.
        let good = Labeling::from_indices(&[0, 1, 0, 1, 0, 1]);
        assert!(p.is_valid(&inst, &good));
        // Two adjacent I nodes are rejected.
        let bad = Labeling::from_indices(&[0, 0, 1, 0, 1, 1]);
        assert!(!p.is_valid(&inst, &bad));
        // An O node with no I neighbour is rejected: Oc must follow I.
        let uncovered = Labeling::from_indices(&[1, 1, 0, 1, 0, 1]);
        assert!(!p.is_valid(&inst, &uncovered));
    }

    #[test]
    fn matching_problem_checks_mutuality() {
        let p = maximal_matching();
        let inst = Instance::from_indices(Topology::Cycle, &[0; 4]);
        // (MS MP) (MS MP): perfect matching.
        let good = Labeling::from_indices(&[1, 0, 1, 0]);
        assert!(p.is_valid(&inst, &good));
        // A one-sided claim is rejected.
        let bad = Labeling::from_indices(&[1, 2, 1, 0]);
        assert!(!p.is_valid(&inst, &bad));
    }

    #[test]
    fn secret_broadcast_semantics() {
        let p = secret_broadcast();
        // Sa c c c: everyone repeats secret a.
        let inst = Instance::from_indices(Topology::Cycle, &[0, 2, 2, 2]);
        let good = Labeling::from_indices(&[3, 0, 0, 0]);
        assert!(p.is_valid(&inst, &good));
        // Repeating the wrong secret is rejected.
        let bad = Labeling::from_indices(&[3, 1, 1, 1]);
        assert!(!p.is_valid(&inst, &bad));
        // With no announcer, everyone may output X.
        let plain = Instance::from_indices(Topology::Cycle, &[2; 5]);
        let all_x = Labeling::from_indices(&[2; 5]);
        assert!(p.is_valid(&plain, &all_x));
    }

    #[test]
    fn pi_mb_constructors() {
        let p = pi_mb_for("unary-counter", 4);
        assert_eq!(p.machine().name(), "unary-counter");
        assert!(pi_mb_good_input(&p, Secret::A, 2).is_some());
        let looping = pi_mb_for("always-loop", 4);
        assert!(pi_mb_good_input(&looping, Secret::A, 0).is_none());
        let default = pi_mb_for("something-else", 4);
        assert_eq!(default.machine().name(), "immediate-halt");
        let bin = pi_mb_for("binary-counter", 5);
        assert_eq!(bin.tape_size(), 5);
    }

    #[test]
    fn mod3_counter_solvable_only_on_multiples_of_three() {
        let p = mod3_counter();
        let six = Instance::from_indices(Topology::Cycle, &[0; 6]);
        let good = Labeling::from_indices(&[0, 1, 2, 0, 1, 2]);
        assert!(p.is_valid(&six, &good));
        assert!(p.solve_brute_force(&six).is_some());
        let seven = Instance::from_indices(Topology::Cycle, &[0; 7]);
        assert!(p.solve_brute_force(&seven).is_none());
    }
}
