//! The top-level decision procedure: Theorem 8 + Theorem 9 combined.
//!
//! A classification runs as five stages, each a resumable step from what
//! the earlier ones found ([`Progress`]):
//!
//! 1. **types** — the type semigroup and the quantified gap types
//!    ([`GapTypes`]);
//! 2. **solvability** — a long cycle with no valid labeling, if any;
//! 3. **facing** — the biclique search for a feasible structure;
//! 4. **patterns** — periodic labelings of the short primitive patterns;
//! 5. **synthesis** — the algorithm for the verdict.
//!
//! Every stage charges a [`WorkMeter`] the units of work it does.
//! [`classify_with_options`] runs them all with an unlimited meter; the
//! engine's inline lane ([`crate::Engine::classify_inline`]) runs them
//! under a slice and a per-stage cap and leaves the rest to a pool worker,
//! which continues with the same stages from where the lane stopped.

use crate::feasibility::{facing_structure, pattern_labelings, FeasibleStructure, Patterns};
use crate::synthesis::{ConstantAlgorithm, LogStarAlgorithm, SynthesizedAlgorithm};
use crate::types_info::{GapTypes, TypesBuild};
use crate::verdict::{Classification, Complexity};
use crate::Result;
use lcl_algorithms::GatherAndSolve;
use lcl_problem::{InLabel, Instance, NormalizedLcl};
use lcl_semigroup::WorkMeter;

/// Tunable limits of the decision procedure. The defaults are ample for every
/// problem in the repository's corpus; the budgets exist so that a
/// pathologically large problem fails loudly instead of running forever.
#[derive(Clone, Debug)]
pub struct ClassifierOptions {
    /// Maximum number of types (transfer relations) to enumerate.
    pub type_budget: usize,
    /// Maximum number of backtracking nodes in the feasibility search. The
    /// search has one variable per connection class (quantified types with
    /// equal connection relations), so a node is a class assigned, not a
    /// type.
    pub search_budget: usize,
    /// Maximum primitive-pattern length `κ` used for the `O(1)` conditions
    /// (the effective `κ` is the minimum of this cap and the computed pumping
    /// threshold).
    pub pattern_length_cap: usize,
}

impl Default for ClassifierOptions {
    fn default() -> Self {
        ClassifierOptions {
            type_budget: 200_000,
            search_budget: 5_000_000,
            pattern_length_cap: 3,
        }
    }
}

/// Returns the canonical (lexicographically least rotation) primitive words
/// over an alphabet of `alpha` letters, up to length `max_len`, shortest
/// first and in lexicographic order within a length.
///
/// These are the Lyndon words. The Fredricksen–Kessler–Maiorana algorithm
/// generates the Lyndon words of length at most `n` in lexicographic order
/// without visiting any other word: repeat the current word up to `n`, drop
/// trailing largest letters, increment the last letter. One pass per length
/// `n` keeps the words of length exactly `n`.
pub(crate) fn canonical_patterns(alpha: usize, max_len: usize) -> Patterns {
    let mut out = Patterns::default();
    let mut word: Vec<usize> = Vec::with_capacity(max_len);
    for n in 1..=max_len {
        if alpha > 0 {
            word.push(0);
        }
        while !word.is_empty() {
            if word.len() == n {
                out.push(word.iter().map(|&a| InLabel::from_index(a)));
            }
            let period = word.len();
            while word.len() < n {
                word.push(word[word.len() - period]);
            }
            while word.last() == Some(&(alpha - 1)) {
                word.pop();
            }
            if let Some(last) = word.last_mut() {
                *last += 1;
            }
        }
    }
    out
}

/// Classifies a problem with default options.
///
/// This is a thin wrapper over the process-wide default [`crate::Engine`]:
/// repeated classifications of structurally identical problems are served
/// from its memo cache. Long-lived services should construct their own
/// engine (see [`crate::EngineBuilder`]) to control options and observe
/// cache statistics.
///
/// # Errors
///
/// See [`classify_with_options`].
pub fn classify(problem: &NormalizedLcl) -> Result<Classification> {
    crate::engine::default_engine()
        .classify(problem)
        .map(|classification| (*classification).clone())
}

/// Classifies an LCL problem on input-labeled directed cycles into
/// `Unsolvable`, `O(1)`, `Θ(log* n)` or `Θ(n)`, and synthesizes an
/// asymptotically optimal LOCAL algorithm for the verdict.
///
/// Path problems are handled by first applying
/// [`lcl_problem::lift_path_to_cycle`]; see the crate documentation.
///
/// # Errors
///
/// Returns an error if the type semigroup or the feasibility search exceeds
/// the configured budgets, or if the problem exceeds structural limits
/// (64 or more output labels).
pub fn classify_with_options(
    problem: &NormalizedLcl,
    options: &ClassifierOptions,
) -> Result<Classification> {
    Progress::Start.finish(problem, options, &mut WorkMeter::unlimited())
}

/// The stages of a classification, in the order they run (see the module
/// documentation).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Stage {
    /// The type semigroup and the quantified gap types.
    Types,
    /// The search for a long cycle with no valid labeling.
    Solvability,
    /// The biclique search for a feasible structure.
    Facing,
    /// Periodic labelings of the short primitive input patterns.
    Patterns,
    /// The synthesized algorithm and the verdict.
    Synthesis,
}

impl Stage {
    /// Every stage, in order.
    pub const ALL: [Stage; 5] = [
        Stage::Types,
        Stage::Solvability,
        Stage::Facing,
        Stage::Patterns,
        Stage::Synthesis,
    ];

    /// The stage's name: `types`, `solvability`, `facing`, `patterns` or
    /// `synthesis`.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Types => "types",
            Stage::Solvability => "solvability",
            Stage::Facing => "facing",
            Stage::Patterns => "patterns",
            Stage::Synthesis => "synthesis",
        }
    }
}

/// What the stages of a classification run so far found: each stage takes
/// the owned state of the one before it, so a classification stopped
/// between stages continues later, on another thread, without redoing any.
pub(crate) enum Progress {
    /// No stage has run.
    Start,
    /// The types stage stopped partway; it continues where it stopped.
    Typing(Box<TypesBuild>),
    /// The types are known.
    Typed(GapTypes),
    /// Every long cycle has a valid labeling.
    Solvable(GapTypes),
    /// A feasible structure without pattern labelings exists.
    Faced(GapTypes, FeasibleStructure),
    /// The complexity is decided; the algorithm is not synthesized yet.
    Answered(GapTypes, Answer),
    /// The classification is complete.
    Done(Classification),
}

impl Progress {
    /// The stage that runs next; `None` once the classification is done.
    pub(crate) fn next_stage(&self) -> Option<Stage> {
        match self {
            Progress::Start | Progress::Typing(_) => Some(Stage::Types),
            Progress::Typed(_) => Some(Stage::Solvability),
            Progress::Solvable(_) => Some(Stage::Facing),
            Progress::Faced(..) => Some(Stage::Patterns),
            Progress::Answered(..) => Some(Stage::Synthesis),
            Progress::Done(_) => None,
        }
    }

    /// Runs the next stage under `meter`, opening it as a new stage of the
    /// meter, and moves to the state after it. A stage that fails — an
    /// error, or the meter's stage cap — leaves the state from before it, so
    /// the stage can run again; the types stage keeps how far it got
    /// instead, and continues from there.
    pub(crate) fn advance(
        &mut self,
        problem: &NormalizedLcl,
        options: &ClassifierOptions,
        meter: &mut WorkMeter,
    ) -> Result<()> {
        meter.start_stage();
        if let Progress::Start = self {
            let build = TypesBuild::new(problem, options.type_budget, meter)?;
            *self = Progress::Typing(Box::new(build));
        }
        // Each stage reads the state it needs, and takes it only once it
        // has succeeded.
        let next = match self {
            Progress::Start => unreachable!("the types stage has started"),
            Progress::Typing(build) => {
                build.run(meter)?;
                let Progress::Typing(build) = self.take() else {
                    unreachable!("matched Typing");
                };
                Progress::Typed(build.finish())
            }
            // Solvability is a prerequisite the paper assumes implicitly.
            Progress::Typed(info) => {
                let witness = info.solvability_witness_metered(meter)?;
                let Progress::Typed(info) = self.take() else {
                    unreachable!("matched Typed");
                };
                match witness {
                    Some(word) => Progress::Answered(info, Answer::Unsolvable(word)),
                    None => Progress::Solvable(info),
                }
            }
            // One biclique search decides both gaps. No feasible function:
            // the problem needs Θ(n) (Theorem 8).
            Progress::Solvable(info) => {
                let structure = facing_structure(info, options.search_budget, meter)?;
                let Progress::Solvable(info) = self.take() else {
                    unreachable!("matched Solvable");
                };
                match structure {
                    Some(structure) => Progress::Faced(info, structure),
                    None => Progress::Answered(info, Answer::Linear),
                }
            }
            // The ω(1) — o(log* n) gap (Theorem 9): the same feasible
            // structure must additionally provide periodic labelings for
            // every short primitive input pattern; without them the problem
            // is Θ(log* n).
            Progress::Faced(info, _) => {
                let kappa = pattern_length(info, options);
                let patterns = canonical_patterns(info.problem().num_inputs(), kappa);
                let chosen = pattern_labelings(info, &patterns, meter)?;
                let Progress::Faced(info, mut structure) = self.take() else {
                    unreachable!("matched Faced");
                };
                match chosen {
                    Some(chosen) => {
                        structure.patterns = chosen;
                        Progress::Answered(info, Answer::Constant(structure))
                    }
                    None => Progress::Answered(info, Answer::LogStar(structure)),
                }
            }
            // A unit per row of the problem's constraint tables and per
            // quantified type.
            Progress::Answered(info, _) => {
                let problem = info.problem();
                let rows = (problem.num_inputs() + 2) * problem.num_outputs();
                meter.charge((rows + info.quantified().len()) as u64)?;
                let Progress::Answered(info, answer) = self.take() else {
                    unreachable!("matched Answered");
                };
                let kappa = pattern_length(&info, options);
                Progress::Done(answer.into_classification(&info, kappa))
            }
            Progress::Done(_) => return Ok(()),
        };
        *self = next;
        Ok(())
    }

    /// The state, leaving [`Progress::Start`] in its place.
    fn take(&mut self) -> Progress {
        std::mem::replace(self, Progress::Start)
    }

    /// Runs every remaining stage under `meter`.
    ///
    /// # Errors
    ///
    /// The first stage's error (see [`classify_with_options`]).
    pub(crate) fn finish(
        mut self,
        problem: &NormalizedLcl,
        options: &ClassifierOptions,
        meter: &mut WorkMeter,
    ) -> Result<Classification> {
        while self.next_stage().is_some() {
            self.advance(problem, options, meter)?;
        }
        let Progress::Done(classification) = self else {
            unreachable!("no stage is left");
        };
        Ok(classification)
    }
}

/// The primitive-pattern length `κ` of the `O(1)` conditions: the pumping
/// threshold, capped by [`ClassifierOptions::pattern_length_cap`].
fn pattern_length(info: &GapTypes, options: &ClassifierOptions) -> usize {
    info.semigroup()
        .pump_threshold()
        .min(options.pattern_length_cap)
        .max(1)
}

/// What the decision procedure found, before synthesis: a word whose long
/// cycles admit no valid labeling, a feasible structure with or without
/// pattern labelings, or nothing. Only this module builds or reads one; the
/// type is as visible as [`Progress`], whose `Answered` state carries it.
pub(crate) enum Answer {
    Unsolvable(Vec<InLabel>),
    Constant(FeasibleStructure),
    LogStar(FeasibleStructure),
    Linear,
}

impl Answer {
    /// Synthesizes the algorithm for this answer and assembles the verdict;
    /// the type count and pumping threshold come from `info`.
    fn into_classification(self, info: &GapTypes, kappa: usize) -> Classification {
        let gather = || SynthesizedAlgorithm::GatherAll(GatherAndSolve::new(info.problem()));
        let (complexity, witness, synthesized) = match self {
            Answer::Unsolvable(word) => (
                Complexity::Unsolvable,
                Some(Instance::cycle(word)),
                gather(),
            ),
            Answer::Constant(structure) => (
                Complexity::Constant,
                None,
                SynthesizedAlgorithm::Constant(ConstantAlgorithm::new(info, structure, kappa)),
            ),
            Answer::LogStar(structure) => (
                Complexity::LogStar,
                None,
                SynthesizedAlgorithm::LogStar(LogStarAlgorithm::new(info, structure)),
            ),
            Answer::Linear => (Complexity::Linear, None, gather()),
        };
        Classification {
            complexity,
            witness,
            synthesized,
            num_types: info.semigroup().len(),
            pump_threshold: info.semigroup().pump_threshold(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_local_sim::{validate_algorithm, IdAssignment, Network};
    use lcl_problem::Topology;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(name: &str, inputs: &[&str], outputs: &[&str]) -> lcl_problem::NormalizedLclBuilder {
        let mut b = NormalizedLcl::builder(name);
        b.input_labels(inputs);
        b.output_labels(outputs);
        b
    }

    fn three_coloring() -> NormalizedLcl {
        let mut b = build("3-coloring", &["x"], &["1", "2", "3"]);
        b.allow_all_node_pairs();
        for p in 0..3u16 {
            for q in 0..3u16 {
                if p != q {
                    b.allow_edge_idx(p, q);
                }
            }
        }
        b.build().unwrap()
    }

    fn two_coloring() -> NormalizedLcl {
        let mut b = build("2-coloring", &["x"], &["1", "2"]);
        b.allow_all_node_pairs();
        b.allow_edge_idx(0, 1);
        b.allow_edge_idx(1, 0);
        b.build().unwrap()
    }

    fn copy_input() -> NormalizedLcl {
        let mut b = build("copy-input", &["a", "b"], &["a", "b"]);
        b.allow_node_idx(0, 0);
        b.allow_node_idx(1, 1);
        b.allow_all_edge_pairs();
        b.build().unwrap()
    }

    fn secret_broadcast() -> NormalizedLcl {
        let mut b = build(
            "secret-broadcast",
            &["Sa", "Sb", "c"],
            &["a", "b", "X", "a*", "b*"],
        );
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
        b.build().unwrap()
    }

    #[test]
    fn classifies_three_coloring_as_log_star() {
        let c = classify(&three_coloring()).unwrap();
        assert_eq!(c.complexity(), Complexity::LogStar);
        assert!(c.unsolvability_witness().is_none());
        assert!(c.num_types() >= 2);
        assert!(c.pump_threshold() >= 2);
        assert!(c.to_string().contains("log*"));
    }

    #[test]
    fn classifies_two_coloring_as_unsolvable() {
        let c = classify(&two_coloring()).unwrap();
        assert_eq!(c.complexity(), Complexity::Unsolvable);
        let witness = c.unsolvability_witness().expect("witness instance");
        assert!(
            witness.len() % 2 == 1,
            "an odd cycle witnesses unsolvability"
        );
    }

    #[test]
    fn classifies_copy_input_as_constant() {
        let c = classify(&copy_input()).unwrap();
        assert_eq!(c.complexity(), Complexity::Constant);
    }

    #[test]
    fn classifies_secret_broadcast_as_linear() {
        let c = classify(&secret_broadcast()).unwrap();
        assert_eq!(c.complexity(), Complexity::Linear);
    }

    #[test]
    fn mis_on_directed_cycles_is_log_star() {
        // Maximal independent set, phrased with the predecessor-facing
        // verifier: outputs IN/OUT-with-reason. We use three labels:
        // "I" (in the set), "Oi" (out, my predecessor is in),
        // "Oo" (out, my successor will be in / pred is out).
        // Constraints: an I node cannot follow an I node; an Oi node must
        // follow an I node; an Oo node must follow an Oi or Oo?? — to keep
        // maximality locally checkable on the predecessor side we forbid two
        // consecutive "out" nodes unless the first is Oo... The standard
        // formulation: no two adjacent I; no two adjacent O where both are
        // "uncovered". We encode coverage in the labels.
        let mut b = build("mis", &["x"], &["I", "O-covered", "O-expecting"]);
        b.allow_all_node_pairs();
        // After an I node: either another O that is covered by it, or an
        // expecting O... an I node cannot follow an I node.
        b.allow_edge("I", "O-covered");
        b.allow_edge("I", "O-expecting");
        // A covered O (its predecessor was I) may be followed by anything
        // except another covered O claiming coverage it does not have.
        b.allow_edge("O-covered", "I");
        b.allow_edge("O-covered", "O-expecting");
        // An expecting O must be followed by an I (that is what it expects).
        b.allow_edge("O-expecting", "I");
        let p = b.build().unwrap();
        let c = classify(&p).unwrap();
        assert_eq!(c.complexity(), Complexity::LogStar);
    }

    #[test]
    fn forced_constant_output_problem_is_constant() {
        // Everyone must output the same fixed label; trivially O(1).
        let mut b = build("always-zero", &["x", "y"], &["z"]);
        b.allow_all_node_pairs();
        b.allow_all_edge_pairs();
        let p = b.build().unwrap();
        let c = classify(&p).unwrap();
        assert_eq!(c.complexity(), Complexity::Constant);
    }

    #[test]
    fn synthesized_algorithms_produce_valid_labelings() {
        // End-to-end: classify, then run the synthesized algorithm on random
        // instances and verify the outputs.
        let problems = vec![three_coloring(), copy_input(), secret_broadcast()];
        for p in problems {
            let c = classify(&p).unwrap();
            let mut nets = Vec::new();
            for (i, n) in [6usize, 13, 40, 120].iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(i as u64 + 1);
                let inputs: Vec<u16> = (0..*n)
                    .map(|_| rng.gen_range(0..p.num_inputs() as u16))
                    .collect();
                let mut rng2 = StdRng::seed_from_u64(i as u64 + 100);
                nets.push(
                    Network::new(
                        Instance::from_indices(Topology::Cycle, &inputs),
                        IdAssignment::RandomFromSpace { multiplier: 4 },
                        &mut rng2,
                    )
                    .unwrap(),
                );
            }
            let outcome = validate_algorithm(&p, c.algorithm(), &nets).unwrap();
            assert!(
                outcome.is_valid(),
                "problem {} (classified {}) produced an invalid labeling: {outcome:?}",
                p.name(),
                c.complexity()
            );
        }
    }

    #[test]
    fn monotonicity_allowing_more_never_hurts() {
        // Adding allowed pairs can only make a problem easier; spot-check by
        // comparing 3-coloring against 3-coloring with self-loops allowed
        // (which becomes O(1): everyone picks colour 1).
        let mut b = build("lazy-coloring", &["x"], &["1", "2", "3"]);
        b.allow_all_node_pairs();
        b.allow_all_edge_pairs();
        let relaxed = b.build().unwrap();
        let strict = classify(&three_coloring()).unwrap();
        let loose = classify(&relaxed).unwrap();
        assert_eq!(strict.complexity(), Complexity::LogStar);
        assert_eq!(loose.complexity(), Complexity::Constant);
    }

    #[test]
    fn canonical_patterns_are_canonical_and_primitive() {
        let ps = canonical_patterns(2, 3);
        // [0], [1], [01], [001], [011] — canonical rotations only.
        assert_eq!(ps.len(), 5);
        for w in ps.iter() {
            for s in 1..w.len() {
                let rot: Vec<InLabel> = (0..w.len()).map(|i| w[(i + s) % w.len()]).collect();
                assert!(rot[..] >= *w);
            }
        }
    }

    #[test]
    fn run_problems_are_log_star_once_the_cap_reaches_their_period() {
        // `run(L)` 3-colours the 1-nodes of `(0^L 1)^∞`: a pattern test that
        // reaches period L + 1 sees the obstruction. This suite has 14 to
        // 127 patterns per call and 27 to 129 types.
        for l in 2..=8 {
            let options = ClassifierOptions {
                pattern_length_cap: l + 1,
                ..ClassifierOptions::default()
            };
            let c = classify_with_options(&lcl_problems::run(l), &options).unwrap();
            assert_eq!(c.complexity(), Complexity::LogStar, "run({l})");
            assert!(c.pump_threshold() > l + 1, "run({l})");
        }
    }

    #[test]
    fn canonical_patterns_are_the_filtered_primitive_words() {
        // The filter over every primitive word that the Lyndon-word
        // generation replaced, kept as its oracle.
        let filtered = |alpha: usize, max_len: usize| -> Vec<Vec<InLabel>> {
            lcl_semigroup::primitive_strings_up_to(alpha, max_len)
                .into_iter()
                .filter(|w| {
                    let rotation = |s: usize| (0..w.len()).map(move |i| w[(i + s) % w.len()]);
                    (1..w.len()).all(|s| rotation(s).ge(w.iter().copied()))
                })
                .collect()
        };
        for alpha in 1..=4 {
            for max_len in 0..=7 {
                assert_eq!(
                    canonical_patterns(alpha, max_len),
                    Patterns::from_words(&filtered(alpha, max_len)),
                    "alpha {alpha}, length ≤ {max_len}"
                );
            }
        }
        assert!(canonical_patterns(0, 3).is_empty());
        assert_eq!(canonical_patterns(2, 9).len(), 127);
    }

    #[test]
    fn options_budgets_are_respected() {
        let opts = ClassifierOptions {
            type_budget: 1,
            ..ClassifierOptions::default()
        };
        assert!(classify_with_options(&three_coloring(), &opts).is_err());
        let default = ClassifierOptions::default();
        assert!(default.search_budget > 0 && default.pattern_length_cap > 0);
    }
}
