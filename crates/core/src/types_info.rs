//! Per-problem type information used by the gap deciders: the quantified set
//! of gap types and their connection relations.

use crate::Result;
use lcl_problem::NormalizedLcl;
use lcl_semigroup::{OutRelation, TransferSystem, TypeId, TypeSemigroup};
use std::sync::Arc;

/// Everything the feasibility search needs to know about the problem's types:
/// the semigroup, the minimum gap length `L_min` (the computed stand-in for
/// `ℓ_pump`), the set `T` of types realized by gaps of length `≥ L_min`, and
/// the connection relation `C(τ) = E · R(τ) · E` of each such type. The
/// semigroup, which holds the classify's one transfer system, is shared with
/// the algorithms synthesized from it.
#[derive(Clone, Debug)]
pub struct GapTypes {
    semigroup: Arc<TypeSemigroup>,
    min_gap: usize,
    quantified: Vec<TypeId>,
    /// `positions[t]`: the position of type `t` within `quantified`, or
    /// [`GapTypes::UNQUANTIFIED`].
    positions: Vec<usize>,
    connections: Vec<OutRelation>,
}

impl GapTypes {
    /// The position of a type that is not quantified.
    const UNQUANTIFIED: usize = usize::MAX;

    /// Computes the type information of a problem. `type_budget` caps the
    /// number of semigroup elements.
    ///
    /// # Errors
    ///
    /// Returns an error if the semigroup exceeds the budget.
    pub fn compute(problem: &NormalizedLcl, type_budget: usize) -> Result<Self> {
        let semigroup = TypeSemigroup::with_system(TransferSystem::new(problem), type_budget)?;
        let min_gap = semigroup.pump_threshold();
        let quantified = semigroup.length_profile().types_of_length_at_least(min_gap);
        let mut positions = vec![Self::UNQUANTIFIED; semigroup.len()];
        // `C(τ) = (E · R(τ)) · E`, the left product into one reused buffer.
        let edge = semigroup.system().edge_relation();
        let mut edge_then = OutRelation::empty(0);
        let mut connections = Vec::with_capacity(quantified.len());
        for (i, &t) in quantified.iter().enumerate() {
            positions[t.index()] = i;
            edge.compose_into(semigroup.relation(t), &mut edge_then)?;
            connections.push(edge_then.compose(edge)?);
        }
        Ok(GapTypes {
            semigroup: Arc::new(semigroup),
            min_gap,
            quantified,
            positions,
            connections,
        })
    }

    /// The problem.
    pub fn problem(&self) -> &NormalizedLcl {
        self.system().problem()
    }

    /// The transfer system.
    pub fn system(&self) -> &TransferSystem {
        self.semigroup.system()
    }

    /// The type semigroup.
    pub fn semigroup(&self) -> &TypeSemigroup {
        &self.semigroup
    }

    /// The type semigroup, shared.
    pub(crate) fn shared_semigroup(&self) -> &Arc<TypeSemigroup> {
        &self.semigroup
    }

    /// The minimum gap length the synthesized algorithms guarantee (and the
    /// minimum word length over which the feasibility conditions quantify).
    pub fn min_gap(&self) -> usize {
        self.min_gap
    }

    /// The quantified gap types, in a fixed order.
    pub fn quantified(&self) -> &[TypeId] {
        &self.quantified
    }

    /// The position of a type within [`Self::quantified`], if present: one
    /// look-up in a table indexed by type.
    pub fn position(&self, t: TypeId) -> Option<usize> {
        let position = *self.positions.get(t.index())?;
        (position != Self::UNQUANTIFIED).then_some(position)
    }

    /// The connection relation `C(τ)` of the `i`-th quantified type.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn connection(&self, i: usize) -> &OutRelation {
        &self.connections[i]
    }

    /// Whether every *sufficiently long* cycle admits a valid labeling: the
    /// boolean trace of `R(w)·E` must be non-zero for every type realized by
    /// words of length `≥ L_min` (complexity is an asymptotic notion, so very
    /// short degenerate cycles — a triangle cannot be 2-coloured, a single
    /// node has itself as neighbour — do not make a problem unsolvable).
    /// Returns a witness word of length `≥ L_min` if some long cycle has no
    /// valid labeling.
    ///
    /// # Errors
    ///
    /// None: the check reads the relations the semigroup already holds. The
    /// `Result` is kept for callers of the public signature.
    pub fn solvability_witness(&self) -> Result<Option<Vec<lcl_problem::InLabel>>> {
        let unlabelable = self.quantified.iter().find(|&&t| !self.cycle_labelable(t));
        Ok(unlabelable.map(|&t| self.long_witness(t)))
    }

    /// Whether a cycle whose input word has type `t` admits a valid
    /// labeling ([`TransferSystem::closes_cycle`]).
    pub(crate) fn cycle_labelable(&self, t: TypeId) -> bool {
        self.system()
            .closes_cycle(self.semigroup.relation(t))
            .expect("the semigroup's relations have the system's dimension")
    }

    /// A word of length `≥ L_min` whose type is `t` (which must be a
    /// quantified type), found by a forward walk over the type automaton:
    /// the shortest such length, and at that length the word the walk meets
    /// first, visiting types and letters in index order — so every engine
    /// derives the same witness.
    fn long_witness(&self, t: TypeId) -> Vec<lcl_problem::InLabel> {
        let letters = || (0..self.system().num_letters()).map(lcl_problem::InLabel::from_index);
        // layers[k][τ]: the prefix type and last letter of the first word of
        // length k + 1 with type τ.
        let mut layers = vec![vec![None; self.semigroup.len()]];
        for a in letters() {
            if let Ok(ty) = self.semigroup.type_of_word(&[a]) {
                layers[0][ty.index()].get_or_insert((ty, a));
            }
        }
        let profile = self.semigroup.length_profile();
        let horizon = self.min_gap + profile.preperiod + profile.period + 1;
        for len in 2..=horizon {
            let mut next = vec![None; self.semigroup.len()];
            let reached = &layers[len - 2];
            for ty in self
                .semigroup
                .iter()
                .filter(|ty| reached[ty.index()].is_some())
            {
                for a in letters() {
                    next[self.semigroup.step(ty, a).index()].get_or_insert((ty, a));
                }
            }
            layers.push(next);
            if len >= self.min_gap && layers[len - 1][t.index()].is_some() {
                let (mut ty, mut word) = (t, vec![lcl_problem::InLabel(0); len]);
                for (letter, layer) in word.iter_mut().zip(&layers).rev() {
                    (ty, *letter) = layer[ty.index()].expect("reached types have a prefix");
                }
                return word;
            }
        }
        // Fall back to the stored (possibly short) witness; unreachable for
        // quantified types.
        self.semigroup.witness(t).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_problem::NormalizedLcl;

    fn two_coloring() -> NormalizedLcl {
        let mut b = NormalizedLcl::builder("2-coloring");
        b.input_labels(&["x"]);
        b.output_labels(&["1", "2"]);
        b.allow_all_node_pairs();
        b.allow_edge_idx(0, 1);
        b.allow_edge_idx(1, 0);
        b.build().unwrap()
    }

    fn three_coloring() -> NormalizedLcl {
        let mut b = NormalizedLcl::builder("3-coloring");
        b.input_labels(&["x"]);
        b.output_labels(&["1", "2", "3"]);
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

    #[test]
    fn two_coloring_is_not_always_solvable() {
        let info = GapTypes::compute(&two_coloring(), 10_000).unwrap();
        let witness = info.solvability_witness().unwrap();
        assert!(witness.is_some(), "odd cycles are not 2-colorable");
        assert_eq!(info.problem().name(), "2-coloring");
    }

    #[test]
    fn witnesses_are_deterministic_long_and_unlabelable() {
        // Inputs are copied and `B → A` is forbidden: every cycle that mixes
        // both letters is unsolvable, so many words of one length witness it.
        let mut b = NormalizedLcl::builder("one-way");
        b.input_labels(&["a", "b"]);
        b.output_labels(&["A", "B"]);
        b.allow_node_idx(0, 0);
        b.allow_node_idx(1, 1);
        b.allow_edge_idx(0, 0);
        b.allow_edge_idx(0, 1);
        b.allow_edge_idx(1, 1);
        let problem = b.build().unwrap();
        let info = GapTypes::compute(&problem, 10_000).unwrap();
        let witness = info.solvability_witness().unwrap().expect("mixed cycles");
        assert!(witness.len() >= info.min_gap());
        let cycle = lcl_problem::Instance::cycle(witness.clone());
        assert!(!info.system().instance_solvable(&cycle).unwrap());
        for _ in 0..8 {
            let again = GapTypes::compute(&problem, 10_000).unwrap();
            assert_eq!(
                again.solvability_witness().unwrap().as_ref(),
                Some(&witness)
            );
        }
    }

    #[test]
    fn cycle_checks_equal_the_trace_of_the_cycle_relation() {
        let mut problems: Vec<NormalizedLcl> = lcl_problems::corpus()
            .into_iter()
            .map(|e| e.problem)
            .collect();
        problems.extend((2..=8).map(lcl_problems::run));
        // Rows of more than one word.
        problems.push(lcl_problems::coloring(70));
        problems.extend((0..64u64).map(|seed| {
            let config = lcl_gen::GenConfig::new(seed)
                .family(lcl_gen::Family::ALL[seed as usize % 4])
                .input_labels(1 + seed as usize % 3)
                .output_labels(3 + seed as usize % 6);
            lcl_gen::generate(&config).unwrap()
        }));
        let mut checked = 0;
        for problem in &problems {
            let info = GapTypes::compute(problem, 10_000).unwrap();
            for t in info.semigroup().iter() {
                let cycle = info.system().cycle_relation(info.semigroup().relation(t));
                assert_eq!(
                    info.cycle_labelable(t),
                    cycle.unwrap().has_nonzero_diagonal(),
                    "{}: type {t:?}",
                    problem.name()
                );
                checked += 1;
            }
        }
        assert!(checked >= 1_000, "only {checked} types checked");
    }

    #[test]
    fn three_coloring_is_always_solvable() {
        let info = GapTypes::compute(&three_coloring(), 10_000).unwrap();
        assert!(info.solvability_witness().unwrap().is_none());
        assert!(!info.quantified().is_empty());
        assert!(info.min_gap() >= 1);
        // For 3-coloring with a unary input alphabet the semigroup collapses
        // to very few types; all quantified types have a connection relation.
        for i in 0..info.quantified().len() {
            assert_eq!(info.connection(i).dim(), 3);
        }
        let t = info.quantified()[0];
        assert_eq!(info.position(t), Some(0));
        assert!(!info.semigroup().is_empty());
        assert_eq!(info.system().dim(), 3);
    }
}
