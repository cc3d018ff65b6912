//! The feasible-function search (§4.2 and §4.4), formulated over types.
//!
//! A *feasible structure* consists of
//!
//! * for every quantified gap type `τ`, a pair of label sets
//!   `(A(τ), B(τ))` with `A(τ) × B(τ) ⊆ C(τ)`: any "last" label from `A(τ)`
//!   placed on the left of a gap of type `τ` can be bridged to any "first"
//!   label from `B(τ)` on its right, whatever the gap's input word is;
//! * for every anchor-block context `(τ_left, S, τ_right)` with
//!   `S ∈ Σ_in²`, a block labeling `(first, last)` with
//!   `first ∈ B(τ_left)`, `last ∈ A(τ_right)` that satisfies the node
//!   constraints of `S` and the internal edge constraint — the paper's
//!   feasible function `f` of §4.2;
//! * optionally (for the `O(1)` gap), for every short primitive input pattern
//!   `w`, a periodic output labeling `f(w)` (the `G_{w,z}` condition of §4.4)
//!   whose boundary labels belong to every `A(τ)` / `B(τ)` (the
//!   `G_{w1,w2,S}` condition, quantified over middle types).
//!
//! The search is a backtracking constraint solver over the candidate
//! "bicliques" `(A, B)` of each connection relation; the domains and the
//! number of types are small for concrete problems (Lemma 13 bounds them in
//! terms of the label alphabets only).

use crate::types_info::GapTypes;
use crate::{ClassifierError, Result};
use lcl_problem::{InLabel, NormalizedLcl, OutLabel};
use lcl_semigroup::OutRelation;
use std::collections::HashMap;

/// A periodic output labeling for one primitive input pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternLabeling {
    /// The primitive pattern, in canonical rotation.
    pub pattern: Vec<InLabel>,
    /// A valid periodic labeling of the same length.
    pub labeling: Vec<OutLabel>,
}

/// The outcome of a successful feasibility search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FeasibleStructure {
    /// `A(τ)` for each quantified type (labels allowed to face the gap from
    /// the left).
    pub left_facing: Vec<Vec<OutLabel>>,
    /// `B(τ)` for each quantified type (labels allowed to face the gap from
    /// the right).
    pub right_facing: Vec<Vec<OutLabel>>,
    /// The feasible function: `(left type index, S₀, S₁, right type index) ↦
    /// (first, last)` for the 2-node anchor blocks.
    pub blocks: HashMap<(usize, u16, u16, usize), (OutLabel, OutLabel)>,
    /// Periodic labelings per pattern (empty when only the `Θ(log* n)`-level
    /// structure was requested).
    pub patterns: Vec<PatternLabeling>,
}

impl FeasibleStructure {
    /// Assembles a structure from the facing sets (ascending label lists,
    /// one per quantified type) and the pattern labelings, materializing the
    /// feasible function: each anchor-block context gets the first
    /// `(first, last)` pair in label order with `first ∈ B(τ_left)`,
    /// `last ∈ A(τ_right)`, the node constraints of `S` and the internal edge
    /// constraint. Returns `None` if some context has no such pair. Labels
    /// must lie in the problem's output alphabet.
    pub(crate) fn new(
        problem: &NormalizedLcl,
        left_facing: Vec<Vec<OutLabel>>,
        right_facing: Vec<Vec<OutLabel>>,
        patterns: Vec<PatternLabeling>,
    ) -> Option<Self> {
        let contexts = (right_facing.len() * problem.num_inputs()).pow(2);
        let mut blocks = HashMap::with_capacity(contexts);
        for (li, firsts) in right_facing.iter().enumerate() {
            for (ri, lasts) in left_facing.iter().enumerate() {
                for (s0, s1) in input_pairs(problem) {
                    let (firsts, lasts) = (firsts.iter().copied(), lasts.iter().copied());
                    let pair = block_labeling(problem, firsts, lasts, (s0, s1))?;
                    blocks.insert((li, s0.0, s1.0, ri), pair);
                }
            }
        }
        Some(FeasibleStructure {
            left_facing,
            right_facing,
            blocks,
            patterns,
        })
    }

    /// Looks up the block labeling for a context.
    pub fn block(
        &self,
        left_type: usize,
        s0: InLabel,
        s1: InLabel,
        right_type: usize,
    ) -> Option<(OutLabel, OutLabel)> {
        self.blocks
            .get(&(left_type, s0.0, s1.0, right_type))
            .copied()
    }

    /// Looks up the periodic labeling of a canonical pattern.
    pub fn pattern_labeling(&self, pattern: &[InLabel]) -> Option<&PatternLabeling> {
        self.patterns.iter().find(|p| p.pattern == pattern)
    }
}

/// One candidate biclique `(A, B)` of a connection relation, stored as
/// bitmasks over `Σ_out`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Biclique {
    a: u64,
    b: u64,
}

fn candidate_bicliques(conn: &OutRelation, beta: usize) -> Vec<Biclique> {
    let mut out: Vec<Biclique> = Vec::new();
    for a_mask in 1u64..(1 << beta) {
        // B = common successors of A.
        let mut b_mask = (1u64 << beta) - 1;
        for p in 0..beta {
            if a_mask >> p & 1 == 1 {
                let mut row = 0u64;
                for q in 0..beta {
                    if conn.get(p, q) {
                        row |= 1 << q;
                    }
                }
                b_mask &= row;
            }
        }
        if b_mask == 0 {
            continue;
        }
        // Maximalize A: every p whose row covers B.
        let mut a_closed = 0u64;
        for p in 0..beta {
            let mut covers = true;
            for q in 0..beta {
                if b_mask >> q & 1 == 1 && !conn.get(p, q) {
                    covers = false;
                    break;
                }
            }
            if covers {
                a_closed |= 1 << p;
            }
        }
        let candidate = Biclique {
            a: a_closed,
            b: b_mask,
        };
        if !out.contains(&candidate) {
            out.push(candidate);
        }
    }
    out
}

/// The labels of a bitmask over `Σ_out`, ascending.
fn mask_labels(mask: u64, beta: usize) -> impl Iterator<Item = OutLabel> + Clone {
    (0..beta)
        .filter(move |&i| mask >> i & 1 == 1)
        .map(OutLabel::from_index)
}

/// Every anchor-block input `S = (S₀, S₁) ∈ Σ_in²`.
fn input_pairs(problem: &NormalizedLcl) -> impl Iterator<Item = (InLabel, InLabel)> {
    let alpha = problem.num_inputs() as u16;
    (0..alpha).flat_map(move |s0| (0..alpha).map(move |s1| (InLabel(s0), InLabel(s1))))
}

/// The block labeling of input `(S₀, S₁)`: the first `(first, last)` pair in
/// label order with `first ∈ firsts`, `last ∈ lasts`, the node constraints of
/// `S` and the internal edge constraint.
fn block_labeling(
    problem: &NormalizedLcl,
    firsts: impl Iterator<Item = OutLabel>,
    lasts: impl Iterator<Item = OutLabel> + Clone,
    (s0, s1): (InLabel, InLabel),
) -> Option<(OutLabel, OutLabel)> {
    let mut firsts = firsts.filter(|&first| problem.node_ok(s0, first));
    firsts.find_map(|first| {
        let mut lasts = lasts.clone();
        let last = lasts.find(|&last| problem.node_ok(s1, last) && problem.edge_ok(first, last))?;
        Some((first, last))
    })
}

/// Enumerates all valid periodic labelings of a pattern (labelings `y` with
/// `node_ok(w_i, y_i)`, `edge_ok(y_i, y_{i+1})` and `edge_ok(y_last, y_0)`).
fn periodic_labelings(
    problem: &NormalizedLcl,
    pattern: &[InLabel],
    cap: usize,
) -> Vec<Vec<OutLabel>> {
    let beta = problem.num_outputs();
    let mut out = Vec::new();
    let mut stack: Vec<Vec<OutLabel>> = (0..beta)
        .map(OutLabel::from_index)
        .filter(|&o| problem.node_ok(pattern[0], o))
        .map(|o| vec![o])
        .collect();
    while let Some(partial) = stack.pop() {
        if out.len() >= cap {
            break;
        }
        if partial.len() == pattern.len() {
            if problem.edge_ok(*partial.last().expect("non-empty"), partial[0]) {
                out.push(partial);
            }
            continue;
        }
        let i = partial.len();
        for o in 0..beta {
            let o = OutLabel::from_index(o);
            if problem.node_ok(pattern[i], o)
                && problem.edge_ok(*partial.last().expect("non-empty"), o)
            {
                let mut next = partial.clone();
                next.push(o);
                stack.push(next);
            }
        }
    }
    out
}

/// The padding exponents the `G_{w1,w2,S}` check must cover for one pattern:
/// all exponents in one full period of the eventual periodicity of
/// `R(w^k)`, starting high enough that the padding is at least `min_gap`
/// nodes long (the synthesized algorithm always leaves at least that much of
/// the periodic fringe unlabeled).
fn stable_exponents(info: &GapTypes, pattern: &[InLabel]) -> Result<Vec<usize>> {
    let exp = lcl_semigroup::pump_exponent(info.semigroup(), pattern)?;
    let needed = info.min_gap().div_ceil(pattern.len()) + 1;
    let start = exp.b.max(needed);
    Ok((0..exp.a).map(|r| start + r).collect())
}

/// Backtracking choice of one periodic labeling per pattern such that every
/// ordered pair of labeled periodic regions bridges across every possible
/// middle.
fn choose_pattern_labelings(
    info: &GapTypes,
    patterns: &[Vec<InLabel>],
    candidates: &[Vec<Vec<OutLabel>>],
) -> Result<Option<Vec<PatternLabeling>>> {
    if patterns.is_empty() {
        return Ok(Some(Vec::new()));
    }
    let system = info.system();
    let semigroup = info.semigroup();
    // Pre-compute, for every pattern, the relations of its stable paddings.
    let mut paddings: Vec<Vec<lcl_semigroup::OutRelation>> = Vec::with_capacity(patterns.len());
    for pattern in patterns {
        let base = system.relation_of_word(pattern)?;
        let mut rels = Vec::new();
        for e in stable_exponents(info, pattern)? {
            rels.push(system.power(&base, e)?);
        }
        paddings.push(rels);
    }
    // Middles: every semigroup element plus the empty middle.
    let mut middles: Vec<Option<lcl_semigroup::OutRelation>> = vec![None];
    for t in semigroup.iter() {
        middles.push(Some(semigroup.relation(t).clone()));
    }

    // bridge(i, fi, j, fj): can a labeled w_i-region (ending with fi's last
    // label) be followed, across any middle, by a labeled w_j-region
    // (starting with fj's first label)?
    let bridge = |i: usize, fi: &[OutLabel], j: usize, fj: &[OutLabel]| -> Result<bool> {
        let last = fi[fi.len() - 1];
        let first = fj[0];
        for left in &paddings[i] {
            for right in &paddings[j] {
                for middle in &middles {
                    let combined = match middle {
                        None => system.join(left, right)?,
                        Some(mid) => system.join(&system.join(left, mid)?, right)?,
                    };
                    if !system.connection(&combined)?.contains(last, first) {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    };

    /// Checks that the labeling of one pattern can bridge into another's
    /// across an arbitrary middle: `(left index, left labeling, right index,
    /// right labeling)`.
    type BridgeCheck<'a> = dyn Fn(usize, &[OutLabel], usize, &[OutLabel]) -> Result<bool> + 'a;

    fn solve(
        idx: usize,
        patterns: &[Vec<InLabel>],
        candidates: &[Vec<Vec<OutLabel>>],
        chosen: &mut Vec<Vec<OutLabel>>,
        bridge: &BridgeCheck<'_>,
    ) -> Result<bool> {
        if idx == patterns.len() {
            return Ok(true);
        }
        'cands: for cand in &candidates[idx] {
            // Check against itself and all previously chosen labelings.
            if !bridge(idx, cand, idx, cand)? {
                continue;
            }
            for (j, prev) in chosen.iter().enumerate() {
                if !bridge(idx, cand, j, prev)? || !bridge(j, prev, idx, cand)? {
                    continue 'cands;
                }
            }
            chosen.push(cand.clone());
            if solve(idx + 1, patterns, candidates, chosen, bridge)? {
                return Ok(true);
            }
            chosen.pop();
        }
        Ok(false)
    }

    let mut chosen: Vec<Vec<OutLabel>> = Vec::new();
    if !solve(0, patterns, candidates, &mut chosen, &bridge)? {
        return Ok(None);
    }
    Ok(Some(
        patterns
            .iter()
            .zip(chosen)
            .map(|(pattern, labeling)| PatternLabeling {
                pattern: pattern.clone(),
                labeling,
            })
            .collect(),
    ))
}

/// Checks that a block labeling exists for every `S ∈ Σ_in²` given the facing
/// sets of the left and right gap types. Returns `false` as soon as some `S`
/// has none.
fn blocks_exist(
    problem: &NormalizedLcl,
    right_facing_of_left_gap: u64,
    left_facing_of_right_gap: u64,
    beta: usize,
) -> bool {
    let firsts = mask_labels(right_facing_of_left_gap, beta);
    let lasts = mask_labels(left_facing_of_right_gap, beta);
    input_pairs(problem)
        .all(|s| block_labeling(problem, firsts.clone(), lasts.clone(), s).is_some())
}

/// Searches for a feasible structure.
///
/// `patterns` lists the canonical primitive input patterns for which periodic
/// labelings are additionally required (pass an empty slice to decide only the
/// `ω(log* n) — o(n)` gap). `budget` bounds the number of backtracking nodes.
///
/// # Errors
///
/// Returns [`ClassifierError::TooLarge`] if the output alphabet has 64 or
/// more labels (candidate subsets are `u64` bitmasks enumerated up to
/// `1 << beta`) and
/// [`ClassifierError::SearchBudgetExceeded`] if the search budget runs out.
pub fn find_feasible(
    info: &GapTypes,
    patterns: &[Vec<InLabel>],
    budget: usize,
) -> Result<Option<FeasibleStructure>> {
    let problem = info.problem();
    let beta = problem.num_outputs();
    if beta >= 64 {
        return Err(ClassifierError::TooLarge {
            what: format!("output alphabet of size {beta} exceeds the 63-label limit"),
        });
    }
    let num_types = info.quantified().len();
    // Candidate bicliques per type, most permissive first (larger sets let
    // more blocks and patterns through).
    let mut domains: Vec<Vec<Biclique>> = Vec::with_capacity(num_types);
    for i in 0..num_types {
        let mut cands = candidate_bicliques(info.connection(i), beta);
        if cands.is_empty() {
            return Ok(None);
        }
        cands.sort_by_key(|c| {
            usize::MAX - (c.a.count_ones() as usize) * (c.b.count_ones() as usize)
        });
        domains.push(cands);
    }
    // Candidate periodic labelings per pattern.
    let mut pattern_candidates: Vec<Vec<Vec<OutLabel>>> = Vec::with_capacity(patterns.len());
    for pattern in patterns {
        let cands = periodic_labelings(problem, pattern, 4096);
        if cands.is_empty() {
            return Ok(None);
        }
        pattern_candidates.push(cands);
    }

    struct Search<'a> {
        info: &'a GapTypes,
        problem: &'a NormalizedLcl,
        beta: usize,
        domains: &'a [Vec<Biclique>],
        assignment: Vec<Option<Biclique>>,
        nodes: usize,
        budget: usize,
    }

    impl Search<'_> {
        fn consistent_with(&self, idx: usize, choice: Biclique) -> bool {
            // Block constraints between `idx` and every assigned type (and itself).
            for (other_idx, other) in self.assignment.iter().enumerate() {
                let other = match other {
                    Some(b) => *b,
                    None if other_idx == idx => choice,
                    None => continue,
                };
                let this = choice;
                // Block with left gap `other_idx` and right gap `idx`.
                if !blocks_exist(self.problem, other.b, this.a, self.beta) {
                    return false;
                }
                // Block with left gap `idx` and right gap `other_idx`.
                if !blocks_exist(self.problem, this.b, other.a, self.beta) {
                    return false;
                }
            }
            true
        }

        fn solve(&mut self, idx: usize) -> Result<bool> {
            self.nodes += 1;
            if self.nodes > self.budget {
                return Err(ClassifierError::SearchBudgetExceeded {
                    budget: self.budget,
                });
            }
            if idx == self.assignment.len() {
                return Ok(true);
            }
            let _ = self.info;
            for choice_idx in 0..self.domains[idx].len() {
                let choice = self.domains[idx][choice_idx];
                if !self.consistent_with(idx, choice) {
                    continue;
                }
                self.assignment[idx] = Some(choice);
                if self.solve(idx + 1)? {
                    return Ok(true);
                }
                self.assignment[idx] = None;
            }
            Ok(false)
        }
    }

    let mut search = Search {
        info,
        problem,
        beta,
        domains: &domains,
        assignment: vec![None; num_types],
        nodes: 0,
        budget,
    };
    if num_types > 0 && !search.solve(0)? {
        return Ok(None);
    }
    // Choose periodic labelings so that any two labeled periodic regions can
    // be bridged across an arbitrary middle (the `G_{w1,w2,S}` condition of
    // §4.4): for every ordered pair of patterns, every middle type (or empty
    // middle) and every stable padding exponent, the connection relation of
    // `w1^{e1} ◦ S ◦ w2^{e2}` must relate `f(w1)`'s last label to `f(w2)`'s
    // first label. The choice is a small backtracking search over patterns.
    let chosen_patterns = match choose_pattern_labelings(info, patterns, &pattern_candidates)? {
        Some(chosen) => chosen,
        None => return Ok(None),
    };

    // A solved search assigned every type.
    let (left_facing, right_facing) = search
        .assignment
        .iter()
        .flatten()
        .map(|b| {
            let labels = |mask| mask_labels(mask, beta).collect::<Vec<_>>();
            (labels(b.a), labels(b.b))
        })
        .unzip();
    Ok(FeasibleStructure::new(
        problem,
        left_facing,
        right_facing,
        chosen_patterns,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_problem::NormalizedLcl;
    use lcl_semigroup::primitive_strings_up_to;

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

    fn anything_goes() -> NormalizedLcl {
        let mut b = NormalizedLcl::builder("free");
        b.input_labels(&["x"]);
        b.output_labels(&["o", "p"]);
        b.allow_all_node_pairs();
        b.allow_all_edge_pairs();
        b.build().unwrap()
    }

    /// The "secret broadcast" problem: `S_a`/`S_b` nodes output their starred
    /// secret, plain nodes must copy the secret of the nearest `S` node behind
    /// them (or output `X` if the whole cycle has no `S` node). Always
    /// solvable, but the secret must travel `Θ(n)` hops.
    fn secret_broadcast() -> NormalizedLcl {
        let mut b = NormalizedLcl::builder("secret-broadcast");
        b.input_labels(&["Sa", "Sb", "c"]);
        b.output_labels(&["a", "b", "X", "a*", "b*"]);
        b.allow_node("Sa", "a*");
        b.allow_node("Sb", "b*");
        b.allow_node("c", "a");
        b.allow_node("c", "b");
        b.allow_node("c", "X");
        // Continue a segment.
        b.allow_edge("a", "a");
        b.allow_edge("a*", "a");
        b.allow_edge("b", "b");
        b.allow_edge("b*", "b");
        b.allow_edge("X", "X");
        // Any segment may end right before a new S node.
        for pred in ["a", "b", "X", "a*", "b*"] {
            b.allow_edge(pred, "a*");
            b.allow_edge(pred, "b*");
        }
        b.build().unwrap()
    }

    #[test]
    fn three_coloring_has_logstar_structure_but_no_constant_one() {
        let info = GapTypes::compute(&three_coloring(), 10_000).unwrap();
        let logstar = find_feasible(&info, &[], 1_000_000).unwrap();
        assert!(logstar.is_some(), "3-coloring is O(log* n)");
        // For the O(1) level we also need a periodic labeling for the
        // single-letter pattern, which does not exist (a node cannot have its
        // own colour as both neighbours... period 1 needs edge_ok(c, c)).
        let patterns = primitive_strings_up_to(1, 1);
        let constant = find_feasible(&info, &patterns, 1_000_000).unwrap();
        assert!(constant.is_none(), "3-coloring is not O(1)");
    }

    #[test]
    fn free_problem_has_constant_structure() {
        let info = GapTypes::compute(&anything_goes(), 10_000).unwrap();
        let patterns = primitive_strings_up_to(1, info.semigroup().pump_threshold().min(3));
        let feasible = find_feasible(&info, &patterns, 1_000_000).unwrap();
        let structure = feasible.expect("the unconstrained problem is O(1)");
        assert!(!structure.patterns.is_empty());
        assert!(structure
            .pattern_labeling(&structure.patterns[0].pattern)
            .is_some());
        assert!(!structure.blocks.is_empty());
        let (first, last) = structure
            .block(0, lcl_problem::InLabel(0), lcl_problem::InLabel(0), 0)
            .expect("block exists");
        assert!(first.index() < 2 && last.index() < 2);
    }

    #[test]
    fn secret_broadcast_has_no_logstar_structure() {
        let info = GapTypes::compute(&secret_broadcast(), 10_000).unwrap();
        assert!(
            info.solvability_witness().unwrap().is_none(),
            "secret broadcast is always solvable"
        );
        let feasible = find_feasible(&info, &[], 5_000_000).unwrap();
        assert!(
            feasible.is_none(),
            "the secret must travel across the whole cycle, so no feasible function exists"
        );
    }

    #[test]
    fn biclique_candidates_are_consistent() {
        let info = GapTypes::compute(&three_coloring(), 10_000).unwrap();
        let conn = info.connection(0);
        let cands = candidate_bicliques(conn, 3);
        assert!(!cands.is_empty());
        for c in cands {
            for p in 0..3 {
                for q in 0..3 {
                    if c.a >> p & 1 == 1 && c.b >> q & 1 == 1 {
                        assert!(conn.get(p, q), "biclique must be inside the relation");
                    }
                }
            }
        }
    }

    #[test]
    fn budget_is_enforced() {
        let info = GapTypes::compute(&three_coloring(), 10_000).unwrap();
        let result = find_feasible(&info, &[], 0);
        assert!(matches!(
            result,
            Err(ClassifierError::SearchBudgetExceeded { .. })
        ));
    }

    #[test]
    fn a_64_label_output_alphabet_is_too_large_not_misclassified() {
        // Candidate subsets are enumerated up to `1 << beta`, which
        // overflows a u64 at beta = 64: the guard must reject it before the
        // walk (it used to wrap in release and classify both as linear).
        for problem in [lcl_problems::unconstrained(64), lcl_problems::coloring(64)] {
            let result = crate::Engine::new().classify(&problem);
            assert!(
                matches!(result, Err(ClassifierError::TooLarge { .. })),
                "{}: {result:?}",
                problem.name()
            );
        }
    }

    #[test]
    fn periodic_labelings_enumeration() {
        let p = three_coloring();
        let singles = periodic_labelings(&p, &[InLabel(0)], 100);
        assert!(singles.is_empty(), "no colour is adjacent to itself");
        let pairs = periodic_labelings(&p, &[InLabel(0), InLabel(0)], 100);
        assert_eq!(pairs.len(), 6, "ordered pairs of distinct colours");
    }
}
