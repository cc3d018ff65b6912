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
//! terms of the label alphabets only). Label sets are `u64` bitmasks over
//! `Σ_out`, so the output alphabet is capped at 63 labels.
//!
//! # Domains are formal concepts
//!
//! Only maximal bicliques are worth trying: growing `A` or `B` inside `C(τ)`
//! admits every block labeling the smaller pair admitted. The maximal pairs
//! with `B ≠ ∅` are the formal concepts of `C(τ)` read as a formal context
//! (Ganter, "Two Basic Algorithms in Concept Analysis", ICFCA 2010): every
//! intent `B` is an intersection of nonzero rows, and its extent is
//! `A = {p : row_p ⊇ B}`. The domain of a type is built by closing the
//! nonzero rows under intersection, so it costs time in proportion to the
//! number of concepts, not to the `2^β` label subsets.
//!
//! The domain order is the one a walk over every nonempty subset `A₀` (as an
//! integer, ascending) produces when it maps `A₀` to the concept generated
//! by its common successors and keeps first occurrences, followed by a
//! stable sort on `|A|·|B|`, largest first: ties are broken by the smallest
//! generating `A₀`. That generator is found from `A` by dropping bits from
//! the highest down whenever the rest still generates `B`; since dropping
//! rows only grows the intersection, each step decides its bit exactly, and
//! the result is the lexicographically (so numerically) smallest generator.
//! The tests keep the subset walk as an oracle.
//!
//! # Pattern bridging factorizes
//!
//! With `join(a, b) = a·E·b` and `connection(r) = E·r·E`, a left padding
//! `L`, a middle `M` and a right padding `R` give
//! `C(L∘M∘R) = C(L)·M·C(R)` and, with no middle, `C(L∘R) = (E·L)·C(R)`.
//! `C(L)` and `E·L` are computed once per stable padding and `C(L)·M` once
//! per padding and middle. The boolean product is monotone, so a middle
//! `M ⊆ M′` makes the `M′` check redundant: only the `⊆`-minimal middles are
//! kept, and likewise only the minimal left factors (`E·L` and `C(L)·M`) and
//! right factors (`C(R)`) of each pattern. The stable paddings' relations are
//! the cycle that `R(w), R(w²), …` enters, read off the sequence itself.
//! Whether two labeled periodic regions bridge then depends only on the left
//! labeling's last label and the right one's first label, which is one
//! memoized `β × β` relation per ordered pair of patterns; a candidate
//! labeling whose `(first, last)` pair an earlier one of the same pattern had
//! is dropped, as the search would reject it for the same reasons.
//!
//! # Blocks are bitmask checks
//!
//! The node constraints of each input and the successors of each output are
//! bitmasks, so the first block labeling of a context is found with a few
//! word operations. The search's block checks and the block table of
//! [`FeasibleStructure`] use the same routine, so they agree by
//! construction.
//!
//! Blocks depend on the types only through their facing sets, and many
//! types share them. The search keeps the distinct bicliques assigned so
//! far, with counts, and checks a choice against itself and each of them
//! once: a repeated biclique adds no constraint. In the block table, a
//! type's row repeats the row of the first type with the same `B(τ_left)`,
//! and an entry repeats the entry of the first type with the same
//! `A(τ_right)`, so a block is solved once per distinct pair of sets and
//! input pair.

use crate::types_info::GapTypes;
use crate::{ClassifierError, Result};
use lcl_problem::{InLabel, NormalizedLcl, OutLabel};
use lcl_semigroup::OutRelation;
use std::cmp::Reverse;
use std::collections::HashSet;

/// The largest output alphabet the search accepts.
const MAX_OUTPUTS: usize = 63;

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
    /// The feasible function, one `(first, last)` per anchor-block context
    /// `(left type, S₀, S₁, right type)`, at index
    /// `((left · α + S₀) · α + S₁) · types + right`.
    blocks: Vec<(OutLabel, OutLabel)>,
    /// `|Σ_in|`.
    inputs: usize,
    /// The number of quantified types.
    types: usize,
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
    /// constraint. Returns `None` if some context has no such pair or a
    /// label lies outside the problem's output alphabet, or if the two lists
    /// of facing sets differ in length.
    pub(crate) fn new(
        problem: &NormalizedLcl,
        left_facing: Vec<Vec<OutLabel>>,
        right_facing: Vec<Vec<OutLabel>>,
        patterns: Vec<PatternLabeling>,
    ) -> Option<Self> {
        let (beta, types) = (problem.num_outputs(), left_facing.len());
        if beta > MAX_OUTPUTS || right_facing.len() != types {
            return None;
        }
        let masks = |sets: &[Vec<OutLabel>]| -> Option<Vec<u64>> {
            sets.iter()
                .map(|set| {
                    set.iter().try_fold(0u64, |mask, l| {
                        (l.index() < beta).then_some(mask | 1 << l.index())
                    })
                })
                .collect()
        };
        // Types with equal facing sets get equal blocks (see the module
        // documentation).
        let (firsts, lasts) = (masks(&right_facing)?, masks(&left_facing)?);
        let first_equal =
            |sets: &[u64], i: usize| sets[..i].iter().position(|&m| m == sets[i]).unwrap_or(i);
        let last_equal: Vec<usize> = (0..types).map(|r| first_equal(&lasts, r)).collect();
        let constraints = BlockMasks::new(problem);
        let row_len = problem.num_inputs().pow(2) * types;
        let mut blocks = Vec::with_capacity(types * row_len);
        for (l, &first) in firsts.iter().enumerate() {
            let earlier = first_equal(&firsts, l);
            if earlier < l {
                blocks.extend_from_within(earlier * row_len..(earlier + 1) * row_len);
                continue;
            }
            for s in input_pairs(problem) {
                let start = blocks.len();
                for (r, &last) in lasts.iter().enumerate() {
                    let block = match last_equal[r] {
                        earlier if earlier < r => blocks[start + earlier],
                        _ => constraints.first_block(first, last, s)?,
                    };
                    blocks.push(block);
                }
            }
        }
        Some(FeasibleStructure {
            left_facing,
            right_facing,
            blocks,
            inputs: problem.num_inputs(),
            types,
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
        let (alpha, types) = (self.inputs, self.types);
        let (s0, s1) = (s0.index(), s1.index());
        let in_range = left_type < types && right_type < types && s0 < alpha && s1 < alpha;
        in_range.then(|| self.blocks[((left_type * alpha + s0) * alpha + s1) * types + right_type])
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

/// The set bits of a mask, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = (mask != 0).then(|| mask.trailing_zeros() as usize)?;
        mask &= mask - 1;
        Some(bit)
    })
}

/// A boolean `β × β` matrix as one row mask per label.
type Rows = Vec<u64>;

/// The rows of a relation on at most [`MAX_OUTPUTS`] labels, each one word.
fn rows_of(relation: &OutRelation) -> Rows {
    (0..relation.dim())
        .map(|p| relation.row_words(p)[0])
        .collect()
}

/// Boolean matrix product `a · b`.
fn product(a: &[u64], b: &[u64]) -> Rows {
    a.iter()
        .map(|&row| bits(row).fold(0, |out, k| out | b[k]))
        .collect()
}

/// The domain of one connection relation: its formal concepts `(A, B)` with
/// `B ≠ ∅`, largest `|A|·|B|` first, ties by smallest generating subset (see
/// the module documentation).
fn ordered_domain(conn: &OutRelation) -> Vec<Biclique> {
    let rows = rows_of(conn);
    // Intents: the nonzero rows closed under nonzero intersections. A row
    // that is already an intent adds nothing new.
    let mut intents: Vec<u64> = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    for &row in &rows {
        if row == 0 || !seen.insert(row) {
            continue;
        }
        let before = intents.len();
        intents.push(row);
        for i in 0..before {
            let meet = intents[i] & row;
            if meet != 0 && seen.insert(meet) {
                intents.push(meet);
            }
        }
    }
    let intent = |a: u64| bits(a).fold(u64::MAX, |b, p| b & rows[p]);
    let mut concepts: Vec<(Biclique, u64)> = intents
        .into_iter()
        .map(|b| {
            let a = (0..rows.len())
                .filter(|&p| rows[p] & b == b)
                .fold(0, |a, p| a | 1 << p);
            let mut generator = a;
            for p in (0..rows.len()).rev().filter(|&p| a >> p & 1 == 1) {
                let without = generator & !(1 << p);
                if without != 0 && intent(without) == b {
                    generator = without;
                }
            }
            (Biclique { a, b }, generator)
        })
        .collect();
    concepts
        .sort_by_key(|&(c, generator)| (Reverse(c.a.count_ones() * c.b.count_ones()), generator));
    concepts.into_iter().map(|(c, _)| c).collect()
}

/// Every anchor-block input `S = (S₀, S₁) ∈ Σ_in²`.
fn input_pairs(problem: &NormalizedLcl) -> impl Iterator<Item = (InLabel, InLabel)> {
    let alpha = problem.num_inputs() as u16;
    (0..alpha).flat_map(move |s0| (0..alpha).map(move |s1| (InLabel(s0), InLabel(s1))))
}

/// The node and edge constraints as bitmasks over `Σ_out`, for block
/// labelings.
struct BlockMasks {
    /// `nodes[s]`: the labels allowed at a node with input `s`.
    nodes: Vec<u64>,
    /// `edges[p]`: the labels allowed right after `p`.
    edges: Vec<u64>,
}

impl BlockMasks {
    fn new(problem: &NormalizedLcl) -> Self {
        let beta = problem.num_outputs();
        let mask = |ok: &dyn Fn(OutLabel) -> bool| {
            (0..beta)
                .filter(|&o| ok(OutLabel::from_index(o)))
                .fold(0u64, |m, o| m | 1 << o)
        };
        BlockMasks {
            nodes: (0..problem.num_inputs())
                .map(|s| mask(&|o| problem.node_ok(InLabel::from_index(s), o)))
                .collect(),
            edges: (0..beta)
                .map(|p| mask(&|o| problem.edge_ok(OutLabel::from_index(p), o)))
                .collect(),
        }
    }

    /// The block labeling of input `(S₀, S₁)`: the first `(first, last)` pair
    /// in label order with `first ∈ firsts`, `last ∈ lasts`, the node
    /// constraints of `S` and the internal edge constraint.
    fn first_block(
        &self,
        firsts: u64,
        lasts: u64,
        (s0, s1): (InLabel, InLabel),
    ) -> Option<(OutLabel, OutLabel)> {
        let lasts = lasts & self.nodes[s1.index()];
        bits(firsts & self.nodes[s0.index()]).find_map(|first| {
            let last = bits(lasts & self.edges[first]).next()?;
            Some((OutLabel::from_index(first), OutLabel::from_index(last)))
        })
    }
}

/// The candidate periodic labelings of a pattern: labelings `y` with
/// `node_ok(w_i, y_i)`, `edge_ok(y_i, y_{i+1})` and `edge_ok(y_last, y_0)`,
/// enumerated depth first with the largest label tried first (descending
/// lexicographic order) and cut after the first `cap`. Of those, only the
/// first with each `(first, last)` pair is kept, as bridging depends on
/// nothing else.
fn periodic_candidates(masks: &BlockMasks, pattern: &[InLabel], cap: usize) -> Vec<Vec<OutLabel>> {
    struct Walk<'a> {
        masks: &'a BlockMasks,
        pattern: &'a [InLabel],
        cap: usize,
        /// Valid labelings met so far, kept or not.
        found: usize,
        path: Vec<usize>,
        /// `ends[first]`: the last labels kept with that first label.
        ends: Vec<u64>,
        out: Vec<Vec<OutLabel>>,
    }

    impl Walk<'_> {
        /// Extends the path by every label in `allowed` that fits the next
        /// node, largest first.
        fn extend(&mut self, allowed: u64) {
            let i = self.path.len();
            let mut labels = allowed & self.masks.nodes[self.pattern[i].index()];
            while labels != 0 && self.found < self.cap {
                let o = 63 - labels.leading_zeros() as usize;
                labels &= !(1 << o);
                self.path.push(o);
                if i + 1 < self.pattern.len() {
                    self.extend(self.masks.edges[o]);
                } else if self.masks.edges[o] >> self.path[0] & 1 == 1 {
                    self.found += 1;
                    let ends = &mut self.ends[self.path[0]];
                    if *ends >> o & 1 == 0 {
                        *ends |= 1 << o;
                        self.out
                            .push(self.path.iter().map(|&l| OutLabel::from_index(l)).collect());
                    }
                }
                self.path.pop();
            }
        }
    }

    let mut walk = Walk {
        masks,
        pattern,
        cap,
        found: 0,
        path: Vec::with_capacity(pattern.len()),
        ends: vec![0; masks.edges.len()],
        out: Vec::new(),
    };
    walk.extend(u64::MAX);
    walk.out
}

/// The relations of the stable paddings of a pattern with relation
/// `R(w)`. The `G_{w1,w2,S}` check covers the paddings `w^e` over one full
/// period of the eventual periodicity of `R(w^k)`, starting high enough that
/// the padding is at least `L_min` nodes long (the synthesized algorithm
/// always leaves at least that much of the periodic fringe unlabeled). Any
/// full period past the preperiod has the same relations: the cycle that
/// `R(w), R(w²), …` (under `join`) enters, which is read off directly: the
/// sequence is short, so finding the first repeat is a scan.
fn stable_paddings(edge: &[u64], base: &[u64]) -> Vec<Rows> {
    let mut sequence: Vec<Rows> = Vec::new();
    let mut current = base.to_vec();
    loop {
        if let Some(start) = sequence.iter().position(|r| *r == current) {
            return sequence.split_off(start);
        }
        let next = product(&product(&current, edge), base);
        sequence.push(std::mem::replace(&mut current, next));
    }
}

/// The `⊆`-minimal elements of a list of relations, without repeats: a
/// product with a larger relation constrains nothing a smaller one does not.
fn minimal(mut relations: Vec<Rows>) -> Vec<Rows> {
    relations.sort_by_key(|r| r.iter().map(|row| row.count_ones()).sum::<u32>());
    let mut kept: Vec<Rows> = Vec::new();
    for r in relations {
        let below = |k: &Rows| k.iter().zip(&r).all(|(k, r)| k & !r == 0);
        if !kept.iter().any(below) {
            kept.push(r);
        }
    }
    kept
}

/// The factors of the `G_{w1,w2,S}` check per pattern, and the memoized
/// bridgeable relation per ordered pattern pair.
struct Bridges {
    /// `|Σ_out|`.
    beta: usize,
    /// Per pattern, the minimal left factors: `E·L` and `C(L)·M` over its
    /// stable paddings `L` and the minimal middle types `M`.
    lefts: Vec<Vec<Rows>>,
    /// Per pattern, the minimal `C(R)` over its stable paddings `R`.
    rights: Vec<Vec<Rows>>,
    /// `bridgeable[i · n + j]`: the `(last, first)` pairs with which a
    /// labeled `w_i`-region can be followed, across any middle, by a labeled
    /// `w_j`-region.
    bridgeable: Vec<Option<Rows>>,
}

impl Bridges {
    fn new(info: &GapTypes, patterns: &[Vec<InLabel>]) -> Result<Self> {
        let system = info.system();
        let semigroup = info.semigroup();
        let edge = rows_of(system.edge_relation());
        let middles = minimal(
            semigroup
                .iter()
                .map(|t| rows_of(semigroup.relation(t)))
                .collect(),
        );
        let (mut lefts, mut rights) = (Vec::new(), Vec::new());
        for pattern in patterns {
            let base = rows_of(semigroup.relation(semigroup.type_of_word(pattern)?));
            let (mut left, mut right) = (Vec::new(), Vec::new());
            for padding in stable_paddings(&edge, &base) {
                let edge_padding = product(&edge, &padding);
                let conn = product(&edge_padding, &edge);
                left.extend(middles.iter().map(|m| product(&conn, m)));
                left.push(edge_padding);
                right.push(conn);
            }
            lefts.push(minimal(left));
            rights.push(minimal(right));
        }
        Ok(Bridges {
            beta: edge.len(),
            bridgeable: vec![None; patterns.len().pow(2)],
            lefts,
            rights,
        })
    }

    /// Can a labeled `w_i`-region ending with `last` be followed, across any
    /// middle, by a labeled `w_j`-region starting with `first`?
    fn bridges(&mut self, i: usize, last: OutLabel, j: usize, first: OutLabel) -> bool {
        let n = self.lefts.len();
        let relation = self.bridgeable[i * n + j].get_or_insert_with(|| {
            let mut ok = vec![u64::MAX; self.beta];
            for left in &self.lefts[i] {
                for right in &self.rights[j] {
                    // `ok &= left · right`, one row at a time.
                    for (ok, &row) in ok.iter_mut().zip(left) {
                        *ok &= bits(row).fold(0, |out, k| out | right[k]);
                    }
                }
            }
            ok
        });
        relation[last.index()] >> first.index() & 1 == 1
    }
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
    let mut bridges = Bridges::new(info, patterns)?;

    /// The first and last label of a labeling.
    fn ends(labeling: &[OutLabel]) -> (OutLabel, OutLabel) {
        (labeling[0], labeling[labeling.len() - 1])
    }

    fn solve<'a>(
        idx: usize,
        candidates: &'a [Vec<Vec<OutLabel>>],
        chosen: &mut Vec<&'a [OutLabel]>,
        bridges: &mut Bridges,
    ) -> bool {
        if idx == candidates.len() {
            return true;
        }
        'cands: for cand in &candidates[idx] {
            let (first, last) = ends(cand);
            // Check against itself and all previously chosen labelings.
            if !bridges.bridges(idx, last, idx, first) {
                continue;
            }
            for (j, prev) in chosen.iter().enumerate() {
                let (prev_first, prev_last) = ends(prev);
                if !bridges.bridges(idx, last, j, prev_first)
                    || !bridges.bridges(j, prev_last, idx, first)
                {
                    continue 'cands;
                }
            }
            chosen.push(cand);
            if solve(idx + 1, candidates, chosen, bridges) {
                return true;
            }
            chosen.pop();
        }
        false
    }

    let mut chosen = Vec::with_capacity(patterns.len());
    if !solve(0, candidates, &mut chosen, &mut bridges) {
        return Ok(None);
    }
    Ok(Some(
        patterns
            .iter()
            .zip(chosen)
            .map(|(pattern, labeling)| PatternLabeling {
                pattern: pattern.clone(),
                labeling: labeling.to_vec(),
            })
            .collect(),
    ))
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
/// more labels (label sets are `u64` bitmasks) and
/// [`ClassifierError::SearchBudgetExceeded`] if the search budget runs out.
pub fn find_feasible(
    info: &GapTypes,
    patterns: &[Vec<InLabel>],
    budget: usize,
) -> Result<Option<FeasibleStructure>> {
    let problem = info.problem();
    let beta = problem.num_outputs();
    if beta > MAX_OUTPUTS {
        return Err(ClassifierError::TooLarge {
            what: format!("output alphabet of size {beta} exceeds the {MAX_OUTPUTS}-label limit"),
        });
    }
    let num_types = info.quantified().len();
    // Candidate bicliques per type, most permissive first (larger sets let
    // more blocks and patterns through).
    let mut domains: Vec<Vec<Biclique>> = Vec::with_capacity(num_types);
    for i in 0..num_types {
        let domain = ordered_domain(info.connection(i));
        if domain.is_empty() {
            return Ok(None);
        }
        domains.push(domain);
    }
    // Candidate periodic labelings per pattern.
    let masks = BlockMasks::new(problem);
    let mut pattern_candidates: Vec<Vec<Vec<OutLabel>>> = Vec::with_capacity(patterns.len());
    for pattern in patterns {
        let cands = periodic_candidates(&masks, pattern, 4096);
        if cands.is_empty() {
            return Ok(None);
        }
        pattern_candidates.push(cands);
    }

    struct Search<'a> {
        problem: &'a NormalizedLcl,
        masks: BlockMasks,
        domains: &'a [Vec<Biclique>],
        /// The choices of the types assigned so far, in type order.
        assignment: Vec<Biclique>,
        /// The distinct bicliques of `assignment`, with their counts.
        distinct: Vec<(Biclique, usize)>,
        nodes: usize,
        budget: usize,
    }

    impl Search<'_> {
        /// Whether every anchor block between a gap whose right-facing set
        /// is `firsts` and one whose left-facing set is `lasts` has a
        /// labeling.
        fn labelable(&self, firsts: u64, lasts: u64) -> bool {
            input_pairs(self.problem).all(|s| self.masks.first_block(firsts, lasts, s).is_some())
        }

        /// Block constraints between the next type's `choice` and itself and
        /// every assigned type, both ways round. Types assigned the same
        /// biclique impose the same constraints, so each is checked once.
        fn consistent_with(&self, choice: Biclique) -> bool {
            std::iter::once(choice)
                .chain(self.distinct.iter().map(|&(other, _)| other))
                .all(|other| self.labelable(other.b, choice.a) && self.labelable(choice.b, other.a))
        }

        fn push(&mut self, choice: Biclique) {
            self.assignment.push(choice);
            match self.distinct.iter_mut().find(|(b, _)| *b == choice) {
                Some((_, count)) => *count += 1,
                None => self.distinct.push((choice, 1)),
            }
        }

        fn pop(&mut self) {
            let choice = self.assignment.pop().expect("a type is assigned");
            let at = self.distinct.iter().position(|&(b, _)| b == choice);
            let at = at.expect("assigned bicliques are counted");
            self.distinct[at].1 -= 1;
            if self.distinct[at].1 == 0 {
                self.distinct.remove(at);
            }
        }

        fn solve(&mut self) -> Result<bool> {
            self.nodes += 1;
            if self.nodes > self.budget {
                return Err(ClassifierError::SearchBudgetExceeded {
                    budget: self.budget,
                });
            }
            let idx = self.assignment.len();
            if idx == self.domains.len() {
                return Ok(true);
            }
            for &choice in &self.domains[idx] {
                if !self.consistent_with(choice) {
                    continue;
                }
                self.push(choice);
                if self.solve()? {
                    return Ok(true);
                }
                self.pop();
            }
            Ok(false)
        }
    }

    let mut search = Search {
        problem,
        masks,
        domains: &domains,
        assignment: Vec::with_capacity(num_types),
        distinct: Vec::new(),
        nodes: 0,
        budget,
    };
    if num_types > 0 && !search.solve()? {
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
    let labels = |mask| bits(mask).map(OutLabel::from_index).collect::<Vec<_>>();
    let (left_facing, right_facing) = search
        .assignment
        .iter()
        .map(|b| (labels(b.a), labels(b.b)))
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
    use lcl_gen::{generate, Family, GenConfig};
    use lcl_problem::NormalizedLcl;
    use lcl_semigroup::primitive_strings_up_to;

    /// The subset walk the concept enumeration replaced, kept as its oracle:
    /// every nonempty `A₀ ⊆ Σ_out` in ascending integer order is mapped to
    /// its common successors `B` and, if `B ≠ ∅`, to the concept
    /// `({p : row_p ⊇ B}, B)`; first occurrences are kept and stably sorted
    /// by `|A|·|B|`, largest first.
    fn subset_walk_domain(conn: &OutRelation, beta: usize) -> Vec<Biclique> {
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
        out.sort_by_key(|c| usize::MAX - (c.a.count_ones() as usize) * (c.b.count_ones() as usize));
        out
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
        // Contexts outside the table have no block.
        let types = structure.left_facing.len();
        assert_eq!(structure.block(types, InLabel(0), InLabel(0), 0), None);
        assert_eq!(structure.block(0, InLabel(0), InLabel(0), types), None);
        assert_eq!(structure.block(0, InLabel(1), InLabel(0), 0), None);
        assert_eq!(structure.block(0, InLabel(0), InLabel(1), 0), None);
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
        let cands = ordered_domain(conn);
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
        // Label sets are `u64` bitmasks and the search takes at most 63
        // labels: 64 must be rejected before any search (a walk over
        // `1 << beta` subsets once wrapped here in release builds and
        // classified both problems as linear).
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
    fn large_alphabets_classify_up_to_the_mask_width() {
        // A walk over all 2^β label subsets could never finish these; the
        // concept enumeration sees one full connection relation per type.
        let engine = crate::Engine::new();
        for k in 3..=63 {
            let coloring = engine.classify(&lcl_problems::coloring(k)).unwrap();
            assert_eq!(
                coloring.complexity(),
                crate::Complexity::LogStar,
                "coloring({k})"
            );
            let free = engine.classify(&lcl_problems::unconstrained(k)).unwrap();
            assert_eq!(
                free.complexity(),
                crate::Complexity::Constant,
                "unconstrained({k})"
            );
        }
    }

    /// Every quantified type of `problem` gets the subset walk's domain.
    fn assert_domains_match_the_walk(problem: &NormalizedLcl) -> usize {
        let Ok(info) = GapTypes::compute(problem, 10_000) else {
            return 0;
        };
        let beta = problem.num_outputs();
        for i in 0..info.quantified().len() {
            let conn = info.connection(i);
            assert_eq!(
                ordered_domain(conn),
                subset_walk_domain(conn, beta),
                "{}: domain of type {i}",
                problem.name()
            );
        }
        info.quantified().len()
    }

    #[test]
    fn concept_domains_equal_the_subset_walk() {
        let mut problems: Vec<NormalizedLcl> = (2..=12).map(lcl_problems::coloring).collect();
        problems.extend((1..=12).map(lcl_problems::unconstrained));
        problems.extend(lcl_problems::corpus().into_iter().map(|e| e.problem));
        // 512 draws: families rotate fastest, then 1–3 input labels, then
        // 3–10 output labels, then three densities.
        let density = [35, 60, 85];
        problems.extend((0..512usize).map(|i| {
            let config = GenConfig::new(i as u64)
                .family(Family::ALL[i % 4])
                .input_labels(1 + (i / 4) % 3)
                .output_labels(3 + (i / 12) % 8)
                .node_density_pct(density[(i / 96) % 3])
                .edge_density_pct(density[(i / 288) % 3]);
            generate(&config).unwrap()
        }));
        let types: usize = problems.iter().map(assert_domains_match_the_walk).sum();
        assert!(types >= 2_000, "only {types} quantified types compared");
    }

    #[test]
    fn periodic_candidates_enumeration() {
        let masks = BlockMasks::new(&three_coloring());
        let singles = periodic_candidates(&masks, &[InLabel(0)], 100);
        assert!(singles.is_empty(), "no colour is adjacent to itself");
        let pairs = periodic_candidates(&masks, &[InLabel(0), InLabel(0)], 100);
        assert_eq!(pairs.len(), 6, "ordered pairs of distinct colours");
        assert_eq!(pairs[0], [OutLabel(2), OutLabel(1)], "largest labels first");
        // Length 4 has 18 proper colourings but only 6 (first, last) pairs,
        // and a cap of 4 stops the walk after the first four colourings,
        // which have two.
        let long = periodic_candidates(&masks, &[InLabel(0); 4], 100);
        assert_eq!(long.len(), 6);
        let capped = periodic_candidates(&masks, &[InLabel(0); 4], 4);
        assert_eq!(capped.len(), 2, "2121, 2120, 2101, 2021");
    }
}
