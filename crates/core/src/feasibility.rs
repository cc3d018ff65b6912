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
//! The closure needs no set of the intents met so far. Take the rows in
//! order. The *hull* of a mask `m` over the earlier rows is the meet of
//! those that contain `m`: the smallest intent so far that holds `m`. A
//! row `r` adds itself if no earlier row contains it, and adds `I ∧ r` for
//! an intent `I` iff `I ∧ r` is nonzero, differs from `I` and has hull `I`.
//! Every new intent `m` is met exactly once that way, from the intent that
//! is its hull, and an intent met before is its own hull.
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
//! # One search decides both gaps
//!
//! The facing sets and the feasible function do not depend on the patterns:
//! the patterns only add labelings on top. So the classifier runs the
//! biclique search once (`facing_structure`). No assignment means `Θ(n)`.
//! Otherwise the same structure is `O(1)` if the patterns get bridging
//! labelings (`pattern_labelings`) and `Θ(log* n)` if not.
//! [`find_feasible`] runs the same steps for one gap.
//!
//! A pattern enters the `O(1)` conditions only through its relation `R(w)`,
//! so patterns are grouped by type into *classes*. A cycle with input `w`
//! has a labeling iff the boolean trace of `R(w)·E` is nonzero, so one
//! check per class settles whether every pattern has a periodic labeling
//! before any labeling is enumerated.
//!
//! # Pattern bridging factorizes
//!
//! With `join(a, b) = a·E·b` and `connection(r) = E·r·E`, a left padding
//! `L`, a middle `M` and a right padding `R` give
//! `C(L∘M∘R) = C(L)·M·C(R)` and, with no middle, `C(L∘R) = (E·L)·C(R)`.
//! The stable paddings are the cycle that `R(w), R(w²), …` enters. They are
//! read off the type automaton rather than multiplied out: `R(wᵏ⁺¹)` is the
//! type that appending the class's witness to `R(wᵏ)` one letter at a time
//! (`step`) reaches, so the cycle of `t ↦ step*(t, witness)` is found over
//! `TypeId`s. A stable padding is realized by arbitrarily long words, so it
//! is a quantified type, and its `C(L)` is the connection [`GapTypes`]
//! already stores, found through its type → position index: setting the
//! bridging up multiplies no matrices. The empty middle adds no check: the
//! padding after `L` in the cycle is `L' = L·E·R(w)`, so
//! `E·L' = C(L)·R(w)`, a product with the middle `R(w)`.
//!
//! Two labeled periodic regions, of patterns `w_i` and `w_j`, bridge iff
//! entry `(last, first)` of every such product holds, where `last` ends the
//! left labeling and `first` starts the right one. Entry `(last, first)` of
//! `X·C(R)` holds iff row `last` of `X` meets column `first` of `C(R)`. So
//! the check reads: every row of `C(L)·M` at `last` meets every `C(R)`
//! column at `first`. A row or column that contains another meets
//! everything the smaller one meets, so only the `⊆`-minimal rows and
//! columns are kept; likewise only the `⊆`-minimal middles and the minimal
//! rows of `C(L)` are multiplied out.
//!
//! The backtracking over candidate labelings asks for one `(last, first)`
//! entry at a time. Left rows are cached per (class, `last`), right columns
//! per (class, `first`), and answers per ordered class pair, in a memo
//! allocated when the pair is first asked. A candidate labeling whose
//! `(first, last)` pair an earlier one of the same pattern had is dropped,
//! as the search would reject it for the same reasons. The tests keep the
//! per-word bridging this replaced (the full `β × β` product per ordered
//! pattern pair) and the padding products as oracles.
//!
//! Candidates are pulled, not listed. Each pattern's depth-first walk over
//! its periodic labelings is resumable: the path and the labels left to try
//! at each depth sit in one flat buffer at the pattern's letter offsets. The
//! search pulls a pattern's next candidate only once it has rejected every
//! earlier one, and keeps what it pulled, so going over a pattern's
//! candidates again after backtracking walks nothing twice. The walk meets
//! the same labelings in the same order as the eager enumeration it
//! replaced, up to the same cap of 4,096 valid labelings per pattern, and
//! the tests keep that enumeration as its oracle.
//!
//! # One variable per connection class
//!
//! A type enters the search only through its connection relation `C(τ)`,
//! and many types share one, so types are grouped into *classes* by
//! `C(τ)`, numbered in order of first occurrence. The search assigns one
//! biclique per class, in class order, and each type takes its class's.
//! This finds exactly the structure a search with one variable per type,
//! in type order, finds. Block constraints hold between the bicliques
//! assigned, and a set of bicliques that satisfies them still does after
//! any is removed. So at a type whose class already has a choice `X`:
//!
//! * a domain entry before `X` was rejected at the class's first type,
//!   either because it broke a constraint with bicliques that are still
//!   assigned, or because no completion existed with it there; a completion
//!   with it at the later type and `X` at the first would give one with it
//!   at both, so it fails again;
//! * `X` itself adds no biclique, so it adds no constraint;
//! * an entry after `X` is tried only once `X` failed, and any completion
//!   with it would stay one with `X` in its place.
//!
//! So the per-type search gives every type its class's first choice, and
//! its choices at the classes' first types are the class search's. The
//! tests keep the per-type search as the oracle.
//!
//! # Blocks are bitmask checks
//!
//! The node constraints of each input and the successors of each output are
//! bitmasks. For a chosen `B`, the *reach mask* of input `S₀` is the union
//! of the successors of the labels of `B` that `S₀` allows. The block of
//! input `(S₀, S₁)` between `B` and a left-facing set `A` has a labeling iff
//! some label of `A` that `S₁` allows lies in the reach mask of `S₀`. The
//! search computes the `α` reach masks once per biclique it tries and
//! keeps them while the biclique stays chosen, so a check is `α²` word
//! operations against each earlier class's choice. The block table of
//! [`FeasibleStructure`] takes the first `(first, last)` pair of each
//! context with the same masks, and the tests check that the two agree on
//! every context.
//!
//! Blocks depend on the types only through their facing sets. The structure
//! keeps each distinct `B(τ)` and each distinct `A(τ)` once, the index of
//! each type's among them, and one block per distinct
//! `(B(τ_left), S, A(τ_right))`; [`FeasibleStructure::block`] looks a
//! context up through the two indices.

use crate::types_info::GapTypes;
use crate::{ClassifierError, Result};
use lcl_problem::{InLabel, NormalizedLcl, OutLabel};
use lcl_semigroup::{OutRelation, TransferSystem, TypeId, TypeSemigroup, WorkMeter};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::hash::Hash;

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
///
/// The facing sets are kept once per distinct set: many quantified types
/// share them (see the module documentation). [`FeasibleStructure::left_facing`]
/// and [`FeasibleStructure::right_facing`] read a type's sets through its
/// class indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FeasibleStructure {
    /// The distinct right-facing sets, then the distinct left-facing sets,
    /// each in order of first occurrence, as ascending label lists end to
    /// end.
    sets: Vec<OutLabel>,
    /// `set_ends[i]`: where distinct set `i` ends in `sets`.
    set_ends: Vec<usize>,
    /// Per quantified type, the index of its `B(τ)` among the distinct
    /// right-facing sets, in order of first occurrence.
    left_class: Vec<usize>,
    /// Per quantified type, the index of its `A(τ)` among the distinct
    /// left-facing sets, in order of first occurrence.
    right_class: Vec<usize>,
    /// The feasible function, one `(first, last)` per distinct context
    /// `(B(τ_left), S₀, S₁, A(τ_right))`, at index
    /// `((left class · α + S₀) · α + S₁) · right classes + right class`.
    blocks: Vec<(OutLabel, OutLabel)>,
    /// `|Σ_in|`.
    inputs: usize,
    /// The number of distinct right-facing sets.
    left_classes: usize,
    /// The number of distinct left-facing sets.
    right_classes: usize,
    /// Periodic labelings per pattern (empty when only the `Θ(log* n)`-level
    /// structure was requested).
    pub patterns: Vec<PatternLabeling>,
}

/// Per element, the index of its value among the distinct values in order of
/// first occurrence; and those values. A hash map finds each value, so the
/// cost is one hash per element however many values are distinct (there can
/// be one connection relation per quantified type).
fn classes<T: Eq + Hash + Copy>(values: impl IntoIterator<Item = T>) -> (Vec<usize>, Vec<T>) {
    let mut index: HashMap<T, usize> = HashMap::new();
    let mut distinct: Vec<T> = Vec::new();
    let class = values
        .into_iter()
        .map(|v| {
            *index.entry(v).or_insert_with(|| {
                distinct.push(v);
                distinct.len() - 1
            })
        })
        .collect();
    (class, distinct)
}

/// The facing sets of every quantified type, each kept once: the distinct
/// right-facing sets `firsts` and left-facing sets `lasts` as masks, each
/// in order of first occurrence, and per type the index of its sets among
/// them (see [`FeasibleStructure`]'s class fields).
struct Facing {
    firsts: Vec<u64>,
    lasts: Vec<u64>,
    left_class: Vec<usize>,
    right_class: Vec<usize>,
}

impl FeasibleStructure {
    /// Assembles a structure from the distinct facing sets and the pattern
    /// labelings, materializing the feasible function: each anchor-block
    /// context gets the first `(first, last)` pair in label order with
    /// `first ∈ B(τ_left)`, `last ∈ A(τ_right)`, the node constraints of `S`
    /// and the internal edge constraint. Keeps each set once as a label
    /// list; `None` if some context has no such pair.
    fn assemble(
        problem: &NormalizedLcl,
        constraints: &BlockMasks,
        facing: Facing,
        patterns: Vec<PatternLabeling>,
    ) -> Option<Self> {
        let Facing {
            firsts,
            lasts,
            left_class,
            right_class,
        } = facing;
        let mut blocks =
            Vec::with_capacity(firsts.len() * problem.num_inputs().pow(2) * lasts.len());
        for &first in &firsts {
            for s in input_pairs(problem) {
                for &last in &lasts {
                    blocks.push(constraints.first_block(first, last, s)?);
                }
            }
        }
        let distinct = firsts.iter().chain(&lasts);
        let size = distinct.clone().map(|set| set.count_ones() as usize).sum();
        let mut sets = Vec::with_capacity(size);
        let mut set_ends = Vec::with_capacity(firsts.len() + lasts.len());
        for &set in distinct {
            sets.extend(bits(set).map(OutLabel::from_index));
            set_ends.push(sets.len());
        }
        Some(FeasibleStructure {
            sets,
            set_ends,
            left_class,
            right_class,
            blocks,
            inputs: problem.num_inputs(),
            left_classes: firsts.len(),
            right_classes: lasts.len(),
            patterns,
        })
    }

    /// The number of quantified types.
    pub fn num_types(&self) -> usize {
        self.left_class.len()
    }

    /// `A(τ)` of quantified type `t`: the labels allowed to face the gap
    /// from the left, ascending.
    ///
    /// # Panics
    ///
    /// If `t` is not below [`FeasibleStructure::num_types`].
    pub fn left_facing(&self, t: usize) -> &[OutLabel] {
        self.set(self.left_classes + self.right_class[t])
    }

    /// `B(τ)` of quantified type `t`: the labels allowed to face the gap
    /// from the right, ascending.
    ///
    /// # Panics
    ///
    /// If `t` is not below [`FeasibleStructure::num_types`].
    pub fn right_facing(&self, t: usize) -> &[OutLabel] {
        self.set(self.left_class[t])
    }

    /// Distinct facing set `i` (see the `sets` field).
    fn set(&self, i: usize) -> &[OutLabel] {
        &self.sets[span(&self.set_ends, i)]
    }

    /// The bytes the structure's buffers hold: the distinct facing sets,
    /// the per-type class indices, the block table and the pattern
    /// labelings. What a cached classification keeps alive through it.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let patterns: usize = self
            .patterns
            .iter()
            .map(|p| size_of_val(p.pattern.as_slice()) + size_of_val(p.labeling.as_slice()))
            .sum();
        size_of_val(self.sets.as_slice())
            + size_of_val(self.set_ends.as_slice())
            + size_of_val(self.left_class.as_slice())
            + size_of_val(self.right_class.as_slice())
            + size_of_val(self.blocks.as_slice())
            + size_of_val(self.patterns.as_slice())
            + patterns
    }

    /// Looks up the block labeling for a context.
    pub fn block(
        &self,
        left_type: usize,
        s0: InLabel,
        s1: InLabel,
        right_type: usize,
    ) -> Option<(OutLabel, OutLabel)> {
        let alpha = self.inputs;
        let left = *self.left_class.get(left_type)?;
        let right = *self.right_class.get(right_type)?;
        let (s0, s1) = (s0.index(), s1.index());
        (s0 < alpha && s1 < alpha)
            .then(|| self.blocks[((left * alpha + s0) * alpha + s1) * self.right_classes + right])
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

/// Appends the rows of a relation on at most [`MAX_OUTPUTS`] labels to
/// `out`, one mask per row ([`OutRelation::row_mask`]): the packed rows
/// unpacked once, for the searches that index rows by label.
fn push_rows<W: AsRef<[u64]>>(relation: &OutRelation<W>, out: &mut Vec<u64>) {
    out.extend((0..relation.dim()).map(|p| relation.row_mask(p)));
}

/// Working buffers of [`DomainScratch::append_domain`], reused from one
/// connection relation to the next.
#[derive(Default)]
struct DomainScratch {
    /// The connection relation's rows.
    rows: Vec<u64>,
    intents: Vec<u64>,
    /// Each concept with its smallest generating subset.
    concepts: Vec<(Biclique, u64)>,
}

impl DomainScratch {
    /// Appends the domain of one connection relation to `out`: its formal
    /// concepts `(A, B)` with `B ≠ ∅`, largest `|A|·|B|` first, ties by
    /// smallest generating subset (see the module documentation). Charges
    /// `meter` the rows unpacked, each intersection of the closure and each
    /// concept's row scan and generator steps.
    fn append_domain(
        &mut self,
        conn: &OutRelation<&[u64]>,
        out: &mut Vec<Biclique>,
        meter: &mut WorkMeter,
    ) -> Result<()> {
        // Intents: the nonzero rows closed under nonzero intersections, each
        // met once (see the module documentation).
        let DomainScratch {
            rows,
            intents,
            concepts,
        } = self;
        meter.charge(conn.dim() as u64)?;
        rows.clear();
        push_rows(conn, rows);
        let rows = &*rows;
        intents.clear();
        for (g, &row) in rows.iter().enumerate() {
            if row == 0 {
                continue;
            }
            // The smallest intent of the earlier rows that holds `m`: the
            // meet of those rows that hold it (all ones if none does).
            let hull = |m: u64| {
                rows[..g]
                    .iter()
                    .filter(|&&r| r & m == m)
                    .fold(u64::MAX, |hull, &r| hull & r)
            };
            let before = intents.len();
            meter.charge((before as u64 + 1) * (1 + g as u64 / 8))?;
            if hull(row) == u64::MAX {
                intents.push(row);
            }
            for i in 0..before {
                let (intent, meet) = (intents[i], intents[i] & row);
                if meet != 0 && meet != intent && hull(meet) == intent {
                    intents.push(meet);
                }
            }
        }
        let intent = |a: u64| bits(a).fold(u64::MAX, |b, p| b & rows[p]);
        concepts.clear();
        for &b in intents.iter() {
            let a = (0..rows.len())
                .filter(|&p| rows[p] & b == b)
                .fold(0u64, |a, p| a | 1 << p);
            meter.charge((rows.len() + a.count_ones().pow(2) as usize) as u64)?;
            let mut generator = a;
            for p in (0..rows.len()).rev().filter(|&p| a >> p & 1 == 1) {
                let without = generator & !(1 << p);
                if without != 0 && intent(without) == b {
                    generator = without;
                }
            }
            concepts.push((Biclique { a, b }, generator));
        }
        concepts.sort_by_key(|&(c, generator)| {
            (Reverse(c.a.count_ones() * c.b.count_ones()), generator)
        });
        out.extend(concepts.iter().map(|&(c, _)| c));
        Ok(())
    }
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
    /// Reads the masks off the transfer system: the edge relation's rows,
    /// and the diagonal of each letter's relation (the union of its rows,
    /// as row `p` of a diagonal relation is at most bit `p`).
    fn new(system: &TransferSystem) -> Self {
        let letter = |a| {
            let relation = system.letter_relation(InLabel::from_index(a));
            let relation = relation.expect("a letter of the alphabet");
            (0..relation.dim()).fold(0, |mask, p| mask | relation.row_mask(p))
        };
        let mut edges = Vec::with_capacity(system.dim());
        push_rows(system.edge_relation(), &mut edges);
        BlockMasks {
            nodes: (0..system.num_letters()).map(letter).collect(),
            edges,
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

    /// Appends the reach masks of a right-facing set `firsts` to `out`, one
    /// per input `S₀`: the labels allowed right after some label of
    /// `firsts` that `S₀` allows.
    fn push_reach(&self, firsts: u64, out: &mut Vec<u64>) {
        out.extend(
            self.nodes
                .iter()
                .map(|&node| bits(firsts & node).fold(0, |reach, first| reach | self.edges[first])),
        );
    }

    /// Whether the block of input `(S₀, S₁)` between a right-facing set
    /// with reach mask `reach` at `S₀` and the left-facing set `lasts` has a
    /// labeling: some label of `lasts` that `S₁` allows lies in `reach`,
    /// which is [`BlockMasks::first_block`] finding a pair.
    fn reaches(&self, reach: u64, lasts: u64, s1: usize) -> bool {
        reach & lasts & self.nodes[s1] != 0
    }

    /// Whether every anchor block between a right-facing set, given by its
    /// reach masks, and the left-facing set `lasts` has a labeling.
    fn labelable(&self, reach: &[u64], lasts: u64) -> bool {
        (0..self.nodes.len()).all(|s1| reach.iter().all(|&r| self.reaches(r, lasts, s1)))
    }
}

/// Where item `i` of a buffer of items end to end lies, given where each
/// item ends.
fn span(ends: &[usize], i: usize) -> std::ops::Range<usize> {
    i.checked_sub(1).map_or(0, |p| ends[p])..ends[i]
}

/// Primitive input patterns end to end, one end offset per pattern.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Patterns {
    letters: Vec<InLabel>,
    /// `ends[i]`: where pattern `i` ends in `letters`.
    ends: Vec<usize>,
}

impl Patterns {
    /// The patterns of a list of words, in its order.
    pub(crate) fn from_words(words: &[Vec<InLabel>]) -> Self {
        let mut patterns = Patterns::default();
        for word in words {
            patterns.push(word.iter().copied());
        }
        patterns
    }

    /// Appends a pattern.
    pub(crate) fn push(&mut self, word: impl IntoIterator<Item = InLabel>) {
        self.letters.extend(word);
        self.ends.push(self.letters.len());
    }

    /// The number of patterns.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no patterns.
    pub(crate) fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Where pattern `i` starts in `letters`.
    fn start(&self, i: usize) -> usize {
        span(&self.ends, i).start
    }

    /// Pattern `i`.
    pub(crate) fn get(&self, i: usize) -> &[InLabel] {
        &self.letters[span(&self.ends, i)]
    }

    /// The patterns, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[InLabel]> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// The most valid labelings of one pattern the candidate walk visits.
const CANDIDATE_CAP: usize = 4096;

/// The candidate periodic labelings of every pattern, pulled one at a time.
///
/// A pattern's candidates are the labelings `y` with `node_ok(w_i, y_i)`,
/// `edge_ok(y_i, y_{i+1})` and `edge_ok(y_last, y_0)`, met by a depth-first
/// walk that tries the largest label first (descending lexicographic order)
/// and stops after `cap` valid labelings. Of those, only the first with each
/// `(first, last)` pair is a candidate, as bridging depends on nothing else.
/// Each pattern's walk is resumable: its path, and the labels left to try at
/// each depth, sit in one flat buffer at the pattern's letter offsets, and a
/// pull runs the walk to the next candidate. Pulled candidates are kept, in
/// pull order, in a list per pattern threaded through one buffer, so the
/// search can go over them again after it backtracks.
struct Candidates<'a> {
    masks: BlockMasks,
    patterns: &'a Patterns,
    cap: usize,
    /// Per pattern, its walk.
    walks: Vec<Walk>,
    /// At each pattern's letter offsets, per depth: the label on the walk's
    /// path and the labels left to try.
    steps: Vec<(usize, u64)>,
    /// `ends[pattern · β + first]`: the last labels of the pattern's
    /// candidates that start with `first`.
    ends: Vec<u64>,
    /// The pulled candidates, all patterns interleaved.
    pulled: Vec<Pulled>,
    /// The pulled candidates' labelings, end to end.
    labels: Vec<OutLabel>,
}

/// The state of one pattern's candidate walk.
#[derive(Copy, Clone)]
struct Walk {
    /// The depth the walk chooses a label for next.
    depth: usize,
    /// The valid labelings met, kept or not.
    found: usize,
    /// The first and the last pulled candidate, or [`NONE`].
    head: usize,
    tail: usize,
}

/// No candidate.
const NONE: usize = usize::MAX;

/// One pulled candidate labeling.
struct Pulled {
    first: OutLabel,
    last: OutLabel,
    /// Where its labels start in [`Candidates::labels`].
    at: usize,
    /// The pattern's next pulled candidate, or [`NONE`].
    next: usize,
}

impl<'a> Candidates<'a> {
    fn new(masks: BlockMasks, patterns: &'a Patterns, cap: usize) -> Self {
        let (n, beta) = (patterns.len(), masks.edges.len());
        let mut steps = vec![(0, 0); patterns.letters.len()];
        for i in 0..n {
            let start = patterns.start(i);
            steps[start].1 = masks.nodes[patterns.letters[start].index()];
        }
        let walk = Walk {
            depth: 0,
            found: 0,
            head: NONE,
            tail: NONE,
        };
        Candidates {
            walks: vec![walk; n],
            steps,
            ends: vec![0; n * beta],
            pulled: Vec::new(),
            labels: Vec::new(),
            masks,
            patterns,
            cap,
        }
    }

    /// The candidate of `pattern` after `after` (its first for `None`),
    /// pulled from the pattern's walk if it has not been yet; `None` once the
    /// walk is done.
    fn next(
        &mut self,
        pattern: usize,
        after: Option<usize>,
        meter: &mut WorkMeter,
    ) -> Result<Option<usize>> {
        let next = after.map_or(self.walks[pattern].head, |c| self.pulled[c].next);
        if next != NONE {
            return Ok(Some(next));
        }
        debug_assert_eq!(
            after.unwrap_or(NONE),
            self.walks[pattern].tail,
            "pulls append"
        );
        self.pull(pattern, meter)
    }

    /// Runs the walk of `pattern` to its next candidate and appends that to
    /// the pattern's list, charging `meter` one unit per walk step. A walk
    /// the meter stops keeps its place.
    fn pull(&mut self, pattern: usize, meter: &mut WorkMeter) -> Result<Option<usize>> {
        let word = self.patterns.get(pattern);
        let steps = &mut self.steps[self.patterns.start(pattern)..];
        let walk = &mut self.walks[pattern];
        let masks = &self.masks;
        while walk.found < self.cap {
            meter.charge(1)?;
            let i = walk.depth;
            if steps[i].1 == 0 {
                if i == 0 {
                    return Ok(None);
                }
                walk.depth -= 1;
                continue;
            }
            let label = 63 - steps[i].1.leading_zeros() as usize;
            steps[i] = (label, steps[i].1 & !(1 << label));
            if i + 1 < word.len() {
                steps[i + 1].1 = masks.edges[label] & masks.nodes[word[i + 1].index()];
                walk.depth += 1;
            } else if masks.edges[label] >> steps[0].0 & 1 == 1 {
                walk.found += 1;
                let ends = &mut self.ends[pattern * masks.edges.len() + steps[0].0];
                if *ends >> label & 1 == 0 {
                    *ends |= 1 << label;
                    return Ok(Some(self.keep(pattern)));
                }
            }
        }
        Ok(None)
    }

    /// Appends the walk's current path to the pulled candidates of
    /// `pattern`.
    fn keep(&mut self, pattern: usize) -> usize {
        let path = &self.steps[span(&self.patterns.ends, pattern)];
        let id = self.pulled.len();
        self.pulled.push(Pulled {
            first: OutLabel::from_index(path[0].0),
            last: OutLabel::from_index(path[path.len() - 1].0),
            at: self.labels.len(),
            next: NONE,
        });
        self.labels
            .extend(path.iter().map(|&(l, _)| OutLabel::from_index(l)));
        let walk = &mut self.walks[pattern];
        match walk.tail {
            NONE => walk.head = id,
            tail => self.pulled[tail].next = id,
        }
        walk.tail = id;
        id
    }

    /// The first and last label of a candidate.
    fn ends(&self, c: usize) -> (OutLabel, OutLabel) {
        (self.pulled[c].first, self.pulled[c].last)
    }

    /// The labeling of a candidate of `pattern`.
    fn labeling(&self, pattern: usize, c: usize) -> &[OutLabel] {
        let at = self.pulled[c].at;
        &self.labels[at..at + self.patterns.get(pattern).len()]
    }
}

/// The stable paddings of a pattern class of type `t`. The `G_{w1,w2,S}`
/// check covers the paddings `w^e` over one full period of the eventual
/// periodicity of `R(w^k)`, starting high enough that the padding is at
/// least `L_min` nodes long (the synthesized algorithm always leaves at least
/// that much of the periodic fringe unlabeled). Any full period past the
/// preperiod has the same types: the cycle that `t, t∘t, (t∘t)∘t, …` enters,
/// where each step appends the witness of `t` through the type automaton
/// (see the module documentation). They are appended to `out` in sequence
/// order. `seen[s]` records the call (`stamp`, which must differ from every
/// earlier call's and from 0) and the position in the sequence at which type
/// `s` was met, so the cycle's start is found with one look-up.
fn padding_types(
    semigroup: &TypeSemigroup,
    t: TypeId,
    stamp: usize,
    seen: &mut [(usize, usize)],
    out: &mut Vec<TypeId>,
) {
    let word = semigroup.witness(t);
    let start = out.len();
    let mut s = t;
    while seen[s.index()].0 != stamp {
        seen[s.index()] = (stamp, out.len() - start);
        out.push(s);
        s = word.iter().fold(s, |s, &a| semigroup.step(s, a));
    }
    out.drain(start..start + seen[s.index()].1);
}

/// The `⊆`-minimal elements of a list of relations on `beta` labels, given
/// by their words (packed or a word per row), without repeats: a product
/// with a larger relation constrains nothing a smaller one does not. Kept
/// in place, in order of size. Charges `meter` the rows of each relation
/// sized and of each pair compared.
fn minimal<R: AsRef<[u64]>>(
    mut relations: Vec<R>,
    beta: usize,
    meter: &mut WorkMeter,
) -> Result<Vec<R>> {
    let rows = beta as u64;
    meter.charge(relations.len() as u64 * rows)?;
    let size = |r: &R| r.as_ref().iter().map(|row| row.count_ones()).sum::<u32>();
    relations.sort_by_key(size);
    let below = |k: &R, r: &R| k.as_ref().iter().zip(r.as_ref()).all(|(k, r)| k & !r == 0);
    keep_minimal(&mut relations, below, rows, meter)?;
    Ok(relations)
}

/// The `⊆`-minimal masks of a list, without repeats: a row (or column) that
/// contains another meets every set the smaller one meets. Kept in place, in
/// order of size. Charges `meter` each mask and each pair compared.
fn minimal_masks(mut masks: Vec<u64>, meter: &mut WorkMeter) -> Result<Vec<u64>> {
    meter.charge(masks.len() as u64)?;
    masks.sort_unstable_by_key(|m| m.count_ones());
    keep_minimal(&mut masks, |&k, &m| k & !m == 0, 1, meter)?;
    Ok(masks)
}

/// Keeps, in order, each item of a list sorted by size that no item kept
/// before it lies `below`, charging `meter` `width` units per comparison.
fn keep_minimal<T>(
    items: &mut Vec<T>,
    below: impl Fn(&T, &T) -> bool,
    width: u64,
    meter: &mut WorkMeter,
) -> Result<()> {
    let mut kept = 0;
    for i in 0..items.len() {
        meter.charge(kept as u64 * width)?;
        if !items[..kept].iter().any(|k| below(k, &items[i])) {
            items.swap(kept, i);
            kept += 1;
        }
    }
    items.truncate(kept);
    Ok(())
}

/// The patterns grouped by type: a pattern enters the `O(1)` conditions
/// only through its relation `R(w)`.
struct PatternClasses {
    /// Per pattern, the index of its type in `types`.
    class_of: Vec<usize>,
    /// The distinct pattern types, in order of first occurrence.
    types: Vec<TypeId>,
}

impl PatternClasses {
    /// Groups `patterns` by type, charging `meter` two units per letter
    /// (generated, then read) and each class's cycle check
    /// ([`GapTypes::cycle_check_units`]).
    fn metered(info: &GapTypes, patterns: &Patterns, meter: &mut WorkMeter) -> Result<Self> {
        meter.charge(2 * patterns.letters.len() as u64)?;
        let classes = Self::new(info, patterns)?;
        meter.charge(classes.types.len() as u64 * info.cycle_check_units())?;
        Ok(classes)
    }

    fn new(info: &GapTypes, patterns: &Patterns) -> Result<Self> {
        let types: Vec<TypeId> = patterns
            .iter()
            .map(|pattern| info.semigroup().type_of_word(pattern))
            .collect::<std::result::Result<_, _>>()?;
        let (class_of, types) = classes(types);
        Ok(PatternClasses { class_of, types })
    }

    /// Whether every pattern has a periodic labeling, that is, a valid
    /// labeling of the cycle `w`.
    fn all_labelable(&self, info: &GapTypes) -> bool {
        self.types.iter().all(|&t| info.cycle_labelable(t))
    }

    /// One periodic labeling per pattern such that every ordered pair of
    /// labeled regions bridges, or `None`; settled without enumerating any
    /// labeling if some pattern has none.
    fn labelings(
        self,
        info: &GapTypes,
        patterns: &Patterns,
        meter: &mut WorkMeter,
    ) -> Result<Option<Vec<PatternLabeling>>> {
        if !self.all_labelable(info) {
            return Ok(None);
        }
        if patterns.is_empty() {
            return Ok(Some(Vec::new()));
        }
        let candidates = Candidates::new(BlockMasks::new(info.system()), patterns, CANDIDATE_CAP);
        choose_pattern_labelings(info, patterns, self, candidates, meter)
    }
}

/// The `G_{w1,w2,S}` check, answered one `(last, first)` entry at a time.
///
/// Patterns enter only through their type, so the padding factors are kept
/// per *class* (distinct pattern type). Entry `(last, first)` of the
/// bridgeable relation of classes `(i, j)` holds iff every `⊆`-minimal
/// `C(L)·M` row of `i` at `last` meets every `⊆`-minimal `C(R)` column of
/// `j` at `first`; rows are cached per `(class, last)`, columns per
/// `(class, first)` and answers per class pair, each pair's memo allocated
/// when it is first asked (see the module documentation).
struct Bridges {
    /// `|Σ_out|`.
    beta: usize,
    /// The rows of the `⊆`-minimal middle relations, `β` per relation.
    middles: Vec<u64>,
    /// Per pattern, its class.
    class_of: Vec<usize>,
    /// The rows of `C(L)` for each stable padding `L`, `β` per padding,
    /// class after class: the connections [`GapTypes`] stores, unpacked.
    paddings: Vec<u64>,
    /// `padding_ends[class]`: the number of paddings up to the class's
    /// last.
    padding_ends: Vec<usize>,
    /// `rows[class · β + last]`: the minimal rows at `last` of `C(L)·M`
    /// over the class's paddings `L` and the middles `M`.
    rows: Vec<Option<Vec<u64>>>,
    /// `columns[class · β + first]`: the minimal columns at `first` of
    /// `C(R)` over the class's paddings `R`, as masks over rows.
    columns: Vec<Option<Vec<u64>>>,
    /// `answers[i · classes + j][last]`: the `first` labels decided so far
    /// and those that bridge.
    answers: Vec<Option<Vec<(u64, u64)>>>,
}

impl Bridges {
    #[cfg(test)]
    fn new(info: &GapTypes, classes: PatternClasses) -> Self {
        Self::metered(info, classes, &mut WorkMeter::unlimited())
            .expect("an unlimited meter stops nothing")
    }

    /// As [`Bridges::new`], charging `meter` one unit per letter stepped
    /// through while following the stable paddings, the rows of every
    /// type's relation for the minimal middles, and the rows unpacked.
    fn metered(info: &GapTypes, classes: PatternClasses, meter: &mut WorkMeter) -> Result<Self> {
        let semigroup = info.semigroup();
        let PatternClasses { class_of, types } = classes;
        let mut seen = vec![(0, 0); semigroup.len()];
        let mut padding_ids = Vec::new();
        let mut padding_ends = Vec::with_capacity(types.len());
        for (class, &t) in types.iter().enumerate() {
            padding_types(semigroup, t, class + 1, &mut seen, &mut padding_ids);
            let steps = (padding_ids.len() - padding_ends.last().unwrap_or(&0)).max(1);
            meter.charge((steps * semigroup.witness(t).len()) as u64)?;
            padding_ends.push(padding_ids.len());
        }

        let (beta, classes) = (info.problem().num_outputs(), types.len());
        meter.charge((padding_ids.len() * beta) as u64)?;
        let mut paddings = Vec::with_capacity(padding_ids.len() * beta);
        for &padding in &padding_ids {
            let position = info.position(padding);
            let connection = info.connection(position.expect("stable paddings are quantified"));
            push_rows(&connection, &mut paddings);
        }
        let minimal_middles = minimal(
            semigroup
                .iter()
                .map(|t| semigroup.relation(t).into_words())
                .collect(),
            beta,
            meter,
        )?;
        meter.charge((minimal_middles.len() * beta) as u64)?;
        let mut middles = Vec::with_capacity(minimal_middles.len() * beta);
        for words in minimal_middles {
            push_rows(&OutRelation::from_words(beta, words), &mut middles);
        }
        Ok(Bridges {
            beta,
            middles,
            class_of,
            paddings,
            padding_ends,
            rows: vec![None; classes * beta],
            columns: vec![None; classes * beta],
            answers: vec![None; classes * classes],
        })
    }

    /// Can a labeled `w_i`-region ending with `last` be followed, across any
    /// middle, by a labeled `w_j`-region starting with `first`?
    #[cfg(test)]
    fn bridges(&mut self, i: usize, last: OutLabel, j: usize, first: OutLabel) -> bool {
        self.bridges_metered(i, last, j, first, &mut WorkMeter::unlimited())
            .expect("an unlimited meter stops nothing")
    }

    /// As [`Bridges::bridges`], charging `meter` for an entry not decided
    /// before: the products its rows take, its columns and the row-column
    /// pairs it checks.
    fn bridges_metered(
        &mut self,
        i: usize,
        last: OutLabel,
        j: usize,
        first: OutLabel,
        meter: &mut WorkMeter,
    ) -> Result<bool> {
        let (ci, cj) = (self.class_of[i], self.class_of[j]);
        let (last, first, beta) = (last.index(), first.index(), self.beta);
        let bit = 1u64 << first;
        let classes = self.padding_ends.len();
        let memo = self.answers[ci * classes + cj].get_or_insert_with(|| vec![(0, 0); beta]);
        let (known, yes) = &mut memo[last];
        if *known & bit == 0 {
            let rows_of = |class| {
                let paddings = span(&self.padding_ends, class);
                &self.paddings[paddings.start * beta..paddings.end * beta]
            };
            let (left, right) = (rows_of(ci), rows_of(cj));
            let rows = &mut self.rows[ci * beta + last];
            if rows.is_none() {
                *rows = Some(left_rows(left, &self.middles, beta, last, meter)?);
            }
            let rows = rows.as_ref().expect("just filled");
            let columns = &mut self.columns[cj * beta + first];
            if columns.is_none() {
                *columns = Some(right_columns(right, beta, first, meter)?);
            }
            let columns = columns.as_ref().expect("just filled");
            meter.charge((rows.len() * columns.len()) as u64)?;
            *known |= bit;
            if rows
                .iter()
                .all(|&row| columns.iter().all(|&col| row & col != 0))
            {
                *yes |= bit;
            }
        }
        Ok(*yes & bit != 0)
    }
}

/// The minimal rows at `last` of `C(L)·M` over the paddings `L` and the
/// middles `M`, each given by its `beta` rows end to end. A row of `C(L)·M`
/// is the union of the middle's rows that `C(L)`'s row picks, so only the
/// minimal `C(L)` rows are multiplied out. Charges `meter` one unit per
/// product row and the minimal-row passes.
fn left_rows(
    paddings: &[u64],
    middles: &[u64],
    beta: usize,
    last: usize,
    meter: &mut WorkMeter,
) -> Result<Vec<u64>> {
    let conns = paddings.chunks_exact(beta).map(|conn| conn[last]).collect();
    let conns = minimal_masks(conns, meter)?;
    let middles = middles.chunks_exact(beta);
    meter.charge((conns.len() * middles.len()) as u64)?;
    let mut rows: Vec<u64> = Vec::with_capacity(conns.len() * middles.len());
    for &row in &conns {
        rows.extend(
            middles
                .clone()
                .map(|m| bits(row).fold(0, |out, k| out | m[k])),
        );
    }
    minimal_masks(rows, meter)
}

/// The minimal columns at `first` of `C(R)` over the paddings `R` (their
/// `beta` rows end to end), as masks over rows. Charges `meter` the rows
/// read and the minimal-column pass.
fn right_columns(
    paddings: &[u64],
    beta: usize,
    first: usize,
    meter: &mut WorkMeter,
) -> Result<Vec<u64>> {
    meter.charge(paddings.len() as u64)?;
    let column = |conn: &[u64]| {
        conn.iter()
            .enumerate()
            .filter(|&(_, row)| row >> first & 1 == 1)
            .fold(0, |col, (p, _)| col | 1 << p)
    };
    minimal_masks(paddings.chunks_exact(beta).map(column).collect(), meter)
}

/// Backtracking choice of one periodic labeling per pattern such that every
/// ordered pair of labeled periodic regions bridges across every possible
/// middle. Candidates are pulled from their walks only when the search
/// reaches them.
fn choose_pattern_labelings(
    info: &GapTypes,
    patterns: &Patterns,
    classes: PatternClasses,
    mut candidates: Candidates,
    meter: &mut WorkMeter,
) -> Result<Option<Vec<PatternLabeling>>> {
    let mut bridges = Bridges::metered(info, classes, meter)?;

    fn solve(
        idx: usize,
        candidates: &mut Candidates,
        chosen: &mut Vec<usize>,
        bridges: &mut Bridges,
        meter: &mut WorkMeter,
    ) -> Result<bool> {
        if idx == candidates.patterns.len() {
            return Ok(true);
        }
        let mut cursor = None;
        'cands: while let Some(cand) = candidates.next(idx, cursor, meter)? {
            cursor = Some(cand);
            let (first, last) = candidates.ends(cand);
            // Check against itself and all previously chosen labelings.
            if !bridges.bridges_metered(idx, last, idx, first, meter)? {
                continue;
            }
            for (j, &prev) in chosen.iter().enumerate() {
                let (prev_first, prev_last) = candidates.ends(prev);
                if !bridges.bridges_metered(idx, last, j, prev_first, meter)?
                    || !bridges.bridges_metered(j, prev_last, idx, first, meter)?
                {
                    continue 'cands;
                }
            }
            chosen.push(cand);
            if solve(idx + 1, candidates, chosen, bridges, meter)? {
                return Ok(true);
            }
            chosen.pop();
        }
        Ok(false)
    }

    let mut chosen = Vec::with_capacity(patterns.len());
    if !solve(0, &mut candidates, &mut chosen, &mut bridges, meter)? {
        return Ok(None);
    }
    Ok(Some(
        chosen
            .into_iter()
            .enumerate()
            .map(|(i, c)| PatternLabeling {
                pattern: patterns.get(i).to_vec(),
                labeling: candidates.labeling(i, c).to_vec(),
            })
            .collect(),
    ))
}

/// Searches for a feasible structure.
///
/// `patterns` lists the canonical primitive input patterns for which periodic
/// labelings are additionally required (pass an empty slice to decide only the
/// `ω(log* n) — o(n)` gap). `budget` bounds the number of backtracking nodes,
/// one per connection class assigned.
///
/// The classifier decides both gaps from one biclique search; this runs the
/// same steps for one gap.
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
    check_outputs(info.problem())?;
    // A pattern without periodic labelings decides the search before it
    // runs, so it cannot exceed the budget.
    let patterns = Patterns::from_words(patterns);
    let classes = PatternClasses::new(info, &patterns)?;
    if !classes.all_labelable(info) {
        return Ok(None);
    }
    let mut meter = WorkMeter::unlimited();
    let Some(mut structure) = facing_structure(info, budget, &mut meter)? else {
        return Ok(None);
    };
    Ok(classes
        .labelings(info, &patterns, &mut meter)?
        .map(|chosen| {
            structure.patterns = chosen;
            structure
        }))
}

/// Rejects output alphabets too large for `u64` label sets.
fn check_outputs(problem: &NormalizedLcl) -> Result<()> {
    let beta = problem.num_outputs();
    if beta > MAX_OUTPUTS {
        return Err(ClassifierError::TooLarge {
            what: format!("output alphabet of size {beta} exceeds the {MAX_OUTPUTS}-label limit"),
        });
    }
    Ok(())
}

/// The periodic labelings of `patterns` (the `O(1)` conditions of §4.4), or
/// `None` if some pattern has none or no choice bridges.
///
/// # Errors
///
/// Propagates semigroup errors (a pattern over an unknown input label) and
/// the meter's stage cap.
pub(crate) fn pattern_labelings(
    info: &GapTypes,
    patterns: &Patterns,
    meter: &mut WorkMeter,
) -> Result<Option<Vec<PatternLabeling>>> {
    PatternClasses::metered(info, patterns, meter)?.labelings(info, patterns, meter)
}

/// The biclique search: facing sets `(A(τ), B(τ))` for every quantified type
/// such that every anchor block has a labeling, and the feasible function
/// they give, without pattern labelings. `None` if no assignment exists.
///
/// The search decides one biclique per connection class, and each type
/// takes its class's (see the module documentation).
///
/// # Errors
///
/// As [`find_feasible`] (the budget counts class nodes), and the meter's
/// stage cap: the search charges `meter` the concept steps of its domains,
/// one unit per node, the reach masks and block checks of each choice it
/// tries and the blocks it materializes.
pub(crate) fn facing_structure(
    info: &GapTypes,
    budget: usize,
    meter: &mut WorkMeter,
) -> Result<Option<FeasibleStructure>> {
    facing_search(info, budget, meter).map(|(structure, _)| structure)
}

/// [`facing_structure`], and the number of search nodes it visited.
fn facing_search(
    info: &GapTypes,
    budget: usize,
    meter: &mut WorkMeter,
) -> Result<(Option<FeasibleStructure>, usize)> {
    let problem = info.problem();
    check_outputs(problem)?;
    let num_types = info.quantified().len();
    // One variable per distinct connection relation, in order of first
    // occurrence. Its domain: the candidate bicliques, most permissive first
    // (larger sets let more blocks and patterns through); the domains lie
    // end to end in one buffer.
    let (class_of, connections) = classes((0..num_types).map(|i| info.connection(i)));
    let mut domains: Vec<Biclique> = Vec::new();
    let mut domain_ends: Vec<usize> = Vec::with_capacity(connections.len());
    let mut scratch = DomainScratch::default();
    for conn in connections {
        let start = domains.len();
        scratch.append_domain(&conn, &mut domains, meter)?;
        if domains.len() == start {
            return Ok((None, 0));
        }
        domain_ends.push(domains.len());
    }

    let alpha = problem.num_inputs();
    let mut search = ClassSearch {
        masks: BlockMasks::new(info.system()),
        domains: &domains,
        domain_ends: &domain_ends,
        chosen: Vec::with_capacity(domain_ends.len()),
        reach: Vec::with_capacity(domain_ends.len() * alpha),
        alpha,
        nodes: 0,
        budget,
        meter,
    };
    if !domain_ends.is_empty() && !search.solve()? {
        return Ok((None, search.nodes));
    }
    // Classes are numbered in order of first occurrence and each type takes
    // its class's choice, so the distinct facing sets of each side, in
    // order of first occurrence over the types, come from the choices in
    // class order, without hashing.
    let ClassSearch {
        masks,
        chosen,
        nodes,
        meter,
        ..
    } = search;
    let (mut firsts, mut lasts) = (Vec::new(), Vec::new());
    let class_in = |sets: &mut Vec<u64>, set: u64| match sets.iter().position(|&s| s == set) {
        Some(class) => class,
        None => {
            sets.push(set);
            sets.len() - 1
        }
    };
    let set_classes: Vec<(usize, usize)> = chosen
        .iter()
        .map(|c| (class_in(&mut firsts, c.b), class_in(&mut lasts, c.a)))
        .collect();
    let blocks = firsts.len() * alpha * alpha * lasts.len();
    meter.charge((num_types + chosen.len() + blocks) as u64)?;
    let (left_class, right_class) = class_of.iter().map(|&c| set_classes[c]).unzip();
    let facing = Facing {
        firsts,
        lasts,
        left_class,
        right_class,
    };
    let structure = FeasibleStructure::assemble(problem, &masks, facing, Vec::new());
    Ok((structure, nodes))
}

/// The backtracking search of [`facing_structure`]: one biclique per
/// connection class, in class order, each checked against itself and the
/// choice of every earlier class by reach masks (see the module
/// documentation).
struct ClassSearch<'a> {
    masks: BlockMasks,
    /// The domains end to end, and where each class's ends.
    domains: &'a [Biclique],
    domain_ends: &'a [usize],
    /// The choices of the classes assigned so far, in class order.
    chosen: Vec<Biclique>,
    /// The reach masks ([`BlockMasks::push_reach`]) of each choice's `B`,
    /// `α` per choice, end to end; while a choice is tried, its own follow.
    reach: Vec<u64>,
    /// `|Σ_in|`.
    alpha: usize,
    nodes: usize,
    budget: usize,
    meter: &'a mut WorkMeter,
}

impl ClassSearch<'_> {
    /// The reach masks of class `c`'s choice (or of the choice being
    /// tried, for the next class).
    fn reach_of(&self, c: usize) -> &[u64] {
        &self.reach[c * self.alpha..(c + 1) * self.alpha]
    }

    /// Block constraints between the next class's `choice`, whose reach
    /// masks have been pushed, and itself and every earlier choice, both
    /// ways round.
    fn consistent(&self, choice: Biclique) -> bool {
        let own = self.reach_of(self.chosen.len());
        self.masks.labelable(own, choice.a)
            && self.chosen.iter().enumerate().all(|(c, other)| {
                self.masks.labelable(self.reach_of(c), choice.a)
                    && self.masks.labelable(own, other.a)
            })
    }

    fn solve(&mut self) -> Result<bool> {
        self.nodes += 1;
        if self.nodes > self.budget {
            return Err(ClassifierError::SearchBudgetExceeded {
                budget: self.budget,
            });
        }
        self.meter.charge(1)?;
        let class = self.chosen.len();
        if class == self.domain_ends.len() {
            return Ok(true);
        }
        // Its reach masks, then both ways round against itself and each
        // earlier choice.
        let alpha = self.alpha as u64;
        let checks = alpha + 2 * (1 + class as u64) * alpha * alpha;
        let domains = self.domains;
        for &choice in &domains[span(self.domain_ends, class)] {
            self.meter.charge(checks)?;
            self.masks.push_reach(choice.b, &mut self.reach);
            if self.consistent(choice) {
                self.chosen.push(choice);
                if self.solve()? {
                    return Ok(true);
                }
                self.chosen.pop();
            }
            self.reach.truncate(class * self.alpha);
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClassifierOptions;
    use lcl_gen::{generate, Family, GenConfig};
    use lcl_problem::NormalizedLcl;
    use lcl_semigroup::primitive_strings_up_to;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// A boolean `β × β` matrix as one row mask per label.
    type Rows = Vec<u64>;

    /// The domain of one connection relation, on fresh buffers.
    fn ordered_domain(conn: OutRelation<&[u64]>) -> Vec<Biclique> {
        let mut out = Vec::new();
        DomainScratch::default()
            .append_domain(&conn, &mut out, &mut WorkMeter::unlimited())
            .unwrap();
        out
    }

    /// The rows of a relation, one mask per row.
    fn rows_of<W: AsRef<[u64]>>(relation: &OutRelation<W>) -> Rows {
        let mut rows = Vec::new();
        push_rows(relation, &mut rows);
        rows
    }

    /// Boolean matrix product `a · b`.
    fn product(a: &[u64], b: &[u64]) -> Rows {
        a.iter()
            .map(|&row| bits(row).fold(0, |out, k| out | b[k]))
            .collect()
    }

    /// The eager enumeration that [`Candidates`] replaced, kept as its
    /// oracle: every candidate periodic labeling of a pattern, each its own
    /// `Vec`, met by a recursive walk (see [`Candidates`] for the order and
    /// the cap).
    fn periodic_candidates(
        masks: &BlockMasks,
        pattern: &[InLabel],
        cap: usize,
    ) -> Vec<Vec<OutLabel>> {
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
    /// `R(w)`, multiplied out: the cycle that `R(w), R(w²), …` (under
    /// `join`) enters, found by a scan for the first repeat. Kept as the
    /// oracle of [`padding_types`] and for [`WordBridges`].
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

    /// The subset walk the concept enumeration replaced, kept as its oracle:
    /// every nonempty `A₀ ⊆ Σ_out` in ascending integer order is mapped to
    /// its common successors `B` and, if `B ≠ ∅`, to the concept
    /// `({p : row_p ⊇ B}, B)`; first occurrences are kept and stably sorted
    /// by `|A|·|B|`, largest first.
    fn subset_walk_domain(conn: OutRelation<&[u64]>, beta: usize) -> Vec<Biclique> {
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

    /// The bridging that [`Bridges`] replaced, kept as its oracle: the
    /// factors of the `G_{w1,w2,S}` check per pattern word, and the memoized
    /// `β × β` bridgeable relation per ordered pattern pair.
    struct WordBridges {
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

    impl WordBridges {
        fn new(info: &GapTypes, patterns: &Patterns) -> Result<Self> {
            let system = info.system();
            let semigroup = info.semigroup();
            let edge = rows_of(system.edge_relation());
            let unlimited = &mut WorkMeter::unlimited();
            let middles = minimal(
                semigroup
                    .iter()
                    .map(|t| rows_of(&semigroup.relation(t)))
                    .collect(),
                edge.len(),
                unlimited,
            )
            .unwrap();
            let (mut lefts, mut rights) = (Vec::new(), Vec::new());
            for pattern in patterns.iter() {
                let base = rows_of(&semigroup.relation(semigroup.type_of_word(pattern)?));
                let (mut left, mut right) = (Vec::new(), Vec::new());
                for padding in stable_paddings(&edge, &base) {
                    let edge_padding = product(&edge, &padding);
                    let conn = product(&edge_padding, &edge);
                    left.extend(middles.iter().map(|m| product(&conn, m)));
                    left.push(edge_padding);
                    right.push(conn);
                }
                lefts.push(minimal(left, edge.len(), unlimited).unwrap());
                rights.push(minimal(right, edge.len(), unlimited).unwrap());
            }
            Ok(WordBridges {
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

    /// The feasibility golden's problems: the ladders, the corpus and its
    /// 320 `lcl-gen` draws.
    fn golden_problems() -> Vec<NormalizedLcl> {
        let mut problems: Vec<NormalizedLcl> = (3..=14).map(lcl_problems::coloring).collect();
        problems.extend((1..=16).map(lcl_problems::unconstrained));
        problems.extend(lcl_problems::corpus().into_iter().map(|e| e.problem));
        problems.extend((0..320usize).map(|i| {
            let config = GenConfig::new(i as u64)
                .family(Family::ALL[i % 4])
                .input_labels(1 + (i / 4) % 3)
                .output_labels(3 + (i / 12) % 8);
            generate(&config).unwrap()
        }));
        problems
    }

    /// Asserts that [`Bridges`] answers every `(i, last, j, first)` as the
    /// per-word oracle does; returns the number of entries compared.
    fn assert_bridges_match_the_oracle(problem: &NormalizedLcl, kappa: usize) -> usize {
        let Ok(info) = GapTypes::compute(problem, 10_000) else {
            return 0;
        };
        if problem.num_outputs() > MAX_OUTPUTS {
            return 0;
        }
        let kappa = kappa.min(info.semigroup().pump_threshold()).max(1);
        let patterns = crate::classify::canonical_patterns(problem.num_inputs(), kappa);
        let classes = PatternClasses::new(&info, &patterns).unwrap();
        let mut got = Bridges::new(&info, classes);
        let mut want = WordBridges::new(&info, &patterns).unwrap();
        let labels = || (0..problem.num_outputs()).map(OutLabel::from_index);
        let mut compared = 0;
        for i in 0..patterns.len() {
            for j in 0..patterns.len() {
                for last in labels() {
                    for first in labels() {
                        assert_eq!(
                            got.bridges(i, last, j, first),
                            want.bridges(i, last, j, first),
                            "{}: {:?} {last:?} → {:?} {first:?}",
                            problem.name(),
                            patterns.get(i),
                            patterns.get(j)
                        );
                        compared += 1;
                    }
                }
            }
        }
        compared
    }

    #[test]
    fn pattern_types_decide_which_patterns_have_labelings() {
        let mut problems = golden_problems();
        problems.extend((2..=8).map(lcl_problems::run));
        let mut compared = 0;
        for problem in &problems {
            let Ok(info) = GapTypes::compute(problem, 10_000) else {
                continue;
            };
            if problem.num_outputs() > MAX_OUTPUTS {
                continue;
            }
            let masks = BlockMasks::new(info.system());
            let kappa = info.semigroup().pump_threshold().min(9);
            for pattern in crate::classify::canonical_patterns(problem.num_inputs(), kappa).iter() {
                let single = Patterns::from_words(&[pattern.to_vec()]);
                let classes = PatternClasses::new(&info, &single).unwrap();
                assert_eq!(
                    classes.all_labelable(&info),
                    !periodic_candidates(&masks, pattern, 1).is_empty(),
                    "{}: {pattern:?}",
                    problem.name()
                );
                compared += 1;
            }
        }
        assert!(compared >= 5_000, "only {compared} patterns compared");
    }

    /// Pulls every candidate of every pattern, one pattern after another in
    /// turn so the walks interleave in the flat buffers, then reads each
    /// pattern's list again from its start.
    fn pulled_candidates(candidates: &mut Candidates) -> Vec<Vec<Vec<OutLabel>>> {
        let n = candidates.patterns.len();
        let mut cursors: Vec<Option<usize>> = vec![None; n];
        let mut live: Vec<bool> = vec![true; n];
        while live.contains(&true) {
            for p in 0..n {
                if live[p] {
                    match candidates
                        .next(p, cursors[p], &mut WorkMeter::unlimited())
                        .unwrap()
                    {
                        Some(c) => cursors[p] = Some(c),
                        None => live[p] = false,
                    }
                }
            }
        }
        (0..n)
            .map(|p| {
                let mut out = Vec::new();
                let mut cursor = None;
                while let Some(c) = candidates
                    .next(p, cursor, &mut WorkMeter::unlimited())
                    .unwrap()
                {
                    assert_eq!(candidates.ends(c), {
                        let l = candidates.labeling(p, c);
                        (l[0], l[l.len() - 1])
                    });
                    out.push(candidates.labeling(p, c).to_vec());
                    cursor = Some(c);
                }
                out
            })
            .collect()
    }

    /// Asserts that the resumable walks yield the eager enumeration of every
    /// pattern, in order, at `cap`; returns the number of candidates.
    fn assert_walks_match_the_eager_enumeration(
        problem: &NormalizedLcl,
        patterns: &Patterns,
        cap: usize,
    ) -> usize {
        let system = TransferSystem::new(problem);
        let mut candidates = Candidates::new(BlockMasks::new(&system), patterns, cap);
        let got = pulled_candidates(&mut candidates);
        let masks = BlockMasks::new(&system);
        for (i, got) in got.iter().enumerate() {
            let want = periodic_candidates(&masks, patterns.get(i), cap);
            assert_eq!(got, &want, "{}: {:?}", problem.name(), patterns.get(i));
        }
        got.iter().map(Vec::len).sum()
    }

    #[test]
    fn candidate_walks_yield_the_eager_enumeration() {
        let mut compared = 0;
        for problem in golden_problems() {
            if problem.num_outputs() > MAX_OUTPUTS {
                continue;
            }
            let Ok(info) = GapTypes::compute(&problem, 10_000) else {
                continue;
            };
            let kappa = info.semigroup().pump_threshold().min(3);
            let patterns = crate::classify::canonical_patterns(problem.num_inputs(), kappa);
            compared +=
                assert_walks_match_the_eager_enumeration(&problem, &patterns, CANDIDATE_CAP);
        }
        // run(L) at κ = L + 1: 14 to 127 patterns.
        for l in 2..=8 {
            let patterns = crate::classify::canonical_patterns(2, l + 1);
            compared += assert_walks_match_the_eager_enumeration(
                &lcl_problems::run(l),
                &patterns,
                CANDIDATE_CAP,
            );
        }
        assert!(compared >= 10_000, "only {compared} candidates compared");
        // Capped walks: the four first 3-colourings of a 4-cycle have two
        // (first, last) pairs.
        let four = Patterns::from_words(&[vec![InLabel(0); 4]]);
        assert_eq!(
            assert_walks_match_the_eager_enumeration(&three_coloring(), &four, 4),
            2
        );
        // 17³ = 4,913 labelings of a 3-letter pattern: the cap cuts the walk
        // before it meets every (first, last) pair.
        let dense = lcl_problems::unconstrained(17);
        let three = Patterns::from_words(&[vec![InLabel(0); 3]]);
        let capped = assert_walks_match_the_eager_enumeration(&dense, &three, CANDIDATE_CAP);
        let masks = BlockMasks::new(&TransferSystem::new(&dense));
        let all = periodic_candidates(&masks, three.get(0), usize::MAX).len();
        assert_eq!(all, 17 * 17);
        assert!(capped < all, "{capped} of {all} pairs before the cap");
    }

    #[test]
    fn padding_types_are_the_stable_paddings() {
        let mut problems = golden_problems();
        problems.extend((2..=8).map(lcl_problems::run));
        let mut compared = 0;
        for problem in &problems {
            let Ok(info) = GapTypes::compute(problem, 10_000) else {
                continue;
            };
            if problem.num_outputs() > MAX_OUTPUTS {
                continue;
            }
            let semigroup = info.semigroup();
            let edge = rows_of(info.system().edge_relation());
            let mut seen = vec![(0, 0); semigroup.len()];
            for t in semigroup.iter() {
                let mut paddings = Vec::new();
                padding_types(semigroup, t, t.index() + 1, &mut seen, &mut paddings);
                let relations: Vec<Rows> = paddings
                    .iter()
                    .map(|&p| rows_of(&semigroup.relation(p)))
                    .collect();
                let want = stable_paddings(&edge, &rows_of(&semigroup.relation(t)));
                assert_eq!(relations, want, "{}: type {t:?}", problem.name());
                for (&padding, relation) in paddings.iter().zip(&relations) {
                    let position = info.position(padding).expect("a quantified padding");
                    assert_eq!(
                        rows_of(&info.connection(position)),
                        product(&product(&edge, relation), &edge),
                        "{}: C(L) of type {padding:?}",
                        problem.name()
                    );
                    compared += 1;
                }
            }
        }
        assert!(compared >= 4_000, "only {compared} paddings compared");
    }

    #[test]
    fn bridging_per_type_matches_the_per_word_oracle() {
        let golden: usize = golden_problems()
            .iter()
            .map(|p| assert_bridges_match_the_oracle(p, 3))
            .sum();
        assert!(golden >= 100_000, "only {golden} golden entries compared");
        // More than 14 patterns per problem: run(L) at κ = L + 1.
        let run: usize = (2..=8)
            .map(|l| assert_bridges_match_the_oracle(&lcl_problems::run(l), l + 1))
            .sum();
        assert!(run >= 1_000_000, "only {run} run(L) entries compared");
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
        let types = structure.num_types();
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
        let masks = BlockMasks::new(&TransferSystem::new(&three_coloring()));
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

    /// The per-type search the class search replaced, kept as its oracle:
    /// one variable per quantified type, in type order, over its connection
    /// relation's domain, each choice checked by
    /// [`BlockMasks::first_block`] on every anchor input against itself and
    /// every type assigned so far.
    fn per_type_facing_structure(
        info: &GapTypes,
        budget: usize,
    ) -> Result<Option<FeasibleStructure>> {
        struct Search<'a> {
            masks: BlockMasks,
            pairs: Vec<(InLabel, InLabel)>,
            domains: &'a [Vec<Biclique>],
            assignment: Vec<Biclique>,
            nodes: usize,
            budget: usize,
        }

        impl Search<'_> {
            fn labelable(&self, firsts: u64, lasts: u64) -> bool {
                self.pairs
                    .iter()
                    .all(|&s| self.masks.first_block(firsts, lasts, s).is_some())
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
                    let consistent = std::iter::once(&choice)
                        .chain(&self.assignment)
                        .all(|o| self.labelable(o.b, choice.a) && self.labelable(choice.b, o.a));
                    if !consistent {
                        continue;
                    }
                    self.assignment.push(choice);
                    if self.solve()? {
                        return Ok(true);
                    }
                    self.assignment.pop();
                }
                Ok(false)
            }
        }

        check_outputs(info.problem())?;
        let domains: Vec<Vec<Biclique>> = (0..info.quantified().len())
            .map(|i| ordered_domain(info.connection(i)))
            .collect();
        if domains.iter().any(Vec::is_empty) {
            return Ok(None);
        }
        let mut search = Search {
            masks: BlockMasks::new(info.system()),
            pairs: input_pairs(info.problem()).collect(),
            domains: &domains,
            assignment: Vec::new(),
            nodes: 0,
            budget,
        };
        if !domains.is_empty() && !search.solve()? {
            return Ok(None);
        }
        let (left_class, firsts) = classes(search.assignment.iter().map(|c| c.b));
        let (right_class, lasts) = classes(search.assignment.iter().map(|c| c.a));
        let facing = Facing {
            firsts,
            lasts,
            left_class,
            right_class,
        };
        Ok(FeasibleStructure::assemble(
            info.problem(),
            &search.masks,
            facing,
            Vec::new(),
        ))
    }

    /// Draws shaped like the benchmark's cold base: every family, 1–3 input
    /// and 3–8 output labels, families rotating fastest, then the input and
    /// output alphabets, then three edge densities (the generator's default
    /// among them).
    fn cold_shaped_draws(count: usize) -> Vec<NormalizedLcl> {
        let density = [GenConfig::new(0).edge_density_pct, 35, 85];
        (0..count)
            .map(|i| {
                let config = GenConfig::new(0xc1a5_5000 + i as u64)
                    .family(Family::ALL[i % 4])
                    .input_labels(1 + (i / 4) % 3)
                    .output_labels(3 + (i / 12) % 6)
                    .edge_density_pct(density[(i / 72) % 3]);
                generate(&config).unwrap()
            })
            .collect()
    }

    #[test]
    fn the_class_search_finds_what_the_per_type_search_finds() {
        let budget = ClassifierOptions::default().search_budget;
        let mut problems = golden_problems();
        problems.extend((2..=8).map(lcl_problems::run));
        problems.extend(cold_shaped_draws(1_536));
        let (mut compared, mut found, mut backtracked) = (0, 0, 0);
        for problem in &problems {
            let Ok(info) = GapTypes::compute(problem, 10_000) else {
                continue;
            };
            let got = facing_search(&info, budget, &mut WorkMeter::unlimited());
            let want = per_type_facing_structure(&info, budget);
            let nodes = got.as_ref().map_or(0, |&(_, nodes)| nodes);
            let got = got.map(|(structure, _)| structure);
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{}",
                problem.name()
            );
            let types = info.quantified().len();
            let (_, connections) = classes((0..types).map(|i| info.connection(i)));
            backtracked += usize::from(nodes > connections.len() + 1);
            found += usize::from(matches!(got, Ok(Some(_))));
            compared += 1;
        }
        assert!(compared >= 1_800, "only {compared} problems compared");
        assert!(found >= 1_000, "only {found} structures found");
        assert!(backtracked >= 10, "only {backtracked} searches backtrack");
    }

    /// Node and edge masks over `beta` labels for `alpha` inputs, each bit
    /// set with probability one half.
    fn seeded_masks(rng: &mut StdRng, alpha: usize, beta: usize) -> BlockMasks {
        let full = u64::MAX >> (64 - beta);
        BlockMasks {
            nodes: (0..alpha).map(|_| rng.next_u64() & full).collect(),
            edges: (0..beta).map(|_| rng.next_u64() & full).collect(),
        }
    }

    /// Asserts that the reach masks of `firsts` decide every block against
    /// `lasts` as [`BlockMasks::first_block`] does, and all of them as
    /// [`BlockMasks::labelable`] does.
    fn assert_reach_decides_blocks(masks: &BlockMasks, firsts: u64, lasts: u64) {
        let mut reach = Vec::new();
        masks.push_reach(firsts, &mut reach);
        let alpha = masks.nodes.len();
        assert_eq!(reach.len(), alpha);
        let mut all = true;
        for (s0, &reach) in reach.iter().enumerate() {
            for s1 in 0..alpha {
                let s = (InLabel::from_index(s0), InLabel::from_index(s1));
                let block = masks.first_block(firsts, lasts, s).is_some();
                assert_eq!(masks.reaches(reach, lasts, s1), block, "{s:?}");
                all &= block;
            }
        }
        assert_eq!(masks.labelable(&reach, lasts), all);
    }

    #[test]
    fn reach_masks_decide_blocks_as_first_block_does() {
        let mut rng = StdRng::seed_from_u64(0x7eac4);
        // Every pair of label sets up to five labels.
        for beta in 1..=5 {
            for alpha in 1..=3 {
                for _ in 0..8 {
                    let masks = seeded_masks(&mut rng, alpha, beta);
                    for firsts in 0..1u64 << beta {
                        for lasts in 0..1u64 << beta {
                            assert_reach_decides_blocks(&masks, firsts, lasts);
                        }
                    }
                }
            }
        }
        // Seeded sets up to the mask width.
        for beta in 6..=MAX_OUTPUTS {
            let full = u64::MAX >> (64 - beta);
            for alpha in 1..=3 {
                let masks = seeded_masks(&mut rng, alpha, beta);
                for _ in 0..64 {
                    let (firsts, lasts) = (rng.next_u64() & full, rng.next_u64() & full);
                    assert_reach_decides_blocks(&masks, firsts, lasts);
                    // Sparse sets, so that some blocks have no labeling.
                    let sparse = rng.next_u64() & rng.next_u64() & rng.next_u64();
                    assert_reach_decides_blocks(&masks, firsts & sparse, lasts & sparse);
                }
            }
        }
    }
}
