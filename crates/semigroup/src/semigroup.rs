//! Enumeration of the finite semigroup of transfer relations ("types").
//!
//! The paper's Lemma 12 shows that the type of a path can be computed by a
//! finite automaton whose states are the types themselves, and Lemma 13 bounds
//! their number. [`TypeSemigroup`] materializes that automaton for a concrete
//! problem: it enumerates every transfer relation reachable from the
//! single-letter relations under the join `R(u)·E·R(v)`, stores a shortest
//! witness word for each, the full letter-transition table, and the exact
//! eventual periodicity of *which types are realized by words of length n*.
//!
//! The derived constants replace the paper's astronomically large worst-case
//! pumping constant `ℓ_pump` with the tight value for the problem at hand.
//!
//! # The column-mask step
//!
//! The enumeration is a breadth-first walk that appends one letter at a time,
//! so types get their ids in the order the walk meets them and the witnesses
//! are shortest words. A letter's relation `D_a` is diagonal (it only marks
//! the outputs allowed at a node with input `a`), so
//! `R(w·a) = R(w)·E·D_a = (R(w)·E)·D_a` keeps the columns of `R(w)·E` that
//! `a` allows. The walk computes the product `R(w)·E` once per type, into a
//! reused relation, and then, for each letter, ANDs the letter's diagonal
//! mask into every row of a reused buffer. When a row is one word
//! (`β ≤ 64`) the product is one fold per row and the mask one AND per row.
//!
//! The buffer is looked up by its words in an open-addressed table of type
//! ids. The table hashes the words and compares them against the relations
//! the element table already holds, so each type is stored once. A step that
//! lands on a known type allocates nothing; only a new type stores its
//! relation and builds its witness, at its exact length, from its prefix's.
//!
//! # The length profile as bitsets
//!
//! The sets `S_n` of types realized by length-`n` words are word bitsets over
//! type ids while the profile is walked: `S_{n+1}` sets the bit of every
//! letter successor of every member of `S_n`, and a repeat is found by
//! looking the bitset up. Only the recorded sets become the `BTreeSet`s of
//! [`LengthProfile`].

use crate::{OutRelation, Result, SemigroupError, TransferSystem};
use lcl_problem::InLabel;
use std::collections::{BTreeSet, HashMap};

/// Identifier of a type (an index into the [`TypeSemigroup`]'s element
/// table, resolvable with [`TypeSemigroup::relation`]).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TypeId(pub usize);

impl TypeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Eventual periodicity of the map `n ↦ { types realized by length-n words }`.
///
/// Because the set of types of length-`(n+1)` words is a function of the set
/// of types of length-`n` words, the sequence of sets is eventually periodic;
/// `sets[i]` is the set for length `i + 1`, recorded up to one full period
/// past the pre-period.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LengthProfile {
    /// Smallest `t ≥ 1` such that the set for length `t` re-occurs later.
    pub preperiod: usize,
    /// Period `p ≥ 1` of the repetition.
    pub period: usize,
    /// `sets[i]` = types realized by some word of length `i + 1`, for
    /// `i + 1 ≤ preperiod + period`.
    pub sets: Vec<BTreeSet<TypeId>>,
}

impl LengthProfile {
    /// The set of types realized by words of length `n ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn types_of_length(&self, n: usize) -> &BTreeSet<TypeId> {
        assert!(n >= 1, "words have length at least 1");
        if n <= self.sets.len() {
            &self.sets[n - 1]
        } else {
            // For n beyond the recorded prefix, S_n = S_{preperiod + ((n - preperiod) mod period)}.
            let idx = (self.preperiod - 1) + (n - self.preperiod) % self.period;
            &self.sets[idx]
        }
    }

    /// All types realized by words of length `≥ n` (union over one full
    /// period starting at `max(n, preperiod)` plus the finitely many lengths
    /// in between).
    pub fn types_of_length_at_least(&self, n: usize) -> BTreeSet<TypeId> {
        let n = n.max(1);
        let mut out = BTreeSet::new();
        let horizon = self.preperiod + self.period;
        for len in n..=horizon.max(n + self.period) {
            out.extend(self.types_of_length(len).iter().copied());
        }
        out
    }
}

/// The finite semigroup of transfer relations of a problem.
#[derive(Clone, Debug)]
pub struct TypeSemigroup {
    system: TransferSystem,
    elements: Vec<OutRelation>,
    /// The id of each element, found by its words.
    index: TypeIndex,
    witness: Vec<Vec<InLabel>>,
    /// `letter_step[t][a]` = type of `witness(t) · a`.
    letter_step: Vec<Vec<TypeId>>,
    profile: LengthProfile,
}

/// An open-addressed hash table of type ids, keyed by the words
/// ([`OutRelation::words`]) of the relations the element table already
/// stores: each relation is stored once, and a probe compares words in
/// place. Linear probing, at most half full. The hash is a fast unkeyed
/// one, and its keys derive from the problem, which a server's client
/// supplies. Colliding keys would make a probe cost up to one comparison per
/// type, so a lookup is bounded by the type budget; and the keys are the
/// closure of the letter relations under the join, which is hard to steer
/// into collisions through the choice of a problem.
#[derive(Clone, Debug)]
struct TypeIndex {
    /// A type id, or [`TypeIndex::EMPTY`]; the length is a power of two.
    slots: Vec<usize>,
}

impl TypeIndex {
    const EMPTY: usize = usize::MAX;

    fn new() -> Self {
        TypeIndex {
            slots: vec![Self::EMPTY; 16],
        }
    }

    /// The home slot of a relation's words: FxHash over the words, whose
    /// high bits pick the slot.
    fn home(&self, words: &[u64]) -> usize {
        let hash = words.iter().fold(0u64, |h, &w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
        });
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The id of the element with words `words`, or the empty slot where it
    /// would go.
    fn find(&self, words: &[u64], elements: &[OutRelation]) -> std::result::Result<TypeId, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(words);
        loop {
            match self.slots[slot] {
                Self::EMPTY => return Err(slot),
                id if elements[id].words() == words => return Ok(TypeId(id)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Records the last element of `elements` in `slot`, an empty slot that
    /// [`Self::find`] returned for its words. Every element is in the table.
    fn insert(&mut self, slot: usize, elements: &[OutRelation]) {
        self.slots[slot] = elements.len() - 1;
        if 2 * elements.len() > self.slots.len() {
            self.slots = vec![Self::EMPTY; 2 * self.slots.len()];
            for (id, element) in elements.iter().enumerate() {
                let slot = self
                    .find(element.words(), elements)
                    .expect_err("ids are distinct");
                self.slots[slot] = id;
            }
        }
    }
}

/// The elements found so far by [`TypeSemigroup::compute`].
struct Enumeration {
    dim: usize,
    budget: usize,
    elements: Vec<OutRelation>,
    index: TypeIndex,
    witness: Vec<Vec<InLabel>>,
}

impl Enumeration {
    /// The type of the relation with words `words`, found by the word `w · a`
    /// with `w` the witness of `prefix` (or the empty word). A new type is
    /// stored with that word as its witness; a known one costs one probe.
    fn intern(&mut self, words: &[u64], prefix: Option<TypeId>, a: InLabel) -> Result<TypeId> {
        let slot = match self.index.find(words, &self.elements) {
            Ok(id) => return Ok(id),
            Err(slot) => slot,
        };
        if self.elements.len() >= self.budget {
            return Err(SemigroupError::TooManyTypes {
                budget: self.budget,
            });
        }
        let id = TypeId(self.elements.len());
        let prefix: &[InLabel] = prefix.map_or(&[], |t| &self.witness[t.index()]);
        let mut witness = Vec::with_capacity(prefix.len() + 1);
        witness.extend_from_slice(prefix);
        witness.push(a);
        self.elements
            .push(OutRelation::from_words(self.dim, words.to_vec()));
        self.witness.push(witness);
        self.index.insert(slot, &self.elements);
        Ok(id)
    }
}

/// The members of a bitset over type ids, ascending.
fn members(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(i, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            let bit = (word != 0).then(|| word.trailing_zeros() as usize)?;
            word &= word - 1;
            Some(i * 64 + bit)
        })
    })
}

impl TypeSemigroup {
    /// Enumerates the semigroup of the given transfer system.
    ///
    /// `budget` caps the number of elements; the enumeration aborts with
    /// [`SemigroupError::TooManyTypes`] if exceeded. The number of elements is
    /// bounded by `2^{|Σ_out|²}` in the worst case, but is small for typical
    /// problems.
    ///
    /// # Errors
    ///
    /// Returns [`SemigroupError::TooManyTypes`] if the budget is exceeded.
    pub fn compute(system: &TransferSystem, budget: usize) -> Result<Self> {
        let letters = (0..system.num_letters()).map(InLabel::from_index);
        let mut found = Enumeration {
            dim: system.dim(),
            budget,
            elements: Vec::new(),
            index: TypeIndex::new(),
            witness: Vec::new(),
        };
        let mut letter_types = Vec::with_capacity(system.num_letters());
        let mut masks = Vec::with_capacity(system.num_letters());
        for a in letters.clone() {
            let rel = system.letter_relation(a)?;
            letter_types.push(found.intern(rel.words(), None, a)?);
            masks.push(rel.diagonal_words());
        }

        // BFS by appending single letters: every element of the generated
        // semigroup is reachable this way, and BFS order yields shortest
        // witnesses. Types get their ids in discovery order, so the queue is
        // the id range itself. One product `R(w)·E` per type, then one
        // column mask per letter (see the module documentation).
        let mut letter_step: Vec<Vec<TypeId>> = Vec::new();
        let (mut then_edge, mut next) = (OutRelation::empty(0), Vec::new());
        while letter_step.len() < found.elements.len() {
            let t = TypeId(letter_step.len());
            found.elements[t.index()].compose_into(system.edge_relation(), &mut then_edge)?;
            let mut steps = Vec::with_capacity(masks.len());
            for (a, mask) in letters.clone().zip(&masks) {
                then_edge.mask_columns_into(mask, &mut next);
                steps.push(found.intern(&next, Some(t), a)?);
            }
            letter_step.push(steps);
        }

        let profile = Self::compute_profile(&letter_types, &letter_step);
        Ok(TypeSemigroup {
            system: system.clone(),
            elements: found.elements,
            index: found.index,
            witness: found.witness,
            letter_step,
            profile,
        })
    }

    /// The length profile, with each `S_n` a bitset over type ids:
    /// `S_1` holds the letters' types and `S_{n+1} = { step(t, a) : t ∈ S_n }`.
    fn compute_profile(letter_types: &[TypeId], letter_step: &[Vec<TypeId>]) -> LengthProfile {
        let words = letter_step.len().div_ceil(64);
        let mut current = vec![0u64; words];
        for t in letter_types {
            current[t.index() / 64] |= 1 << (t.index() % 64);
        }
        let mut seen: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut sets: Vec<Vec<u64>> = Vec::new();
        while !seen.contains_key(&current) {
            let mut next = vec![0u64; words];
            for t in members(&current) {
                for u in &letter_step[t] {
                    next[u.index() / 64] |= 1 << (u.index() % 64);
                }
            }
            seen.insert(current.clone(), sets.len());
            sets.push(std::mem::replace(&mut current, next));
        }
        let first = seen[&current];
        LengthProfile {
            preperiod: first + 1,
            period: sets.len() - first,
            sets: sets
                .iter()
                .map(|set| members(set).map(TypeId).collect())
                .collect(),
        }
    }

    /// The transfer system the semigroup was computed from.
    pub fn system(&self) -> &TransferSystem {
        &self.system
    }

    /// Number of distinct types.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Returns `true` if the semigroup has no elements (empty input alphabet —
    /// cannot happen for well-formed problems).
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The transfer relation of a type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn relation(&self, id: TypeId) -> &OutRelation {
        &self.elements[id.index()]
    }

    /// A shortest word whose transfer relation is the given type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn witness(&self, id: TypeId) -> &[InLabel] {
        &self.witness[id.index()]
    }

    /// All types, in enumeration order.
    pub fn iter(&self) -> impl Iterator<Item = TypeId> + '_ {
        (0..self.elements.len()).map(TypeId)
    }

    /// Looks up the type of a relation, if it belongs to the semigroup.
    pub fn id_of(&self, relation: &OutRelation) -> Option<TypeId> {
        if relation.dim() != self.system.dim() {
            return None;
        }
        self.index.find(relation.words(), &self.elements).ok()
    }

    /// The type of a non-empty word.
    ///
    /// # Errors
    ///
    /// Returns an error for empty words or unknown labels.
    pub fn type_of_word(&self, word: &[InLabel]) -> Result<TypeId> {
        let (&first, rest) = word.split_first().ok_or(SemigroupError::EmptyWord)?;
        let rel = self.system.letter_relation(first)?;
        let mut t = self.id_of(rel).expect("letters are interned");
        for &a in rest {
            if a.index() >= self.system.num_letters() {
                return Err(SemigroupError::UnknownInputLabel {
                    index: a.index(),
                    alphabet_len: self.system.num_letters(),
                });
            }
            t = self.letter_step[t.index()][a.index()];
        }
        Ok(t)
    }

    /// The type obtained by appending letter `a` to a word of type `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` or `a` is out of range.
    pub fn step(&self, t: TypeId, a: InLabel) -> TypeId {
        self.letter_step[t.index()][a.index()]
    }

    /// The type of the concatenation of a word of type `left` and a word of
    /// type `right`.
    ///
    /// # Errors
    ///
    /// Returns an error if the joined relation leaves the semigroup (cannot
    /// happen for types produced by this semigroup).
    pub fn join(&self, left: TypeId, right: TypeId) -> Result<TypeId> {
        let rel = self
            .system
            .join(self.relation(left), self.relation(right))?;
        Ok(self.id_of(&rel).expect("semigroup is closed under join"))
    }

    /// The type of `w^k` for a word of type `t` (`k ≥ 1`).
    ///
    /// # Errors
    ///
    /// Returns [`SemigroupError::EmptyWord`] if `k == 0`.
    pub fn power(&self, t: TypeId, k: usize) -> Result<TypeId> {
        if k == 0 {
            return Err(SemigroupError::EmptyWord);
        }
        let rel = self.system.power(self.relation(t), k)?;
        Ok(self.id_of(&rel).expect("semigroup is closed under powers"))
    }

    /// The eventual periodicity of type-reachability by word length.
    pub fn length_profile(&self) -> &LengthProfile {
        &self.profile
    }

    /// The crate's stand-in for the paper's pumping constant `ℓ_pump`: a
    /// length such that every word of at least this length contains a pumpable
    /// factor (Lemma 14 with the tight constant `|types| + 1`), and beyond
    /// which the set of reachable types is governed by
    /// [`Self::length_profile`].
    pub fn pump_threshold(&self) -> usize {
        (self.len() + 1).max(self.profile.preperiod + self.profile.period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::word_from_indices;
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

    fn copy_pred() -> NormalizedLcl {
        // Output must equal the predecessor's output; all outputs allowed at
        // every node. The transfer semigroup collapses quickly.
        let mut b = NormalizedLcl::builder("agree");
        b.input_labels(&["x"]);
        b.output_labels(&["a", "b"]);
        b.allow_all_node_pairs();
        b.allow_edge_idx(0, 0);
        b.allow_edge_idx(1, 1);
        b.build().unwrap()
    }

    /// What a semigroup computation fixes: its elements in id order, their
    /// witnesses, the letter table and the length profile.
    type Enumerated = (
        Vec<OutRelation>,
        Vec<Vec<InLabel>>,
        Vec<Vec<TypeId>>,
        LengthProfile,
    );

    /// The BFS the column-mask enumeration replaced, kept as its oracle: each
    /// step joins the popped relation with a letter relation, clones the
    /// witness and interns the result in a map keyed by relations; the
    /// profile walks `BTreeSet`s of types.
    fn reference(system: &TransferSystem, budget: usize) -> Result<Enumerated> {
        let mut elements: Vec<OutRelation> = Vec::new();
        let mut index: HashMap<OutRelation, TypeId> = HashMap::new();
        let mut witness: Vec<Vec<InLabel>> = Vec::new();
        let mut queue: std::collections::VecDeque<TypeId> = Default::default();
        let mut intern = |rel: OutRelation,
                          wit: Vec<InLabel>,
                          elements: &mut Vec<OutRelation>,
                          witness: &mut Vec<Vec<InLabel>>,
                          queue: &mut std::collections::VecDeque<TypeId>|
         -> Result<TypeId> {
            if let Some(&id) = index.get(&rel) {
                return Ok(id);
            }
            if elements.len() >= budget {
                return Err(SemigroupError::TooManyTypes { budget });
            }
            let id = TypeId(elements.len());
            index.insert(rel.clone(), id);
            elements.push(rel);
            witness.push(wit);
            queue.push_back(id);
            Ok(id)
        };
        let letters = || (0..system.num_letters()).map(InLabel::from_index);
        let mut first = BTreeSet::new();
        for a in letters() {
            let rel = system.letter_relation(a)?.clone();
            first.insert(intern(
                rel,
                vec![a],
                &mut elements,
                &mut witness,
                &mut queue,
            )?);
        }
        let mut letter_step: Vec<Vec<TypeId>> = Vec::new();
        while let Some(t) = queue.pop_front() {
            let rel = elements[t.index()].clone();
            let wit = witness[t.index()].clone();
            let mut steps = Vec::new();
            for a in letters() {
                let next = system.join(&rel, system.letter_relation(a)?)?;
                let mut next_wit = wit.clone();
                next_wit.push(a);
                steps.push(intern(
                    next,
                    next_wit,
                    &mut elements,
                    &mut witness,
                    &mut queue,
                )?);
            }
            assert_eq!(letter_step.len(), t.index(), "BFS pops in id order");
            letter_step.push(steps);
        }
        let mut seen: HashMap<BTreeSet<TypeId>, usize> = HashMap::new();
        let mut sets: Vec<BTreeSet<TypeId>> = Vec::new();
        let mut current = first;
        let first = loop {
            if let Some(&first) = seen.get(&current) {
                break first;
            }
            seen.insert(current.clone(), sets.len());
            sets.push(current.clone());
            current = current
                .iter()
                .flat_map(|t| letter_step[t.index()].iter().copied())
                .collect();
        };
        let profile = LengthProfile {
            preperiod: first + 1,
            period: sets.len() - first,
            sets,
        };
        Ok((elements, witness, letter_step, profile))
    }

    /// Asserts that `compute` enumerates what the reference does; returns
    /// the number of types (0 if both exceed the budget).
    fn assert_matches_reference(problem: &NormalizedLcl, budget: usize) -> usize {
        let system = TransferSystem::new(problem);
        let name = problem.name();
        let sg = match (
            TypeSemigroup::compute(&system, budget),
            reference(&system, budget),
        ) {
            (Ok(sg), Ok(want)) => {
                let got = (
                    sg.elements.clone(),
                    sg.witness.clone(),
                    sg.letter_step.clone(),
                    sg.profile.clone(),
                );
                assert!(
                    got == want,
                    "{name}: enumeration differs from the reference"
                );
                sg
            }
            (Err(got), Err(want)) => {
                assert_eq!(got, want, "{name}");
                return 0;
            }
            (got, want) => panic!("{name}: {:?} vs {:?}", got.err(), want.err()),
        };
        for (id, rel) in sg.elements.iter().enumerate() {
            assert_eq!(sg.id_of(rel), Some(TypeId(id)), "{name}: lookup");
        }
        sg.len()
    }

    #[test]
    fn column_mask_enumeration_matches_the_reference_bfs() {
        let mut problems: Vec<NormalizedLcl> = (2..=14).map(lcl_problems::coloring).collect();
        problems.extend((1..=16).map(lcl_problems::unconstrained));
        problems.extend(lcl_problems::corpus().into_iter().map(|e| e.problem));
        // More than 14 patterns per classify, 27–129 types.
        problems.extend((2..=8).map(lcl_problems::run));
        // A row of more than one word.
        problems.push(lcl_problems::coloring(70));
        problems.push(lcl_problems::unconstrained(70));
        // 512 draws: families rotate fastest, then 1–4 input labels, then
        // 3–10 output labels.
        problems.extend((0..512usize).map(|i| {
            let config = lcl_gen::GenConfig::new(1_000 + i as u64)
                .family(lcl_gen::Family::ALL[i % 4])
                .input_labels(1 + (i / 4) % 4)
                .output_labels(3 + (i / 16) % 8);
            lcl_gen::generate(&config).unwrap()
        }));
        let types: usize = problems
            .iter()
            .map(|p| assert_matches_reference(p, 5_000))
            .sum();
        assert!(types >= 10_000, "only {types} types compared");
        // Both stop at the same budget.
        assert_eq!(assert_matches_reference(&lcl_problems::coloring(3), 2), 0);
    }

    #[test]
    fn intern_table_finds_each_type_and_nothing_else() {
        let mut problems: Vec<NormalizedLcl> = (2..=8).map(lcl_problems::run).collect();
        problems.extend(lcl_problems::corpus().into_iter().map(|e| e.problem));
        problems.push(lcl_problems::coloring(70));
        for problem in &problems {
            let name = problem.name();
            let sg = TypeSemigroup::compute(&TransferSystem::new(problem), 5_000).unwrap();
            // The table starts at 16 slots and doubles past half full.
            for t in sg.iter() {
                assert_eq!(sg.id_of(sg.relation(t)), Some(t), "{name}");
            }
            // Relations outside the semigroup: every element with one bit
            // flipped, and a few fixed ones; a linear scan decides each.
            let n = sg.system().dim();
            let mut probes = vec![
                OutRelation::empty(n),
                OutRelation::full(n),
                OutRelation::identity(n),
            ];
            for t in sg.iter() {
                let (i, j) = (t.index() % n, t.index() / n % n);
                let mut flipped = sg.relation(t).clone();
                flipped.set(i, j, !flipped.get(i, j));
                probes.push(flipped);
            }
            for probe in &probes {
                let scan = sg.iter().find(|&t| sg.relation(t) == probe);
                assert_eq!(sg.id_of(probe), scan, "{name}");
            }
            // Another dimension is never a member, even with matching bits.
            for other in [n + 1, n.saturating_sub(1), 2 * n] {
                if other != n {
                    assert_eq!(sg.id_of(&OutRelation::empty(other)), None, "{name}");
                    assert_eq!(sg.id_of(&OutRelation::full(other)), None, "{name}");
                }
            }
        }
        let big = TypeSemigroup::compute(&TransferSystem::new(&lcl_problems::run(8)), 5_000);
        assert_eq!(
            big.unwrap().len(),
            129,
            "run(8) grows the table past 128 slots"
        );
    }

    #[test]
    fn two_coloring_semigroup_has_two_elements() {
        // Words of even/odd length have different transfer relations
        // (anti-diagonal vs diagonal patterns), and that's all.
        let ts = TransferSystem::new(&two_coloring());
        let sg = TypeSemigroup::compute(&ts, 1000).unwrap();
        assert_eq!(sg.len(), 2);
        let odd = sg.type_of_word(&word_from_indices(&[0])).unwrap();
        let even = sg.type_of_word(&word_from_indices(&[0, 0])).unwrap();
        assert_ne!(odd, even);
        assert_eq!(
            sg.type_of_word(&word_from_indices(&[0, 0, 0])).unwrap(),
            odd
        );
        assert_eq!(sg.join(odd, odd).unwrap(), even);
        assert_eq!(sg.power(odd, 4).unwrap(), even);
        assert_eq!(sg.power(odd, 5).unwrap(), odd);
        assert!(sg.power(odd, 0).is_err());
    }

    #[test]
    fn witnesses_have_matching_types() {
        let ts = TransferSystem::new(&two_coloring());
        let sg = TypeSemigroup::compute(&ts, 1000).unwrap();
        for t in sg.iter() {
            let w = sg.witness(t);
            assert_eq!(sg.type_of_word(w).unwrap(), t);
            assert_eq!(
                ts.relation_of_word(w).unwrap(),
                *sg.relation(t),
                "witness relation matches stored relation"
            );
        }
        assert!(!sg.is_empty());
    }

    #[test]
    fn type_of_word_agrees_with_relation_of_word() {
        let ts = TransferSystem::new(&copy_pred());
        let sg = TypeSemigroup::compute(&ts, 1000).unwrap();
        let words: Vec<Vec<u16>> = vec![vec![0], vec![0, 0], vec![0, 0, 0, 0, 0]];
        for w in words {
            let word = word_from_indices(&w);
            let t = sg.type_of_word(&word).unwrap();
            let rel = ts.relation_of_word(&word).unwrap();
            assert_eq!(sg.id_of(&rel), Some(t));
        }
    }

    #[test]
    fn length_profile_two_coloring_alternates() {
        let ts = TransferSystem::new(&two_coloring());
        let sg = TypeSemigroup::compute(&ts, 1000).unwrap();
        let profile = sg.length_profile();
        assert_eq!(profile.period, 2);
        let odd = sg.type_of_word(&word_from_indices(&[0])).unwrap();
        let even = sg.type_of_word(&word_from_indices(&[0, 0])).unwrap();
        assert_eq!(
            profile.types_of_length(1),
            &[odd].into_iter().collect::<BTreeSet<_>>()
        );
        assert_eq!(
            profile.types_of_length(2),
            &[even].into_iter().collect::<BTreeSet<_>>()
        );
        assert_eq!(
            profile.types_of_length(101),
            &[odd].into_iter().collect::<BTreeSet<_>>()
        );
        assert_eq!(
            profile.types_of_length(100),
            &[even].into_iter().collect::<BTreeSet<_>>()
        );
        let all = profile.types_of_length_at_least(5);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn budget_exceeded() {
        let ts = TransferSystem::new(&two_coloring());
        assert!(matches!(
            TypeSemigroup::compute(&ts, 1),
            Err(SemigroupError::TooManyTypes { budget: 1 })
        ));
    }

    #[test]
    fn step_matches_concatenation() {
        let p = copy_pred();
        let ts = TransferSystem::new(&p);
        let sg = TypeSemigroup::compute(&ts, 1000).unwrap();
        let t = sg.type_of_word(&word_from_indices(&[0, 0])).unwrap();
        let stepped = sg.step(t, InLabel(0));
        let direct = sg.type_of_word(&word_from_indices(&[0, 0, 0])).unwrap();
        assert_eq!(stepped, direct);
    }

    #[test]
    fn errors_on_bad_words() {
        let ts = TransferSystem::new(&two_coloring());
        let sg = TypeSemigroup::compute(&ts, 1000).unwrap();
        assert!(sg.type_of_word(&[]).is_err());
        assert!(sg.type_of_word(&[InLabel(3)]).is_err());
        assert!(sg.type_of_word(&[InLabel(0), InLabel(3)]).is_err());
    }

    #[test]
    fn pump_threshold_reasonable() {
        let ts = TransferSystem::new(&two_coloring());
        let sg = TypeSemigroup::compute(&ts, 1000).unwrap();
        assert!(sg.pump_threshold() >= sg.len());
        assert!(sg.pump_threshold() <= 10);
    }

    #[test]
    fn bigger_alphabet_semigroup() {
        // Input-dependent problem: output must equal input of the node
        // ("copy input"); with two inputs the semigroup distinguishes last
        // letters but stays small.
        let mut b = NormalizedLcl::builder("copy-input");
        b.input_labels(&["a", "b"]);
        b.output_labels(&["a", "b"]);
        b.allow_node_idx(0, 0);
        b.allow_node_idx(1, 1);
        b.allow_all_edge_pairs();
        let p = b.build().unwrap();
        let ts = TransferSystem::new(&p);
        let sg = TypeSemigroup::compute(&ts, 1000).unwrap();
        assert!(sg.len() >= 2);
        assert!(sg.len() <= 16);
        // Types depend only on (first letter, last letter) here.
        let t1 = sg.type_of_word(&word_from_indices(&[0, 1, 0])).unwrap();
        let t2 = sg.type_of_word(&word_from_indices(&[0, 0, 0])).unwrap();
        assert_eq!(t1, t2);
        let t3 = sg.type_of_word(&word_from_indices(&[0, 0, 1])).unwrap();
        assert_ne!(t1, t3);
    }
}
