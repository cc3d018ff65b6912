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
//! `a` allows. Relations are packed bit matrices ([`OutRelation`]): on
//! `β ≤ 8` labels a relation is one word, on `β ≤ 16` four. The walk
//! computes the product `R(w)·E` once per type, into a reused relation, by
//! the transfer system's table of right products by `E`
//! (`ProductTable` in `relation.rs`): `⌈β/8⌉` lookups per row. Then, for each
//! letter, it ANDs the letter's column mask, replicated into every row slot
//! of a word, into each word of a reused buffer: one AND per word.
//!
//! The buffer is looked up by its words in an open-addressed table of type
//! ids. The table hashes the packed words and compares them against the
//! relations already found, which lie end to end in one arena, the same
//! number of words each, so each type is stored once. A step that lands on
//! a known type allocates nothing; a new type appends its words to the
//! arena and its witness, its prefix's followed by the letter, and the
//! buffers have room for the first types before they grow.
//!
//! Witnesses and the letter table are flat arenas: the witnesses' letters
//! end to end with one end offset per type, and the successors of a type
//! under each letter in one row of `|Σ_in|` ids. The letters' own types are
//! kept, so [`TypeSemigroup::type_of_word`] starts from a letter's type
//! without probing its relation.
//!
//! # The length profile as bitsets
//!
//! The sets `S_n` of types realized by length-`n` words are word bitsets over
//! type ids, recorded end to end in one buffer: `S_{n+1}` sets the bit of
//! every letter successor of every member of `S_n`. The first repeat is
//! found with the same open-addressed table the types are interned in, keyed
//! by the recorded bitsets: a fast hash, then a comparison of words in
//! place. [`LengthProfile::types_of_length_at_least`] ORs the bitsets of the
//! lengths it covers and lists the members of the union.

use crate::{OutRelation, Result, SemigroupError, TransferSystem, WorkMeter};
use lcl_problem::InLabel;

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
/// of types of length-`n` words, the sequence of sets is eventually periodic.
/// The sets for lengths `1 ..= preperiod + period - 1` are recorded, as word
/// bitsets over type ids; the set for length `preperiod + period` is the one
/// for length `preperiod` again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LengthProfile {
    /// Smallest `t ≥ 1` such that the set for length `t` re-occurs later.
    pub preperiod: usize,
    /// Period `p ≥ 1` of the repetition.
    pub period: usize,
    /// Words per set.
    words: usize,
    /// The recorded sets, `words` words each, shortest length first.
    bits: Vec<u64>,
}

impl LengthProfile {
    /// The bitset of the types realized by words of length `n ≥ 1`.
    fn set(&self, n: usize) -> &[u64] {
        assert!(n >= 1, "words have length at least 1");
        let recorded = self.bits.len() / self.words;
        // Beyond the recorded prefix, S_n = S_{preperiod + ((n - preperiod) mod period)}.
        let i = if n <= recorded {
            n - 1
        } else {
            (self.preperiod - 1) + (n - self.preperiod) % self.period
        };
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    /// The types realized by words of length `n ≥ 1`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn types_of_length(&self, n: usize) -> impl Iterator<Item = TypeId> + '_ {
        members(self.set(n)).map(TypeId)
    }

    /// All types realized by words of length `≥ n`, ascending: the union over
    /// one full period starting at `max(n, preperiod)` plus the finitely many
    /// lengths in between.
    pub fn types_of_length_at_least(&self, n: usize) -> Vec<TypeId> {
        let n = n.max(1);
        let mut union = vec![0u64; self.words];
        let horizon = self.preperiod + self.period;
        for len in n..=horizon.max(n + self.period) {
            for (u, w) in union.iter_mut().zip(self.set(len)) {
                *u |= w;
            }
        }
        members(&union).map(TypeId).collect()
    }
}

/// The finite semigroup of transfer relations of a problem.
#[derive(Clone, Debug)]
pub struct TypeSemigroup {
    system: TransferSystem,
    /// The elements, their ids' table and their witnesses.
    found: Enumeration,
    /// `letter_types[a]`: the type of the one-letter word `a`.
    letter_types: Vec<TypeId>,
    /// `letter_step[t · |Σ_in| + a]` = type of `witness(t) · a`.
    letter_step: Vec<TypeId>,
    profile: LengthProfile,
}

/// The shortest witness of every type, end to end.
#[derive(Clone, Debug, Default)]
struct Witnesses {
    letters: Vec<InLabel>,
    /// `ends[t]`: where the witness of type `t` ends in `letters`.
    ends: Vec<usize>,
}

impl Witnesses {
    /// The range of `letters` that holds the witness of `t`.
    fn range(&self, t: TypeId) -> std::ops::Range<usize> {
        let start = t.index().checked_sub(1).map_or(0, |p| self.ends[p]);
        start..self.ends[t.index()]
    }

    /// Appends the witness of the next type: the witness of `prefix` (or the
    /// empty word), then `a`.
    fn push(&mut self, prefix: Option<TypeId>, a: InLabel) {
        let prefix = prefix.map_or(0..0, |t| self.range(t));
        self.letters.extend_from_within(prefix);
        self.letters.push(a);
        self.ends.push(self.letters.len());
    }
}

/// An open-addressed hash table of ids `0..len`, keyed by word slices the
/// caller already stores (the packed words of the semigroup's relations,
/// [`OutRelation::words`], or the length profile's bitsets): each key is
/// stored once, and a probe compares words in place. Linear probing, at most
/// half full. The hash is a fast unkeyed one, and its keys derive from the
/// problem, which a server's client supplies. Colliding keys would make a
/// probe cost up to one comparison per stored key, so a lookup is bounded by
/// the number of keys (for types, the type budget); and the keys are the
/// closure of the letter relations under the join, or the sets of types the
/// length profile walks through, which are hard to steer into collisions
/// through the choice of a problem.
#[derive(Clone, Debug)]
struct TypeIndex {
    /// An id, or [`TypeIndex::EMPTY`]; the length is a power of two.
    slots: Vec<usize>,
}

impl TypeIndex {
    const EMPTY: usize = usize::MAX;

    fn new() -> Self {
        TypeIndex {
            slots: vec![Self::EMPTY; 16],
        }
    }

    /// The home slot of a key: FxHash over the words, whose high bits pick
    /// the slot.
    fn home(&self, words: &[u64]) -> usize {
        let hash = words.iter().fold(0u64, |h, &w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
        });
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The id whose key (`key(id)`) is `words`, or the empty slot where it
    /// would go.
    fn find<'k>(
        &self,
        words: &[u64],
        key: impl Fn(usize) -> &'k [u64],
    ) -> std::result::Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(words);
        loop {
            match self.slots[slot] {
                Self::EMPTY => return Err(slot),
                // Word by word: a key is one word or a few, for which a
                // slice `==` (a `memcmp` call) costs more than the loop.
                id if key(id).iter().zip(words).all(|(k, w)| k == w) => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Records id `len - 1` in `slot`, an empty slot that [`Self::find`]
    /// returned for its key. Every id below `len` is in the table.
    fn insert<'k>(&mut self, slot: usize, len: usize, key: impl Fn(usize) -> &'k [u64]) {
        self.slots[slot] = len - 1;
        if 2 * len > self.slots.len() {
            self.slots = vec![Self::EMPTY; 2 * self.slots.len()];
            for id in 0..len {
                let slot = self.find(key(id), &key).expect_err("keys are distinct");
                self.slots[slot] = id;
            }
        }
    }
}

/// The elements found so far by [`TypeSemigroup::compute`]: their relations'
/// packed words end to end in one arena, `words` per type, the table that
/// finds a type by its words, and the witnesses.
#[derive(Clone, Debug)]
struct Enumeration {
    dim: usize,
    budget: usize,
    /// Words per relation ([`OutRelation::words`]).
    words: usize,
    relations: Vec<u64>,
    index: TypeIndex,
    witnesses: Witnesses,
}

/// The words of relation `id` in an arena of `words` words per relation.
fn arena_words(relations: &[u64], words: usize, id: usize) -> &[u64] {
    &relations[id * words..(id + 1) * words]
}

impl Enumeration {
    /// The number of types found.
    fn len(&self) -> usize {
        self.witnesses.ends.len()
    }

    /// The relation of type `id`, borrowed from the arena.
    fn relation(&self, id: usize) -> OutRelation<&[u64]> {
        OutRelation::from_words(self.dim, arena_words(&self.relations, self.words, id))
    }

    /// The type of the relation with words `words`, found by the word `w · a`
    /// with `w` the witness of `prefix` (or the empty word). A new type
    /// appends its words to the arena and that word as its witness; a known
    /// one costs one probe.
    fn intern(&mut self, words: &[u64], prefix: Option<TypeId>, a: InLabel) -> Result<TypeId> {
        let (relations, w) = (&self.relations, self.words);
        let slot = match self.index.find(words, |id| arena_words(relations, w, id)) {
            Ok(id) => return Ok(TypeId(id)),
            Err(slot) => slot,
        };
        if self.len() >= self.budget {
            return Err(SemigroupError::TooManyTypes {
                budget: self.budget,
            });
        }
        self.relations.extend_from_slice(words);
        self.witnesses.push(prefix, a);
        let (relations, len) = (&self.relations, self.len());
        self.index
            .insert(slot, len, |id| arena_words(relations, w, id));
        Ok(TypeId(len - 1))
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

/// The number of types a [`SemigroupBuilder`] has room for before its
/// buffers grow.
const RESERVED_TYPES: usize = 16;

/// A type-semigroup enumeration that a [`WorkMeter`] can stop between two
/// types and a later [`SemigroupBuilder::build`] continues, so work done
/// before the stop is never done again; [`SemigroupBuilder::finish`] then
/// yields the semigroup.
pub struct SemigroupBuilder {
    system: TransferSystem,
    found: Enumeration,
    letter_types: Vec<TypeId>,
    /// Each letter's diagonal as the column mask of its step
    /// ([`OutRelation::diagonal_columns`]), `mask_words` words each.
    masks: Vec<u64>,
    mask_words: usize,
    /// The successors of the types walked so far, a row of `|Σ_in|` each.
    letter_step: Vec<TypeId>,
    /// Reused buffers: `R(w)·E` and one masked relation's words.
    then_edge: OutRelation,
    next: Vec<u64>,
    /// The length profile, once the walk is done and it is computed.
    profile: Option<LengthProfile>,
}

impl SemigroupBuilder {
    /// Starts the enumeration of `system`'s semigroup with the letters'
    /// types; `budget` caps the number of elements.
    ///
    /// # Errors
    ///
    /// Returns [`SemigroupError::TooManyTypes`] if the letters alone exceed
    /// the budget.
    pub fn new(system: TransferSystem, budget: usize) -> Result<Self> {
        // Room for the first `RESERVED_TYPES` types, so a small semigroup
        // grows no buffer while it is walked.
        let (words, letters) = (system.edge_relation().words().len(), system.num_letters());
        let mut found = Enumeration {
            dim: system.dim(),
            budget,
            words,
            relations: Vec::with_capacity(RESERVED_TYPES * words),
            index: TypeIndex::new(),
            witnesses: Witnesses {
                letters: Vec::with_capacity(4 * RESERVED_TYPES),
                ends: Vec::with_capacity(RESERVED_TYPES),
            },
        };
        let mut letter_types = Vec::with_capacity(system.num_letters());
        let mut masks = Vec::new();
        for a in (0..system.num_letters()).map(InLabel::from_index) {
            let rel = system.letter_relation(a)?;
            letter_types.push(found.intern(rel.words(), None, a)?);
            masks.extend(rel.diagonal_columns());
        }
        let found_dim = found.dim;
        Ok(SemigroupBuilder {
            mask_words: masks.len().checked_div(letter_types.len()).unwrap_or(1),
            system,
            found,
            letter_types,
            masks,
            letter_step: Vec::with_capacity(RESERVED_TYPES * letters),
            then_edge: OutRelation::empty(found_dim),
            next: Vec::with_capacity(words),
            profile: None,
        })
    }

    /// Finishes the enumeration and computes the length profile, charging
    /// `meter` per type walked its table product and, per letter, its mask,
    /// intern probe and letter-table entry (`Self::step_units`); and per
    /// length-profile step its words and letter successors.
    ///
    /// # Errors
    ///
    /// [`SemigroupError::TooManyTypes`] if the budget is exceeded and
    /// [`SemigroupError::WorkCapReached`] if the meter's stage cap is. The
    /// builder stays usable: the types walked stay walked, and a profile
    /// cut short is computed again by the next call.
    pub fn build(&mut self, meter: &mut WorkMeter) -> Result<()> {
        self.walk(meter)?;
        if self.profile.is_none() {
            self.profile = Some(TypeSemigroup::compute_profile(
                &self.letter_types,
                &self.letter_step,
                self.found.len(),
                meter,
            )?);
        }
        Ok(())
    }

    /// The semigroup a finished [`SemigroupBuilder::build`] enumerated.
    ///
    /// # Panics
    ///
    /// If no call to [`SemigroupBuilder::build`] has finished.
    pub fn finish(self) -> TypeSemigroup {
        TypeSemigroup {
            system: self.system,
            found: self.found,
            letter_types: self.letter_types,
            letter_step: self.letter_step,
            profile: self.profile.expect("a finished build"),
        }
    }

    /// The work units of walking one type on `dim` labels, `words` words
    /// per relation and `letters` letters: a unit per lookup of the table
    /// product `R(w)·E` (`⌈β/8⌉` per row), and per letter four for its
    /// column mask, intern probe and letter-table entry and two per relation
    /// word hashed and compared.
    fn step_units(dim: usize, words: usize, letters: usize) -> u64 {
        (dim.div_ceil(8) * dim + letters * (4 + 2 * words)) as u64
    }

    /// BFS by appending single letters: every element of the generated
    /// semigroup is reachable this way, and BFS order yields shortest
    /// witnesses. Types get their ids in discovery order, so the queue is
    /// the id range itself, and the types walked are those with a row in
    /// the letter table. One table product `R(w)·E` per type, then one
    /// column mask per letter (see the module documentation). A type is
    /// charged before it is walked, and a type whose walk fails leaves no
    /// row.
    fn walk(&mut self, meter: &mut WorkMeter) -> Result<()> {
        let letters = self.letter_types.len();
        let step_units = Self::step_units(self.found.dim, self.found.words, letters);
        let mut t = self.letter_step.len().checked_div(letters).unwrap_or(0);
        while t < self.found.len() {
            meter.charge(step_units)?;
            self.system
                .then_edge()
                .product_into(&self.found.relation(t), &mut self.then_edge)?;
            for (a, mask) in self.masks.chunks_exact(self.mask_words).enumerate() {
                self.then_edge.mask_columns_into(mask, &mut self.next);
                match self
                    .found
                    .intern(&self.next, Some(TypeId(t)), InLabel::from_index(a))
                {
                    Ok(id) => self.letter_step.push(id),
                    Err(e) => {
                        self.letter_step.truncate(t * letters);
                        return Err(e);
                    }
                }
            }
            t += 1;
        }
        Ok(())
    }
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
        Self::with_system(system.clone(), budget)
    }

    /// As [`Self::compute`], keeping `system` instead of a copy of it.
    ///
    /// # Errors
    ///
    /// Returns [`SemigroupError::TooManyTypes`] if the budget is exceeded.
    pub fn with_system(system: TransferSystem, budget: usize) -> Result<Self> {
        let mut builder = SemigroupBuilder::new(system, budget)?;
        builder.build(&mut WorkMeter::unlimited())?;
        Ok(builder.finish())
    }

    /// The length profile, with each `S_n` a bitset over the `types` type
    /// ids: `S_1` holds the letters' types and
    /// `S_{n+1} = { step(t, a) : t ∈ S_n }`. Each step charges `meter` its
    /// words and letter successors.
    fn compute_profile(
        letter_types: &[TypeId],
        letter_step: &[TypeId],
        types: usize,
        meter: &mut WorkMeter,
    ) -> Result<LengthProfile> {
        let letters = letter_types.len();
        let words = types.div_ceil(64).max(1);
        let mut bits = vec![0u64; words];
        for t in letter_types {
            bits[t.index() / 64] |= 1 << (t.index() % 64);
        }
        /// Set `i` of the recorded sets.
        fn set(bits: &[u64], words: usize, i: usize) -> &[u64] {
            &bits[i * words..(i + 1) * words]
        }
        let mut index = TypeIndex::new();
        let slot = index
            .find(&bits, |i| set(&bits, words, i))
            .expect_err("the table starts empty");
        index.insert(slot, 1, |i| set(&bits, words, i));
        loop {
            // Append S_{n+1} after S_n, the last recorded set.
            let recorded = bits.len() / words;
            bits.resize((recorded + 1) * words, 0);
            let (done, next) = bits.split_at_mut(recorded * words);
            let mut successors = 0;
            for t in members(&done[(recorded - 1) * words..]) {
                for u in &letter_step[t * letters..(t + 1) * letters] {
                    next[u.index() / 64] |= 1 << (u.index() % 64);
                }
                successors += letters;
            }
            meter.charge((words + successors) as u64)?;
            let (done, next) = bits.split_at(recorded * words);
            match index.find(next, |i| set(done, words, i)) {
                Ok(first) => {
                    bits.truncate(recorded * words);
                    return Ok(LengthProfile {
                        preperiod: first + 1,
                        period: recorded - first,
                        words,
                        bits,
                    });
                }
                Err(slot) => index.insert(slot, recorded + 1, |i| set(&bits, words, i)),
            }
        }
    }

    /// The transfer system the semigroup was computed from.
    pub fn system(&self) -> &TransferSystem {
        &self.system
    }

    /// Number of distinct types.
    pub fn len(&self) -> usize {
        self.found.len()
    }

    /// The bytes the semigroup's buffers hold, its transfer system's
    /// included ([`TransferSystem::resident_bytes`]): the relation arena,
    /// the type index, the witnesses, the letter tables and the length
    /// profile. What a cached classification keeps alive through it.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let found = &self.found;
        self.system.resident_bytes()
            + size_of_val(found.relations.as_slice())
            + size_of_val(found.index.slots.as_slice())
            + size_of_val(found.witnesses.letters.as_slice())
            + size_of_val(found.witnesses.ends.as_slice())
            + size_of_val(self.letter_types.as_slice())
            + size_of_val(self.letter_step.as_slice())
            + size_of_val(self.profile.bits.as_slice())
    }

    /// Returns `true` if the semigroup has no elements (empty input alphabet —
    /// cannot happen for well-formed problems).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The transfer relation of a type, borrowed from the semigroup's arena.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn relation(&self, id: TypeId) -> OutRelation<&[u64]> {
        assert!(id.index() < self.len(), "type id out of range");
        self.found.relation(id.index())
    }

    /// A shortest word whose transfer relation is the given type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn witness(&self, id: TypeId) -> &[InLabel] {
        &self.found.witnesses.letters[self.found.witnesses.range(id)]
    }

    /// All types, in enumeration order.
    pub fn iter(&self) -> impl Iterator<Item = TypeId> + '_ {
        (0..self.len()).map(TypeId)
    }

    /// Looks up the type of a relation, if it belongs to the semigroup.
    pub fn id_of<W: AsRef<[u64]>>(&self, relation: &OutRelation<W>) -> Option<TypeId> {
        if relation.dim() != self.system.dim() {
            return None;
        }
        let (relations, w) = (&self.found.relations, self.found.words);
        let found = self
            .found
            .index
            .find(relation.words(), |id| arena_words(relations, w, id));
        found.ok().map(TypeId)
    }

    /// The type of a non-empty word.
    ///
    /// # Errors
    ///
    /// Returns an error for empty words or unknown labels.
    pub fn type_of_word(&self, word: &[InLabel]) -> Result<TypeId> {
        let (&first, rest) = word.split_first().ok_or(SemigroupError::EmptyWord)?;
        let unknown = |a: InLabel| SemigroupError::UnknownInputLabel {
            index: a.index(),
            alphabet_len: self.letter_types.len(),
        };
        let mut t = *self.letter_types.get(first.index()).ok_or(unknown(first))?;
        for &a in rest {
            t = *self.steps(t).get(a.index()).ok_or(unknown(a))?;
        }
        Ok(t)
    }

    /// The type obtained by appending letter `a` to a word of type `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` or `a` is out of range.
    pub fn step(&self, t: TypeId, a: InLabel) -> TypeId {
        self.steps(t)[a.index()]
    }

    /// The types obtained by appending each letter, in letter order, to a
    /// word of type `t`: row `t` of the type automaton.
    fn steps(&self, t: TypeId) -> &[TypeId] {
        let letters = self.letter_types.len();
        &self.letter_step[t.index() * letters..(t.index() + 1) * letters]
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
            .join(&self.relation(left), &self.relation(right))?;
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
        let rel = self.system.power(&self.relation(t), k)?;
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
    use std::collections::{BTreeSet, HashMap};

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

    /// The length profile the bitset walk replaced, kept as its oracle: the
    /// sets as `BTreeSet`s, the first repeat found in a `HashMap` keyed by
    /// them.
    #[derive(Debug, PartialEq, Eq)]
    struct OldProfile {
        preperiod: usize,
        period: usize,
        /// `sets[i]`: the types of the words of length `i + 1`.
        sets: Vec<BTreeSet<TypeId>>,
    }

    impl OldProfile {
        fn types_of_length(&self, n: usize) -> &BTreeSet<TypeId> {
            if n <= self.sets.len() {
                &self.sets[n - 1]
            } else {
                &self.sets[(self.preperiod - 1) + (n - self.preperiod) % self.period]
            }
        }

        fn types_of_length_at_least(&self, n: usize) -> BTreeSet<TypeId> {
            let n = n.max(1);
            let horizon = self.preperiod + self.period;
            (n..=horizon.max(n + self.period))
                .flat_map(|len| self.types_of_length(len).iter().copied())
                .collect()
        }
    }

    /// What a semigroup computation fixes: its elements in id order, their
    /// witnesses, the letter table (a row per type) and the length profile.
    type Enumerated = (
        Vec<OutRelation>,
        Vec<Vec<InLabel>>,
        Vec<Vec<TypeId>>,
        OldProfile,
    );

    /// [`Enumerated`] read off a semigroup through its accessors.
    fn enumerated(sg: &TypeSemigroup) -> Enumerated {
        let profile = sg.length_profile();
        let recorded = profile.preperiod + profile.period - 1;
        (
            sg.iter()
                .map(|t| sg.relation(t).to_owned_relation())
                .collect(),
            sg.iter().map(|t| sg.witness(t).to_vec()).collect(),
            sg.iter().map(|t| sg.steps(t).to_vec()).collect(),
            OldProfile {
                preperiod: profile.preperiod,
                period: profile.period,
                sets: (1..=recorded)
                    .map(|n| profile.types_of_length(n).collect())
                    .collect(),
            },
        )
    }

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
        let profile = OldProfile {
            preperiod: first + 1,
            period: sets.len() - first,
            sets,
        };
        Ok((elements, witness, letter_step, profile))
    }

    /// Asserts that `compute` enumerates what the reference does, and that
    /// the profile answers every length query as the reference's does;
    /// returns the number of types (0 if both exceed the budget).
    fn assert_matches_reference(problem: &NormalizedLcl, budget: usize) -> usize {
        let system = TransferSystem::new(problem);
        let name = problem.name();
        let (sg, want) = match (
            TypeSemigroup::compute(&system, budget),
            reference(&system, budget),
        ) {
            (Ok(sg), Ok(want)) => {
                assert!(
                    enumerated(&sg) == want,
                    "{name}: enumeration differs from the reference"
                );
                (sg, want)
            }
            (Err(got), Err(want)) => {
                assert_eq!(got, want, "{name}");
                return 0;
            }
            (got, want) => panic!("{name}: {:?} vs {:?}", got.err(), want.err()),
        };
        for (id, rel) in want.0.iter().enumerate() {
            assert_eq!(sg.id_of(rel), Some(TypeId(id)), "{name}: lookup");
            let witness = sg.witness(TypeId(id));
            assert_eq!(sg.type_of_word(witness), Ok(TypeId(id)), "{name}: witness");
        }
        for a in (0..system.num_letters()).map(InLabel::from_index) {
            let letter = sg.id_of(system.letter_relation(a).unwrap());
            assert_eq!(sg.type_of_word(&[a]).ok(), letter, "{name}: letter {a:?}");
        }
        let profile = sg.length_profile();
        for n in 1..=2 * (profile.preperiod + profile.period) + 3 {
            assert!(
                profile
                    .types_of_length(n)
                    .eq(want.3.types_of_length(n).iter().copied()),
                "{name}: length {n}"
            );
            assert!(
                profile
                    .types_of_length_at_least(n)
                    .into_iter()
                    .eq(want.3.types_of_length_at_least(n)),
                "{name}: length at least {n}"
            );
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
        // Both sides of the 16-bit row stride, and rows of more than one
        // word.
        problems.extend([17, 31, 33, 70].map(lcl_problems::coloring));
        problems.extend([17, 70].map(lcl_problems::unconstrained));
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
        // Both sides of the 8- and 16-bit row strides, and rows of more
        // than one word.
        problems.extend([3, 8, 9, 16, 17, 70].map(lcl_problems::coloring));
        for problem in &problems {
            let name = problem.name();
            let sg = TypeSemigroup::compute(&TransferSystem::new(problem), 5_000).unwrap();
            // The table starts at 16 slots and doubles past half full.
            for t in sg.iter() {
                assert_eq!(sg.id_of(&sg.relation(t)), Some(t), "{name}");
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
                let mut flipped = sg.relation(t).to_owned_relation();
                flipped.set(i, j, !flipped.get(i, j));
                probes.push(flipped);
            }
            for probe in &probes {
                let scan = sg.iter().find(|&t| sg.relation(t) == *probe);
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
                sg.relation(t),
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
        assert!(profile.types_of_length(1).eq([odd]));
        assert!(profile.types_of_length(2).eq([even]));
        assert!(profile.types_of_length(101).eq([odd]));
        assert!(profile.types_of_length(100).eq([even]));
        assert_eq!(profile.types_of_length_at_least(5), [odd, even]);
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
