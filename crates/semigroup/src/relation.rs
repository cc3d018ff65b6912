//! Boolean relations over the output alphabet, stored as packed bit matrices.
//!
//! # Layout
//!
//! A relation on `n` labels keeps each row in a slot of `stride` bits: the
//! narrowest of 8, 16, 32 or 64 bits that holds `n`, or whole words (a
//! multiple of 64 bits) beyond 64 labels. Entry `(i, j)` is bit
//! `i·stride + j` of the words read end to end (bit `k` is bit `k % 64` of
//! word `k / 64`), so a slot never straddles two words. An 8-label relation
//! is one word, a 16-label one four and a 64-label one sixty-four. The bits
//! of a slot past `n`, and the slots of rows past `n`, are always zero, so
//! relations of one dimension are equal iff their words are, and the words
//! serve as hash keys as they are.
//!
//! Whole-word operations (union, intersection, emptiness, counting, the
//! cycle check of [`crate::TransferSystem::closes_cycle`]) read the packed
//! words directly. A product by a fixed right operand is a table lookup per
//! byte of each row (`ProductTable`); a product by an arbitrary operand
//! folds the operand's rows picked by each row's set bits.
//!
//! An `OutRelation` owns its words; `OutRelation<&[u64]>` is the same
//! relation with words borrowed from an arena (the semigroup's elements,
//! the connection relations), with the same read-only methods.

use crate::{Result, SemigroupError};
use lcl_problem::OutLabel;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A boolean relation over `Σ_out × Σ_out`, stored as packed rows (see the
/// module documentation for the layout).
///
/// `OutRelation` is the carrier type of the transfer-relation semigroup: for
/// a word `w`, `R(w)[p][q]` says whether some valid labeling of the directed
/// path with inputs `w` starts with output `p` and ends with output `q`.
///
/// The composition used throughout the crate is *boolean matrix
/// multiplication* ([`OutRelation::compose`]); the semigroup operation on
/// transfer relations interleaves the problem's edge relation between the two
/// operands and lives in [`crate::TransferSystem::join`].
///
/// The words are owned (`W = Vec<u64>`) or borrowed from an arena
/// (`W = &[u64]`, see [`OutRelation::from_words`]); equality and hashing
/// look at the dimension and the words only, whichever holds them.
#[derive(Clone, Copy, Debug)]
pub struct OutRelation<W = Vec<u64>> {
    n: usize,
    stride: usize,
    bits: W,
}

/// The bits of each row's slot on `n` labels (see the module
/// documentation).
fn stride_of(n: usize) -> usize {
    match n {
        0..=8 => 8,
        9..=16 => 16,
        17..=32 => 32,
        33..=64 => 64,
        _ => n.div_ceil(64) * 64,
    }
}

/// The number of words of a relation on `n` labels.
fn words_of(n: usize) -> usize {
    (n * stride_of(n)).div_ceil(64)
}

/// The transpose of an 8×8 bit matrix whose entry `(r, c)` is bit `8r + c`:
/// three rounds of swapping the off-diagonal quarters of 2×2, 4×4 and 8×8
/// blocks (Warren, *Hacker's Delight*, §7-3).
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

impl OutRelation {
    /// Creates the empty (all-false) relation on `n` labels.
    pub fn empty(n: usize) -> Self {
        OutRelation {
            n,
            stride: stride_of(n),
            bits: vec![0; words_of(n)],
        }
    }

    /// Creates the identity relation on `n` labels.
    pub fn identity(n: usize) -> Self {
        Self::diagonal(n, |_| true)
    }

    /// Creates the full (all-true) relation on `n` labels.
    pub fn full(n: usize) -> Self {
        Self::from_fn(n, |_, _| true)
    }

    /// Creates a relation from a predicate.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut r = Self::empty(n);
        for i in 0..n {
            for j in (0..n).filter(|&j| f(i, j)) {
                let bit = i * r.stride + j;
                r.bits[bit / 64] |= 1 << (bit % 64);
            }
        }
        r
    }

    /// Creates a diagonal relation: `(i, i)` is related iff `diag(i)`.
    pub fn diagonal(n: usize, mut diag: impl FnMut(usize) -> bool) -> Self {
        let mut r = Self::empty(n);
        for i in 0..n {
            if diag(i) {
                r.set(i, i, true);
            }
        }
        r
    }

    /// Sets whether `(i, j)` is in the relation.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: bool) {
        assert!(i < self.n && j < self.n, "relation index out of range");
        let bit = i * self.stride + j;
        if value {
            self.bits[bit / 64] |= 1 << (bit % 64);
        } else {
            self.bits[bit / 64] &= !(1 << (bit % 64));
        }
    }

    /// Makes `self` the empty relation on `n` labels, keeping its storage.
    pub(crate) fn clear_to(&mut self, n: usize) {
        (self.n, self.stride) = (n, stride_of(n));
        self.bits.clear();
        self.bits.resize(words_of(n), 0);
    }

    /// `k`-fold iterated composition of `self` under the associative operation
    /// `op` (for `k ≥ 1`). The operation does not need a neutral element, so
    /// this works both for plain boolean matrix products and for the
    /// edge-interleaved join of [`crate::TransferSystem`].
    ///
    /// # Errors
    ///
    /// Returns [`SemigroupError::EmptyWord`] if `k == 0`, or propagates errors
    /// from `op`.
    pub fn power_with(
        &self,
        k: usize,
        op: impl Fn(&OutRelation, &OutRelation) -> Result<OutRelation>,
    ) -> Result<OutRelation> {
        if k == 0 {
            return Err(SemigroupError::EmptyWord);
        }
        let mut acc: Option<OutRelation> = None;
        let mut base = self.clone();
        let mut k = k;
        while k > 0 {
            if k & 1 == 1 {
                acc = Some(match acc {
                    None => base.clone(),
                    Some(a) => op(&a, &base)?,
                });
            }
            k >>= 1;
            if k > 0 {
                base = op(&base, &base)?;
            }
        }
        Ok(acc.expect("k >= 1 guarantees at least one factor"))
    }
}

impl<W: AsRef<[u64]>> OutRelation<W> {
    /// The relation on `n` labels whose packed words are `words`.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not as long as the layout of `n` labels needs.
    pub fn from_words(n: usize, words: W) -> Self {
        assert_eq!(words.as_ref().len(), words_of(n), "the words of n labels");
        OutRelation {
            n,
            stride: stride_of(n),
            bits: words,
        }
    }

    /// Dimension of the relation (the size of `Σ_out`).
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The relation with its words copied into storage of its own.
    pub fn to_owned_relation(&self) -> OutRelation {
        OutRelation {
            n: self.n,
            stride: self.stride,
            bits: self.bits.as_ref().to_vec(),
        }
    }

    /// The words, owned or borrowed as the relation holds them: a view's
    /// words keep the lifetime of the arena they are borrowed from.
    pub fn into_words(self) -> W {
        self.bits
    }

    /// The packed words, in the layout of the module documentation.
    /// Relations of one dimension are equal iff their words are.
    pub fn words(&self) -> &[u64] {
        self.bits.as_ref()
    }

    /// Returns whether `(i, j)` is in the relation.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        assert!(i < self.n && j < self.n, "relation index out of range");
        let bit = i * self.stride + j;
        (self.bits.as_ref()[bit / 64] >> (bit % 64)) & 1 == 1
    }

    /// Returns whether `(p, q)` is in the relation, using typed labels.
    pub fn contains(&self, p: OutLabel, q: OutLabel) -> bool {
        self.get(p.index(), q.index())
    }

    /// Row `i` as a mask: bit `j` is `(i, j)`. The row accessor of
    /// relations on at most 64 labels.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the relation has more than 64
    /// labels.
    #[inline]
    pub fn row_mask(&self, i: usize) -> u64 {
        assert!(i < self.n && self.stride <= 64, "a row of one word");
        let bit = i * self.stride;
        let word = self.bits.as_ref()[bit / 64] >> (bit % 64);
        if self.stride == 64 {
            word
        } else {
            word & ((1 << self.stride) - 1)
        }
    }

    /// Byte `c` of row `i`: columns `8c .. 8c + 8`.
    #[inline]
    fn byte(&self, i: usize, c: usize) -> u64 {
        let bit = i * self.stride + 8 * c;
        (self.bits.as_ref()[bit / 64] >> (bit % 64)) & 0xff
    }

    /// Boolean matrix product `self · other`: each output row is the union
    /// of the rows of `other` picked by the set bits of the matching row of
    /// `self`.
    ///
    /// # Errors
    ///
    /// Returns an error if the dimensions differ.
    pub fn compose<V: AsRef<[u64]>>(&self, other: &OutRelation<V>) -> Result<OutRelation> {
        let mut result = OutRelation::empty(0);
        self.compose_into(other, &mut result)?;
        Ok(result)
    }

    /// [`Self::compose`] into `out`, reusing its storage. A row of at most
    /// 64 labels is one fold over its set bits; a wider row ORs whole words.
    ///
    /// # Errors
    ///
    /// Returns an error if the dimensions differ.
    pub fn compose_into<V: AsRef<[u64]>>(
        &self,
        other: &OutRelation<V>,
        out: &mut OutRelation,
    ) -> Result<()> {
        check_dims(self.n, other.n)?;
        out.clear_to(self.n);
        if self.stride <= 64 {
            self.map_rows_into(out, |row| bits(row).fold(0, |u, k| u | other.row_mask(k)));
            return Ok(());
        }
        let (w, words) = (self.stride / 64, other.bits.as_ref());
        for (out_row, row) in out
            .bits
            .chunks_exact_mut(w)
            .zip(self.words().chunks_exact(w))
        {
            for (base, &word) in (0..).step_by(64).zip(row) {
                for k in bits(word) {
                    let k = base + k;
                    for (o, x) in out_row.iter_mut().zip(&words[k * w..(k + 1) * w]) {
                        *o |= *x;
                    }
                }
            }
        }
        Ok(())
    }

    /// Writes into `out`, cleared to this relation's dimension of at most
    /// 64 labels, the relation whose row `i` is `f` of row `i`, one word
    /// of rows at a time; a zero row stays zero.
    #[inline]
    fn map_rows_into(&self, out: &mut OutRelation, f: impl Fn(u64) -> u64) {
        let stride = self.stride;
        let row_bits = u64::MAX >> (64 - stride);
        for (&word, o) in self.words().iter().zip(out.bits.iter_mut()) {
            let (mut rest, mut shift) = (word, 0);
            while rest != 0 {
                let row = rest & row_bits;
                if row != 0 {
                    *o |= f(row) << shift;
                }
                shift += stride;
                rest = rest.checked_shr(stride as u32).unwrap_or(0);
            }
        }
    }

    /// Writes `selfᵀ` into `out`, reusing its storage: 8×8 blocks of bits
    /// are gathered a byte per row, transposed in one word and scattered to
    /// the mirrored block. On at most 8 labels the relation is one such
    /// block.
    pub(crate) fn transpose_into(&self, out: &mut OutRelation) {
        out.clear_to(self.n);
        if self.stride == 8 {
            if let [word] = *self.words() {
                out.bits[0] = transpose8(word);
            }
            return;
        }
        let blocks = self.n.div_ceil(8);
        for bi in 0..blocks {
            let rows = 8 * bi..(8 * bi + 8).min(self.n);
            for bc in 0..blocks {
                let block = rows
                    .clone()
                    .fold(0, |block, i| block | self.byte(i, bc) << (8 * (i - 8 * bi)));
                if block == 0 {
                    continue;
                }
                let block = transpose8(block);
                for i in 8 * bc..(8 * bc + 8).min(self.n) {
                    let bit = i * self.stride + 8 * bi;
                    out.bits[bit / 64] |= (block >> (8 * (i - 8 * bc)) & 0xff) << (bit % 64);
                }
            }
        }
    }

    /// The transposed relation.
    pub fn transpose(&self) -> OutRelation {
        let mut out = OutRelation::empty(0);
        self.transpose_into(&mut out);
        out
    }

    /// The words that keep, in every row, the columns of this relation's
    /// diagonal: the diagonal as a row, repeated in every slot of a word
    /// (one word) or, for rows of whole words, the row's words. Used by
    /// [`Self::mask_columns_into`].
    pub(crate) fn diagonal_columns(&self) -> Vec<u64> {
        let mut row = vec![0u64; (self.stride / 64).max(1)];
        for j in (0..self.n).filter(|&j| self.get(j, j)) {
            row[j / 64] |= 1 << (j % 64);
        }
        if self.stride < 64 {
            row[0] = (0..64).step_by(self.stride).fold(0, |w, s| w | row[0] << s);
        }
        row
    }

    /// The column-mask step: writes into `out` the words of `self · D`,
    /// where `D` is a diagonal relation and `columns` its
    /// [`Self::diagonal_columns`]. Right-multiplying by a diagonal keeps
    /// the columns it marks, so every word is ANDed with its mask word:
    /// one AND per word.
    pub(crate) fn mask_columns_into(&self, columns: &[u64], out: &mut Vec<u64>) {
        out.clear();
        if let [mask] = *columns {
            out.extend(self.words().iter().map(|w| w & mask));
            return;
        }
        out.extend(
            self.words()
                .iter()
                .zip(columns.iter().cycle())
                .map(|(w, m)| w & m),
        );
    }

    /// Element-wise union.
    ///
    /// # Errors
    ///
    /// Returns an error if the dimensions differ.
    pub fn union<V: AsRef<[u64]>>(&self, other: &OutRelation<V>) -> Result<OutRelation> {
        self.zip_words(other, |a, b| a | b)
    }

    /// Element-wise intersection.
    ///
    /// # Errors
    ///
    /// Returns an error if the dimensions differ.
    pub fn intersection<V: AsRef<[u64]>>(&self, other: &OutRelation<V>) -> Result<OutRelation> {
        self.zip_words(other, |a, b| a & b)
    }

    /// The relation whose words are `op` of the two relations' words.
    fn zip_words<V: AsRef<[u64]>>(
        &self,
        other: &OutRelation<V>,
        op: impl Fn(u64, u64) -> u64,
    ) -> Result<OutRelation> {
        check_dims(self.n, other.n)?;
        let bits = self.words().iter().zip(other.words());
        Ok(OutRelation::from_words(
            self.n,
            bits.map(|(&a, &b)| op(a, b)).collect(),
        ))
    }

    /// `true` if no pair is related.
    pub fn is_zero(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// `true` if some diagonal entry `(i, i)` is related (boolean trace).
    ///
    /// On a cycle with input word `x`, the problem has a valid labeling iff
    /// the boolean trace of `R(x)·E` is non-zero (see
    /// [`crate::TransferSystem::cycle_solvable`]).
    pub fn has_nonzero_diagonal(&self) -> bool {
        (0..self.n).any(|i| self.get(i, i))
    }

    /// Indices `q` such that `(p, q)` is related, for a fixed `p`.
    pub fn row(&self, p: usize) -> Vec<usize> {
        (0..self.n).filter(|&q| self.get(p, q)).collect()
    }

    /// Indices `p` such that `(p, q)` is related, for a fixed `q`.
    pub fn column(&self, q: usize) -> Vec<usize> {
        (0..self.n).filter(|&p| self.get(p, q)).collect()
    }

    /// Number of related pairs.
    pub fn count(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Fails unless the two dimensions agree.
fn check_dims(left: usize, right: usize) -> Result<()> {
    if left != right {
        return Err(SemigroupError::DimensionMismatch { left, right });
    }
    Ok(())
}

/// The set bits of a word, ascending.
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = (word != 0).then(|| word.trailing_zeros() as usize)?;
        word &= word - 1;
        Some(bit)
    })
}

impl<W: AsRef<[u64]>, V: AsRef<[u64]>> PartialEq<OutRelation<V>> for OutRelation<W> {
    fn eq(&self, other: &OutRelation<V>) -> bool {
        self.n == other.n && self.words() == other.words()
    }
}

impl<W: AsRef<[u64]>> Eq for OutRelation<W> {}

impl<W: AsRef<[u64]>> Hash for OutRelation<W> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.n.hash(state);
        self.words().hash(state);
    }
}

impl<W: AsRef<[u64]>> fmt::Display for OutRelation<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.n {
            for j in 0..self.n {
                write!(f, "{}", if self.get(i, j) { '1' } else { '0' })?;
            }
            if i + 1 < self.n {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// Right products `R · B` by one fixed relation `B`, by table lookups (the
/// "Four Russians" method of Arlazarov, Dinic, Kronrod and Faradzev).
///
/// Row `i` of `R · B` is the union of `B`'s rows picked by row `i` of `R`.
/// The table holds, for every byte-wide chunk `c` of columns and every byte
/// value `v`, the union of `B`'s rows `8c + k` over the set bits `k` of
/// `v`; a product row is then the union of `⌈n/8⌉` entries, one per byte
/// of the row. An entry is one word on at most 64 labels, and a row's
/// words beyond that. The last chunk has `2^(n − 8c)` entries, so a
/// relation on 3 labels has an 8-entry table.
#[derive(Clone, Debug)]
pub(crate) struct ProductTable {
    n: usize,
    /// Words per entry.
    entry: usize,
    table: Vec<u64>,
}

impl ProductTable {
    /// The table of right products by `b`. A chunk's entries double at
    /// each of its rows: the entries with bit `k` set are those below
    /// `2^k`, copied, with row `8c + k` added.
    pub(crate) fn new<W: AsRef<[u64]>>(b: &OutRelation<W>) -> Self {
        let n = b.n;
        let entry = (b.stride / 64).max(1);
        let chunks = n.div_ceil(8);
        let last = n.saturating_sub(8 * chunks.saturating_sub(1));
        let entries = chunks.saturating_sub(1) * 256 + if chunks == 0 { 0 } else { 1 << last };
        let mut table = Vec::with_capacity(entries * entry);
        for c in 0..chunks {
            let base = table.len();
            table.resize(base + entry, 0);
            for i in 8 * c..(8 * c + 8).min(n) {
                let upper = table.len();
                table.extend_from_within(base..upper);
                if b.stride <= 64 {
                    let row = b.row_mask(i);
                    table[upper..].iter_mut().for_each(|t| *t |= row);
                } else {
                    let row = &b.words()[i * entry..(i + 1) * entry];
                    for t in table[upper..].chunks_exact_mut(entry) {
                        t.iter_mut().zip(row).for_each(|(t, r)| *t |= r);
                    }
                }
            }
        }
        ProductTable { n, entry, table }
    }

    /// The bytes the table's buffer holds.
    pub(crate) fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.table.as_slice())
    }

    /// Writes `a · B` into `out`, reusing its storage: per row of `a`, one
    /// lookup per byte.
    ///
    /// # Errors
    ///
    /// Returns an error if the dimensions differ.
    pub(crate) fn product_into<W: AsRef<[u64]>>(
        &self,
        a: &OutRelation<W>,
        out: &mut OutRelation,
    ) -> Result<()> {
        check_dims(a.n, self.n)?;
        out.clear_to(self.n);
        let chunks = self.n.div_ceil(8);
        if a.stride <= 64 {
            a.map_rows_into(out, |row| {
                (0..chunks).fold(0, |u, c| {
                    u | self.table[c * 256 + (row >> (8 * c) & 0xff) as usize]
                })
            });
            return Ok(());
        }
        let w = self.entry;
        for (i, out_row) in out.bits.chunks_exact_mut(w).enumerate() {
            for c in 0..chunks {
                let v = a.byte(i, c) as usize;
                if v != 0 {
                    let entry = &self.table[(c * 256 + v) * w..][..w];
                    for (o, e) in out_row.iter_mut().zip(entry) {
                        *o |= e;
                    }
                }
            }
        }
        Ok(())
    }

    /// `a · B`.
    ///
    /// # Errors
    ///
    /// Returns an error if the dimensions differ.
    pub(crate) fn product<W: AsRef<[u64]>>(&self, a: &OutRelation<W>) -> Result<OutRelation> {
        let mut out = OutRelation::empty(0);
        self.product_into(a, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_empty() {
        let id = OutRelation::identity(3);
        assert!(id.get(0, 0) && id.get(2, 2));
        assert!(!id.get(0, 1));
        assert!(id.has_nonzero_diagonal());
        let e = OutRelation::empty(3);
        assert!(e.is_zero());
        assert!(!e.has_nonzero_diagonal());
        let f = OutRelation::full(3);
        assert_eq!(f.count(), 9);
    }

    #[test]
    fn compose_matches_manual_matmul() {
        // a = {(0,1)}, b = {(1,2)}: a∘b = {(0,2)}
        let a = OutRelation::from_fn(3, |i, j| i == 0 && j == 1);
        let b = OutRelation::from_fn(3, |i, j| i == 1 && j == 2);
        let c = a.compose(&b).unwrap();
        assert!(c.get(0, 2));
        assert_eq!(c.count(), 1);
        // identity is neutral
        let id = OutRelation::identity(3);
        assert_eq!(a.compose(&id).unwrap(), a);
        assert_eq!(id.compose(&a).unwrap(), a);
    }

    #[test]
    fn compose_dimension_mismatch() {
        let a = OutRelation::identity(2);
        let b = OutRelation::identity(3);
        assert!(matches!(
            a.compose(&b),
            Err(SemigroupError::DimensionMismatch { .. })
        ));
        assert!(a.union(&b).is_err());
        assert!(a.intersection(&b).is_err());
        assert!(ProductTable::new(&b).product(&a).is_err());
    }

    #[test]
    fn union_intersection_transpose() {
        let a = OutRelation::from_fn(2, |i, j| i == 0 && j == 1);
        let b = OutRelation::from_fn(2, |i, j| i == 1 && j == 0);
        let u = a.union(&b).unwrap();
        assert_eq!(u.count(), 2);
        let i = a.intersection(&b).unwrap();
        assert!(i.is_zero());
        assert_eq!(a.transpose(), b);
    }

    #[test]
    fn rows_columns_and_contains() {
        let a = OutRelation::from_fn(3, |i, j| j == (i + 1) % 3);
        assert_eq!(a.row(0), vec![1]);
        assert_eq!(a.column(0), vec![2]);
        assert_eq!(a.row_mask(2), 0b001);
        assert!(a.contains(OutLabel(2), OutLabel(0)));
        assert!(!a.contains(OutLabel(0), OutLabel(0)));
    }

    #[test]
    fn diagonal_constructor() {
        let d = OutRelation::diagonal(4, |i| i % 2 == 0);
        assert!(d.get(0, 0) && d.get(2, 2));
        assert!(!d.get(1, 1));
        assert_eq!(d.count(), 2);
    }

    #[test]
    fn display_renders_grid() {
        let id = OutRelation::identity(2);
        assert_eq!(id.to_string(), "10\n01");
    }

    #[test]
    fn power_with_boolean_matmul() {
        // successor relation on 4 elements; its cube maps 0 -> 3.
        let succ = OutRelation::from_fn(4, |i, j| j == i + 1);
        let op = |a: &OutRelation, b: &OutRelation| a.compose(b);
        let p3 = succ.power_with(3, op).unwrap();
        assert!(p3.get(0, 3));
        assert_eq!(p3.count(), 1);
        let p1 = succ.power_with(1, op).unwrap();
        assert_eq!(p1, succ);
        assert!(succ.power_with(0, op).is_err());
    }

    #[test]
    fn the_layout_packs_rows_at_the_narrowest_stride() {
        for (n, words) in [(0, 0), (1, 1), (8, 1), (9, 3), (16, 4), (17, 9), (32, 16)] {
            assert_eq!(OutRelation::empty(n).words().len(), words, "{n} labels");
        }
        for (n, words) in [(33, 33), (64, 64), (65, 130), (128, 256), (129, 387)] {
            assert_eq!(OutRelation::empty(n).words().len(), words, "{n} labels");
        }
        // (i, j) is bit i·stride + j.
        let r = OutRelation::from_fn(8, |i, j| (i, j) == (1, 2) || (i, j) == (7, 7));
        assert_eq!(r.words(), [1 << 10 | 1 << 63]);
        let r = OutRelation::from_fn(16, |i, j| (i, j) == (5, 9));
        assert_eq!(r.words(), [0, 1 << 25, 0, 0]);
        // Views compare and hash as their owners.
        let view = OutRelation::from_words(16, r.words());
        assert_eq!(view, r);
        assert_eq!(view.to_owned_relation(), r);
    }

    #[test]
    fn an_8x8_transpose_mirrors_every_bit() {
        for k in 0..64 {
            let (r, c) = (k / 8, k % 8);
            assert_eq!(transpose8(1 << k), 1 << (8 * c + r), "bit ({r}, {c})");
        }
    }

    /// A relation as its definition: `bools[i][j]` says whether `(i, j)`
    /// is related.
    type Bools = Vec<Vec<bool>>;

    fn bools<W: AsRef<[u64]>>(r: &OutRelation<W>) -> Bools {
        let n = r.dim();
        (0..n)
            .map(|i| (0..n).map(|j| r.get(i, j)).collect())
            .collect()
    }

    fn relation(b: &Bools) -> OutRelation {
        OutRelation::from_fn(b.len(), |i, j| b[i][j])
    }

    /// `a · b` by the definition: `(i, j)` iff some `k` has `(i, k)` and
    /// `(k, j)`.
    fn product(a: &Bools, b: &Bools) -> Bools {
        let n = a.len();
        (0..n)
            .map(|i| (0..n).map(|j| (0..n).any(|k| a[i][k] && b[k][j])).collect())
            .collect()
    }

    /// The dimensions of the kernel oracle: every one up to 17, both sides
    /// of the 32- and 64-bit strides, and rows of three words.
    const ORACLE_DIMS: [usize; 24] = [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33, 63, 64, 65, 130,
    ];

    /// Seeded relations of dimension `n` for the kernel oracle: empty,
    /// identity, full and four pseudo-random densities.
    fn oracle_samples(n: usize) -> Vec<Bools> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ n as u64;
        let mut random = |percent: u64| -> Bools {
            (0..n)
                .map(|_| {
                    (0..n)
                        .map(|_| {
                            state = state
                                .wrapping_mul(6_364_136_223_846_793_005)
                                .wrapping_add(1_442_695_040_888_963_407);
                            (state >> 33) % 100 < percent
                        })
                        .collect()
                })
                .collect()
        };
        let mut out = vec![
            vec![vec![false; n]; n],
            (0..n).map(|i| (0..n).map(|j| i == j).collect()).collect(),
            vec![vec![true; n]; n],
        ];
        out.extend([5, 30, 60, 95].map(&mut random));
        out
    }

    /// The transfer system of a problem on `n` outputs whose edge relation
    /// is `edge` (one input label, every output allowed).
    fn system_with_edges(edge: &Bools) -> crate::TransferSystem {
        let n = edge.len();
        let mut b = lcl_problem::NormalizedLcl::builder("oracle");
        b.input_labels(&["x"]);
        let names: Vec<String> = (0..n).map(|o| format!("o{o}")).collect();
        b.output_labels(&names);
        b.allow_all_node_pairs();
        for (p, row) in edge.iter().enumerate() {
            for (q, _) in row.iter().enumerate().filter(|(_, &e)| e) {
                b.allow_edge_idx(p as u16, q as u16);
            }
        }
        crate::TransferSystem::new(&b.build().unwrap())
    }

    #[test]
    fn kernels_agree_with_the_vec_of_bools_definition() {
        let mut checked = 0;
        // Reused buffers start at another dimension, so every kernel must
        // reset them to its own layout.
        let (mut out, mut scratch) = (OutRelation::full(40), OutRelation::identity(3));
        let mut words = Vec::new();
        for n in ORACLE_DIMS {
            let samples = oracle_samples(n);
            let relations: Vec<OutRelation> = samples.iter().map(relation).collect();
            for (a, ra) in samples.iter().zip(&relations) {
                assert_eq!(bools(ra), *a, "{n}: from_fn and get");
                let transposed: Bools = (0..n).map(|i| (0..n).map(|j| a[j][i]).collect()).collect();
                ra.transpose_into(&mut out);
                assert_eq!(bools(&out), transposed, "{n}: transpose");
                assert_eq!(
                    ra.is_zero(),
                    a.iter().flatten().all(|&x| !x),
                    "{n}: is_zero"
                );
                assert_eq!(ra.count(), a.iter().flatten().filter(|&&x| x).count());
                assert_eq!(ra.has_nonzero_diagonal(), (0..n).any(|i| a[i][i]));
                if n <= 64 {
                    for (i, row) in a.iter().enumerate() {
                        let mask = (0..n).filter(|&j| row[j]).fold(0, |m, j| m | 1 << j);
                        assert_eq!(ra.row_mask(i), mask, "{n}: row {i}");
                    }
                }
                // The column mask of a's diagonal keeps the columns it marks.
                let columns = ra.diagonal_columns();
                for (b, rb) in samples.iter().zip(&relations) {
                    let want = product(a, b);
                    assert_eq!(bools(&ra.compose(rb).unwrap()), want, "{n}: compose");
                    let view = OutRelation::from_words(n, rb.words());
                    ra.compose_into(&view, &mut out).unwrap();
                    assert_eq!(bools(&out), want, "{n}: compose_into");
                    ProductTable::new(rb).product_into(ra, &mut out).unwrap();
                    assert_eq!(bools(&out), want, "{n}: table product");
                    assert_eq!(out, ra.compose(rb).unwrap(), "{n}: equal words");
                    let or: Bools = (0..n)
                        .map(|i| (0..n).map(|j| a[i][j] || b[i][j]).collect())
                        .collect();
                    let and: Bools = (0..n)
                        .map(|i| (0..n).map(|j| a[i][j] && b[i][j]).collect())
                        .collect();
                    assert_eq!(bools(&ra.union(rb).unwrap()), or, "{n}: union");
                    assert_eq!(bools(&ra.intersection(rb).unwrap()), and, "{n}: meet");
                    rb.mask_columns_into(&columns, &mut words);
                    let masked = OutRelation::from_words(n, words.as_slice());
                    let want: Bools = (0..n)
                        .map(|i| (0..n).map(|j| b[i][j] && a[j][j]).collect())
                        .collect();
                    assert_eq!(bools(&masked), want, "{n}: column mask");
                    // Packed words are keys: equal iff the relations are.
                    assert_eq!(ra.words() == rb.words(), a == b, "{n}: keys");
                    checked += 1;
                }
                // Flipping any one bit changes the key.
                for (i, j) in [(0, 0), (n - 1, 0), (0, n - 1), (n / 2, n - 1)] {
                    let mut flipped = ra.clone();
                    flipped.set(i, j, !a[i][j]);
                    assert_ne!(flipped.words(), ra.words(), "{n}: flip ({i}, {j})");
                }
            }
            // The transfer system's kernels on each sample as its edge
            // relation: the cycle check, the connection E·R·E and R·E.
            for (e, re) in samples.iter().zip(&relations) {
                let system = system_with_edges(e);
                assert_eq!(*system.edge_relation(), *re);
                for (r, rr) in samples.iter().zip(&relations) {
                    let closes = (0..n).any(|p| (0..n).any(|q| r[p][q] && e[q][p]));
                    assert_eq!(system.closes_cycle(rr).unwrap(), closes, "{n}: cycle");
                    let connection = product(&product(e, r), e);
                    system
                        .connection_into(
                            &OutRelation::from_words(n, rr.words()),
                            &mut scratch,
                            &mut out,
                        )
                        .unwrap();
                    assert_eq!(bools(&out), connection, "{n}: connection");
                    let cycle = system.cycle_relation(rr).unwrap();
                    assert_eq!(bools(&cycle), product(r, e), "{n}: R·E");
                    assert_eq!(
                        system.closes_cycle(rr).unwrap(),
                        cycle.has_nonzero_diagonal()
                    );
                }
            }
        }
        assert_eq!(checked, ORACLE_DIMS.len() * 49);
    }

    #[test]
    fn large_dimension_bitsets() {
        // Exercise the multi-word-per-row path (dim > 64).
        let n = 70;
        let a = OutRelation::from_fn(n, |i, j| j == (i + 1) % n);
        let b = a.compose(&a).unwrap();
        assert!(b.get(0, 2));
        assert!(b.get(n - 1, 1));
        assert_eq!(b.count(), n);
    }
}
