//! Boolean relations over the output alphabet, stored as bitset matrices.

use crate::{Result, SemigroupError};
use lcl_problem::OutLabel;
use std::fmt;

/// A boolean relation over `Σ_out × Σ_out`, stored row-major as bitsets.
///
/// `OutRelation` is the carrier type of the transfer-relation semigroup: for
/// a word `w`, `R(w)[p][q]` says whether some valid labeling of the directed
/// path with inputs `w` starts with output `p` and ends with output `q`.
///
/// The composition used throughout the crate is *boolean matrix
/// multiplication* ([`OutRelation::compose`]); the semigroup operation on
/// transfer relations interleaves the problem's edge relation between the two
/// operands and lives in [`crate::TransferSystem::join`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct OutRelation {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

/// The number of words in each row of a relation on `n` labels.
fn row_len(n: usize) -> usize {
    n.div_ceil(64).max(1)
}

impl OutRelation {
    /// Creates the empty (all-false) relation on `n` labels.
    pub fn empty(n: usize) -> Self {
        Self::from_words(n, vec![0; n * row_len(n)])
    }

    /// Creates the identity relation on `n` labels.
    pub fn identity(n: usize) -> Self {
        let mut r = Self::empty(n);
        for i in 0..n {
            r.set(i, i, true);
        }
        r
    }

    /// Creates the full (all-true) relation on `n` labels.
    pub fn full(n: usize) -> Self {
        let mut r = Self::empty(n);
        for i in 0..n {
            for j in 0..n {
                r.set(i, j, true);
            }
        }
        r
    }

    /// Creates a relation from a predicate.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut r = Self::empty(n);
        for i in 0..n {
            for j in 0..n {
                if f(i, j) {
                    r.set(i, j, true);
                }
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

    /// Dimension of the relation (the size of `Σ_out`).
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Returns whether `(i, j)` is in the relation.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        assert!(i < self.n && j < self.n, "relation index out of range");
        let word = self.bits[i * self.words_per_row + j / 64];
        (word >> (j % 64)) & 1 == 1
    }

    /// Sets whether `(i, j)` is in the relation.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: bool) {
        assert!(i < self.n && j < self.n, "relation index out of range");
        let idx = i * self.words_per_row + j / 64;
        if value {
            self.bits[idx] |= 1 << (j % 64);
        } else {
            self.bits[idx] &= !(1 << (j % 64));
        }
    }

    /// Returns whether `(p, q)` is in the relation, using typed labels.
    pub fn contains(&self, p: OutLabel, q: OutLabel) -> bool {
        self.get(p.index(), q.index())
    }

    /// Boolean matrix product `self · other`: each output row is the union
    /// of the rows of `other` picked by the set bits of the matching row of
    /// `self`.
    ///
    /// # Errors
    ///
    /// Returns an error if the dimensions differ.
    pub fn compose(&self, other: &OutRelation) -> Result<OutRelation> {
        let mut result = OutRelation::empty(0);
        self.compose_into(other, &mut result)?;
        Ok(result)
    }

    /// [`Self::compose`] into `out`, reusing its storage. A row of one word
    /// (`n ≤ 64`) is one fold over its set bits.
    ///
    /// # Errors
    ///
    /// Returns an error if the dimensions differ.
    pub fn compose_into(&self, other: &OutRelation, out: &mut OutRelation) -> Result<()> {
        if self.n != other.n {
            return Err(SemigroupError::DimensionMismatch {
                left: self.n,
                right: other.n,
            });
        }
        let w = self.words_per_row;
        (out.n, out.words_per_row) = (self.n, w);
        out.bits.clear();
        if w == 1 {
            out.bits.extend(self.bits.iter().map(|&row| {
                let mut word = row;
                let mut union = 0;
                while word != 0 {
                    union |= other.bits[word.trailing_zeros() as usize];
                    word &= word - 1;
                }
                union
            }));
            return Ok(());
        }
        out.bits.resize(self.bits.len(), 0);
        for (out_row, row) in out.bits.chunks_exact_mut(w).zip(self.bits.chunks_exact(w)) {
            for (base, &word) in (0..).step_by(64).zip(row) {
                let mut word = word;
                while word != 0 {
                    let k = base + word.trailing_zeros() as usize;
                    word &= word - 1;
                    for (o, x) in out_row.iter_mut().zip(other.row_words(k)) {
                        *o |= *x;
                    }
                }
            }
        }
        Ok(())
    }

    /// The words of row `i`: `(i, j)` is bit `j % 64` of word `j / 64`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row_words(&self, i: usize) -> &[u64] {
        assert!(i < self.n, "relation index out of range");
        &self.bits[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    /// All rows' words, row after row (see [`Self::row_words`]). Relations
    /// of one dimension are equal iff their words are; on at most 64 labels,
    /// row `i` is word `i`.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// The relation on `n` labels whose rows' words are `words`.
    pub(crate) fn from_words(n: usize, words: Vec<u64>) -> Self {
        let words_per_row = row_len(n);
        assert_eq!(words.len(), n * words_per_row, "one row of words per label");
        OutRelation {
            n,
            words_per_row,
            bits: words,
        }
    }

    /// The diagonal `{j : (j, j) related}` as one row of words.
    pub(crate) fn diagonal_words(&self) -> Vec<u64> {
        let mut mask = vec![0; self.words_per_row];
        for j in (0..self.n).filter(|&j| self.get(j, j)) {
            mask[j / 64] |= 1 << (j % 64);
        }
        mask
    }

    /// The column-mask step: writes into `out` the words of `self · D`,
    /// where `D` is the diagonal relation whose diagonal is `mask` (as
    /// [`Self::diagonal_words`] returns it). Right-multiplying by a diagonal
    /// keeps the columns it marks, so every row is ANDed with `mask`.
    pub(crate) fn mask_columns_into(&self, mask: &[u64], out: &mut Vec<u64>) {
        assert_eq!(mask.len(), self.words_per_row, "one row of words");
        out.clear();
        if let [mask] = *mask {
            out.extend(self.bits.iter().map(|w| w & mask));
            return;
        }
        out.extend(
            self.bits
                .chunks_exact(self.words_per_row)
                .flat_map(|row| row.iter().zip(mask).map(|(w, m)| w & m)),
        );
    }

    /// Element-wise union.
    ///
    /// # Errors
    ///
    /// Returns an error if the dimensions differ.
    pub fn union(&self, other: &OutRelation) -> Result<OutRelation> {
        if self.n != other.n {
            return Err(SemigroupError::DimensionMismatch {
                left: self.n,
                right: other.n,
            });
        }
        let mut result = self.clone();
        for (a, b) in result.bits.iter_mut().zip(other.bits.iter()) {
            *a |= *b;
        }
        Ok(result)
    }

    /// Element-wise intersection.
    ///
    /// # Errors
    ///
    /// Returns an error if the dimensions differ.
    pub fn intersection(&self, other: &OutRelation) -> Result<OutRelation> {
        if self.n != other.n {
            return Err(SemigroupError::DimensionMismatch {
                left: self.n,
                right: other.n,
            });
        }
        let mut result = self.clone();
        for (a, b) in result.bits.iter_mut().zip(other.bits.iter()) {
            *a &= *b;
        }
        Ok(result)
    }

    /// The transposed relation.
    pub fn transpose(&self) -> OutRelation {
        OutRelation::from_fn(self.n, |i, j| self.get(j, i))
    }

    /// `true` if no pair is related.
    pub fn is_zero(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
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
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
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

impl fmt::Display for OutRelation {
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

    /// Relations of dimension `n` to test the kernels on: empty, identity,
    /// full and two seeded pseudo-random densities.
    fn samples(n: usize) -> Vec<OutRelation> {
        let random = |seed: u64, percent: u64| {
            let mut state = seed;
            OutRelation::from_fn(n, |_, _| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) % 100 < percent
            })
        };
        vec![
            OutRelation::empty(n),
            OutRelation::identity(n),
            OutRelation::full(n),
            random(n as u64, 10),
            random(n as u64 + 1, 50),
        ]
    }

    #[test]
    fn compose_matches_the_definition() {
        for n in [3, 64, 65, 130] {
            for a in &samples(n) {
                for b in &samples(n) {
                    let want =
                        OutRelation::from_fn(n, |i, j| (0..n).any(|k| a.get(i, k) && b.get(k, j)));
                    assert_eq!(a.compose(b).unwrap(), want, "dimension {n}");
                }
            }
        }
    }

    #[test]
    fn column_mask_step_is_a_product_with_a_diagonal() {
        for n in [3, 64, 65, 130] {
            let mut out = Vec::new();
            for r in &samples(n) {
                for d in samples(n) {
                    let d = OutRelation::diagonal(n, |j| d.get(j, j));
                    r.mask_columns_into(&d.diagonal_words(), &mut out);
                    let got = OutRelation::from_words(n, out.clone());
                    let want = OutRelation::from_fn(n, |i, j| r.get(i, j) && d.get(j, j));
                    assert_eq!(got, want, "dimension {n}");
                    assert_eq!(got, r.compose(&d).unwrap(), "dimension {n}");
                    assert_eq!(got.words(), want.words());
                }
            }
        }
    }

    #[test]
    fn row_words_hold_each_row() {
        for n in [3, 64, 65, 130] {
            for r in samples(n) {
                for i in 0..n {
                    let row = r.row_words(i);
                    assert_eq!(row.len(), n.div_ceil(64));
                    for j in 0..n {
                        assert_eq!(row[j / 64] >> (j % 64) & 1 == 1, r.get(i, j));
                    }
                }
            }
        }
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
