//! Transfer relations of words over the input alphabet.
//!
//! For a normalized problem and a word `w = a_1 … a_k ∈ Σ_in^+`, the *transfer
//! relation* `R(w)` relates `p` to `q` iff the directed path with inputs `w`
//! admits a valid labeling whose first output is `p` and last output is `q`.
//! Transfer relations compose through the edge constraint:
//! `R(uv) = R(u) · E · R(v)` where `E` is the edge relation — this is the
//! morphism property that makes the set of transfer relations a finite
//! semigroup (the algebraic counterpart of the paper's Lemma 12).

use crate::relation::ProductTable;
use crate::{OutRelation, Result, SemigroupError};
use lcl_problem::{InLabel, Instance, NormalizedLcl, OutLabel, Topology};

/// Pre-computed per-letter transfer relations and the edge relation of a
/// normalized problem, with the tables of right products by `E` and by
/// `Eᵀ`, built once: every product with `E` on either side is table
/// lookups, the left product `E·R` as `(Rᵀ·Eᵀ)ᵀ`.
///
/// # Example
///
/// ```
/// use lcl_problem::NormalizedLcl;
/// use lcl_semigroup::TransferSystem;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 2-coloring of a directed cycle.
/// let mut b = NormalizedLcl::builder("2-coloring");
/// b.input_labels(&["x"]);
/// b.output_labels(&["1", "2"]);
/// b.allow_all_node_pairs();
/// b.allow_edge_idx(0, 1);
/// b.allow_edge_idx(1, 0);
/// let p = b.build()?;
/// let ts = TransferSystem::new(&p);
/// // Even cycles are solvable, odd cycles are not.
/// assert!(ts.cycle_solvable(&vec![0u16.into(); 6])?);
/// assert!(!ts.cycle_solvable(&vec![0u16.into(); 5])?);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct TransferSystem {
    /// The problem; cloning it copies nothing.
    problem: NormalizedLcl,
    edge: OutRelation,
    /// `Eᵀ`: `(q, p)` for every allowed edge `(p, q)`.
    edge_back: OutRelation,
    letters: Vec<OutRelation>,
    /// Right products by `E` and by `Eᵀ`.
    then_edge: ProductTable,
    then_edge_back: ProductTable,
}

impl TransferSystem {
    /// Builds the transfer system of a normalized problem.
    pub fn new(problem: &NormalizedLcl) -> Self {
        let beta = problem.num_outputs();
        // Row by row off the constraint tables.
        let mut edge = OutRelation::empty(beta);
        for p in (0..beta).map(OutLabel::from_index) {
            for q in problem.successors_of(p) {
                edge.set(p.index(), q.index(), true);
            }
        }
        let letters = (0..problem.num_inputs())
            .map(|a| {
                let mut letter = OutRelation::empty(beta);
                for o in problem.outputs_for_input(InLabel::from_index(a)) {
                    letter.set(o.index(), o.index(), true);
                }
                letter
            })
            .collect();
        let edge_back = edge.transpose();
        TransferSystem {
            problem: problem.clone(),
            then_edge: ProductTable::new(&edge),
            then_edge_back: ProductTable::new(&edge_back),
            edge_back,
            edge,
            letters,
        }
    }

    /// The underlying problem.
    pub fn problem(&self) -> &NormalizedLcl {
        &self.problem
    }

    /// `|Σ_out|`.
    pub fn dim(&self) -> usize {
        self.problem.num_outputs()
    }

    /// `|Σ_in|`.
    pub fn num_letters(&self) -> usize {
        self.letters.len()
    }

    /// The edge relation `E`.
    pub fn edge_relation(&self) -> &OutRelation {
        &self.edge
    }

    /// The bytes this system's own buffers hold: the edge relation and its
    /// transpose, the letter relations and the two product tables (4 KiB at
    /// `|Σ_out| = 8`). The shared problem is not counted.
    pub fn resident_bytes(&self) -> usize {
        let letters: usize = self
            .letters
            .iter()
            .map(|letter| std::mem::size_of_val(letter.words()))
            .sum();
        std::mem::size_of_val(self.edge.words())
            + std::mem::size_of_val(self.edge_back.words())
            + letters
            + std::mem::size_of_val(self.letters.as_slice())
            + self.then_edge.resident_bytes()
            + self.then_edge_back.resident_bytes()
    }

    /// The table of right products by the edge relation, `R ↦ R·E`.
    pub(crate) fn then_edge(&self) -> &ProductTable {
        &self.then_edge
    }

    /// The single-letter relation `R(a)` (a diagonal relation marking the
    /// outputs allowed at a node with input `a`).
    ///
    /// # Errors
    ///
    /// Returns an error if `a` is outside the input alphabet.
    pub fn letter_relation(&self, a: InLabel) -> Result<&OutRelation> {
        self.letters
            .get(a.index())
            .ok_or(SemigroupError::UnknownInputLabel {
                index: a.index(),
                alphabet_len: self.letters.len(),
            })
    }

    /// Semigroup operation: `R(u) · E · R(v)`, i.e. the transfer relation of
    /// the concatenation `uv` given the relations of `u` and `v`.
    ///
    /// # Errors
    ///
    /// Returns an error on dimension mismatch.
    pub fn join<W: AsRef<[u64]>, V: AsRef<[u64]>>(
        &self,
        left: &OutRelation<W>,
        right: &OutRelation<V>,
    ) -> Result<OutRelation> {
        self.then_edge.product(left)?.compose(right)
    }

    /// The transfer relation `R(w)` of a non-empty word.
    ///
    /// # Errors
    ///
    /// Returns [`SemigroupError::EmptyWord`] for the empty word, or an error
    /// if the word contains labels outside the input alphabet.
    pub fn relation_of_word(&self, word: &[InLabel]) -> Result<OutRelation> {
        let (&first, rest) = word.split_first().ok_or(SemigroupError::EmptyWord)?;
        let mut acc = self.letter_relation(first)?.clone();
        for &a in rest {
            acc = self.join(&acc, self.letter_relation(a)?)?;
        }
        Ok(acc)
    }

    /// The transfer relation `R(w^k)` of the `k`-fold repetition of a word,
    /// computed from `R(w)` by fast exponentiation under [`Self::join`].
    ///
    /// # Errors
    ///
    /// Returns [`SemigroupError::EmptyWord`] if `k == 0`.
    pub fn power<W: AsRef<[u64]>>(
        &self,
        relation: &OutRelation<W>,
        k: usize,
    ) -> Result<OutRelation> {
        relation
            .to_owned_relation()
            .power_with(k, |a, b| self.join(a, b))
    }

    /// The connection relation `C(w) = E · R(w) · E`:
    /// `C(w)[p][q]` holds iff a segment with inputs `w`, placed between a left
    /// neighbour already labeled `p` and a right neighbour already labeled
    /// `q`, can be labeled so that every segment node and the right neighbour
    /// satisfy their constraints towards the segment.
    ///
    /// # Errors
    ///
    /// Returns an error on dimension mismatch.
    pub fn connection<W: AsRef<[u64]>>(&self, relation: &OutRelation<W>) -> Result<OutRelation> {
        let (mut scratch, mut out) = (OutRelation::empty(0), OutRelation::empty(0));
        self.connection_into(relation, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`Self::connection`] into `out`, with `scratch` as the one working
    /// buffer: `E·R = (Rᵀ·Eᵀ)ᵀ` and then `(E·R)·E`, two transposes and two
    /// table products, reusing both buffers' storage.
    ///
    /// # Errors
    ///
    /// Returns an error on dimension mismatch.
    pub fn connection_into<W: AsRef<[u64]>>(
        &self,
        relation: &OutRelation<W>,
        scratch: &mut OutRelation,
        out: &mut OutRelation,
    ) -> Result<()> {
        relation.transpose_into(scratch);
        self.then_edge_back.product_into(scratch, out)?;
        out.transpose_into(scratch);
        self.then_edge.product_into(scratch, out)
    }

    /// Shorthand: `C(w)` computed directly from the word.
    ///
    /// # Errors
    ///
    /// Same as [`Self::relation_of_word`].
    pub fn connection_of_word(&self, word: &[InLabel]) -> Result<OutRelation> {
        self.connection(&self.relation_of_word(word)?)
    }

    /// Whether the directed *path* with inputs `word` admits a valid labeling.
    ///
    /// # Errors
    ///
    /// Same as [`Self::relation_of_word`].
    pub fn path_solvable(&self, word: &[InLabel]) -> Result<bool> {
        Ok(!self.relation_of_word(word)?.is_zero())
    }

    /// Whether the directed *cycle* with inputs `word` (in cyclic order)
    /// admits a valid labeling: the boolean trace of `R(w) · E` is non-zero.
    ///
    /// # Errors
    ///
    /// Same as [`Self::relation_of_word`].
    pub fn cycle_solvable(&self, word: &[InLabel]) -> Result<bool> {
        self.closes_cycle(&self.relation_of_word(word)?)
    }

    /// Whether a cycle whose input word has transfer relation `relation`
    /// admits a valid labeling: the boolean trace of `R · E` is non-zero,
    /// that is, some `(p, q) ∈ R` has `(q, p) ∈ E`, so `R` meets `Eᵀ`.
    ///
    /// # Errors
    ///
    /// Returns an error on dimension mismatch.
    pub fn closes_cycle<W: AsRef<[u64]>>(&self, relation: &OutRelation<W>) -> Result<bool> {
        if relation.dim() != self.edge_back.dim() {
            return Err(SemigroupError::DimensionMismatch {
                left: relation.dim(),
                right: self.edge_back.dim(),
            });
        }
        Ok(relation
            .words()
            .iter()
            .zip(self.edge_back.words())
            .any(|(r, e)| r & e != 0))
    }

    /// Whether an instance (path or cycle) admits a valid labeling.
    ///
    /// # Errors
    ///
    /// Same as [`Self::relation_of_word`]; an empty instance is trivially
    /// solvable.
    pub fn instance_solvable(&self, instance: &Instance) -> Result<bool> {
        if instance.is_empty() {
            return Ok(true);
        }
        match instance.topology() {
            Topology::Path => self.path_solvable(instance.inputs()),
            Topology::Cycle => self.cycle_solvable(instance.inputs()),
        }
    }

    /// The *cycle relation* `R(w) · E`, whose boolean trace decides cycle
    /// solvability and whose powers describe repetitions of `w` around a
    /// cycle.
    ///
    /// # Errors
    ///
    /// Returns an error on dimension mismatch.
    pub fn cycle_relation<W: AsRef<[u64]>>(
        &self,
        relation: &OutRelation<W>,
    ) -> Result<OutRelation> {
        self.then_edge.product(relation)
    }

    /// Checks whether a *periodic* output labeling exists for the periodic
    /// input `w^∞`: a labeling `y = y_1 … y_{|w|}` with `node_ok(w_i, y_i)`,
    /// `edge_ok(y_i, y_{i+1})` and `edge_ok(y_{|w|}, y_1)`. Returns one such
    /// labeling if it exists.
    ///
    /// This is the building block of the paper's `G_{w,z}` condition in the
    /// Section 4.4 feasible function.
    ///
    /// # Errors
    ///
    /// Returns [`SemigroupError::EmptyWord`] for the empty word or an error if
    /// the word contains unknown labels.
    #[allow(clippy::needless_range_loop)] // dense index tables
    pub fn periodic_labeling(&self, word: &[InLabel]) -> Result<Option<Vec<OutLabel>>> {
        if word.is_empty() {
            return Err(SemigroupError::EmptyWord);
        }
        for &a in word {
            if a.index() >= self.problem.num_inputs() {
                return Err(SemigroupError::UnknownInputLabel {
                    index: a.index(),
                    alphabet_len: self.problem.num_inputs(),
                });
            }
        }
        // Try every output for the first position and do a DFS-free DP along
        // the word, closing the cycle at the end.
        let beta = self.dim();
        for first in 0..beta {
            let first = OutLabel::from_index(first);
            if !self.problem.node_ok(word[0], first) {
                continue;
            }
            if word.len() == 1 {
                if self.problem.edge_ok(first, first) {
                    return Ok(Some(vec![first]));
                }
                continue;
            }
            // reachable[i] = set of labels possible at position i given first.
            let mut reachable: Vec<Vec<bool>> = vec![vec![false; beta]; word.len()];
            reachable[0][first.index()] = true;
            for i in 1..word.len() {
                for q in 0..beta {
                    let ql = OutLabel::from_index(q);
                    if !self.problem.node_ok(word[i], ql) {
                        continue;
                    }
                    reachable[i][q] = (0..beta).any(|p| {
                        reachable[i - 1][p] && self.problem.edge_ok(OutLabel::from_index(p), ql)
                    });
                }
            }
            // Close the cycle: last label must connect back to `first`.
            let mut last = None;
            for q in 0..beta {
                if reachable[word.len() - 1][q]
                    && self.problem.edge_ok(OutLabel::from_index(q), first)
                {
                    last = Some(q);
                    break;
                }
            }
            let Some(mut q) = last else { continue };
            let mut labels = vec![OutLabel::from_index(q); word.len()];
            for i in (0..word.len() - 1).rev() {
                let next = OutLabel::from_index(q);
                let p = (0..beta)
                    .find(|&p| {
                        reachable[i][p] && self.problem.edge_ok(OutLabel::from_index(p), next)
                    })
                    .expect("reachability table is consistent");
                q = p;
                labels[i] = OutLabel::from_index(q);
            }
            return Ok(Some(labels));
        }
        Ok(None)
    }
}

/// Converts a slice of raw `u16` indices into input labels. Convenience for
/// tests and examples.
pub fn word_from_indices(indices: &[u16]) -> Vec<InLabel> {
    indices.iter().copied().map(InLabel).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_problem::{Labeling, NormalizedLcl};

    fn two_coloring() -> NormalizedLcl {
        let mut b = NormalizedLcl::builder("2-coloring");
        b.input_labels(&["x"]);
        b.output_labels(&["1", "2"]);
        b.allow_all_node_pairs();
        b.allow_edge_idx(0, 1);
        b.allow_edge_idx(1, 0);
        b.build().unwrap()
    }

    fn copy_input() -> NormalizedLcl {
        let mut b = NormalizedLcl::builder("copy-input");
        b.input_labels(&["a", "b"]);
        b.output_labels(&["a", "b"]);
        b.allow_node_idx(0, 0);
        b.allow_node_idx(1, 1);
        b.allow_all_edge_pairs();
        b.build().unwrap()
    }

    #[test]
    fn relation_matches_brute_force() {
        // R(w)[p][q] must agree with the existence of a labeling found by the
        // brute-force solver with pinned endpoints.
        let p = two_coloring();
        let ts = TransferSystem::new(&p);
        for len in 1..6 {
            let word = vec![InLabel(0); len];
            let rel = ts.relation_of_word(&word).unwrap();
            let inst = Instance::path(word.clone());
            for a in 0..2u16 {
                for b in 0..2u16 {
                    // brute force: enumerate all labelings
                    let mut found = false;
                    for code in 0..(2u32.pow(len as u32)) {
                        let labels: Vec<u16> = (0..len).map(|i| ((code >> i) & 1) as u16).collect();
                        if labels[0] != a || labels[len - 1] != b {
                            continue;
                        }
                        let l = Labeling::from_indices(&labels);
                        if p.is_valid(&inst, &l) {
                            found = true;
                            break;
                        }
                    }
                    assert_eq!(
                        rel.get(a as usize, b as usize),
                        found,
                        "len={len}, a={a}, b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn morphism_property() {
        let p = copy_input();
        let ts = TransferSystem::new(&p);
        let u = word_from_indices(&[0, 1, 1]);
        let v = word_from_indices(&[1, 0]);
        let uv: Vec<InLabel> = u.iter().chain(v.iter()).copied().collect();
        let r_uv = ts.relation_of_word(&uv).unwrap();
        let joined = ts
            .join(
                &ts.relation_of_word(&u).unwrap(),
                &ts.relation_of_word(&v).unwrap(),
            )
            .unwrap();
        assert_eq!(r_uv, joined);
    }

    #[test]
    fn power_matches_repetition() {
        let p = two_coloring();
        let ts = TransferSystem::new(&p);
        let w = word_from_indices(&[0, 0, 0]);
        let r = ts.relation_of_word(&w).unwrap();
        let direct = ts.relation_of_word(&[InLabel(0); 12]).unwrap();
        let powered = ts.power(&r, 4).unwrap();
        assert_eq!(direct, powered);
        assert!(ts.power(&r, 0).is_err());
    }

    #[test]
    fn cycle_and_path_solvability() {
        let p = two_coloring();
        let ts = TransferSystem::new(&p);
        assert!(ts.path_solvable(&[InLabel(0); 5]).unwrap());
        assert!(ts.cycle_solvable(&[InLabel(0); 6]).unwrap());
        assert!(!ts.cycle_solvable(&[InLabel(0); 7]).unwrap());
        let even = Instance::from_indices(Topology::Cycle, &[0; 4]);
        let odd = Instance::from_indices(Topology::Cycle, &[0; 3]);
        assert!(ts.instance_solvable(&even).unwrap());
        assert!(!ts.instance_solvable(&odd).unwrap());
        assert!(ts.instance_solvable(&Instance::cycle(vec![])).unwrap());
        for len in 1..=8 {
            let r = ts.relation_of_word(&vec![InLabel(0); len]).unwrap();
            let trace = ts.cycle_relation(&r).unwrap().has_nonzero_diagonal();
            assert_eq!(ts.closes_cycle(&r).unwrap(), trace, "length {len}");
        }
        assert!(ts.closes_cycle(&OutRelation::empty(3)).is_err());
    }

    #[test]
    fn empty_word_and_unknown_letters_error() {
        let ts = TransferSystem::new(&two_coloring());
        assert!(matches!(
            ts.relation_of_word(&[]),
            Err(SemigroupError::EmptyWord)
        ));
        assert!(matches!(
            ts.relation_of_word(&[InLabel(7)]),
            Err(SemigroupError::UnknownInputLabel { .. })
        ));
        assert!(ts.letter_relation(InLabel(0)).is_ok());
        assert!(ts.letter_relation(InLabel(9)).is_err());
    }

    #[test]
    fn connection_relation_semantics() {
        // For 2-coloring, a single-node segment between p and q is fillable
        // iff there is a colour different from both p and q... with 2 colours
        // that means p == q.
        let ts = TransferSystem::new(&two_coloring());
        let c = ts.connection_of_word(&[InLabel(0)]).unwrap();
        assert!(c.get(0, 0));
        assert!(c.get(1, 1));
        assert!(!c.get(0, 1));
        assert!(!c.get(1, 0));
    }

    #[test]
    fn periodic_labeling_exists_for_even_period() {
        let ts = TransferSystem::new(&two_coloring());
        let w2 = vec![InLabel(0); 2];
        let l = ts.periodic_labeling(&w2).unwrap().expect("period 2 works");
        assert_ne!(l[0], l[1]);
        let w1 = vec![InLabel(0); 1];
        assert!(ts.periodic_labeling(&w1).unwrap().is_none());
        let w3 = vec![InLabel(0); 3];
        assert!(ts.periodic_labeling(&w3).unwrap().is_none());
        assert!(ts.periodic_labeling(&[]).is_err());
        assert!(ts.periodic_labeling(&[InLabel(9)]).is_err());
    }

    #[test]
    fn periodic_labeling_single_node_self_loop() {
        let p = copy_input();
        let ts = TransferSystem::new(&p);
        let l = ts
            .periodic_labeling(&[InLabel(1)])
            .unwrap()
            .expect("copy-input allows constant labelings");
        assert_eq!(l, vec![OutLabel(1)]);
    }

    #[test]
    fn accessors() {
        let p = copy_input();
        let ts = TransferSystem::new(&p);
        assert_eq!(ts.dim(), 2);
        assert_eq!(ts.num_letters(), 2);
        assert_eq!(ts.problem().name(), "copy-input");
        assert_eq!(ts.edge_relation().count(), 4);
        let r = ts.relation_of_word(&word_from_indices(&[0])).unwrap();
        let cr = ts.cycle_relation(&r).unwrap();
        assert!(cr.has_nonzero_diagonal());
    }
}
