//! The paper's normalized LCL form: node and edge constraints on directed
//! paths and cycles.
//!
//! A *normalized* LCL problem (paper §2, "β-normalized" without the binary
//! input restriction) is a tuple `(Σ_in, Σ_out, C_in-out, C_out-out)`:
//!
//! * each node `v` must satisfy `(Input(v), Output(v)) ∈ C_in-out`;
//! * each node `v` with a predecessor `u` must satisfy
//!   `(Output(u), Output(v)) ∈ C_out-out`.
//!
//! Every LCL of constant radius on directed paths/cycles can be brought into
//! this form at the cost of enlarging the output alphabet (see
//! [`crate::WindowLcl::to_normalized`] and Lemma 2/3 of the paper, implemented
//! in the `lcl-hardness` crate).

use crate::verify::{ConsistencyReport, Violation, ViolationKind};
use crate::{Alphabet, InLabel, Instance, Labeling, OutLabel, ProblemError, Result, Topology};
use std::fmt;
use std::sync::Arc;

/// A normalized LCL problem on consistently oriented paths and cycles.
///
/// See the [crate documentation](crate) for the semantics. Instances of this
/// type are immutable; use [`NormalizedLcl::builder`] to construct them. The
/// name, alphabets and tables sit behind one [`Arc`], so a clone copies
/// nothing: the classifier, its synthesized algorithms and a cache share one
/// problem.
#[derive(Clone, PartialEq, Eq)]
pub struct NormalizedLcl {
    tables: Arc<Tables>,
}

/// The contents of a [`NormalizedLcl`].
#[derive(PartialEq, Eq)]
struct Tables {
    name: String,
    input: Alphabet,
    output: Alphabet,
    /// Row-major `|Σ_in| × |Σ_out|` table of allowed `(input, output)` pairs.
    node_allowed: Vec<bool>,
    /// Row-major `|Σ_out| × |Σ_out|` table of allowed `(pred output, output)` pairs.
    edge_allowed: Vec<bool>,
}

impl NormalizedLcl {
    /// Starts building a new problem with the given human-readable name.
    pub fn builder(name: impl Into<String>) -> NormalizedLclBuilder {
        NormalizedLclBuilder::new(name)
    }

    /// The problem's human-readable name.
    pub fn name(&self) -> &str {
        &self.tables.name
    }

    /// The input alphabet `Σ_in`.
    pub fn input_alphabet(&self) -> &Alphabet {
        &self.tables.input
    }

    /// The output alphabet `Σ_out`.
    pub fn output_alphabet(&self) -> &Alphabet {
        &self.tables.output
    }

    /// `|Σ_in|`.
    pub fn num_inputs(&self) -> usize {
        self.tables.input.len()
    }

    /// `|Σ_out|`.
    pub fn num_outputs(&self) -> usize {
        self.tables.output.len()
    }

    /// Returns `true` if `(input, output) ∈ C_in-out`.
    ///
    /// # Panics
    ///
    /// Panics if either label is outside its alphabet.
    #[inline]
    pub fn node_ok(&self, input: InLabel, output: OutLabel) -> bool {
        let beta = self.num_outputs();
        assert!(
            input.index() < self.num_inputs(),
            "input label out of range"
        );
        assert!(output.index() < beta, "output label out of range");
        self.tables.node_allowed[input.index() * beta + output.index()]
    }

    /// Returns `true` if `(pred, succ) ∈ C_out-out`, i.e. a node labeled `succ`
    /// may follow a node labeled `pred`.
    ///
    /// # Panics
    ///
    /// Panics if either label is outside the output alphabet.
    #[inline]
    pub fn edge_ok(&self, pred: OutLabel, succ: OutLabel) -> bool {
        let beta = self.num_outputs();
        assert!(pred.index() < beta, "pred label out of range");
        assert!(succ.index() < beta, "succ label out of range");
        self.tables.edge_allowed[pred.index() * beta + succ.index()]
    }

    /// Iterates over the output labels allowed at a node with the given input.
    pub fn outputs_for_input(&self, input: InLabel) -> impl Iterator<Item = OutLabel> + '_ {
        let beta = self.num_outputs();
        let base = input.index() * beta;
        (0..beta)
            .filter(move |&o| self.tables.node_allowed[base + o])
            .map(OutLabel::from_index)
    }

    /// Iterates over output labels `q` such that `(p, q) ∈ C_out-out`.
    pub fn successors_of(&self, p: OutLabel) -> impl Iterator<Item = OutLabel> + '_ {
        let beta = self.num_outputs();
        let base = p.index() * beta;
        (0..beta)
            .filter(move |&q| self.tables.edge_allowed[base + q])
            .map(OutLabel::from_index)
    }

    /// Checks whether a node's labeling is *locally consistent*: its own
    /// `(input, output)` pair is allowed, and if it has a predecessor, the
    /// `(pred output, output)` pair is allowed too.
    ///
    /// This matches the paper's notion of the output labeling being "locally
    /// consistent at `v`" for normalized problems (checkability radius 1,
    /// predecessor side).
    pub fn locally_consistent_at(
        &self,
        instance: &Instance,
        labeling: &Labeling,
        node: usize,
    ) -> bool {
        if node >= instance.len() || labeling.len() != instance.len() {
            return false;
        }
        if !self.node_ok(instance.input(node), labeling.output(node)) {
            return false;
        }
        if let Some(pred) = instance.predecessor(node) {
            if !self.edge_ok(labeling.output(pred), labeling.output(node)) {
                return false;
            }
        }
        true
    }

    /// Returns `true` if the labeling is globally valid for the instance.
    pub fn is_valid(&self, instance: &Instance, labeling: &Labeling) -> bool {
        self.check(instance, labeling).is_valid()
    }

    /// Verifies the labeling and reports every violated constraint.
    pub fn check(&self, instance: &Instance, labeling: &Labeling) -> ConsistencyReport {
        let mut violations = Vec::new();
        if instance.len() != labeling.len() {
            violations.push(Violation {
                node: 0,
                kind: ViolationKind::LengthMismatch {
                    instance_len: instance.len(),
                    labeling_len: labeling.len(),
                },
            });
            return ConsistencyReport::new(violations);
        }
        for i in 0..instance.len() {
            let input = instance.input(i);
            let output = labeling.output(i);
            if input.index() >= self.num_inputs() || output.index() >= self.num_outputs() {
                violations.push(Violation {
                    node: i,
                    kind: ViolationKind::LabelOutOfRange,
                });
                continue;
            }
            if !self.node_ok(input, output) {
                violations.push(Violation {
                    node: i,
                    kind: ViolationKind::NodeConstraint { input, output },
                });
            }
            if let Some(p) = instance.predecessor(i) {
                let pred_output = labeling.output(p);
                if pred_output.index() < self.num_outputs() && !self.edge_ok(pred_output, output) {
                    violations.push(Violation {
                        node: i,
                        kind: ViolationKind::EdgeConstraint {
                            pred_output,
                            output,
                        },
                    });
                }
            }
        }
        ConsistencyReport::new(violations)
    }

    /// Exhaustively searches for *some* valid labeling of the instance.
    ///
    /// This is the trivial `O(n)`-round "collect everything and solve locally"
    /// algorithm's sequential core, implemented as a depth-first search over
    /// output labels with edge-constraint pruning. It runs in time
    /// `O(n · |Σ_out|²)` for paths and `O(n · |Σ_out|³)` for cycles.
    ///
    /// Returns `None` when the instance admits no valid labeling.
    pub fn solve_brute_force(&self, instance: &Instance) -> Option<Labeling> {
        let n = instance.len();
        if n == 0 {
            return Some(Labeling::new(vec![]));
        }
        let beta = self.num_outputs();
        match instance.topology() {
            Topology::Path => self.solve_path_between(instance, 0, n - 1, None, None),
            Topology::Cycle => {
                // Fix the label of node 0 and thread the wrap-around constraint.
                for first in 0..beta {
                    let first = OutLabel::from_index(first);
                    if !self.node_ok(instance.input(0), first) {
                        continue;
                    }
                    if n == 1 {
                        if self.edge_ok(first, first) {
                            return Some(Labeling::new(vec![first]));
                        }
                        continue;
                    }
                    if let Some(rest) =
                        self.solve_path_between(instance, 1, n - 1, Some(first), Some(first))
                    {
                        let mut outputs = Vec::with_capacity(n);
                        outputs.push(first);
                        outputs.extend(rest.outputs().iter().copied());
                        return Some(Labeling::new(outputs));
                    }
                }
                None
            }
        }
    }

    /// Dynamic-programming search for a valid labeling of nodes `from..=to`
    /// of the instance, such that the first node's label is a valid successor
    /// of `pred` (if given) and the last node's label is a valid predecessor
    /// of `succ` (if given).
    ///
    /// Used both by [`Self::solve_brute_force`] and by the classifier's
    /// synthesized algorithms when they fill in the "middle parts" between
    /// anchored blocks.
    #[allow(clippy::needless_range_loop)] // DP over dense label indices
    pub fn solve_path_between(
        &self,
        instance: &Instance,
        from: usize,
        to: usize,
        pred: Option<OutLabel>,
        succ: Option<OutLabel>,
    ) -> Option<Labeling> {
        if from > to || to >= instance.len() {
            return None;
        }
        let len = to - from + 1;
        let beta = self.num_outputs();
        // reachable[i][q] = true if nodes from..from+i can be labeled with node
        // from+i getting label q, respecting the left boundary.
        let mut reachable = vec![vec![false; beta]; len];
        for q in 0..beta {
            let ql = OutLabel::from_index(q);
            if !self.node_ok(instance.input(from), ql) {
                continue;
            }
            if let Some(p) = pred {
                if !self.edge_ok(p, ql) {
                    continue;
                }
            }
            reachable[0][q] = true;
        }
        for i in 1..len {
            let node = from + i;
            for q in 0..beta {
                let ql = OutLabel::from_index(q);
                if !self.node_ok(instance.input(node), ql) {
                    continue;
                }
                reachable[i][q] = (0..beta)
                    .any(|p| reachable[i - 1][p] && self.edge_ok(OutLabel::from_index(p), ql));
            }
        }
        // Pick a final label compatible with the right boundary, then trace back.
        let mut last = None;
        for q in 0..beta {
            if !reachable[len - 1][q] {
                continue;
            }
            let ql = OutLabel::from_index(q);
            if let Some(s) = succ {
                if !self.edge_ok(ql, s) {
                    continue;
                }
            }
            last = Some(q);
            break;
        }
        let mut q = last?;
        let mut outputs = vec![OutLabel::from_index(q); len];
        for i in (0..len - 1).rev() {
            let next = OutLabel::from_index(q);
            let mut found = None;
            for p in 0..beta {
                if reachable[i][p] && self.edge_ok(OutLabel::from_index(p), next) {
                    found = Some(p);
                    break;
                }
            }
            q = found.expect("reachability table is consistent");
            outputs[i] = OutLabel::from_index(q);
        }
        Some(Labeling::new(outputs))
    }
}

impl fmt::Debug for NormalizedLcl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Tables {
            name,
            input,
            output,
            node_allowed,
            edge_allowed,
        } = &*self.tables;
        f.debug_struct("NormalizedLcl")
            .field("name", name)
            .field("input", input)
            .field("output", output)
            .field("node_allowed", node_allowed)
            .field("edge_allowed", edge_allowed)
            .finish()
    }
}

impl fmt::Display for NormalizedLcl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (|Σ_in|={}, |Σ_out|={})",
            self.name(),
            self.num_inputs(),
            self.num_outputs()
        )
    }
}

/// Builder for [`NormalizedLcl`].
///
/// # Example
///
/// ```
/// use lcl_problem::NormalizedLcl;
///
/// # fn main() -> Result<(), lcl_problem::ProblemError> {
/// let mut b = NormalizedLcl::builder("copy-input");
/// b.input_labels(&["a", "b"]);
/// b.output_labels(&["a", "b"]);
/// b.allow_node("a", "a");
/// b.allow_node("b", "b");
/// b.allow_all_edge_pairs();
/// let p = b.build()?;
/// assert_eq!(p.num_outputs(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct NormalizedLclBuilder {
    name: String,
    input: Alphabet,
    output: Alphabet,
    node_allowed: Vec<(usize, usize)>,
    edge_allowed: Vec<(usize, usize)>,
    allow_all_nodes: bool,
    allow_all_edges: bool,
}

impl NormalizedLclBuilder {
    /// Creates an empty builder.
    pub fn new(name: impl Into<String>) -> Self {
        NormalizedLclBuilder {
            name: name.into(),
            input: Alphabet::new(Vec::<String>::new()),
            output: Alphabet::new(Vec::<String>::new()),
            node_allowed: Vec::new(),
            edge_allowed: Vec::new(),
            allow_all_nodes: false,
            allow_all_edges: false,
        }
    }

    /// Sets the input alphabet from a list of names.
    pub fn input_labels<S: AsRef<str>>(&mut self, names: &[S]) -> &mut Self {
        self.input = Alphabet::new(names.iter().map(|s| s.as_ref().to_string()));
        self
    }

    /// Sets the output alphabet from a list of names.
    pub fn output_labels<S: AsRef<str>>(&mut self, names: &[S]) -> &mut Self {
        self.output = Alphabet::new(names.iter().map(|s| s.as_ref().to_string()));
        self
    }

    /// Sets the input alphabet directly.
    pub fn input_alphabet(&mut self, alphabet: Alphabet) -> &mut Self {
        self.input = alphabet;
        self
    }

    /// Sets the output alphabet directly.
    pub fn output_alphabet(&mut self, alphabet: Alphabet) -> &mut Self {
        self.output = alphabet;
        self
    }

    /// Allows the `(input, output)` pair, identified by label names.
    ///
    /// Unknown names are silently ignored at build time and reported as an
    /// error by [`Self::build`], which validates all recorded pairs.
    pub fn allow_node(&mut self, input: &str, output: &str) -> &mut Self {
        if let (Some(i), Some(o)) = (self.input.index_of(input), self.output.index_of(output)) {
            self.node_allowed.push((i, o));
        } else {
            // Record an impossible pair so that `build` reports the problem.
            self.node_allowed.push((usize::MAX, usize::MAX));
        }
        self
    }

    /// Allows the `(input, output)` pair, identified by label indices.
    pub fn allow_node_idx(&mut self, input: u16, output: u16) -> &mut Self {
        self.node_allowed.push((input as usize, output as usize));
        self
    }

    /// Allows the edge pair `(pred, succ)`, identified by label names.
    pub fn allow_edge(&mut self, pred: &str, succ: &str) -> &mut Self {
        if let (Some(p), Some(q)) = (self.output.index_of(pred), self.output.index_of(succ)) {
            self.edge_allowed.push((p, q));
        } else {
            self.edge_allowed.push((usize::MAX, usize::MAX));
        }
        self
    }

    /// Allows the edge pair `(pred, succ)`, identified by label indices.
    pub fn allow_edge_idx(&mut self, pred: u16, succ: u16) -> &mut Self {
        self.edge_allowed.push((pred as usize, succ as usize));
        self
    }

    /// Allows every `(input, output)` pair.
    pub fn allow_all_node_pairs(&mut self) -> &mut Self {
        self.allow_all_nodes = true;
        self
    }

    /// Allows every `(pred, succ)` pair.
    pub fn allow_all_edge_pairs(&mut self) -> &mut Self {
        self.allow_all_edges = true;
        self
    }

    /// Builds the problem.
    ///
    /// # Errors
    ///
    /// Returns an error if either alphabet is empty or any recorded pair
    /// references a label outside its alphabet (including pairs recorded with
    /// unknown names).
    pub fn build(&self) -> Result<NormalizedLcl> {
        NormalizedLcl::from_parts(
            self.name.clone(),
            self.input.clone(),
            self.output.clone(),
            (self.allow_all_nodes, self.node_allowed.iter().copied()),
            (self.allow_all_edges, self.edge_allowed.iter().copied()),
        )
    }
}

impl NormalizedLcl {
    /// Builds a problem from owned parts: the name and alphabets move in,
    /// and each constraint table is `(allow every pair, allowed pairs)`.
    /// [`NormalizedLclBuilder::build`] and
    /// [`crate::ProblemSpec::into_problem`] both build through this, so
    /// they validate alike (see `build` for the errors).
    pub(crate) fn from_parts(
        name: String,
        input: Alphabet,
        output: Alphabet,
        node_pairs: (bool, impl IntoIterator<Item = (usize, usize)>),
        edge_pairs: (bool, impl IntoIterator<Item = (usize, usize)>),
    ) -> Result<NormalizedLcl> {
        if input.is_empty() {
            return Err(ProblemError::EmptyInputAlphabet);
        }
        if output.is_empty() {
            return Err(ProblemError::EmptyOutputAlphabet);
        }
        let alpha = input.len();
        let beta = output.len();
        let mut node_allowed = vec![node_pairs.0; alpha * beta];
        let mut edge_allowed = vec![edge_pairs.0; beta * beta];
        for (i, o) in node_pairs.1 {
            if i >= alpha {
                return Err(ProblemError::LabelOutOfRange {
                    what: "node-constraint input",
                    index: i,
                    alphabet_len: alpha,
                });
            }
            if o >= beta {
                return Err(ProblemError::LabelOutOfRange {
                    what: "node-constraint output",
                    index: o,
                    alphabet_len: beta,
                });
            }
            node_allowed[i * beta + o] = true;
        }
        for (p, q) in edge_pairs.1 {
            if p >= beta {
                return Err(ProblemError::LabelOutOfRange {
                    what: "edge-constraint predecessor",
                    index: p,
                    alphabet_len: beta,
                });
            }
            if q >= beta {
                return Err(ProblemError::LabelOutOfRange {
                    what: "edge-constraint successor",
                    index: q,
                    alphabet_len: beta,
                });
            }
            edge_allowed[p * beta + q] = true;
        }
        Ok(NormalizedLcl {
            tables: Arc::new(Tables {
                name,
                input,
                output,
                node_allowed,
                edge_allowed,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        b.build().expect("valid problem")
    }

    #[test]
    fn builder_produces_expected_tables() {
        let p = three_coloring();
        assert_eq!(p.num_inputs(), 1);
        assert_eq!(p.num_outputs(), 3);
        assert!(p.node_ok(InLabel(0), OutLabel(2)));
        assert!(p.edge_ok(OutLabel(0), OutLabel(1)));
        assert!(!p.edge_ok(OutLabel(1), OutLabel(1)));
        assert_eq!(p.outputs_for_input(InLabel(0)).count(), 3);
        assert_eq!(p.successors_of(OutLabel(0)).count(), 2);
        assert!(p.to_string().contains("3-coloring"));
    }

    #[test]
    fn builder_rejects_empty_alphabets() {
        let b = NormalizedLcl::builder("empty");
        assert_eq!(b.build(), Err(ProblemError::EmptyInputAlphabet));
        let mut b = NormalizedLcl::builder("empty-out");
        b.input_labels(&["a"]);
        assert_eq!(b.build(), Err(ProblemError::EmptyOutputAlphabet));
    }

    #[test]
    fn builder_rejects_unknown_names() {
        let mut b = NormalizedLcl::builder("bad");
        b.input_labels(&["a"]);
        b.output_labels(&["o"]);
        b.allow_node("nope", "o");
        assert!(b.build().is_err());
    }

    #[test]
    fn builder_rejects_out_of_range_indices() {
        let mut b = NormalizedLcl::builder("bad");
        b.input_labels(&["a"]);
        b.output_labels(&["o"]);
        b.allow_edge_idx(0, 3);
        assert!(matches!(
            b.build(),
            Err(ProblemError::LabelOutOfRange { .. })
        ));
    }

    #[test]
    fn coloring_validity_on_cycles() {
        let p = three_coloring();
        let inst = Instance::from_indices(Topology::Cycle, &[0; 6]);
        let good = Labeling::from_indices(&[0, 1, 2, 0, 1, 2]);
        let bad = Labeling::from_indices(&[0, 1, 2, 0, 1, 0]); // wrap-around conflict
        assert!(p.is_valid(&inst, &good));
        assert!(!p.is_valid(&inst, &bad));
        let report = p.check(&inst, &bad);
        assert_eq!(report.violations().len(), 1);
        assert_eq!(report.violations()[0].node, 0);
    }

    #[test]
    fn coloring_validity_on_paths() {
        let p = three_coloring();
        let inst = Instance::from_indices(Topology::Path, &[0; 4]);
        let good = Labeling::from_indices(&[0, 1, 0, 1]);
        assert!(p.is_valid(&inst, &good));
        assert!(p.locally_consistent_at(&inst, &good, 0));
        assert!(p.locally_consistent_at(&inst, &good, 3));
        let bad = Labeling::from_indices(&[0, 0, 1, 2]);
        assert!(!p.locally_consistent_at(&inst, &bad, 1));
        assert!(p.locally_consistent_at(&inst, &bad, 0));
    }

    #[test]
    fn length_mismatch_reported() {
        let p = three_coloring();
        let inst = Instance::from_indices(Topology::Path, &[0, 0]);
        let labeling = Labeling::from_indices(&[0]);
        let report = p.check(&inst, &labeling);
        assert!(!report.is_valid());
        assert!(matches!(
            report.violations()[0].kind,
            ViolationKind::LengthMismatch { .. }
        ));
    }

    #[test]
    fn brute_force_solves_even_cycle_two_coloring() {
        let mut b = NormalizedLcl::builder("2-coloring");
        b.input_labels(&["x"]);
        b.output_labels(&["1", "2"]);
        b.allow_all_node_pairs();
        b.allow_edge_idx(0, 1);
        b.allow_edge_idx(1, 0);
        let p = b.build().unwrap();
        let even = Instance::from_indices(Topology::Cycle, &[0; 6]);
        let odd = Instance::from_indices(Topology::Cycle, &[0; 5]);
        let sol = p.solve_brute_force(&even).expect("even cycle 2-colorable");
        assert!(p.is_valid(&even, &sol));
        assert!(
            p.solve_brute_force(&odd).is_none(),
            "odd cycle not 2-colorable"
        );
    }

    #[test]
    fn brute_force_on_paths_and_empty() {
        let p = three_coloring();
        let inst = Instance::from_indices(Topology::Path, &[0; 7]);
        let sol = p.solve_brute_force(&inst).unwrap();
        assert!(p.is_valid(&inst, &sol));
        let empty = Instance::path(vec![]);
        assert_eq!(p.solve_brute_force(&empty).unwrap().len(), 0);
        let single = Instance::from_indices(Topology::Cycle, &[0]);
        // single node cycle: needs edge_ok(x,x) which 3-coloring forbids
        assert!(p.solve_brute_force(&single).is_none());
    }

    #[test]
    fn solve_path_between_respects_boundaries() {
        let p = three_coloring();
        let inst = Instance::from_indices(Topology::Path, &[0; 5]);
        let sol = p
            .solve_path_between(&inst, 1, 3, Some(OutLabel(0)), Some(OutLabel(0)))
            .expect("middle can be filled");
        assert_eq!(sol.len(), 3);
        assert!(p.edge_ok(OutLabel(0), sol.output(0)));
        assert!(p.edge_ok(sol.output(2), OutLabel(0)));
        // Degenerate interval.
        assert!(p.solve_path_between(&inst, 3, 1, None, None).is_none());
    }
}
