//! Synthesis of asymptotically optimal LOCAL algorithms from a feasible
//! structure — the constructive halves of Theorems 8 and 9 (Lemmas 17 and 27).
//!
//! * [`LogStarAlgorithm`] — the `O(log* n)` algorithm: compute a well-spaced
//!   ruling set (Lemma 16 via the doubling construction of `lcl-algorithms`),
//!   label the 2-node block at each anchor with the feasible function applied
//!   to the types of the two adjacent gaps, and complete every gap with a
//!   deterministic dynamic program — possible by the definition of a feasible
//!   structure, whatever the gap's input is.
//! * [`ConstantAlgorithm`] — the `O(1)` algorithm: nodes deep inside an input
//!   region that repeats a short primitive pattern output the chosen periodic
//!   labeling of that pattern (aligned to the canonical occurrence
//!   boundaries, Lemma 26); the remaining nodes complete the gaps between
//!   labeled regions with the same dynamic program. Small networks fall back
//!   to gathering everything; a node in an irregular stretch longer than the
//!   practical constant outputs a label valid for its own input only, which
//!   is not a valid labeling for problems with edge constraints.
//! * [`SynthesizedAlgorithm`] — the tagged union returned by the classifier;
//!   `Θ(n)` and unsolvable problems get the trivial gather-everything
//!   algorithm.

use crate::feasibility::FeasibleStructure;
use crate::types_info::GapTypes;
use lcl_algorithms::{
    classify_position, ruling_set_gap_bounds, ruling_set_radius, GatherAndSolve, PartitionParams,
    PositionClass, RulingSetComputer,
};
use lcl_local_sim::{BallView, LocalAlgorithm};
use lcl_problem::{InLabel, Instance, NormalizedLcl, OutLabel};
use lcl_semigroup::{TypeId, TypeSemigroup};
use std::sync::Arc;

/// The algorithm attached to a classification verdict.
#[derive(Clone, Debug)]
pub enum SynthesizedAlgorithm {
    /// An `O(1)`-round algorithm (the problem is in the constant class).
    Constant(ConstantAlgorithm),
    /// A `Θ(log* n)`-round algorithm.
    LogStar(LogStarAlgorithm),
    /// The trivial gather-everything algorithm (`Θ(n)` and unsolvable
    /// problems).
    GatherAll(GatherAndSolve),
}

impl SynthesizedAlgorithm {
    /// The feasible structure the algorithm was synthesized from (`None` for
    /// the gather-everything algorithm).
    pub fn feasible_structure(&self) -> Option<&FeasibleStructure> {
        match self {
            SynthesizedAlgorithm::Constant(a) => Some(&a.core.structure),
            SynthesizedAlgorithm::LogStar(a) => Some(&a.core.structure),
            SynthesizedAlgorithm::GatherAll(_) => None,
        }
    }

    /// The type semigroup the algorithm keeps to classify gap words (`None`
    /// for the gather-everything algorithm).
    pub fn semigroup(&self) -> Option<&TypeSemigroup> {
        match self {
            SynthesizedAlgorithm::Constant(a) => Some(&a.core.semigroup),
            SynthesizedAlgorithm::LogStar(a) => Some(&a.core.semigroup),
            SynthesizedAlgorithm::GatherAll(_) => None,
        }
    }
}

impl LocalAlgorithm for SynthesizedAlgorithm {
    fn radius(&self, n: usize) -> usize {
        match self {
            SynthesizedAlgorithm::Constant(a) => a.radius(n),
            SynthesizedAlgorithm::LogStar(a) => a.radius(n),
            SynthesizedAlgorithm::GatherAll(a) => a.radius(n),
        }
    }

    fn compute(&self, view: &BallView) -> OutLabel {
        match self {
            SynthesizedAlgorithm::Constant(a) => a.compute(view),
            SynthesizedAlgorithm::LogStar(a) => a.compute(view),
            SynthesizedAlgorithm::GatherAll(a) => a.compute(view),
        }
    }

    fn name(&self) -> &str {
        match self {
            SynthesizedAlgorithm::Constant(a) => a.name(),
            SynthesizedAlgorithm::LogStar(a) => a.name(),
            SynthesizedAlgorithm::GatherAll(a) => a.name(),
        }
    }
}

/// Shared pieces of the two fast synthesized algorithms. The problem and the
/// semigroup are shared with the classifier's [`GapTypes`], not copied.
#[derive(Clone, Debug)]
struct SynthesisCore {
    problem: NormalizedLcl,
    semigroup: Arc<TypeSemigroup>,
    quantified: Vec<TypeId>,
    structure: FeasibleStructure,
    min_gap: usize,
}

impl SynthesisCore {
    fn new(info: &GapTypes, structure: FeasibleStructure) -> Self {
        SynthesisCore {
            problem: info.problem().clone(),
            semigroup: Arc::clone(info.shared_semigroup()),
            quantified: info.quantified().to_vec(),
            structure,
            min_gap: info.min_gap(),
        }
    }

    /// The gather-everything algorithm for small networks.
    fn gather(&self) -> GatherAndSolve {
        GatherAndSolve::new(&self.problem)
    }

    /// The quantified-type index of a gap word (must have length ≥ 1).
    fn gap_type_index(&self, word: &[InLabel]) -> Option<usize> {
        let t = self.semigroup.type_of_word(word).ok()?;
        self.quantified.iter().position(|&x| x == t)
    }

    /// Fills a gap with inputs `gap` between a node already labeled `pred`
    /// and a node already labeled `succ`, returning the gap labels.
    fn fill_gap(&self, gap: &[InLabel], pred: OutLabel, succ: OutLabel) -> Option<Vec<OutLabel>> {
        if gap.is_empty() {
            return if self.problem.edge_ok(pred, succ) {
                Some(vec![])
            } else {
                None
            };
        }
        let instance = Instance::path(gap.to_vec());
        let labeling =
            self.problem
                .solve_path_between(&instance, 0, gap.len() - 1, Some(pred), Some(succ))?;
        Some(labeling.outputs().to_vec())
    }
}

// ---------------------------------------------------------------------------
// The Θ(log* n) algorithm.
// ---------------------------------------------------------------------------

/// The synthesized `O(log* n)` algorithm (Lemma 17 on top of Lemma 16).
#[derive(Clone, Debug)]
pub struct LogStarAlgorithm {
    core: SynthesisCore,
    gather: GatherAndSolve,
    level: usize,
}

impl LogStarAlgorithm {
    /// Builds the algorithm from the problem's type information and a feasible
    /// structure found by [`crate::feasibility::find_feasible`].
    pub fn new(info: &GapTypes, structure: FeasibleStructure) -> Self {
        let core = SynthesisCore::new(info, structure);
        // Smallest ruling-set level whose minimum anchor spacing leaves gaps of
        // at least `min_gap` nodes between 2-node anchor blocks.
        let mut level = 1usize;
        while ruling_set_gap_bounds(level).0 < core.min_gap + 2 {
            level += 1;
        }
        LogStarAlgorithm {
            gather: core.gather(),
            core,
            level,
        }
    }

    /// The ruling-set level used for the anchors.
    pub fn level(&self) -> usize {
        self.level
    }

    fn max_spacing(&self) -> usize {
        ruling_set_gap_bounds(self.level).1
    }

    fn small_threshold(&self) -> usize {
        4 * self.max_spacing() + 8
    }

    /// Computes the block labels of the anchor at `anchor` (an offset within
    /// the view) from the types of its two adjacent gaps.
    fn block_labels(
        &self,
        view: &BallView,
        rs: &RulingSetComputer<'_>,
        anchor: isize,
    ) -> Option<(OutLabel, OutLabel)> {
        let hi = self.max_spacing() as isize;
        // Previous anchor (left of `anchor`).
        let mut prev = None;
        for d in 1..=hi + 1 {
            if rs.is_member(self.level, anchor - d)? {
                prev = Some(anchor - d);
                break;
            }
        }
        let prev = prev?;
        // Next anchor (right of `anchor`).
        let mut next = None;
        for d in 1..=hi + 1 {
            if rs.is_member(self.level, anchor + d)? {
                next = Some(anchor + d);
                break;
            }
        }
        let next = next?;
        // Left gap: between the previous anchor's block and this block.
        let left_gap: Vec<InLabel> = ((prev + 2)..anchor)
            .map(|o| view.input_at(o))
            .collect::<Option<Vec<_>>>()?;
        let right_gap: Vec<InLabel> = ((anchor + 2)..next)
            .map(|o| view.input_at(o))
            .collect::<Option<Vec<_>>>()?;
        let left_type = self.core.gap_type_index(&left_gap)?;
        let right_type = self.core.gap_type_index(&right_gap)?;
        let s0 = view.input_at(anchor)?;
        let s1 = view.input_at(anchor + 1)?;
        self.core.structure.block(left_type, s0, s1, right_type)
    }
}

impl LocalAlgorithm for LogStarAlgorithm {
    fn radius(&self, n: usize) -> usize {
        if n <= self.small_threshold() {
            return n;
        }
        ruling_set_radius(self.level, n, 6 * self.max_spacing() + 16)
    }

    fn compute(&self, view: &BallView) -> OutLabel {
        let n = view.n;
        if n <= self.small_threshold() {
            return self.gather.compute(view);
        }
        let rs = RulingSetComputer::new(view);
        let hi = self.max_spacing() as isize;
        // The nearest anchor at or before me.
        let mut anchor = None;
        for d in 0..=hi {
            if rs.is_member(self.level, -d) == Some(true) {
                anchor = Some(-d);
                break;
            }
        }
        let Some(anchor) = anchor else {
            return OutLabel(0);
        };
        if anchor >= -1 {
            // I am inside the anchor block {anchor, anchor + 1}.
            let Some((first, last)) = self.block_labels(view, &rs, anchor) else {
                return OutLabel(0);
            };
            return if anchor == 0 { first } else { last };
        }
        // I am inside the gap that follows the block {anchor, anchor+1}.
        let mut next = None;
        for d in 1..=hi + 1 {
            if rs.is_member(self.level, anchor + d) == Some(true) {
                next = Some(anchor + d);
                break;
            }
        }
        let Some(next) = next else {
            return OutLabel(0);
        };
        let Some((_, left_last)) = self.block_labels(view, &rs, anchor) else {
            return OutLabel(0);
        };
        let Some((right_first, _)) = self.block_labels(view, &rs, next) else {
            return OutLabel(0);
        };
        let gap: Option<Vec<InLabel>> = ((anchor + 2)..next).map(|o| view.input_at(o)).collect();
        let Some(gap) = gap else {
            return OutLabel(0);
        };
        let my_index = (0 - (anchor + 2)) as usize;
        match self.core.fill_gap(&gap, left_last, right_first) {
            Some(labels) if my_index < labels.len() => labels[my_index],
            _ => OutLabel(0),
        }
    }

    fn name(&self) -> &str {
        "synthesized-log-star"
    }
}

// ---------------------------------------------------------------------------
// The O(1) algorithm.
// ---------------------------------------------------------------------------

/// The synthesized `O(1)` algorithm (Lemma 27 on top of the
/// `(ℓ_width, ℓ_count, ℓ_pattern)`-partition).
#[derive(Clone, Debug)]
pub struct ConstantAlgorithm {
    core: SynthesisCore,
    gather: GatherAndSolve,
    params: PartitionParams,
    /// Maximum gap (in nodes) between two labeled periodic regions that the
    /// view-based gap filling handles; nodes in longer irregular stretches get
    /// a label valid for their own input only (see the module documentation).
    max_handled_gap: usize,
    practical_radius: usize,
}

impl ConstantAlgorithm {
    /// Builds the algorithm from the type information, the feasible structure
    /// (which must contain periodic pattern labelings) and the pattern length
    /// bound `κ` that was used for the feasibility check.
    pub fn new(info: &GapTypes, structure: FeasibleStructure, kappa: usize) -> Self {
        let core = SynthesisCore::new(info, structure);
        let kappa = kappa.max(1);
        // The core radius must exceed min_gap + 2κ so that two distinct
        // periodic regions are always separated by a gap of at least min_gap
        // unlabeled nodes (Fine–Wilf argument).
        let count = (core.min_gap + 2 * kappa + 2).div_ceil(kappa) + 2;
        let params = PartitionParams::new(kappa, count, 1);
        let d = params.core_radius();
        let max_handled_gap = 8 * (d + core.min_gap) + 64;
        let practical_radius = 2 * (max_handled_gap + d + kappa) + 32;
        ConstantAlgorithm {
            gather: core.gather(),
            core,
            params,
            max_handled_gap,
            practical_radius,
        }
    }

    /// The partition parameters in use.
    pub fn partition_params(&self) -> &PartitionParams {
        &self.params
    }

    /// The constant radius used on large networks.
    pub fn practical_radius(&self) -> usize {
        self.practical_radius
    }

    /// Whether the node at `offset` is *labeled by a periodic core*: its
    /// radius-`D` window repeats a primitive pattern of length ≤ κ, and the
    /// entire canonical occurrence containing it is likewise deep. Returns the
    /// output label in that case.
    fn core_label(&self, view: &BallView, offset: isize) -> Option<OutLabel> {
        let (pattern, phase) = self.deep_pattern(view, offset)?;
        // The canonical occurrence containing `offset` spans
        // [offset - phase, offset - phase + |p| - 1]; all of it must be deep
        // with the same pattern.
        let start = offset - phase as isize;
        for j in 0..pattern.len() as isize {
            let (p2, _) = self.deep_pattern(view, start + j)?;
            if p2 != pattern {
                return None;
            }
        }
        let labeling = self.core.structure.pattern_labeling(&pattern)?;
        Some(labeling.labeling[phase])
    }

    /// The canonical pattern and phase of the node at `offset`, if its
    /// radius-`D` window is periodic with period ≤ κ.
    fn deep_pattern(&self, view: &BallView, offset: isize) -> Option<(Vec<InLabel>, usize)> {
        let d = self.params.core_radius() as isize;
        let window: Option<Vec<InLabel>> = ((offset - d)..=(offset + d))
            .map(|o| view.input_at(o))
            .collect();
        let window = window?;
        match classify_position(&window, d as usize, &self.params) {
            PositionClass::PeriodicCore { pattern, phase } => Some((pattern, phase)),
            PositionClass::Other => None,
        }
    }
}

impl LocalAlgorithm for ConstantAlgorithm {
    fn radius(&self, n: usize) -> usize {
        n.min(self.practical_radius)
    }

    fn compute(&self, view: &BallView) -> OutLabel {
        let n = view.n;
        if n <= self.practical_radius {
            return self.gather.compute(view);
        }
        if let Some(label) = self.core_label(view, 0) {
            return label;
        }
        // I am in a gap: find the nearest core-labeled nodes on both sides.
        let limit = self.max_handled_gap as isize;
        let mut left = None;
        for d in 1..=limit {
            if let Some(label) = self.core_label(view, -d) {
                left = Some((-d, label));
                break;
            }
        }
        let mut right = None;
        for d in 1..=limit {
            if let Some(label) = self.core_label(view, d) {
                right = Some((d, label));
                break;
            }
        }
        let (Some((l_off, l_label)), Some((r_off, r_label))) = (left, right) else {
            // Irregular stretch longer than the practical constant: fall back
            // to a locally valid label (documented limitation; the benchmark
            // workloads keep irregular stretches bounded).
            return self
                .core
                .problem
                .outputs_for_input(view.center.1)
                .next()
                .unwrap_or(OutLabel(0));
        };
        let gap: Option<Vec<InLabel>> = ((l_off + 1)..r_off).map(|o| view.input_at(o)).collect();
        let Some(gap) = gap else {
            return OutLabel(0);
        };
        let my_index = (0 - (l_off + 1)) as usize;
        match self.core.fill_gap(&gap, l_label, r_label) {
            Some(labels) if my_index < labels.len() => labels[my_index],
            _ => OutLabel(0),
        }
    }

    fn name(&self) -> &str {
        "synthesized-constant"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::find_feasible;
    use lcl_local_sim::{validate_algorithm, IdAssignment, Network, SyncSimulator};
    use lcl_problem::Topology;
    use lcl_semigroup::primitive_strings_up_to;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Input-phase 2-coloring: on `(0 1)`-periodic inputs the nodes must
    /// 2-colour according to the input phase; elsewhere anything goes.
    /// This problem is `O(1)` but its solution genuinely depends on the input.
    fn phase_locked() -> NormalizedLcl {
        let mut b = NormalizedLcl::builder("phase-locked");
        b.input_labels(&["0", "1"]);
        b.output_labels(&["A", "B"]);
        b.allow_node_idx(0, 0);
        b.allow_node_idx(1, 1);
        b.allow_all_edge_pairs();
        b.build().unwrap()
    }

    fn random_cycle(n: usize, alpha: u16, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs: Vec<u16> = (0..n).map(|_| rng.gen_range(0..alpha)).collect();
        let mut rng2 = StdRng::seed_from_u64(seed ^ 0xabcdef);
        Network::new(
            Instance::from_indices(Topology::Cycle, &inputs),
            IdAssignment::RandomFromSpace { multiplier: 4 },
            &mut rng2,
        )
        .unwrap()
    }

    #[test]
    fn logstar_algorithm_three_coloring_is_valid() {
        let p = three_coloring();
        let info = GapTypes::compute(&p, 10_000).unwrap();
        let structure = find_feasible(&info, &[], 1_000_000).unwrap().unwrap();
        let alg = LogStarAlgorithm::new(&info, structure);
        assert!(alg.level() >= 1);
        assert_eq!(alg.name(), "synthesized-log-star");
        // Small cycles use the gather-all fallback; larger ones the anchors.
        let nets: Vec<Network> = [8usize, 20, 90, 200]
            .iter()
            .enumerate()
            .map(|(i, &n)| random_cycle(n, 1, i as u64))
            .collect();
        let outcome = validate_algorithm(&p, &alg, &nets).unwrap();
        assert!(outcome.is_valid(), "{outcome:?}");
    }

    #[test]
    fn logstar_radius_grows_slowly() {
        let p = three_coloring();
        let info = GapTypes::compute(&p, 10_000).unwrap();
        let structure = find_feasible(&info, &[], 1_000_000).unwrap().unwrap();
        let alg = LogStarAlgorithm::new(&info, structure);
        let r_small = alg.radius(1 << 10);
        let r_large = alg.radius(1 << 20);
        assert!(r_large >= r_small);
        assert!(
            r_large - r_small <= 200,
            "log* growth only: {r_small} -> {r_large}"
        );
        assert!(r_large < 1 << 10, "far below linear");
    }

    #[test]
    fn constant_algorithm_phase_locked_is_valid() {
        let p = phase_locked();
        let info = GapTypes::compute(&p, 10_000).unwrap();
        let kappa = info.min_gap().clamp(1, 3);
        let patterns: Vec<Vec<InLabel>> = primitive_strings_up_to(2, kappa)
            .into_iter()
            .filter(|w| {
                // canonical rotations only
                let mut best = w.clone();
                for s in 1..w.len() {
                    let rot: Vec<InLabel> = (0..w.len()).map(|i| w[(i + s) % w.len()]).collect();
                    if rot < best {
                        best = rot;
                    }
                }
                best == *w
            })
            .collect();
        let structure = find_feasible(&info, &patterns, 1_000_000).unwrap().unwrap();
        let alg = ConstantAlgorithm::new(&info, structure, kappa);
        assert_eq!(alg.name(), "synthesized-constant");
        assert!(alg.partition_params().pattern >= 1);
        // Radius is a constant for large n.
        assert_eq!(alg.radius(1 << 30), alg.practical_radius());
        assert!(alg.radius(10) <= 10);

        // Workload 1: small random cycles (gather-all path).
        let mut nets: Vec<Network> = (0..4)
            .map(|i| random_cycle(24 + 3 * i, 2, 77 + i as u64))
            .collect();
        // Workload 2: large periodic cycles with sparse defects (periodic-core
        // + gap-filling path).
        let n = 2 * alg.practical_radius() + 64;
        for seed in 0..2u64 {
            let mut inputs: Vec<u16> = (0..n).map(|i| (i % 2) as u16).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            // two defects far apart
            let d1 = rng.gen_range(0..n / 2);
            let d2 = d1 + n / 2;
            inputs[d1] = 1 - inputs[d1];
            inputs[d2 % n] = 1 - inputs[d2 % n];
            let mut rng2 = StdRng::seed_from_u64(seed + 1000);
            nets.push(
                Network::new(
                    Instance::from_indices(Topology::Cycle, &inputs),
                    IdAssignment::RandomFromSpace { multiplier: 4 },
                    &mut rng2,
                )
                .unwrap(),
            );
        }
        let outcome = validate_algorithm(&p, &alg, &nets).unwrap();
        assert!(outcome.is_valid(), "{outcome:?}");
    }

    #[test]
    fn synthesized_enum_delegates() {
        let p = three_coloring();
        let info = GapTypes::compute(&p, 10_000).unwrap();
        let structure = find_feasible(&info, &[], 1_000_000).unwrap().unwrap();
        let alg = SynthesizedAlgorithm::LogStar(LogStarAlgorithm::new(&info, structure));
        assert_eq!(alg.name(), "synthesized-log-star");
        assert!(alg.radius(1000) > 0);
        let gather = SynthesizedAlgorithm::GatherAll(GatherAndSolve::new(&p));
        assert_eq!(gather.radius(123), 123);
        assert_eq!(gather.name(), "gather-and-solve");
        let net = random_cycle(9, 1, 3);
        let out = SyncSimulator::new().run(&net, &gather).unwrap();
        assert!(p.is_valid(net.instance(), &out));
    }
}
