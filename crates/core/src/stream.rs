//! Streaming solve: label instances of millions of nodes in O(window) memory.
//!
//! [`Engine::solve`] materializes the instance, the network and the full
//! labeling — three O(n) allocations. For the `solve_stream` service path the
//! instance instead arrives as a [`StreamInstanceSpec`] (topology, length,
//! input rule), and [`Engine::solve_stream`] returns a [`StreamSolution`]: a
//! cursor that synthesizes the optimal LOCAL algorithm once and then produces
//! the labeling chunk by chunk, verifying incrementally, without ever holding
//! more than one chunk plus one view window in memory.
//!
//! The per-node views are byte-identical to what
//! [`SyncSimulator::view`](lcl_local_sim::SyncSimulator::view) builds over a
//! materialized [`Network`](lcl_local_sim::Network) with sequential
//! identifiers: on a cycle the simulator's wrap-and-pad walk visits position
//! `(i ± k) mod n` at offset `±k` for every `k ≤ radius`, and on a path the
//! walks clip at the endpoints — both reproducible by index arithmetic over
//! the spec's O(1) input oracle. Streamed labelings therefore match
//! [`Engine::solve`] exactly wherever both apply.
//!
//! Only O(1) and O(log* n) problems can stream: their synthesized algorithms
//! have views of bounded radius. A [`Complexity::Linear`] problem's
//! gather-and-solve algorithm needs the whole instance and is rejected up
//! front, as are unsolvable problems.

use crate::engine::Engine;
use crate::verdict::{Classification, Complexity};
use crate::{ClassifierError, Result};
use lcl_local_sim::{BallView, LocalAlgorithm, SimError};
use lcl_problem::{NormalizedLcl, OutLabel, StreamInstanceSpec, Topology};
use std::sync::Arc;

/// Safety cap on streamed view radii, mirroring the default
/// [`SyncSimulator`](lcl_local_sim::SyncSimulator) cap.
pub const STREAM_RADIUS_CAP: usize = 1 << 22;

/// An in-progress streaming solve: classification plus a cursor over the
/// labeling.
///
/// Produced by [`Engine::solve_stream`]. Call [`Self::next_chunk`] until it
/// returns `None`; each call simulates and verifies the next block of nodes.
/// The memory high-water mark is one chunk plus one radius-`r` view window,
/// observable through [`Self::peak_resident_nodes`].
#[derive(Debug)]
pub struct StreamSolution {
    problem: NormalizedLcl,
    spec: StreamInstanceSpec,
    classification: Arc<Classification>,
    radius: usize,
    n: u64,
    alpha: usize,
    /// Next node index to emit; `n` once the stream is exhausted.
    next: u64,
    /// Output of node 0, kept for the cycle's wrap-around edge check.
    first: Option<OutLabel>,
    /// Output of the previously emitted node, for the incremental edge check.
    prev: Option<OutLabel>,
    peak_resident: usize,
    failed: bool,
}

impl StreamSolution {
    fn new(
        problem: &NormalizedLcl,
        spec: &StreamInstanceSpec,
        classification: Arc<Classification>,
    ) -> Result<Self> {
        match classification.complexity() {
            Complexity::Unsolvable => {
                return Err(ClassifierError::Solve {
                    what: format!(
                        "problem {} is unsolvable (witness of length {})",
                        problem.name(),
                        classification
                            .unsolvability_witness()
                            .map_or(0, lcl_problem::Instance::len),
                    ),
                });
            }
            Complexity::Linear => {
                return Err(ClassifierError::Solve {
                    what: format!(
                        "problem {} needs Θ(n) rounds (gather-and-solve); \
                         solve_stream supports only O(1) and O(log* n) problems",
                        problem.name(),
                    ),
                });
            }
            Complexity::Constant | Complexity::LogStar => {}
        }
        let n = spec.length;
        let n_usize = usize::try_from(n).map_err(|_| ClassifierError::TooLarge {
            what: format!("streamed instance of {n} nodes exceeds the address space"),
        })?;
        let radius = classification.algorithm().radius(n_usize);
        if radius > STREAM_RADIUS_CAP {
            return Err(SimError::RadiusTooLarge {
                radius,
                cap: STREAM_RADIUS_CAP,
            }
            .into());
        }
        Ok(StreamSolution {
            problem: problem.clone(),
            spec: spec.clone(),
            classification,
            radius,
            n,
            alpha: problem.num_inputs(),
            next: 0,
            first: None,
            prev: None,
            peak_resident: 0,
            failed: false,
        })
    }

    /// The classification backing the stream.
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// The complexity class of the problem.
    pub fn complexity(&self) -> Complexity {
        self.classification.complexity()
    }

    /// The number of LOCAL rounds (= view radius) the synthesized algorithm
    /// uses on this instance length.
    pub fn rounds(&self) -> usize {
        self.radius
    }

    /// Total number of nodes the stream describes.
    pub fn nodes(&self) -> u64 {
        self.n
    }

    /// Number of nodes already emitted by [`Self::next_chunk`].
    pub fn emitted(&self) -> u64 {
        self.next
    }

    /// High-water mark of simultaneously materialized nodes: the largest
    /// chunk emitted so far plus the `2·radius + 1` nodes of one view window.
    /// Stays O(chunk + radius) however long the instance — the streaming
    /// guarantee the benches assert.
    pub fn peak_resident_nodes(&self) -> usize {
        self.peak_resident
    }

    /// Builds node `i`'s radius-`r` ball view by index arithmetic, replicating
    /// `SyncSimulator::view` over sequential identifiers (`id(p) = p + 1`).
    fn view_at(&self, i: u64) -> BallView {
        let n = self.n;
        let radius = self.radius;
        let entry = |p: u64| (p + 1, self.spec.input_at(p, self.alpha));
        let (left, right): (Vec<_>, Vec<_>) = match self.spec.topology {
            Topology::Cycle => (
                (1..=radius as u64)
                    .map(|k| entry((i + n - k % n) % n))
                    .collect(),
                (1..=radius as u64).map(|k| entry((i + k) % n)).collect(),
            ),
            Topology::Path => (
                (1..=radius as u64)
                    .take_while(|&k| k <= i)
                    .map(|k| entry(i - k))
                    .collect(),
                (1..=radius as u64)
                    .take_while(|&k| i + k < n)
                    .map(|k| entry(i + k))
                    .collect(),
            ),
        };
        BallView {
            n: self.n as usize,
            radius,
            center: entry(i),
            left,
            right,
        }
    }

    /// Simulates and verifies the next `max_nodes` nodes (at least one).
    ///
    /// Returns `None` once every node has been emitted or after a failure;
    /// chunks arrive in node order, and the concatenation of all chunks is
    /// exactly the labeling [`Engine::solve`] would produce on the
    /// materialized instance.
    ///
    /// # Errors
    ///
    /// `Some(Err(..))` if the synthesized algorithm's output violates a node
    /// or edge constraint at some position (for a cycle, the wrap-around edge
    /// is checked while emitting the final chunk). Solvable problems can
    /// still have degenerate instances with no valid labeling — e.g. 3-cycle
    /// coloring of a 1-node cycle — and this is how a streamed solve reports
    /// them. The error is terminal: subsequent calls return `None`.
    pub fn next_chunk(&mut self, max_nodes: usize) -> Option<Result<Vec<OutLabel>>> {
        if self.failed || self.next >= self.n {
            return None;
        }
        let classification = Arc::clone(&self.classification);
        let algorithm = classification.algorithm();
        let end = self.n.min(self.next + max_nodes.max(1) as u64);
        let mut chunk = Vec::with_capacity((end - self.next) as usize);
        for i in self.next..end {
            let view = self.view_at(i);
            let label = algorithm.compute(&view);
            if !self.problem.node_ok(view.center.1, label) {
                return Some(Err(self.fail(i, "node")));
            }
            if let Some(prev) = self.prev {
                if !self.problem.edge_ok(prev, label) {
                    return Some(Err(self.fail(i, "edge")));
                }
            }
            if i == 0 {
                self.first = Some(label);
            }
            self.prev = Some(label);
            chunk.push(label);
            self.peak_resident = self.peak_resident.max(chunk.len() + 2 * self.radius + 1);
        }
        self.next = end;
        if self.next == self.n && self.spec.topology == Topology::Cycle {
            // The wrap-around edge closes the cycle; check it before handing
            // out the final chunk so a bad seam surfaces as an error, not as
            // a silently invalid labeling.
            let (last, first) = (self.prev.expect("emitted"), self.first.expect("emitted"));
            if !self.problem.edge_ok(last, first) {
                return Some(Err(self.fail(0, "wrap-around edge")));
            }
        }
        Some(Ok(chunk))
    }

    /// Marks the stream failed and builds the terminal error.
    fn fail(&mut self, at: u64, which: &str) -> ClassifierError {
        self.failed = true;
        ClassifierError::Solve {
            what: format!(
                "synthesized {} algorithm violated the {which} constraint at node {at} of a \
                 streamed {}-node {}; this instance admits no labeling the algorithm can find",
                self.complexity(),
                self.n,
                self.spec.topology,
            ),
        }
    }
}

impl Engine {
    /// Classifies the problem on the calling thread (like [`Engine::solve`],
    /// so it is safe inside an [`Engine::dispatch`]ed task), then returns a
    /// [`StreamSolution`] cursor that labels the streamed instance chunk by
    /// chunk in O(chunk + radius) memory.
    ///
    /// # Errors
    ///
    /// Rejects invalid specs ([`StreamInstanceSpec::validate`]), unsolvable
    /// and Θ(n) problems, and view radii beyond [`STREAM_RADIUS_CAP`];
    /// propagates classification errors.
    pub fn solve_stream(
        &self,
        problem: &NormalizedLcl,
        spec: &StreamInstanceSpec,
    ) -> Result<StreamSolution> {
        self.solve_stream_keyed(&problem.structural_key(), problem, spec)
    }

    /// [`Engine::solve_stream`] for a caller that already holds the
    /// problem's [structural key](NormalizedLcl::structural_key) `key`.
    ///
    /// # Errors
    ///
    /// See [`Engine::solve_stream`].
    pub fn solve_stream_keyed(
        &self,
        key: &[u8],
        problem: &NormalizedLcl,
        spec: &StreamInstanceSpec,
    ) -> Result<StreamSolution> {
        spec.validate(problem.num_inputs())?;
        let (classification, _) = self.classify_keyed(key, problem)?;
        StreamSolution::new(problem, spec, classification)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_problem::StreamInputs;

    fn coloring(k: u16) -> NormalizedLcl {
        let mut b = NormalizedLcl::builder(format!("{k}-coloring"));
        b.input_labels(&["x"]);
        let names: Vec<String> = (1..=k).map(|i| i.to_string()).collect();
        b.output_labels(&names);
        b.allow_all_node_pairs();
        for p in 0..k {
            for q in 0..k {
                if p != q {
                    b.allow_edge_idx(p, q);
                }
            }
        }
        b.build().unwrap()
    }

    fn trivial() -> NormalizedLcl {
        let mut b = NormalizedLcl::builder("trivial");
        b.input_labels(&["x", "y"]);
        b.output_labels(&["o"]);
        b.allow_all_node_pairs();
        b.allow_all_edge_pairs();
        b.build().unwrap()
    }

    fn spec(topology: Topology, length: u64, inputs: StreamInputs) -> StreamInstanceSpec {
        StreamInstanceSpec {
            topology,
            length,
            inputs,
        }
    }

    fn drain(solution: &mut StreamSolution, chunk: usize) -> Vec<OutLabel> {
        let mut all = Vec::new();
        while let Some(part) = solution.next_chunk(chunk) {
            all.extend(part.expect("chunk must verify"));
        }
        all
    }

    #[test]
    fn streamed_labeling_matches_materialized_solve() {
        // LogStar problems stream on cycles; the synthesized log-star
        // algorithm does not handle long paths (a limitation it shares with
        // `Engine::solve`, which streaming reproduces exactly). Constant
        // problems stream on both topologies.
        let engine = Engine::builder().parallelism(1).build();
        for (topology, problem, inputs) in [
            (
                Topology::Cycle,
                coloring(3),
                StreamInputs::Uniform { label: 0 },
            ),
            (
                Topology::Cycle,
                trivial(),
                StreamInputs::Pattern {
                    pattern: vec![0, 1],
                },
            ),
            (Topology::Path, trivial(), StreamInputs::Seeded { seed: 11 }),
            (
                Topology::Path,
                trivial(),
                StreamInputs::Pattern {
                    pattern: vec![1, 0, 0],
                },
            ),
        ] {
            {
                let spec = spec(topology, 257, inputs);
                let mut streamed = engine.solve_stream(&problem, &spec).unwrap();
                let concat = drain(&mut streamed, 7);
                let instance = spec.materialize(problem.num_inputs());
                let solved = engine.solve(&problem, &instance).unwrap();
                assert_eq!(
                    concat,
                    solved.labeling().outputs(),
                    "stream vs solve diverged: {} on a {topology}",
                    problem.name(),
                );
                assert_eq!(streamed.rounds(), solved.rounds());
                assert_eq!(streamed.complexity(), solved.complexity());
                assert_eq!(streamed.emitted(), 257);
                assert!(streamed.next_chunk(7).is_none(), "stream is exhausted");
            }
        }
    }

    #[test]
    fn chunk_boundaries_do_not_change_the_labeling() {
        let engine = Engine::builder().parallelism(1).build();
        let problem = coloring(3);
        let spec = spec(Topology::Cycle, 100, StreamInputs::Uniform { label: 0 });
        let baseline = drain(&mut engine.solve_stream(&problem, &spec).unwrap(), 100);
        for chunk in [1, 3, 64, 1000] {
            let got = drain(&mut engine.solve_stream(&problem, &spec).unwrap(), chunk);
            assert_eq!(got, baseline, "chunk size {chunk} changed the output");
        }
    }

    #[test]
    fn memory_stays_windowed_on_long_instances() {
        let engine = Engine::builder().parallelism(1).build();
        let problem = trivial();
        // Uniform inputs keep the synthesized algorithm on its fast periodic
        // core path; random inputs would stream just as correctly but pay a
        // per-node gap scan.
        let n = 100_000u64;
        let spec = spec(Topology::Path, n, StreamInputs::Uniform { label: 1 });
        let mut solution = engine.solve_stream(&problem, &spec).unwrap();
        let labels = drain(&mut solution, 4096);
        assert_eq!(labels.len() as u64, n);
        let window = 2 * solution.rounds() + 1;
        assert_eq!(solution.peak_resident_nodes(), 4096 + window);
        assert!((solution.peak_resident_nodes() as u64) < n / 10);
    }

    #[test]
    fn rejects_unsolvable_and_linear_problems() {
        let engine = Engine::builder().parallelism(1).build();
        let two = coloring(2); // unsolvable on odd cycles
        let s = spec(Topology::Cycle, 10, StreamInputs::Uniform { label: 0 });
        let err = engine.solve_stream(&two, &s).unwrap_err();
        assert!(err.to_string().contains("unsolvable"), "{err}");

        // Global orientation: output 0 before 1, with the flip allowed only
        // once — solvable on paths but Θ(n) (gather-and-solve).
        let mut b = NormalizedLcl::builder("orient");
        b.input_labels(&["x"]);
        b.output_labels(&["a", "b"]);
        b.allow_all_node_pairs();
        b.allow_edge_idx(0, 0);
        b.allow_edge_idx(0, 1);
        b.allow_edge_idx(1, 1);
        let orient = b.build().unwrap();
        let engine2 = Engine::builder().parallelism(1).build();
        let verdict = engine2.classify(&orient).unwrap();
        if verdict.complexity() == Complexity::Linear {
            let err = engine2.solve_stream(&orient, &s).unwrap_err();
            assert!(err.to_string().contains("gather-and-solve"), "{err}");
        }
    }

    #[test]
    fn invalid_specs_and_degenerate_instances_are_reported() {
        let engine = Engine::builder().parallelism(1).build();
        let problem = coloring(3);
        // Out-of-alphabet input label.
        let bad = spec(Topology::Cycle, 10, StreamInputs::Uniform { label: 7 });
        assert!(matches!(
            engine.solve_stream(&problem, &bad).unwrap_err(),
            ClassifierError::Problem(_)
        ));
        // A 1-node cycle admits no proper coloring: the wrap-around edge
        // check must fail while emitting the final chunk.
        let singleton = spec(Topology::Cycle, 1, StreamInputs::Uniform { label: 0 });
        let mut solution = engine.solve_stream(&problem, &singleton).unwrap();
        let err = solution.next_chunk(8).unwrap().unwrap_err();
        assert!(err.to_string().contains("wrap-around"), "{err}");
        assert!(solution.next_chunk(8).is_none(), "failure is terminal");
    }

    #[test]
    fn solve_stream_is_pool_safe() {
        let engine = Arc::new(Engine::builder().parallelism(1).build());
        let problem = coloring(3);
        let s = spec(Topology::Cycle, 64, StreamInputs::Uniform { label: 0 });
        let direct = drain(&mut engine.solve_stream(&problem, &s).unwrap(), 10);
        // Safe from a dispatched job even on a single-worker pool.
        let engine_for_task = Arc::clone(&engine);
        let rx = engine.dispatch(move || {
            let mut sol = engine_for_task.solve_stream(&problem, &s)?;
            let mut labels = Vec::new();
            while let Some(chunk) = sol.next_chunk(16) {
                labels.extend(chunk?);
            }
            Ok::<_, ClassifierError>(labels)
        });
        assert_eq!(rx.recv().unwrap().unwrap(), direct);
    }

    #[test]
    fn streamed_views_match_the_simulator_exactly() {
        // The index-arithmetic views must be byte-identical to what the
        // simulator builds over the materialized network — wrap, pad and
        // clip included (radius beyond n exercises the cycle pad).
        let engine = Engine::builder().parallelism(1).build();
        let problem = trivial();
        for topology in [Topology::Cycle, Topology::Path] {
            let s = spec(topology, 5, StreamInputs::Seeded { seed: 3 });
            let mut solution = engine.solve_stream(&problem, &s).unwrap();
            solution.radius = 7; // force the pad/clip regime
            let network =
                lcl_local_sim::Network::with_sequential_ids(s.materialize(problem.num_inputs()));
            let sim = lcl_local_sim::SyncSimulator::new();
            for i in 0..5 {
                assert_eq!(
                    solution.view_at(i as u64),
                    sim.view(&network, i, 7),
                    "view {i} diverged on a {topology}"
                );
            }
        }
    }
}
