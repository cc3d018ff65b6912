//! The trivial `O(n)`-round algorithm: gather the entire network and output a
//! canonical solution.
//!
//! "As we know, any problem for which a solution exists can be solved in
//! `O(n)` rounds in the LOCAL model by gathering all the graph and solving the
//! problem locally" (paper §3.3). All nodes must of course agree on *which*
//! solution they output; agreement is reached by rotating the gathered cycle
//! so that the node with the globally minimal identifier comes first and then
//! computing a deterministic canonical solution of that rotation.

use lcl_local_sim::{BallView, LocalAlgorithm};
use lcl_problem::{InLabel, Instance, Labeling, NormalizedLcl, OutLabel};

/// A deterministic canonical solution of an instance: the one found by the
/// dynamic program of [`NormalizedLcl::solve_brute_force`], which is a pure
/// function of the problem and the instance.
///
/// Returns `None` if the instance has no valid labeling.
pub fn canonical_solution(problem: &NormalizedLcl, instance: &Instance) -> Option<Labeling> {
    problem.solve_brute_force(instance)
}

/// The trivial `Θ(n)` LOCAL algorithm for an arbitrary normalized problem.
///
/// Every node gathers a radius-`n` view (the whole graph), reconstructs the
/// instance in a rotation all nodes agree on (starting at the minimum
/// identifier for cycles, at the path start for paths), computes the canonical
/// solution and outputs its own label. If the instance has no valid labeling
/// the node outputs label `0`; verification will flag it.
#[derive(Clone, Debug)]
pub struct GatherAndSolve {
    problem: NormalizedLcl,
}

impl GatherAndSolve {
    /// Creates the trivial algorithm for a problem (sharing it: cloning a
    /// problem copies nothing).
    pub fn new(problem: &NormalizedLcl) -> Self {
        GatherAndSolve {
            problem: problem.clone(),
        }
    }

    /// The problem this instance of the algorithm solves.
    pub fn problem(&self) -> &NormalizedLcl {
        &self.problem
    }
}

impl LocalAlgorithm for GatherAndSolve {
    fn radius(&self, n: usize) -> usize {
        n
    }

    fn compute(&self, view: &BallView) -> OutLabel {
        let n = view.n;
        if n == 0 {
            return OutLabel(0);
        }
        // Path case: the view tells us our distance to the start if we can see
        // it; with radius n we always can.
        if let Some(my_pos) = view.distance_to_start() {
            let total = my_pos + 1 + view.right.len();
            let mut inputs: Vec<InLabel> = Vec::with_capacity(total);
            for d in (1..=my_pos).rev() {
                if let Some(l) = view.input_at(-(d as isize)) {
                    inputs.push(l);
                }
            }
            inputs.push(view.center.1);
            for d in 1..=view.right.len() {
                if let Some(l) = view.input_at(d as isize) {
                    inputs.push(l);
                }
            }
            let instance = Instance::path(inputs);
            return match canonical_solution(&self.problem, &instance) {
                Some(solution) => solution.output(my_pos),
                None => OutLabel(0),
            };
        }
        // Cycle case: offsets 0..n-1 to the right enumerate all nodes.
        let ids: Vec<u64> = (0..n)
            .map(|d| view.id_at(d as isize).expect("radius n covers the cycle"))
            .collect();
        let inputs: Vec<InLabel> = (0..n)
            .map(|d| {
                view.input_at(d as isize)
                    .expect("radius n covers the cycle")
            })
            .collect();
        // Rotate so the minimum id comes first.
        let min_pos = (0..n).min_by_key(|&d| ids[d]).unwrap_or(0);
        let rotated: Vec<InLabel> = (0..n).map(|j| inputs[(min_pos + j) % n]).collect();
        let instance = Instance::cycle(rotated);
        match canonical_solution(&self.problem, &instance) {
            Some(solution) => {
                // Our own position in the rotated instance.
                let my_pos = (n - min_pos) % n;
                solution.output(my_pos)
            }
            None => OutLabel(0),
        }
    }

    fn name(&self) -> &str {
        "gather-and-solve"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_local_sim::{validate_algorithm, IdAssignment, Network, SyncSimulator};
    use lcl_problem::Topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn solves_three_coloring_on_cycles() {
        let p = three_coloring();
        let alg = GatherAndSolve::new(&p);
        assert_eq!(alg.name(), "gather-and-solve");
        assert_eq!(alg.problem().name(), "3-coloring");
        let mut rng = StdRng::seed_from_u64(5);
        let nets: Vec<Network> = [5usize, 6, 9, 12]
            .iter()
            .map(|&n| {
                Network::new(
                    Instance::from_indices(Topology::Cycle, &vec![0; n]),
                    IdAssignment::RandomFromSpace { multiplier: 4 },
                    &mut rng,
                )
                .unwrap()
            })
            .collect();
        let outcome = validate_algorithm(&p, &alg, &nets).unwrap();
        assert!(outcome.is_valid(), "{outcome:?}");
    }

    #[test]
    fn solves_on_paths_and_copies_inputs() {
        let p = copy_input();
        let alg = GatherAndSolve::new(&p);
        let net =
            Network::with_sequential_ids(Instance::from_indices(Topology::Path, &[0, 1, 1, 0, 1]));
        let out = SyncSimulator::new().run(&net, &alg).unwrap();
        assert!(p.is_valid(net.instance(), &out));
        assert_eq!(
            out.outputs().iter().map(|o| o.0).collect::<Vec<_>>(),
            vec![0, 1, 1, 0, 1]
        );
    }

    #[test]
    fn all_nodes_agree_on_one_solution() {
        // For 3-coloring many solutions exist; agreement is the point.
        let p = three_coloring();
        let alg = GatherAndSolve::new(&p);
        let mut rng = StdRng::seed_from_u64(11);
        let net = Network::new(
            Instance::from_indices(Topology::Cycle, &[0; 7]),
            IdAssignment::RandomFromSpace { multiplier: 10 },
            &mut rng,
        )
        .unwrap();
        let out = SyncSimulator::new().run(&net, &alg).unwrap();
        assert!(p.is_valid(net.instance(), &out));
    }

    #[test]
    fn unsolvable_instances_get_flagged_not_panicked() {
        // 2-coloring an odd cycle has no solution; the algorithm outputs
        // something and the verifier rejects it.
        let mut b = NormalizedLcl::builder("2-coloring");
        b.input_labels(&["x"]);
        b.output_labels(&["1", "2"]);
        b.allow_all_node_pairs();
        b.allow_edge_idx(0, 1);
        b.allow_edge_idx(1, 0);
        let p = b.build().unwrap();
        let alg = GatherAndSolve::new(&p);
        let net = Network::with_sequential_ids(Instance::from_indices(Topology::Cycle, &[0; 5]));
        let out = SyncSimulator::new().run(&net, &alg).unwrap();
        assert!(!p.is_valid(net.instance(), &out));
    }
}
