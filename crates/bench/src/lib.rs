//! Shared helpers for the benchmark harness.
//!
//! Every bench target is a standalone experiment binary (`harness = false`)
//! that regenerates one figure- or theorem-level artifact of the paper and
//! prints the series it measured; two ablation benches additionally use
//! criterion for statistically robust timings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lcl_local_sim::{IdAssignment, Network};
use lcl_problem::{Instance, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A cycle network with uniformly random inputs from an alphabet of size
/// `alpha` and random identifiers.
pub fn random_cycle_network(n: usize, alpha: usize, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs: Vec<u16> = (0..n).map(|_| rng.gen_range(0..alpha as u16)).collect();
    let mut rng2 = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    Network::new(
        Instance::from_indices(Topology::Cycle, &inputs),
        IdAssignment::RandomFromSpace { multiplier: 8 },
        &mut rng2,
    )
    .expect("network construction")
}

/// A cycle network whose input repeats the pattern `0 1 0 1 …` with `defects`
/// randomly flipped positions — the workload family used by the `O(1)`
/// experiments (periodic background, sparse irregularities).
pub fn periodic_cycle_network(n: usize, defects: usize, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inputs: Vec<u16> = (0..n).map(|i| (i % 2) as u16).collect();
    for _ in 0..defects {
        let pos = rng.gen_range(0..n);
        inputs[pos] = 1 - inputs[pos];
    }
    let mut rng2 = StdRng::seed_from_u64(seed ^ 0xabcd);
    Network::new(
        Instance::from_indices(Topology::Cycle, &inputs),
        IdAssignment::RandomFromSpace { multiplier: 8 },
        &mut rng2,
    )
    .expect("network construction")
}

/// Prints a standard experiment header so the bench output is self-describing.
pub fn banner(id: &str, paper_artifact: &str, what: &str) {
    println!("==============================================================");
    println!("experiment {id} — reproduces {paper_artifact}");
    println!("{what}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_generators_produce_expected_shapes() {
        let net = random_cycle_network(32, 3, 1);
        assert_eq!(net.len(), 32);
        let per = periodic_cycle_network(64, 2, 1);
        assert_eq!(per.len(), 64);
        let flips: usize = per
            .instance()
            .inputs()
            .iter()
            .enumerate()
            .filter(|(i, l)| l.index() != i % 2)
            .count();
        assert!(flips <= 2);
    }
}
