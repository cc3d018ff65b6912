//! E-F1 (Figure 1): encode the unary counter's execution as a good input of
//! Π_{M_B} and verify that the all-Start(φ) output satisfies constraints 1–12.

use lcl_bench::banner;
use lcl_hardness::{solve_pi_mb, PiInput, PiMb, PiOutput, Secret};
use lcl_lba::machines;
use std::time::Instant;

fn main() {
    banner(
        "E-F1",
        "Figure 1 (correct LBA encoding on a path)",
        "good-input length and verification time of the all-Start labeling, per tape size B",
    );
    println!(
        "{:>3} {:>10} {:>14} {:>14}",
        "B", "path len", "encode time", "verify time"
    );
    for b in 3..=8usize {
        let problem = PiMb::new(machines::unary_counter(), b);
        let t0 = Instant::now();
        let input = problem.good_input(Secret::A, 4).expect("halting machine");
        let encode = t0.elapsed();
        let output: Vec<PiOutput> = input
            .iter()
            .map(|i| match i {
                PiInput::Empty => PiOutput::Empty,
                _ => PiOutput::Start(Secret::A),
            })
            .collect();
        let t1 = Instant::now();
        let ok = problem.is_valid(&input, &output);
        let verify = t1.elapsed();
        assert!(ok, "Figure 1 labeling must be accepted");
        // The §3.3 solver reproduces exactly this labeling on good inputs.
        assert_eq!(solve_pi_mb(&problem, &input), output);
        println!(
            "{:>3} {:>10} {:>14.2?} {:>14.2?}",
            b,
            input.len(),
            encode,
            verify
        );
    }
    println!("all good-input labelings accepted ✓ (E-F1)");
}
