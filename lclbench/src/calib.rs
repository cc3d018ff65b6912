//! Host speed, measured with a fixed reference task that belongs to the
//! benchmark, not to the program. On a shared VM the speed of a vCPU
//! drifts by a fifth or more within minutes (other tenants' use of the
//! host's caches and memory bandwidth, which `/proc/stat` steal does not
//! show), and the two vCPUs drift apart. The reference task runs between
//! the segments of a phase on the CPU that does the phase's work, and each
//! segment's times are divided by the host's slowness over it: the
//! reference task's time against `REFERENCE_S`. The task does not change
//! when the program does, so a regression of the program shows in full;
//! only the host's drift cancels. On the 2-vCPU VM the benchmark was tuned
//! on, this cut the spread of `ops_per_s` over five seeds from 0.23 to
//! 0.04 (`cold_classify`) and from 0.10 to 0.02 (`warm_wide`).

use crate::load::{pin_to_cpu, GENERATOR_CPU};
use crate::util::{median, Rng};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// The unit of the scaled times: the reference task's typical time on the
/// host the benchmark was tuned on. Scaled times read as times on a host
/// where the task takes this long.
const REFERENCE_S: f64 = 0.0015;

/// One run of the reference task: sorting, hashing, allocation and number
/// formatting, the kinds of work the classifier and the request path do.
fn reference_once() -> f64 {
    let started = Instant::now();
    let mut rng = Rng::new(0x0072_6566);
    let mut words: Vec<u64> = (0..1 << 14).map(|_| rng.next_u64()).collect();
    words.sort_unstable();
    let mut groups: HashMap<u64, Vec<u32>> = HashMap::new();
    for (i, w) in words.iter().enumerate() {
        groups.entry(w >> 52).or_default().push(i as u32);
    }
    let mut text = String::new();
    for w in words.iter().step_by(8) {
        let _ = write!(text, "{},", w >> 20);
    }
    let parsed: u64 = text
        .split(',')
        .filter_map(|s| s.parse::<u64>().ok())
        .fold(0, u64::wrapping_add);
    black_box((groups.len(), parsed));
    started.elapsed().as_secs_f64()
}

/// The host's slowness now: the median of five runs of the reference task
/// on `cpu`, over `REFERENCE_S`. The calling thread returns to the
/// generator's CPU.
fn slowness(cpu: usize) -> f64 {
    pin_to_cpu(cpu);
    let runs: Vec<f64> = (0..5).map(|_| reference_once()).collect();
    pin_to_cpu(GENERATOR_CPU);
    median(&runs) / REFERENCE_S
}

/// Measures the host's slowness on one CPU between the segments of a
/// phase.
pub struct HostSpeed {
    cpu: usize,
    last: f64,
    seen: Vec<f64>,
}

impl HostSpeed {
    pub fn start(cpu: usize) -> HostSpeed {
        HostSpeed {
            cpu,
            last: slowness(cpu),
            seen: Vec::new(),
        }
    }

    /// The slowness over the segment that just ended: the mean of the
    /// measurements before and after it. Divide the segment's times by it.
    pub fn segment(&mut self) -> f64 {
        let now = slowness(self.cpu);
        let over = (self.last + now) / 2.0;
        self.last = now;
        self.seen.push(over);
        over
    }

    /// The median slowness over the segments so far, for the detail line.
    pub fn median(&self) -> f64 {
        median(&self.seen)
    }
}
