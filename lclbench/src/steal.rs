//! Hypervisor steal time: time the host gave the benchmark's vCPUs to
//! something else. On the shared 2-vCPU VM the benchmark was tuned on,
//! stretches of steal slowed the server by a fifth and stretched the open
//! loop's tail tenfold, and they came and went for seconds at a time.
//! A load segment during which the host stole from either CPU did not
//! measure the program, so it is left out, as is a segment in which the
//! load generator fell behind. Neither test looks at the metric itself, so
//! a regression of the program, stalls in a few segments included, shows
//! in full.

/// Steal of at most this many clock ticks (normally 10 ms each) per CPU
/// in a segment leaves the segment counted.
const STEAL_LIMIT_TICKS: u64 = 1;

/// Cumulative steal ticks of CPU 0 and CPU 1, from `/proc/stat`; zero
/// where the file or the field is missing.
fn steal_ticks() -> [u64; 2] {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let mut ticks = [0; 2];
    for (cpu, prefix) in ["cpu0 ", "cpu1 "].iter().enumerate() {
        ticks[cpu] = stat
            .lines()
            .find_map(|line| line.strip_prefix(prefix))
            .and_then(|fields| fields.split_whitespace().nth(7))
            .and_then(|steal| steal.parse().ok())
            .unwrap_or(0);
    }
    ticks
}

/// Watches steal across a sequence of load segments.
pub struct StealWatch {
    last: [u64; 2],
    pub segments: usize,
    pub clean: usize,
}

impl StealWatch {
    pub fn start() -> StealWatch {
        StealWatch {
            last: steal_ticks(),
            segments: 0,
            clean: 0,
        }
    }

    /// Whether the segment that just ended was clean: the host stole at
    /// most `STEAL_LIMIT_TICKS` from each CPU since the previous call.
    pub fn segment_clean(&mut self) -> bool {
        let now = steal_ticks();
        // A counter that steps back counts as no steal, not as a wrap.
        let clean = (0..2).all(|cpu| now[cpu].saturating_sub(self.last[cpu]) <= STEAL_LIMIT_TICKS);
        self.last = now;
        self.segments += 1;
        self.clean += usize::from(clean);
        clean
    }

    /// `"clean/segments"`, for the detail line.
    pub fn summary(&self) -> String {
        format!("\"{}/{}\"", self.clean, self.segments)
    }
}

/// A measure kept over the clean segments of a phase and over all of
/// them; the first is reported unless no segment was clean.
#[derive(Default)]
pub struct Clean<T> {
    clean: T,
    all: T,
    any_clean: bool,
}

impl<T> Clean<T> {
    /// Applies `add` to the measure over all segments, and over the clean
    /// ones if this segment was clean.
    pub fn add(&mut self, clean: bool, add: impl Fn(&mut T)) {
        add(&mut self.all);
        if clean {
            add(&mut self.clean);
            self.any_clean = true;
        }
    }

    pub fn take(self) -> T {
        if self.any_clean {
            self.clean
        } else {
            self.all
        }
    }
}
