//! Seeded randomness, order statistics, process memory and result output.

use std::fmt::Write as _;

/// The splitmix64 output mixer. `solve_stream`'s `seeded` input rule is
/// defined on the wire as `splitmix64(seed ^ i) % alphabet`, so the client
/// recomputes inputs with its own copy instead of calling the server's code.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator: every input of a run derives from the
/// `--seed` through one of these.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(splitmix64(seed ^ 0x6c63_6c62_656e_6368))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The `"metrics"` object of the result line. A non-finite value would
    /// make the line invalid JSON, so it is reported as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_str(s: &str) -> String {
    lcl_paths::problem::json::JsonValue::Str(s.to_string()).to_json_string()
}

/// A latency histogram with 64 log-spaced buckets per power of two of
/// nanoseconds (at most 1.6% relative error) in fixed memory, so the
/// generator's footprint does not grow with the request rate.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; 64 * 60],
            n: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < 64 {
            return ns as usize;
        }
        let e = 63 - u64::from(ns.leading_zeros());
        (((e - 5) << 6) + ((ns >> (e - 6)) & 63)) as usize
    }

    /// The lower bound and width of bucket `b`, in ns.
    fn range(b: usize) -> (f64, f64) {
        if b < 64 {
            return (b as f64, 1.0);
        }
        let (e, m) = ((b >> 6) + 5, (b & 63) as u64);
        let width = 1u64 << (e - 6);
        (((64 + m) * width) as f64, width as f64)
    }

    pub fn record_us(&mut self, us: f64) {
        self.counts[Self::bucket((us.max(0.0) * 1e3) as u64)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Adds `other` with every latency multiplied by `factor`, each bucket
    /// moved as a whole by its midpoint.
    pub fn merge_scaled(&mut self, other: &Hist, factor: f64) {
        for (b, &c) in other.counts.iter().enumerate() {
            if c > 0 {
                let (low, width) = Self::range(b);
                self.counts[Self::bucket(((low + width / 2.0) * factor) as u64)] += c;
            }
        }
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank quantile in µs, interpolated by rank within its
    /// bucket (`0` when empty).
    pub fn quantile_us(&self, p: f64) -> f64 {
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n.max(1));
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if seen + u64::from(c) >= rank {
                let (low, width) = Self::range(b);
                let within = (rank - seen) as f64 - 0.5;
                return (low + width * within / f64::from(c)) / 1e3;
            }
            seen += u64::from(c);
        }
        0.0
    }
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

/// The tail percentile: the highest of p99, p90 and p50 with at least ten
/// samples beyond it.
pub fn tail_pct(samples: u64) -> f64 {
    [0.99, 0.9]
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p) >= 10.0)
        .unwrap_or(0.5)
}
