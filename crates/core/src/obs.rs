//! Dependency-free observability primitives: lock-free log-bucketed latency
//! histograms and the per-request stage-timing record.
//!
//! Built for `lcl-server`'s request path but deliberately generic — nothing
//! in here knows about protocols or sockets:
//!
//! * [`LatencyHistogram`] — an HDR-style histogram over `u64` microsecond
//!   values: power-of-two octaves split into [`SUB_BUCKETS`] linear
//!   sub-buckets each, so recording is two shifts and one relaxed
//!   `fetch_add`, memory is a fixed ~4 KiB of atomics, and any quantile can
//!   be estimated with bounded relative error (≤ 1/[`SUB_BUCKETS`], i.e.
//!   12.5%) from a [`HistogramSnapshot`]. Snapshots are mergeable, which is
//!   what makes per-shard or per-thread histograms aggregatable.
//! * [`TraceRecord`] — the per-stage timing of one finished request, as
//!   the server's slow-request log line reports it.
//!
//! Recording into a histogram never blocks and never allocates.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket bits per power-of-two octave: values within one octave are
/// split into `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 3;

/// Linear sub-buckets per octave (`2^SUB_BITS`): bounds the histogram's
/// relative quantile error at `1 / SUB_BUCKETS` = 12.5%.
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Total bucket count: `SUB_BUCKETS` linear buckets for values below
/// [`SUB_BUCKETS`], then `SUB_BUCKETS` for each of the `64 - SUB_BITS`
/// octaves (msb `SUB_BITS..=63`) up to `u64::MAX`.
pub const BUCKETS: usize = SUB_BUCKETS + SUB_BUCKETS * (64 - SUB_BITS as usize);

/// The bucket a value lands in. Total order is preserved: `a <= b` implies
/// `bucket_index(a) <= bucket_index(b)`.
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as usize; // >= SUB_BITS
    let octave = msb - SUB_BITS as usize;
    let sub = ((value >> octave) & (SUB_BUCKETS as u64 - 1)) as usize;
    SUB_BUCKETS + octave * SUB_BUCKETS + sub
}

/// The smallest value that lands in bucket `index` (the inclusive lower
/// bound of the bucket's range).
pub fn bucket_lower(index: usize) -> u64 {
    debug_assert!(index < BUCKETS);
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let octave = (index - SUB_BUCKETS) / SUB_BUCKETS;
    let sub = ((index - SUB_BUCKETS) % SUB_BUCKETS) as u64;
    let msb = octave + SUB_BITS as usize;
    (1u64 << msb) + (sub << octave)
}

/// The largest value that lands in bucket `index` (the inclusive upper
/// bound of the bucket's range). This is what a quantile estimate reports,
/// so estimates never understate the true value by more than one bucket.
pub fn bucket_upper(index: usize) -> u64 {
    if index + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_lower(index + 1) - 1
    }
}

/// A lock-free log-bucketed latency histogram over `u64` values
/// (conventionally microseconds).
///
/// [`LatencyHistogram::record`] is safe from any thread: every counter is a
/// relaxed atomic, so concurrent recorders never contend on more than a
/// cache line. Reads go through [`LatencyHistogram::snapshot`], which is a
/// point-in-time copy (not a consistent cut — counters recorded mid-copy may
/// or may not appear; for quiesced states the snapshot is exact). A
/// snapshot's count is the sum of the buckets it copied, not a separate
/// tally, so a scrape under load never shows more bucket observations than
/// its count.
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: Box<[AtomicU64; BUCKETS]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: Box::new([0u64; BUCKETS].map(AtomicU64::new)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free, allocation-free, any thread.
    pub fn record(&self, value: u64) {
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter, its count the sum of the
    /// copied buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = Box::new([0u64; BUCKETS]);
        for (slot, counter) in counts.iter_mut().zip(self.counts.iter()) {
            *slot = counter.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: counts.iter().sum(),
            counts,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`]: mergeable, and the basis
/// for quantile estimation and text exposition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HistogramSnapshot {
    counts: Box<[u64; BUCKETS]>,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: Box::new([0u64; BUCKETS]),
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Folds `other` into `self` — the merge of two histograms is exactly
    /// the histogram of the union of their observations (buckets align
    /// because the layout is global).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (into, from) in self.counts.iter_mut().zip(other.counts.iter()) {
            *into += from;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) as the **upper bound**
    /// of the bucket holding the `ceil(q * count)`-th smallest observation,
    /// so the estimate never understates the true value by more than one
    /// bucket width (≤ 12.5% relative error above [`SUB_BUCKETS`]). Returns
    /// 0 for an empty histogram; `q = 0` reports the first nonempty bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &bucket) in self.counts.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                // The max is a tighter bound than the top bucket's ceiling.
                return bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    /// Per-bucket counts paired with their inclusive upper bounds, for
    /// nonempty buckets only — the shape a text exposition wants.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(index, &count)| (bucket_upper(index), count))
    }
}

/// Request kinds a [`TraceRecord`] can carry: an opaque small integer the
/// embedder maps to its own kind enum (`lcl-server` uses the protocol
/// order, with [`TraceRecord::KIND_INVALID`] for unparseable frames).
pub type TraceKind = u8;

/// The per-stage timing of one finished request, as emitted on a
/// slow-trace log line.
///
/// Stage durations are microseconds and **disjoint**: `queue` is the wait
/// between dispatch and a pool worker picking the job up, `parse` /
/// `compute` / `serialize` are the worker's phases, and `write` is the time
/// from the serialized reply being ready to its last byte leaving for the
/// socket. `total` is measured independently end-to-end, so it may exceed
/// the stage sum by scheduling gaps between stages.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// Request id echoed on the wire (`None` when unsalvageable).
    pub id: Option<i64>,
    /// Embedder-defined request kind ([`TraceRecord::KIND_INVALID`] for
    /// frames that never resolved to one).
    pub kind: TraceKind,
    /// Whether the request produced an ok reply.
    pub ok: bool,
    /// Canonical hash of the problem the request touched, when it had one.
    pub problem_hash: Option<u64>,
    /// Whether the classification was served from the memo cache (`None`
    /// when the request never consulted it).
    pub cache_hit: Option<bool>,
    /// Pool-queue wait, in microseconds.
    pub queue_micros: u64,
    /// Frame parse time, in microseconds.
    pub parse_micros: u64,
    /// Execution time, in microseconds.
    pub compute_micros: u64,
    /// Reply serialization time, in microseconds.
    pub serialize_micros: u64,
    /// Reply write/flush time, in microseconds.
    pub write_micros: u64,
    /// End-to-end latency (frame read to reply written), in microseconds.
    pub total_micros: u64,
}

impl Default for TraceRecord {
    /// An empty record of kind [`TraceRecord::KIND_INVALID`] — the kind of
    /// a frame that never resolved to one, not kind index 0.
    fn default() -> TraceRecord {
        TraceRecord {
            id: None,
            kind: TraceRecord::KIND_INVALID,
            ok: false,
            problem_hash: None,
            cache_hit: None,
            queue_micros: 0,
            parse_micros: 0,
            compute_micros: 0,
            serialize_micros: 0,
            write_micros: 0,
            total_micros: 0,
        }
    }
}

impl TraceRecord {
    /// The [`TraceRecord::kind`] of a frame that never resolved to a
    /// request kind.
    pub const KIND_INVALID: TraceKind = u8::MAX;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_inverts() {
        let mut previous = None;
        for &value in &[
            0u64,
            1,
            2,
            7,
            8,
            9,
            15,
            16,
            100,
            1_000,
            65_535,
            65_536,
            1 << 40,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let index = bucket_index(value);
            assert!(index < BUCKETS, "{value} → {index}");
            assert!(
                bucket_lower(index) <= value && value <= bucket_upper(index),
                "{value} outside bucket {index}: [{}, {}]",
                bucket_lower(index),
                bucket_upper(index)
            );
            if let Some(prev) = previous {
                assert!(index >= prev, "bucket order broke at {value}");
            }
            previous = Some(index);
        }
        // Exhaustive inversion over the linear region and octave starts.
        for index in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lower(index)), index);
            assert_eq!(bucket_index(bucket_upper(index)), index);
        }
    }

    /// Seeded xorshift so the distribution test is deterministic.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn quantiles_match_a_reference_sorted_vector_within_one_bucket() {
        let histogram = LatencyHistogram::new();
        let mut reference: Vec<u64> = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        // A long-tailed mix: mostly small, some mid, occasional huge.
        for i in 0..10_000u64 {
            let r = xorshift(&mut state);
            let value = match r % 100 {
                0..=79 => r % 200,
                80..=97 => 1_000 + r % 50_000,
                _ => 1_000_000 + r % 10_000_000,
            } + i % 3;
            histogram.record(value);
            reference.push(value);
        }
        reference.sort_unstable();
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, reference.len() as u64);
        assert_eq!(snapshot.sum, reference.iter().sum::<u64>());
        assert_eq!(snapshot.max, *reference.last().unwrap());
        for &q in &[0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * reference.len() as f64).ceil() as usize).clamp(1, reference.len());
            let exact = reference[rank - 1];
            let estimate = snapshot.quantile(q);
            let exact_bucket = bucket_index(exact);
            let estimate_bucket = bucket_index(estimate);
            assert!(
                estimate_bucket.abs_diff(exact_bucket) <= 1,
                "q={q}: estimate {estimate} (bucket {estimate_bucket}) vs exact {exact} \
                 (bucket {exact_bucket})"
            );
            assert!(
                estimate >= bucket_lower(exact_bucket),
                "q={q}: estimate {estimate} understates exact {exact} by over a bucket"
            );
        }
    }

    #[test]
    fn merged_snapshots_equal_the_union_histogram() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let union = LatencyHistogram::new();
        let mut state = 42u64;
        for i in 0..2_000u64 {
            let value = xorshift(&mut state) % 1_000_000;
            if i % 2 == 0 { &a } else { &b }.record(value);
            union.record(value);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, union.snapshot());
        assert_eq!(merged.mean(), union.snapshot().mean());
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let snapshot = LatencyHistogram::new().snapshot();
        assert_eq!(snapshot.count, 0);
        assert_eq!(snapshot.quantile(0.5), 0);
        assert_eq!(snapshot.mean(), 0);
        assert_eq!(snapshot.nonzero_buckets().count(), 0);
    }
}
