//! Model-based correctness suite for the O(1)-LRU memo cache.
//!
//! The same random op trace (peeks, classify-style get→miss→insert cycles,
//! `get_or_compute` calls with occasionally failing closures, blind inserts,
//! occasional clears — at tiny budgets, so evictions are constant) is driven
//! through [`LruCache`] and a naive reference model whose recency is a plain
//! `Vec` with linear scans: obviously-correct exact-LRU semantics, none of
//! the slab/intrusive-list machinery under test. Every op must agree
//! exactly — returned values, flight outcomes, keep-first winners, *which
//! keys* were evicted — and the final counters must be identical, peaks
//! included.
//!
//! The suite runs the matrix twice: once **count-bounded** (the unit-weigher
//! default, where an insert evicts at most one victim) and once
//! **weight-bounded** (`LruCache::with_weigher` with a deterministic
//! non-unit weigher, where one heavy insert may evict several light entries
//! and an over-heavy entry stays alone). The model mirrors both with the
//! same evict-from-the-back loop.
//!
//! The multi-threaded tests at the bottom assert the single-flight contract
//! itself — exactly one leader per cold key per generation, every joiner
//! observing the leader's value, panicking leaders recovered by a
//! successor.
//!
//! Per house style (see tests/properties.rs) the generators are seeded
//! `StdRng`s, so every failure reproduces exactly from its case index.

use lcl_paths::classifier::cache::{CacheStats, FlightOutcome, LruCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

const CASES: u64 = 24;
const OPS: usize = 500;

/// How the cache under test is bounded.
#[derive(Copy, Clone, Debug)]
enum Bound {
    /// `LruCache::new(capacity)`: every entry weighs 1.
    Count(usize),
    /// `LruCache::with_weigher(budget, weigh)`.
    Weight(u64),
}

/// The deterministic non-unit weigher both the real cache and the model use
/// in weighted traces: weights 1..=7 derived from the value.
fn weigh(value: &u64) -> u64 {
    *value % 7 + 1
}

/// The reference model: a recency-ordered vector (front = most recently
/// used) plus the counters the real cache keeps.
struct Model {
    budget: u64,
    weigher: fn(&u64) -> u64,
    /// Front = most recently used; eviction victims pop off the back.
    /// Each entry remembers the weight it was priced at insert time.
    entries: Vec<(Vec<u8>, u64, u64)>,
    stats: CacheStats,
}

impl Model {
    fn new(bound: Bound) -> Self {
        let (budget, weigher): (u64, fn(&u64) -> u64) = match bound {
            Bound::Count(capacity) => (capacity as u64, |_| 1),
            Bound::Weight(budget) => (budget, weigh),
        };
        Model {
            budget,
            weigher,
            entries: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// The value under `key`, moved to the front; counts nothing.
    fn touch(&mut self, key: &[u8]) -> Option<u64> {
        let at = self.entries.iter().position(|(k, _, _)| k == key)?;
        let entry = self.entries.remove(at);
        let value = entry.1;
        self.entries.insert(0, entry);
        Some(value)
    }

    fn get(&mut self, key: &[u8]) -> Option<u64> {
        let value = self.touch(key)?;
        self.stats.hits += 1;
        Some(value)
    }

    /// Returns `(winning value, fresh, evicted keys)` with the same
    /// keep-first and evict-until-it-fits semantics as the real cache.
    fn insert(&mut self, key: Vec<u8>, value: u64) -> (u64, bool, Vec<Vec<u8>>) {
        if let Some(winner) = self.touch(&key) {
            return (winner, false, Vec::new());
        }
        let weight = (self.weigher)(&value);
        self.entries.insert(0, (key, value, weight));
        let stats = &mut self.stats;
        stats.weight += weight;
        let mut evicted = Vec::new();
        while stats.weight > self.budget && self.entries.len() > 1 {
            let (victim, _, victim_weight) = self.entries.pop().expect("guarded non-empty");
            stats.weight -= victim_weight;
            stats.evictions += 1;
            evicted.push(victim);
        }
        stats.entries = self.entries.len();
        stats.inserts += 1;
        stats.peak_entries = stats.peak_entries.max(stats.entries);
        stats.peak_weight = stats.peak_weight.max(stats.weight);
        (value, true, evicted)
    }

    fn clear(&mut self) {
        self.stats.evictions += self.entries.len() as u64;
        self.entries.clear();
        self.stats.entries = 0;
        self.stats.weight = 0;
    }
}

fn key(i: u64) -> Vec<u8> {
    i.to_le_bytes().to_vec()
}

/// Drives one seeded trace through both implementations, asserting agreement
/// op by op and counter by counter.
fn run_trace(case: u64, bound: Bound) {
    let mut rng = StdRng::seed_from_u64(0xCAC4E + case);
    let cache = match bound {
        Bound::Count(capacity) => LruCache::new(capacity),
        Bound::Weight(budget) => LruCache::with_weigher(budget, weigh),
    };
    let mut model = Model::new(bound);
    // Keys overlap heavily: a universe of ~3x the expected resident entry
    // count keeps both hits and evictions frequent at these tiny budgets
    // (weighted entries average weight 4, so ~budget/4 fit).
    let universe = match bound {
        Bound::Count(capacity) => (capacity as u64) * 3,
        Bound::Weight(budget) => (budget * 3 / 4).max(4),
    };
    let mut next_value = 0u64;

    for op in 0..OPS {
        let k = key(rng.gen_range(0..universe));
        let ctx = format!("case {case}, op {op}, {bound:?}");
        match rng.gen_range(0..100u32) {
            // Peek (Engine::cached): a hit touches and counts, a miss is free.
            0..=24 => {
                assert_eq!(cache.get(&k), model.get(&k), "{ctx}");
            }
            // Classify-shaped cycle driven by hand: get, and on a miss
            // record the miss and insert the freshly "computed" value.
            25..=54 => {
                let got = cache.get(&k);
                assert_eq!(got, model.get(&k), "{ctx}");
                if got.is_none() {
                    cache.record_miss();
                    model.stats.misses += 1;
                    next_value += 1;
                    let real = cache.insert(k.clone(), next_value);
                    let (value, fresh, evicted) = model.insert(k, next_value);
                    assert_eq!(real.value, value, "{ctx}");
                    assert_eq!(real.fresh, fresh, "{ctx}");
                    let real_evicted: Vec<Vec<u8>> =
                        real.evicted.iter().map(|k| k.to_vec()).collect();
                    assert_eq!(real_evicted, evicted, "{ctx}: wrong eviction victims");
                }
            }
            // The same cycle through the single-flight front door, with the
            // occasional failing computation (errors are never cached).
            // Single-threaded there is no one to join, so the outcome must
            // be Hit on a warm key and Led on a cold one.
            55..=74 => {
                let fails = rng.gen_range(0..8u32) == 0;
                next_value += 1;
                let candidate = next_value;
                let expected = model.get(&k);
                let real = cache.get_or_compute(&k, || {
                    if fails {
                        Err("compute failed")
                    } else {
                        Ok(candidate)
                    }
                });
                match expected {
                    Some(value) => {
                        let computed = real.unwrap_or_else(|e| panic!("{ctx}: hit errored: {e}"));
                        assert_eq!(computed.value, value, "{ctx}");
                        assert_eq!(computed.outcome, FlightOutcome::Hit, "{ctx}");
                    }
                    None if fails => {
                        // The failed leader counted its miss and election
                        // but inserted nothing.
                        assert_eq!(real.unwrap_err(), "compute failed", "{ctx}");
                        model.stats.misses += 1;
                        model.stats.flight_leaders += 1;
                    }
                    None => {
                        let computed = real.unwrap_or_else(|e| panic!("{ctx}: led errored: {e}"));
                        assert_eq!(computed.value, candidate, "{ctx}");
                        assert_eq!(computed.outcome, FlightOutcome::Led, "{ctx}");
                        model.stats.misses += 1;
                        model.stats.flight_leaders += 1;
                        let (value, fresh, _evicted) = model.insert(k, candidate);
                        assert_eq!(value, candidate, "{ctx}");
                        assert!(fresh, "{ctx}: the key was cold");
                    }
                }
            }
            // Blind insert, possibly racing a present key (keep-first).
            75..=97 => {
                next_value += 1;
                let real = cache.insert(k.clone(), next_value);
                let (value, fresh, evicted) = model.insert(k, next_value);
                assert_eq!(real.value, value, "{ctx}");
                assert_eq!(real.fresh, fresh, "{ctx}");
                let real_evicted: Vec<Vec<u8>> = real.evicted.iter().map(|k| k.to_vec()).collect();
                assert_eq!(real_evicted, evicted, "{ctx}: wrong eviction victims");
            }
            // Rare clear: counters survive, dropped entries count as evicted.
            _ => {
                cache.clear();
                model.clear();
            }
        }
        let stats = cache.stats();
        assert!(stats.is_consistent(), "{ctx}: {stats:?}");
        assert!(
            stats.weight <= model.budget || stats.entries == 1,
            "{ctx}: over budget with several entries: {stats:?}"
        );
    }

    // Identical outcomes imply identical counters, peaks included.
    assert_eq!(cache.stats(), model.stats, "case {case}: stats diverged");
    // And the same recency order: the snapshot lists it coldest first.
    let order: Vec<Vec<u8>> = cache
        .snapshot_entries()
        .iter()
        .map(|(k, _)| k.to_vec())
        .collect();
    let expected: Vec<Vec<u8>> = model
        .entries
        .iter()
        .rev()
        .map(|(k, _, _)| k.clone())
        .collect();
    assert_eq!(order, expected, "case {case}: recency order diverged");
    if let Bound::Count(capacity) = bound {
        let stats = cache.stats();
        assert!(stats.entries <= capacity, "case {case}: capacity exceeded");
        assert_eq!(
            stats.weight, stats.entries as u64,
            "case {case}: unit weigher"
        );
    }
}

/// The count-bounded matrix: several tiny capacities, each driven through
/// `CASES` independently seeded traces.
#[test]
fn cache_agrees_with_naive_reference_model() {
    for capacity in [1, 2, 4, 7, 13, 32] {
        for case in 0..CASES {
            run_trace(case, Bound::Count(capacity));
        }
    }
}

/// The weight-bounded matrix: the same trace shapes against tiny weight
/// budgets, where single inserts evict several victims and over-heavy
/// entries stay alone.
#[test]
fn weighted_cache_agrees_with_weighted_reference_model() {
    for budget in [3, 6, 11, 16, 29, 64] {
        for case in 0..CASES {
            run_trace(case, Bound::Weight(budget));
        }
    }
}

/// The value the one legitimate computation for `key_index` produces; every
/// joiner must observe exactly this.
fn committed_value(key_index: u64) -> u64 {
    key_index * 31 + 7
}

/// The single-flight contract under real concurrency: 8 threads hammer an
/// overlapping key set through `get_or_compute` (the capacity is large
/// enough that nothing is evicted, so each key has exactly one generation),
/// with a mix of slow and fast compute closures. A per-key atomic counts
/// *actual* closure executions: exactly one leader per cold key, however
/// many threads race it, and every thread observes the leader's value.
#[test]
fn concurrent_get_or_compute_elects_exactly_one_leader_per_key() {
    const THREADS: usize = 8;
    const KEYS: u64 = 16;
    let cache = Arc::new(LruCache::<u64>::new(64));
    let computed: Arc<Vec<AtomicU64>> = Arc::new((0..KEYS).map(|_| AtomicU64::new(0)).collect());
    let barrier = Arc::new(Barrier::new(THREADS));

    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let cache = Arc::clone(&cache);
            let computed = Arc::clone(&computed);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                // Each thread walks the keys in its own seeded order, so
                // different keys are cold for different threads at
                // different times.
                let mut rng = StdRng::seed_from_u64(0xF11657 + thread as u64);
                let mut order: Vec<u64> = (0..KEYS).collect();
                use rand::seq::SliceRandom;
                order.shuffle(&mut rng);
                barrier.wait();
                for &i in &order {
                    let slow = i % 3 == 0;
                    let result = cache
                        .get_or_compute::<()>(&key(i), || {
                            computed[i as usize].fetch_add(1, Ordering::SeqCst);
                            if slow {
                                // A slow leader keeps its flight open long
                                // enough for joiners to pile up.
                                std::thread::sleep(std::time::Duration::from_millis(1));
                            }
                            Ok(committed_value(i))
                        })
                        .expect("compute never fails here");
                    assert_eq!(
                        result.value,
                        committed_value(i),
                        "every thread observes the leader's value"
                    );
                }
            });
        }
    });

    for (i, count) in computed.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::SeqCst),
            1,
            "key {i}: cold key computed more than once"
        );
    }
    let total = cache.stats();
    assert_eq!(total.flight_leaders, KEYS);
    assert_eq!(total.misses, KEYS);
    assert_eq!(total.inserts, KEYS);
    assert_eq!(total.entries, KEYS as usize, "nothing was evicted");
    assert_eq!(
        total.hits + total.misses,
        (THREADS as u64) * KEYS,
        "every call is exactly one of hit/join/lead: {total:?}"
    );
    assert!(total.is_consistent(), "{total:?}");
    assert_eq!(cache.flight_waiters(), 0, "no flight outlives the trace");
}

/// Panic recovery: the first computation of every even key panics its
/// leader. Waiters must wake, elect a successor, and end up with the
/// committed value; the pool of threads never deadlocks and no cache lock
/// stays poisoned. The per-key attempt counter proves the recovery is
/// *minimal*: exactly one extra computation per panicked key.
#[test]
fn panicking_leaders_are_replaced_without_extra_computations() {
    const THREADS: usize = 8;
    const KEYS: u64 = 8;
    let cache = Arc::new(LruCache::<u64>::new(64));
    let attempts: Arc<Vec<AtomicU64>> = Arc::new((0..KEYS).map(|_| AtomicU64::new(0)).collect());
    let barrier = Arc::new(Barrier::new(THREADS));

    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let cache = Arc::clone(&cache);
            let attempts = Arc::clone(&attempts);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xDEAD + thread as u64);
                let mut order: Vec<u64> = (0..KEYS).collect();
                use rand::seq::SliceRandom;
                order.shuffle(&mut rng);
                barrier.wait();
                for &i in &order {
                    // Retry until served: a thread that inherits the
                    // panicking first attempt propagates that panic (as the
                    // engine would) and must be able to come back.
                    loop {
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                cache.get_or_compute::<()>(&key(i), || {
                                    let n = attempts[i as usize].fetch_add(1, Ordering::SeqCst);
                                    if n == 0 && i % 2 == 0 {
                                        panic!("first leader of an even key dies");
                                    }
                                    Ok(committed_value(i))
                                })
                            }));
                        if let Ok(Ok(computed)) = outcome {
                            assert_eq!(computed.value, committed_value(i));
                            break;
                        }
                    }
                }
            });
        }
    });

    for i in 0..KEYS {
        let expected = if i % 2 == 0 { 2 } else { 1 };
        assert_eq!(
            attempts[i as usize].load(Ordering::SeqCst),
            expected,
            "key {i}: recovery must cost exactly one retry"
        );
    }
    let total = cache.stats();
    let evens = KEYS / 2;
    assert_eq!(total.flight_leaders, KEYS + evens);
    assert_eq!(total.misses, KEYS + evens);
    assert_eq!(total.inserts, KEYS, "only successful leaders insert");
    for i in 0..KEYS {
        assert_eq!(
            cache.get(&key(i)),
            Some(committed_value(i)),
            "the cache survived its panicking leaders"
        );
    }
    assert!(cache.stats().is_consistent());
    assert_eq!(cache.flight_waiters(), 0);
}
