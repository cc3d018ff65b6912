//! Concurrency stress for the single-flight memo cache.
//!
//! Where tests/cache_model.rs proves the *semantics* against a reference
//! model, this suite hammers the real [`LruCache`] with a hot-key
//! skewed multi-threaded workload and asserts the concurrency invariants
//! that only show up under real interleavings:
//!
//! * **compute-once, globally**: every closure execution is tallied in a
//!   per-key `AtomicU64`; at the end the executions must equal the cache's
//!   `inserts` exactly — one computation per key per eviction generation,
//!   never a duplicate (N threads racing one cold key do one computation);
//! * **live snapshot consistency**: an observer thread snapshots the stats
//!   *while* the workers run, asserting `entries + evictions == inserts`,
//!   `flight_joins <= hits`, the capacity bound and monotone counters on
//!   every mid-run snapshot (the counters live inside the cache's critical
//!   sections, so no torn snapshot is ever visible);
//! * **panic recovery**: a leader that dies on a hot key wakes its pile of
//!   waiters into electing exactly one successor — nobody deadlocks, no
//!   lock stays poisoned, and the recovery costs exactly one extra
//!   computation.
//!
//! The per-thread op count is capped by the `LCL_CACHE_RACE_OPS` env var so
//! CI can dial the suite to its wall-clock budget (the release-mode stress
//! step raises it; plain `cargo test -q` stays cheap).

use lcl_paths::classifier::cache::LruCache;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

const THREADS: usize = 8;
/// The skewed key universe: small enough that the low keys are genuinely
/// hot, large enough that the capacity below keeps evicting the tail.
const UNIVERSE: u64 = 48;

/// Per-thread operations; override with `LCL_CACHE_RACE_OPS`.
fn ops_per_thread() -> usize {
    std::env::var("LCL_CACHE_RACE_OPS")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(3_000)
}

/// A zipf-ish skew from the seeded shim: the minimum of three uniform draws
/// cubes the density toward low indices, so key 0 is drawn roughly 60x as
/// often as the median key — a hot head with a long cold tail, which is
/// exactly the shape that exercises both hot hits and single-flight (cold
/// tail keys being re-led after eviction).
fn skewed_key(rng: &mut StdRng) -> u64 {
    let a = rng.gen_range(0..UNIVERSE);
    let b = rng.gen_range(0..UNIVERSE);
    let c = rng.gen_range(0..UNIVERSE);
    a.min(b).min(c)
}

fn key(i: u64) -> Vec<u8> {
    i.to_le_bytes().to_vec()
}

/// The one legitimate value for a key; every generation recomputes it, so a
/// joiner can always assert what it must observe.
fn committed_value(i: u64) -> u64 {
    i * 1_000 + 1
}

/// The headline stress: 8 threads × skewed get-or-compute against a cache
/// small enough to keep evicting, with a live observer. The per-key tallies
/// summed must equal `inserts` — each eviction generation of each key was
/// computed exactly once, so no concurrent miss ever duplicated work.
#[test]
fn skewed_race_computes_each_generation_exactly_once() {
    let ops = ops_per_thread();
    // Capacity 32 over a 48-key universe: the hot head stays resident, the
    // tail churns through eviction generations.
    let cache = Arc::new(LruCache::<u64>::new(32));
    let computed: Arc<Vec<AtomicU64>> =
        Arc::new((0..UNIVERSE).map(|_| AtomicU64::new(0)).collect());
    let barrier = Arc::new(Barrier::new(THREADS));
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // The live observer: every mid-run snapshot must satisfy the
        // bookkeeping invariants — they hold inside the critical sections,
        // not just at quiescence.
        {
            let cache = Arc::clone(&cache);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut snapshots = 0u64;
                let mut last = cache.stats();
                while !done.load(Ordering::SeqCst) {
                    let total = cache.stats();
                    assert!(
                        total.is_consistent(),
                        "mid-run snapshot violates the invariants: {total:?}"
                    );
                    assert!(total.entries <= 32, "capacity exceeded mid-run: {total:?}");
                    assert!(
                        total.hits >= last.hits
                            && total.misses >= last.misses
                            && total.inserts >= last.inserts
                            && total.evictions >= last.evictions
                            && total.flight_joins >= last.flight_joins,
                        "a counter went backwards: {last:?} -> {total:?}"
                    );
                    last = total;
                    snapshots += 1;
                    std::thread::yield_now();
                }
                assert!(snapshots > 0, "the observer never observed");
            });
        }
        for thread in 0..THREADS {
            let cache = Arc::clone(&cache);
            let computed = Arc::clone(&computed);
            let barrier = Arc::clone(&barrier);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x5_EED0 + thread as u64);
                barrier.wait();
                for _ in 0..ops {
                    let i = skewed_key(&mut rng);
                    let result = cache
                        .get_or_compute::<()>(&key(i), || {
                            computed[i as usize].fetch_add(1, Ordering::SeqCst);
                            Ok(committed_value(i))
                        })
                        .expect("compute never fails in this trace");
                    assert_eq!(result.value, committed_value(i), "stale or foreign value");
                }
                if barrier.wait().is_leader() {
                    done.store(true, Ordering::SeqCst);
                }
            });
        }
    });

    let total = cache.stats();
    let executions: u64 = computed.iter().map(|c| c.load(Ordering::SeqCst)).sum();
    // The compute-once proof: every closure run corresponds to exactly one
    // committed generation. Duplicated cold-miss work would make
    // executions > inserts; a lost insert would make it smaller.
    assert_eq!(
        executions, total.inserts,
        "computations != committed generations: {total:?}"
    );
    assert_eq!(
        total.flight_leaders, executions,
        "every computation was led through a flight"
    );
    assert_eq!(
        total.misses, total.flight_leaders,
        "pure get_or_compute traffic"
    );
    assert_eq!(
        total.hits + total.misses,
        (THREADS * ops) as u64,
        "every call is exactly one of hit/joined/led: {total:?}"
    );
    assert!(total.is_consistent(), "final snapshot: {total:?}");
    assert_eq!(
        cache.flight_waiters(),
        0,
        "no parked thread outlives the run"
    );
}

/// Panic recovery on a single hot key with every thread piled onto it: the
/// first leader dies, one successor recomputes, everyone else joins or
/// hits. Exactly two executions total, and the cache (and all its locks)
/// stay fully usable afterwards.
#[test]
fn a_dying_leader_on_a_hot_key_wakes_everyone_into_recovery() {
    let cache = Arc::new(LruCache::<u64>::new(8));
    let attempts = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));
    let hot = key(7);

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let cache = Arc::clone(&cache);
            let attempts = Arc::clone(&attempts);
            let barrier = Arc::clone(&barrier);
            let hot = hot.clone();
            scope.spawn(move || {
                barrier.wait();
                loop {
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        cache.get_or_compute::<()>(&hot, || {
                            if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                                // Stall so the other threads pile up as
                                // waiters before the panic wakes them all.
                                std::thread::sleep(std::time::Duration::from_millis(2));
                                panic!("first leader dies with waiters parked");
                            }
                            Ok(77)
                        })
                    }));
                    if let Ok(Ok(computed)) = outcome {
                        assert_eq!(computed.value, 77, "joiners observe the recovery value");
                        break;
                    }
                }
            });
        }
    });

    assert_eq!(
        attempts.load(Ordering::SeqCst),
        2,
        "recovery costs exactly one extra computation"
    );
    let total = cache.stats();
    assert_eq!(total.flight_leaders, 2, "the dead leader and its successor");
    assert_eq!(total.misses, 2);
    assert_eq!(total.inserts, 1, "only the successful leader inserted");
    // Not poisoned: the plain read path, the insert path and the stats path
    // all still work.
    assert_eq!(cache.get(&hot), Some(77));
    assert!(cache.insert(key(8), 88).fresh);
    assert!(cache.stats().is_consistent());
    assert_eq!(cache.flight_waiters(), 0);
}
