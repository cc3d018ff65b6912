//! The sharded, O(1)-per-operation memo cache behind [`Engine`](crate::Engine).
//!
//! [`ShardedLruCache`] replaces the engine's original single-lock cache, whose
//! LRU eviction scanned every entry for its victim on insert (O(entries)) and
//! whose one `RwLock` serialized all writers. Here the key space is split
//! across N **shards** (N a power of two; keys are hash-routed). Each shard is
//! built from three synchronization domains:
//!
//! * a read-mostly **index** (`RwLock<HashMap>`) from key to the cached value
//!   plus its LRU slot — the only lock a hit needs, and a *read* lock at that,
//!   so concurrent hits on one hot key proceed in parallel;
//! * the **LRU state** (`Mutex`): a slab of nodes threaded onto an intrusive
//!   doubly-linked recency list (`prev`/`next` are slot indices into the slab
//!   — no pointers, no `unsafe`), most-recent at the head, eviction victim at
//!   the tail, together with the bookkeeping counters;
//! * the **flight table** (`Mutex<HashMap>`): one condvar slot per key whose
//!   value is currently being computed, implementing per-key single-flight
//!   (see below).
//!
//! Hit-touch (unlink + relink at head), insert, and evict (pop the tail) are
//! all O(1), and operations on different shards never contend. A single-shard
//! cache is exactly the old global LRU: same victims, in the same order.
//!
//! # The hot-key read fast lane
//!
//! [`ShardedLruCache::get`] takes the index **read** lock, clones the `Arc`'d
//! value, and then refreshes LRU recency only *opportunistically*: a
//! `try_lock` on the LRU mutex. If the mutex is free (always true
//! single-threaded) the entry is touched exactly as before and the hit counts
//! as a **locked hit**; if another thread holds it, the touch is skipped —
//! sampled touch-on-hit — and the hit counts as a **fast hit**. Under
//! contention hits therefore never serialize on the shard mutex (the PR 5
//! regression): they share the read lock, and recency degrades gracefully to
//! a sampled approximation instead of becoming a bottleneck. Uncontended
//! traces keep byte-exact LRU semantics, which is what lets the single-
//! threaded model suite keep asserting exact victim orders.
//!
//! Memory ordering: the value is read under the index read lock (so it
//! happens-after the write-locked insert that published it — no torn reads
//! are possible), and the fast/locked counters are plain `Relaxed` atomics
//! (they order nothing; they are tallies).
//!
//! # Per-key single-flight
//!
//! [`ShardedLruCache::get_or_compute`] is the stampede-proof miss path. A
//! miss installs an in-flight marker (a [`Condvar`] slot keyed by the exact
//! byte key) in the shard's flight table; the installing thread — the
//! **leader** — runs the compute closure *on its own thread* and commits the
//! result with [`ShardedLruCache::insert`]. Concurrent requesters for the
//! same key find the marker and park on the condvar; when the leader commits
//! they receive the committed value directly (a **join**). N threads asking
//! for one cold key therefore perform exactly one computation.
//!
//! Recovery: the leader holds a drop guard, so a leader that dies — panics,
//! or returns an error (errors are never cached) — dissolves its flight and
//! wakes every waiter *before* the panic propagates. Woken waiters re-probe
//! and elect a new leader among themselves; nothing deadlocks and no lock
//! stays poisoned (every guard is acquired poison-tolerantly). Each
//! generation of a key — from insert to eviction — has at most one
//! successful leader: a second leader for the same key can only be elected
//! after the first one's flight dissolved, and a *successful* dissolve
//! happens-after the value is resident, so the re-probe under the flight
//! lock finds it.
//!
//! Deadlock rule: waiting happens only on a computation some thread runs
//! *in place*, never on queued pool work — it needs no pool capacity to
//! finish, so a pool worker may safely park as a waiter. (The engine's rule
//! that pool workers must not park on *pool jobs* is unaffected; see
//! `Engine::dispatch`.)
//!
//! # Parked flights
//!
//! A leader that must not compute to the end on its own thread — the
//! engine's inline classify lane, which runs a bounded slice of work on a
//! server's front-end thread — leads without waiting
//! ([`ShardedLruCache::try_lead`]: a hit, a [`Lead::Busy`] key, or a
//! [`FlightLease`]) and, when it stops, **parks** the rest of its
//! computation in the flight ([`FlightLease::park`]). The flight stays
//! open, so concurrent requesters still find it, but nobody waits on
//! parked work: the first thread to join the flight takes the work and
//! runs it in place as the flight's leader, and waiters already parked wake
//! to take it. The request that parked the work then gets the value with
//! [`ShardedLruCache::resume`], running the work itself if nobody took it;
//! it counted its miss when it led, so the resume counts nothing more.
//! Parked work that fails abandons the flight like a failed leader.
//!
//! # Counter discipline
//!
//! The counters the balance invariant depends on — `entries`, `inserts`,
//! `evictions`, the peaks and the resident weight — live *inside* the LRU
//! mutex, updated in the same critical section as the mutation they
//! describe, so `entries + evictions == inserts` holds for every
//! [`ShardStats`] snapshot, even one taken mid-stampede. The hit/miss/flight
//! tallies (`fast_hits`, `locked_hits`, `flight_joins`, `flight_leaders`,
//! `misses`) are relaxed atomics — they participate in no structural
//! invariant, but each snapshot still loads every tally exactly once, so
//! `hits == fast_hits + locked_hits + flight_joins` holds by construction in
//! every snapshot too.
//!
//! **Miss discipline.** [`ShardedLruCache::get`] counts a hit on success and
//! *nothing* on a miss; misses are recorded when a computation is committed
//! to — by the single-flight leader, or explicitly via
//! [`ShardedLruCache::record_miss`] for callers driving the raw
//! get/insert cycle. This keeps the engine's long-standing accounting: a
//! peek miss ([`Engine::cached`](crate::Engine::cached)) costs nothing,
//! while every actual computation counts exactly one miss.
//!
//! **Weighing.** [`ShardedLruCache::new`] bounds the cache by entry *count*
//! — every entry weighs 1. [`ShardedLruCache::with_weigher`] bounds it by
//! total *weight* instead: a caller-supplied weigher prices each value (for
//! example in approximate bytes) at insert time, and an insert evicts LRU
//! victims until the shard's resident weight fits its budget again — so one
//! insert can evict several light entries, and a single entry heavier than
//! the whole budget stays resident alone (a cache that cannot hold its
//! current working item at all would thrash forever). The two modes share
//! every code path: count mode is weight mode with the unit weigher.

use std::collections::hash_map::{self, DefaultHasher};
use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError,
};

/// The null slot index terminating the intrusive list. Slot indices are
/// `u32` deliberately: a slab node is `key + 8` bytes, so the cold cache
/// lines an eviction must touch stay few (and 4 billion slots per shard is
/// far beyond any realistic capacity).
const NIL: u32 = u32::MAX;

/// Locks a mutex, seeing through poison: every critical section in this
/// module leaves the structure consistent before any operation that could
/// panic (see the module docs), so a poisoned lock carries no torn state.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Read-locks an `RwLock`, seeing through poison (same argument as [`lock`]).
fn read<T>(rw: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rw.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Write-locks an `RwLock`, seeing through poison (same argument as [`lock`]).
fn write<T>(rw: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    rw.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Aggregated cache-effectiveness counters of an [`Engine`](crate::Engine):
/// the sum of one internally consistent [`ShardStats`] snapshot per shard
/// (see the [module docs](self) for the consistency guarantee).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CacheStats {
    /// Lookups served without computing: `fast_hits + locked_hits +
    /// flight_joins`.
    pub hits: u64,
    /// Lookups that had to be computed: single-flight leaders (successful or
    /// not) plus explicit [`ShardedLruCache::record_miss`] calls.
    pub misses: u64,
    /// Distinct problems currently cached.
    pub entries: usize,
    /// Entries removed: LRU capacity victims plus entries dropped by
    /// [`Engine::clear_cache`](crate::Engine::clear_cache). Counting both
    /// keeps `entries + evictions == inserts` true at every snapshot.
    pub evictions: u64,
    /// Entries ever inserted (a raced re-insert of a present key keeps the
    /// first entry and does not count).
    pub inserts: u64,
    /// Sum of the per-shard entry high-water marks — an upper bound on how
    /// many entries were ever resident at once.
    pub peak_entries: usize,
    /// Total weight of the resident entries, as priced by the cache's
    /// weigher (equal to `entries` under the default unit weigher).
    pub weight: u64,
    /// Sum of the per-shard weight high-water marks — an upper bound on the
    /// resident weight ever held at once.
    pub peak_weight: u64,
    /// Hits served on the read fast lane whose LRU recency touch was
    /// *skipped* because the LRU mutex was busy (sampled touch-on-hit).
    pub fast_hits: u64,
    /// Hits that also refreshed LRU recency (the `try_lock` succeeded —
    /// always the case without contention).
    pub locked_hits: u64,
    /// Single-flight leaders elected: cold-key computations started
    /// (successful or not). Under pure `get_or_compute` traffic this equals
    /// `misses`.
    pub flight_leaders: u64,
    /// Requesters that parked on another thread's in-flight computation and
    /// received the leader's committed value without computing.
    pub flight_joins: u64,
    /// Reply-bytes lane: lookups that found the value's pre-serialized reply
    /// payload already attached ([`ShardedLruCache::record_bytes_hit`]).
    /// Tallied by the serving layer, so it participates in no structural
    /// invariant — under pure byte-splicing traffic `bytes_hits +
    /// bytes_misses` tracks the cache hits that went on to serialize.
    pub bytes_hits: u64,
    /// Reply-bytes lane: cache hits whose reply payload had to be serialized
    /// (and attached) first ([`ShardedLruCache::record_bytes_miss`] — at
    /// most one per resident entry per generation).
    pub bytes_misses: u64,
    /// Number of independent shards the key space is split across.
    pub shards: usize,
}

impl CacheStats {
    /// The fraction of lookups served from the cache, in `[0, 1]`
    /// (`0.0` before any lookup happened).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache: {} hits ({} fast / {} locked / {} joined) / {} misses \
             ({:.1}% hit ratio), {} flight leaders, {} entries (peak {}), \
             weight {} (peak {}), {} evictions / {} inserts, \
             {} bytes hits / {} bytes misses, {} shards",
            self.hits,
            self.fast_hits,
            self.locked_hits,
            self.flight_joins,
            self.misses,
            self.hit_ratio() * 100.0,
            self.flight_leaders,
            self.entries,
            self.peak_entries,
            self.weight,
            self.peak_weight,
            self.evictions,
            self.inserts,
            self.bytes_hits,
            self.bytes_misses,
            self.shards
        )
    }
}

/// One shard's counters, snapshotted under the shard's LRU mutex (each tally
/// atomic is loaded exactly once into the snapshot).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ShardStats {
    /// Lookups this shard served without computing:
    /// `fast_hits + locked_hits + flight_joins`.
    pub hits: u64,
    /// Computations committed to against this shard (single-flight leaders
    /// plus explicit [`ShardedLruCache::record_miss`] calls).
    pub misses: u64,
    /// Entries currently resident in this shard.
    pub entries: usize,
    /// Entries this shard removed (capacity victims and clears).
    pub evictions: u64,
    /// Entries ever inserted into this shard.
    pub inserts: u64,
    /// High-water mark of `entries`.
    pub peak_entries: usize,
    /// Total weight of this shard's resident entries.
    pub weight: u64,
    /// High-water mark of `weight`.
    pub peak_weight: u64,
    /// Hits whose recency touch was skipped (LRU mutex busy): the fast lane
    /// under contention.
    pub fast_hits: u64,
    /// Hits that refreshed recency under the LRU mutex.
    pub locked_hits: u64,
    /// Single-flight leaders elected on this shard.
    pub flight_leaders: u64,
    /// Requesters served by parking on a leader's in-flight computation.
    pub flight_joins: u64,
    /// Reply-bytes lane hits recorded against this shard.
    pub bytes_hits: u64,
    /// Reply-bytes lane misses recorded against this shard.
    pub bytes_misses: u64,
}

impl ShardStats {
    /// The bookkeeping invariants every snapshot satisfies: each inserted
    /// entry is either still resident or was evicted, and every hit is
    /// exactly one of fast, locked, or joined.
    pub fn is_consistent(&self) -> bool {
        self.entries as u64 + self.evictions == self.inserts
            && self.hits == self.fast_hits + self.locked_hits + self.flight_joins
    }
}

/// The outcome of [`ShardedLruCache::insert`].
#[derive(Clone, Debug)]
pub struct Inserted<V> {
    /// The winning value for the key: the caller's value if it was inserted,
    /// or the already-present value if another thread raced the insert
    /// (keep-first semantics, so every caller shares one allocation).
    pub value: V,
    /// Whether the caller's value was actually inserted (`false` on a raced
    /// re-insert of a present key, which only refreshes recency).
    pub fresh: bool,
    /// The keys evicted to make room, oldest victim first (the cache's own
    /// references, handed over rather than copied — eviction allocates
    /// nothing beyond this vector). At most one entry under the count bound;
    /// a weighted insert may evict several light entries at once.
    pub evicted: Vec<Arc<[u8]>>,
}

/// How a [`ShardedLruCache::get_or_compute`] call was served.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FlightOutcome {
    /// Served on the read fast lane; the recency touch was skipped because
    /// the LRU mutex was busy.
    FastHit,
    /// Served from the cache with the recency touch taken (the LRU mutex was
    /// free).
    LockedHit,
    /// Parked on another thread's in-flight computation and received the
    /// leader's committed value.
    Joined,
    /// This call was the single-flight leader: it ran the compute closure
    /// and committed the value.
    Led,
}

impl FlightOutcome {
    /// Whether the value came from the cache subsystem (a hit or a join)
    /// rather than this caller's own computation.
    pub fn served_from_cache(self) -> bool {
        !matches!(self, FlightOutcome::Led)
    }
}

/// The result of [`ShardedLruCache::get_or_compute`]: the winning value and
/// how this particular call obtained it.
#[derive(Clone, Debug)]
pub struct Computed<V> {
    /// The committed value for the key, shared by the leader and every
    /// joiner of the same flight.
    pub value: V,
    /// How this call was served.
    pub outcome: FlightOutcome,
}

/// One slab node: a key threaded onto the shard's intrusive LRU list by slot
/// index. Values live in the read-mostly index, not here — eviction and
/// recency bookkeeping never clone or drop a value under the LRU mutex.
#[derive(Debug)]
struct Node {
    /// Shared with the index's key (one allocation, refcounted).
    key: Arc<[u8]>,
    /// The value's weight as priced at insert time (1 under the unit
    /// weigher); remembered so eviction never re-prices a value.
    weight: u64,
    /// Slot index of the next-more-recent node (`NIL` at the head).
    prev: u32,
    /// Slot index of the next-less-recent node (`NIL` at the tail).
    next: u32,
}

/// One index entry: the cached value and the LRU slot its recency node
/// occupies. Readable under the index *read* lock; every mutation holds the
/// LRU mutex *and* the index write lock, so a reader holding the read lock
/// that wins a `try_lock` on the LRU mutex sees map and slab in agreement.
#[derive(Debug)]
struct IndexEntry<V> {
    value: V,
    slot: u32,
}

/// The recency machinery plus the consistency-critical counters, all inside
/// one mutex (see "Counter discipline" in the module docs).
#[derive(Debug)]
struct LruState {
    /// Entry-count bound (`usize::MAX` in weighted mode).
    capacity: usize,
    /// Resident-weight bound (`u64::MAX` in count mode).
    weight_capacity: u64,
    /// Slot-indexed node storage; `None` marks a free slot awaiting reuse.
    slab: Vec<Option<Node>>,
    /// Free slot indices (filled by evictions, drained by inserts).
    free: Vec<u32>,
    /// Most recently used slot (`NIL` when empty).
    head: u32,
    /// Least recently used slot — the eviction victim (`NIL` when empty).
    tail: u32,
    /// Resident entries; mirrors the index map's length, updated in the same
    /// critical section as `inserts`/`evictions` so snapshots balance.
    entries: usize,
    inserts: u64,
    evictions: u64,
    peak_entries: usize,
    /// Total weight of the resident entries (== `entries` in count mode).
    weight: u64,
    peak_weight: u64,
}

impl LruState {
    fn new(capacity: usize, weight_capacity: u64) -> Self {
        LruState {
            capacity,
            weight_capacity,
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            entries: 0,
            inserts: 0,
            evictions: 0,
            peak_entries: 0,
            weight: 0,
            peak_weight: 0,
        }
    }

    fn node(&self, i: u32) -> &Node {
        self.slab[i as usize].as_ref().expect("linked slot is live")
    }

    fn node_mut(&mut self, i: u32) -> &mut Node {
        self.slab[i as usize].as_mut().expect("linked slot is live")
    }

    /// Unlinks slot `i` from the recency list.
    fn detach(&mut self, i: u32) {
        let (prev, next) = {
            let n = self.node(i);
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.node_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.node_mut(n).prev = prev,
        }
    }

    /// Links slot `i` in as the most recently used node.
    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        {
            let n = self.node_mut(i);
            n.prev = NIL;
            n.next = old_head;
        }
        match old_head {
            NIL => self.tail = i,
            h => self.node_mut(h).prev = i,
        }
        self.head = i;
    }

    /// Moves slot `i` to the head of the recency list.
    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.detach(i);
            self.push_front(i);
        }
    }

    /// Allocates a slot for a fresh entry and links it in as most recent,
    /// charging its weight. Returns the slot index for the index entry.
    fn link_front(&mut self, key: Arc<[u8]>, weight: u64) -> u32 {
        let node = Node {
            key,
            weight,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Some(node);
                i
            }
            None => {
                self.slab.push(Some(node));
                (self.slab.len() - 1) as u32
            }
        };
        self.push_front(i);
        self.entries += 1;
        self.weight += weight;
        i
    }

    /// Removes the LRU victim and returns its key; the slot goes on the free
    /// list. Allocation-free: the node's own key reference is handed back.
    /// The caller must remove the same key from the index map.
    fn evict_tail(&mut self) -> Arc<[u8]> {
        let i = self.tail;
        debug_assert_ne!(i, NIL, "evict on an empty shard");
        self.detach(i);
        let node = self.slab[i as usize].take().expect("tail slot is live");
        self.free.push(i);
        self.evictions += 1;
        self.entries -= 1;
        self.weight -= node.weight;
        node.key
    }

    /// Whether the shard currently exceeds either of its bounds. The
    /// `entries > 1` guard keeps a single entry heavier than the whole
    /// weight budget resident rather than thrashing (see the module docs).
    fn over_budget(&self) -> bool {
        (self.entries > self.capacity || self.weight > self.weight_capacity) && self.entries > 1
    }
}

/// The unfinished computation of a flight whose leader parked it
/// ([`FlightLease::park`]): whoever takes it next runs it in place and
/// commits its value, or abandons the flight on `None`.
pub type ParkedWork<V> = Box<dyn FnOnce() -> Option<V> + Send>;

/// The progress of one in-flight computation.
enum FlightState<V> {
    /// A thread is computing in place.
    Running,
    /// The leader stopped and left the rest of its computation here; the
    /// next thread to look takes it and runs it.
    Parked(ParkedWork<V>),
    /// The leader committed this value; joiners clone it.
    Resolved(V),
    /// The leader died (panicked or returned an error) without committing;
    /// waiters must re-probe and elect a new leader.
    Abandoned,
}

/// What a thread found on a flight it joined.
enum Joined<V> {
    /// The committed value.
    Value(V),
    /// Parked work, now this thread's to run in place.
    Claimed(ParkedWork<V>),
    /// The flight was abandoned; re-probe.
    Abandoned,
}

/// One in-flight computation: the parked-waiter slot installed in the flight
/// table while a leader computes a cold key.
struct FlightSlot<V> {
    state: Mutex<FlightState<V>>,
    arrived: Condvar,
    /// Threads currently inside [`FlightSlot::join`] — a diagnostic for
    /// [`ShardedLruCache::flight_waiters`] (and deterministic tests).
    waiters: AtomicUsize,
}

impl<V: Clone> FlightSlot<V> {
    fn new() -> Self {
        FlightSlot {
            state: Mutex::new(FlightState::Running),
            arrived: Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Waits while a thread computes in place, until the flight resolves,
    /// is abandoned or holds parked work — which this thread then takes:
    /// nobody waits on work that no thread is running.
    fn join(&self) -> Joined<V> {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut state = lock(&self.state);
        let outcome = loop {
            match &mut *state {
                FlightState::Running => {
                    state = self
                        .arrived
                        .wait(state)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
                FlightState::Parked(_) => {
                    let FlightState::Parked(work) =
                        std::mem::replace(&mut *state, FlightState::Running)
                    else {
                        unreachable!("matched Parked");
                    };
                    break Joined::Claimed(work);
                }
                FlightState::Resolved(value) => break Joined::Value(value.clone()),
                FlightState::Abandoned => break Joined::Abandoned,
            }
        };
        drop(state);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        outcome
    }

    fn resolve(&self, value: V) {
        *lock(&self.state) = FlightState::Resolved(value);
        self.arrived.notify_all();
    }

    fn park(&self, work: ParkedWork<V>) {
        *lock(&self.state) = FlightState::Parked(work);
        self.arrived.notify_all();
    }

    fn abandon(&self) {
        *lock(&self.state) = FlightState::Abandoned;
        self.arrived.notify_all();
    }
}

type Index<V> = HashMap<Arc<[u8]>, IndexEntry<V>>;
type FlightMap<V> = HashMap<Arc<[u8]>, Arc<FlightSlot<V>>>;

/// One independent shard: index + LRU state + flight table + tallies. Lock
/// order where multiple are held: flight table → LRU mutex → index write
/// lock; the hit path holds the index *read* lock and only ever `try_lock`s
/// the LRU mutex (never blocks), so no cycle exists.
struct CacheShard<V> {
    index: RwLock<Index<V>>,
    lru: Mutex<LruState>,
    flights: Mutex<FlightMap<V>>,
    fast_hits: AtomicU64,
    locked_hits: AtomicU64,
    misses: AtomicU64,
    flight_leaders: AtomicU64,
    flight_joins: AtomicU64,
    bytes_hits: AtomicU64,
    bytes_misses: AtomicU64,
}

impl<V: Clone> CacheShard<V> {
    fn new(capacity: usize, weight_capacity: u64) -> Self {
        CacheShard {
            index: RwLock::new(HashMap::new()),
            lru: Mutex::new(LruState::new(capacity, weight_capacity)),
            flights: Mutex::new(HashMap::new()),
            fast_hits: AtomicU64::new(0),
            locked_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            flight_leaders: AtomicU64::new(0),
            flight_joins: AtomicU64::new(0),
            bytes_hits: AtomicU64::new(0),
            bytes_misses: AtomicU64::new(0),
        }
    }

    /// The hit fast lane: index read lock, value clone, *sampled* recency
    /// touch. Returns the value and whether the touch was taken (`true` =
    /// locked hit, `false` = fast hit); the matching tally is counted here.
    fn hit(&self, key: &[u8]) -> Option<(V, bool)> {
        let (value, touched) = self.peek(key)?;
        if touched {
            self.locked_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.fast_hits.fetch_add(1, Ordering::Relaxed);
        }
        Some((value, touched))
    }

    /// [`CacheShard::hit`] without the tally.
    fn peek(&self, key: &[u8]) -> Option<(V, bool)> {
        let index = read(&self.index);
        let entry = index.get(key)?;
        let value = entry.value.clone();
        // Holding the read lock pins the map: any mutation needs the index
        // write lock AND the LRU mutex, so winning this try_lock proves no
        // mutation is mid-flight and `entry.slot` is live and ours.
        let touched = match self.lru.try_lock() {
            Ok(mut lru) => {
                debug_assert_eq!(&*lru.node(entry.slot).key, key, "slot/key agreement");
                lru.touch(entry.slot);
                true
            }
            Err(TryLockError::Poisoned(poisoned)) => {
                let mut lru = poisoned.into_inner();
                lru.touch(entry.slot);
                true
            }
            Err(TryLockError::WouldBlock) => false,
        };
        Some((value, touched))
    }

    fn insert(&self, key: Arc<[u8]>, value: V, weigher: fn(&V) -> u64) -> Inserted<V> {
        // The clone and the weigher are the only operations here that could
        // conceivably panic; they run before any lock is taken so a poisoned
        // shard can never hold a half-linked list.
        let stored = value.clone();
        let weight = weigher(&value);
        let mut lru = lock(&self.lru);
        let mut index = write(&self.index);
        // One hash probe decides present-vs-fresh AND claims the map slot
        // (`entry` instead of `get` + `insert`): on the eviction path this
        // is one of only two probes per insert, which is what keeps the
        // measured cost flat as the map outgrows the CPU caches.
        let claimed = match index.entry(key) {
            hash_map::Entry::Occupied(e) => Err((e.get().slot, e.get().value.clone())),
            hash_map::Entry::Vacant(e) => {
                let slot = lru.link_front(Arc::clone(e.key()), weight);
                e.insert(IndexEntry {
                    value: stored,
                    slot,
                });
                Ok(())
            }
        };
        match claimed {
            // Keep-first: another thread won the race to this key; refresh
            // its recency and hand back the shared value.
            Err((slot, winner)) => {
                lru.touch(slot);
                Inserted {
                    value: winner,
                    fresh: false,
                    evicted: Vec::new(),
                }
            }
            Ok(()) => {
                // Evict after linking: the fresh node is the head, so the
                // tail victims are never the node just inserted (the
                // `over_budget` guard keeps at least one entry). The
                // over-budget instant is invisible outside this critical
                // section.
                let mut evicted = Vec::new();
                while lru.over_budget() {
                    let victim = lru.evict_tail();
                    index.remove(&*victim);
                    evicted.push(victim);
                }
                lru.inserts += 1;
                lru.peak_entries = lru.peak_entries.max(lru.entries);
                lru.peak_weight = lru.peak_weight.max(lru.weight);
                Inserted {
                    value,
                    fresh: true,
                    evicted,
                }
            }
        }
    }

    fn clear(&self) {
        let mut lru = lock(&self.lru);
        let mut index = write(&self.index);
        index.clear();
        lru.evictions += lru.entries as u64;
        lru.entries = 0;
        lru.weight = 0;
        lru.slab.clear();
        lru.free.clear();
        lru.head = NIL;
        lru.tail = NIL;
    }

    fn stats(&self) -> ShardStats {
        let lru = lock(&self.lru);
        let fast_hits = self.fast_hits.load(Ordering::Relaxed);
        let locked_hits = self.locked_hits.load(Ordering::Relaxed);
        let flight_joins = self.flight_joins.load(Ordering::Relaxed);
        ShardStats {
            hits: fast_hits + locked_hits + flight_joins,
            misses: self.misses.load(Ordering::Relaxed),
            entries: lru.entries,
            evictions: lru.evictions,
            inserts: lru.inserts,
            peak_entries: lru.peak_entries,
            weight: lru.weight,
            peak_weight: lru.peak_weight,
            fast_hits,
            locked_hits,
            flight_leaders: self.flight_leaders.load(Ordering::Relaxed),
            flight_joins,
            bytes_hits: self.bytes_hits.load(Ordering::Relaxed),
            bytes_misses: self.bytes_misses.load(Ordering::Relaxed),
        }
    }
}

/// A flight's lead: the right, and the duty, to settle one cold key's
/// flight exactly once. [`FlightLease::commit`] makes the value resident and
/// hands it to the waiters; [`FlightLease::park`] leaves the rest of the
/// computation in the flight for the next thread to take; a lease dropped
/// without either — its computation panicked or failed — abandons the
/// flight, and every waiter wakes to re-probe and elect a new leader.
/// Dissolving before resolving/abandoning means a successor can always
/// install a fresh flight; waiters already holding the slot's `Arc` are
/// unaffected by its removal from the table.
pub struct FlightLease<'a, V: Clone> {
    shard: &'a CacheShard<V>,
    weigher: fn(&V) -> u64,
    key: Arc<[u8]>,
    slot: Arc<FlightSlot<V>>,
    settled: bool,
}

impl<V: Clone> FlightLease<'_, V> {
    fn dissolve(&self) {
        let mut flights = lock(&self.shard.flights);
        let removed = flights.remove(&self.key);
        debug_assert!(
            removed.is_none_or(|slot| Arc::ptr_eq(&slot, &self.slot)),
            "a leader only ever dissolves its own flight"
        );
    }

    /// Inserts `value` (keep-first, as [`ShardedLruCache::insert`]) and
    /// resolves the flight with the resident value, which it returns.
    pub fn commit(mut self, value: V) -> V {
        // Commit *before* resolving the flight: a requester that misses
        // the dissolved flight must find the value resident.
        let value = self
            .shard
            .insert(Arc::clone(&self.key), value, self.weigher)
            .value;
        self.dissolve();
        self.slot.resolve(value.clone());
        self.settled = true;
        value
    }

    /// Leaves `work`, the rest of this flight's computation, in the flight.
    /// The flight stays open: the next thread that joins it — or resumes it
    /// ([`ShardedLruCache::resume`]) — takes the work and runs it in place,
    /// so no thread ever waits on work that nobody is running. Waiters
    /// already parked wake to take it.
    pub fn park(mut self, work: ParkedWork<V>) {
        self.slot.park(work);
        self.settled = true;
    }
}

impl<V: Clone> Drop for FlightLease<'_, V> {
    fn drop(&mut self) {
        if !self.settled {
            self.dissolve();
            self.slot.abandon();
        }
    }
}

/// What [`ShardedLruCache::try_lead`] found.
pub enum Lead<'a, V: Clone> {
    /// The key is resident (a counted hit).
    Hit(V),
    /// Another flight for the key is open.
    Busy,
    /// The key is cold and this caller leads its flight (a counted miss).
    Leader(FlightLease<'a, V>),
}

/// Who is asking a flight for its value.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Requester {
    /// A new request: hits and joins are counted.
    New,
    /// The request whose lead parked the flight ([`ShardedLruCache::resume`]):
    /// it already counted its miss, so nothing more is counted unless it
    /// must lead a new flight.
    Owner,
}

/// A bounded, sharded LRU map from byte keys to cloneable values, with O(1)
/// hit-touch, insert and evict, a read-locked hot-key hit path and per-key
/// single-flight misses. See the [module docs](self) for the design.
///
/// The total `capacity` is partitioned across the shards (every shard gets at
/// least one slot; the shard count is rounded to a power of two and clamped
/// so it never exceeds the capacity), so the cache as a whole never holds
/// more than `capacity` entries. Keys are routed to shards by hash, which
/// makes per-shard LRU an approximation of global LRU — exact when
/// `shards == 1`.
pub struct ShardedLruCache<V> {
    shards: Vec<CacheShard<V>>,
    /// `shards.len() - 1`; the shard count is a power of two so routing is a
    /// single mask of the key hash.
    mask: u64,
    capacity: usize,
    weight_capacity: u64,
    /// Prices a value at insert time; `|_| 1` in count mode.
    weigher: fn(&V) -> u64,
}

impl<V> fmt::Debug for ShardedLruCache<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedLruCache")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity)
            .field("weight_capacity", &self.weight_capacity)
            .finish_non_exhaustive()
    }
}

impl<V: Clone> ShardedLruCache<V> {
    /// Creates a cache holding at most `capacity` entries (at least 1) split
    /// across `shards` shards. The shard count is rounded **up** to a power
    /// of two, then clamped **down** (in powers of two) so every shard owns
    /// at least one slot; [`ShardedLruCache::shards`] reports the effective
    /// count. Every entry weighs 1; see [`ShardedLruCache::with_weigher`]
    /// for a byte-cost bound instead.
    pub fn new(capacity: usize, shards: usize) -> Self {
        Self::build(capacity.max(1), u64::MAX, shards, |_| 1)
    }

    /// Creates a cache bounded by total resident **weight** instead of entry
    /// count: `weigher` prices each value at insert time (typically in
    /// approximate bytes) and inserts evict LRU victims until at most
    /// `total_weight` (at least 1) is resident. One insert may evict several
    /// light entries; a single entry heavier than the whole budget stays
    /// resident alone. The shard count is rounded and clamped as in
    /// [`ShardedLruCache::new`], with the weight budget split across shards
    /// the same way capacity is.
    pub fn with_weigher(total_weight: u64, shards: usize, weigher: fn(&V) -> u64) -> Self {
        Self::build(usize::MAX, total_weight.max(1), shards, weigher)
    }

    fn build(capacity: usize, total_weight: u64, shards: usize, weigher: fn(&V) -> u64) -> Self {
        // Clamp the shard count so every shard owns at least one entry slot
        // *and* one unit of weight budget (whichever bound is active; the
        // inactive one is MAX). The u32 cap keeps `next_power_of_two` from
        // overflowing on a MAX-valued bound.
        let clamp = capacity.min(total_weight.min(u64::from(u32::MAX)) as usize);
        let shards = Self::effective_shards(clamp, shards);
        let base = capacity / shards;
        let extra = capacity % shards;
        let base_w = total_weight / shards as u64;
        let extra_w = total_weight % shards as u64;
        // The first `extra` shards absorb the remainder, so per-shard
        // budgets sum to exactly the requested totals.
        let shards: Vec<CacheShard<V>> = (0..shards)
            .map(|i| {
                CacheShard::new(
                    base + usize::from(i < extra),
                    base_w + u64::from((i as u64) < extra_w),
                )
            })
            .collect();
        ShardedLruCache {
            mask: (shards.len() - 1) as u64,
            shards,
            capacity,
            weight_capacity: total_weight,
            weigher,
        }
    }

    /// The shard count actually used for `capacity` when `requested` shards
    /// are asked for: `next_pow2(requested)`, clamped down to the largest
    /// power of two that still gives every shard at least one slot.
    fn effective_shards(capacity: usize, requested: usize) -> usize {
        let requested = requested.max(1).next_power_of_two();
        let cap_pow2 = if capacity.is_power_of_two() {
            capacity
        } else {
            capacity.next_power_of_two() >> 1
        };
        requested.min(cap_pow2)
    }

    /// The shard index `key` routes to. Stable for the lifetime of the cache
    /// (and across processes: the routing hash is deterministic), exposed so
    /// tests and diagnostics can reason per shard.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        let mut hasher = DefaultHasher::new();
        hasher.write(key);
        (hasher.finish() & self.mask) as usize
    }

    /// Looks `key` up on the read fast lane, counting a fast or locked hit
    /// on success (see the module docs); recency is refreshed unless the LRU
    /// mutex is busy. A miss counts **nothing** (see
    /// [`ShardedLruCache::record_miss`]).
    pub fn get(&self, key: &[u8]) -> Option<V> {
        self.shards[self.shard_of(key)]
            .hit(key)
            .map(|(value, _)| value)
    }

    /// Counts one miss against `key`'s shard. Callers driving the raw
    /// get/insert cycle invoke this when they commit to computing the value,
    /// so `hits + misses` equals the number of computing lookups while pure
    /// peeks stay free. ([`ShardedLruCache::get_or_compute`] does this
    /// automatically for its leader.)
    pub fn record_miss(&self, key: &[u8]) {
        self.shards[self.shard_of(key)]
            .misses
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one reply-bytes lane hit against `key`'s shard: a lookup whose
    /// value carried its pre-serialized reply payload, so the serving layer
    /// answered with an id-splice instead of serializing. A pure tally for
    /// the serving layer (the cache itself never inspects values), outside
    /// every structural invariant.
    pub fn record_bytes_hit(&self, key: &[u8]) {
        self.shards[self.shard_of(key)]
            .bytes_hits
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one reply-bytes lane miss against `key`'s shard: a cached
    /// value whose reply payload had to be serialized (and attached) before
    /// it could be spliced — at most once per resident entry per generation,
    /// since the payload then lives and dies with the entry.
    pub fn record_bytes_miss(&self, key: &[u8]) {
        self.shards[self.shard_of(key)]
            .bytes_misses
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Inserts `key → value`, evicting the shard's LRU entry if the shard is
    /// at capacity. If the key is already present the existing entry wins
    /// (its recency is refreshed, nothing is replaced); the returned
    /// [`Inserted::value`] is the value all callers should share.
    pub fn insert(&self, key: Vec<u8>, value: V) -> Inserted<V> {
        self.shards[self.shard_of(&key)].insert(key.into(), value, self.weigher)
    }

    /// Single-flight lookup-or-compute: a hit (fast or locked) returns
    /// immediately; on a cold key exactly one caller — the leader — runs
    /// `compute` on its own thread and commits the result, while concurrent
    /// callers for the same key park and receive the committed value
    /// ([`FlightOutcome::Joined`]). A caller that finds the flight's work
    /// parked ([`FlightLease::park`]) takes it and runs it in place, and is
    /// served as a join too.
    ///
    /// Errors are not cached: the leader's error is returned to the leader
    /// alone, and its waiters wake to re-probe and elect a new leader (as
    /// they do if the leader panics — the flight is dissolved by a drop
    /// guard, so waiters never deadlock and the panic propagates on the
    /// leader's thread only). `compute` is called at most once per
    /// `get_or_compute` call.
    ///
    /// Parking discipline: a waiter blocks only on a computation some
    /// thread is running in place, which needs no pool capacity to finish —
    /// so both caller threads and pool workers may wait here without
    /// violating the engine's pool-deadlock rule (workers must never park on
    /// queued pool *jobs*; see `Engine::dispatch`). Parked work is never
    /// waited on: the waiter runs it.
    pub fn get_or_compute<E>(
        &self,
        key: &[u8],
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Computed<V>, E> {
        self.obtain(key, compute, Requester::New)
    }

    /// The owner's half of a parked flight: the request whose
    /// [`ShardedLruCache::try_lead`] lease parked the flight's work gets the
    /// flight's value — running the parked work itself if no other thread
    /// took it, waiting for the thread that did otherwise. That request
    /// already counted its miss, so this counts no hit or join. If the
    /// flight was abandoned (the parked work failed), or its value was
    /// evicted before this call, the caller leads a new flight with
    /// `compute`, counted as any leader is.
    ///
    /// # Errors
    ///
    /// The error of `compute`, when it runs and fails.
    pub fn resume<E>(
        &self,
        key: &[u8],
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Computed<V>, E> {
        self.obtain(key, compute, Requester::Owner)
    }

    /// The lead of a cold key's flight, without ever waiting: a resident
    /// key is a counted hit, a key whose flight is open is
    /// [`Lead::Busy`], and a cold key makes the caller its leader (a counted
    /// leader and miss), holding a [`FlightLease`].
    pub fn try_lead(&self, key: &[u8]) -> Lead<'_, V> {
        let shard = &self.shards[self.shard_of(key)];
        if let Some((value, _)) = shard.hit(key) {
            return Lead::Hit(value);
        }
        let mut flights = lock(&shard.flights);
        // Re-probe under the flight lock, as `obtain` does.
        if let Some((value, _)) = shard.hit(key) {
            return Lead::Hit(value);
        }
        if flights.contains_key(key) {
            return Lead::Busy;
        }
        Lead::Leader(self.lead(shard, &mut flights, key))
    }

    /// Installs a new flight for `key` and counts its leader and miss.
    fn lead<'a>(
        &'a self,
        shard: &'a CacheShard<V>,
        flights: &mut FlightMap<V>,
        key: &[u8],
    ) -> FlightLease<'a, V> {
        let key: Arc<[u8]> = key.into();
        let slot = Arc::new(FlightSlot::new());
        flights.insert(Arc::clone(&key), Arc::clone(&slot));
        shard.flight_leaders.fetch_add(1, Ordering::Relaxed);
        shard.misses.fetch_add(1, Ordering::Relaxed);
        FlightLease {
            shard,
            weigher: self.weigher,
            key,
            slot,
            settled: false,
        }
    }

    /// [`ShardedLruCache::get_or_compute`] and [`ShardedLruCache::resume`].
    fn obtain<E>(
        &self,
        key: &[u8],
        compute: impl FnOnce() -> Result<V, E>,
        requester: Requester,
    ) -> Result<Computed<V>, E> {
        let shard = &self.shards[self.shard_of(key)];
        let probe = || match requester {
            Requester::New => shard.hit(key).map(|(value, touched)| Computed {
                value,
                outcome: if touched {
                    FlightOutcome::LockedHit
                } else {
                    FlightOutcome::FastHit
                },
            }),
            Requester::Owner => shard.peek(key).map(|(value, _)| Computed {
                value,
                outcome: FlightOutcome::Led,
            }),
        };
        // How a value this call did not lead a new flight for is reported.
        let served = |value| {
            if requester == Requester::New {
                shard.flight_joins.fetch_add(1, Ordering::Relaxed);
                Computed {
                    value,
                    outcome: FlightOutcome::Joined,
                }
            } else {
                Computed {
                    value,
                    outcome: FlightOutcome::Led,
                }
            }
        };
        let mut compute = Some(compute);
        loop {
            if let Some(computed) = probe() {
                return Ok(computed);
            }
            let mut flights = lock(&shard.flights);
            // Re-probe under the flight lock: a leader may have committed
            // and dissolved its flight between the fast probe and the lock
            // acquisition — without this check we would recompute a value
            // that is already resident.
            if let Some(computed) = probe() {
                return Ok(computed);
            }
            if let Some(slot) = flights.get(key) {
                let slot = Arc::clone(slot);
                drop(flights);
                match slot.join() {
                    Joined::Value(value) => return Ok(served(value)),
                    Joined::Claimed(work) => {
                        // This thread runs the parked work under the
                        // flight's lease; `None` (or a panic) abandons it.
                        let lease = FlightLease {
                            shard,
                            weigher: self.weigher,
                            key: key.into(),
                            slot,
                            settled: false,
                        };
                        if let Some(value) = work() {
                            return Ok(served(lease.commit(value)));
                        }
                    }
                    // The leader died without committing; retry — this
                    // thread may find the value, join a successor, or lead
                    // itself.
                    Joined::Abandoned => {}
                }
                continue;
            }
            // Cold key, no flight: become the leader. A panic or `Err` drops
            // the lease unsettled, which wakes every waiter into
            // recomputing. No lock is held across the computation.
            let lease = self.lead(shard, &mut flights, key);
            drop(flights);
            let fresh = (compute.take().expect("a call leads at most one flight"))()?;
            return Ok(Computed {
                value: lease.commit(fresh),
                outcome: FlightOutcome::Led,
            });
        }
    }

    /// Threads currently parked on in-flight computations, across all
    /// shards. A diagnostic: tests use it to release a gated leader only
    /// once every expected waiter is provably parked, and operators can poll
    /// it to observe stampedes being absorbed.
    pub fn flight_waiters(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                lock(&shard.flights)
                    .values()
                    .map(|slot| slot.waiters.load(Ordering::SeqCst))
                    .sum::<usize>()
            })
            .sum()
    }

    /// Drops every entry in every shard. Counters are kept; the dropped
    /// entries count as evictions so `entries + evictions == inserts` keeps
    /// holding.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.clear();
        }
    }

    /// One `(key, value)` pair per resident entry, for persistence: within
    /// each shard entries are listed **coldest first** (the eviction victim
    /// leads), shards in shard order. Re-inserting a snapshot in the
    /// returned order therefore reproduces each shard's relative recency —
    /// the hottest snapshotted entries end up most recent, so a smaller
    /// restore target evicts the cold tail first.
    ///
    /// Each shard is captured in one critical section (LRU mutex + index
    /// read lock, the mutators' own order), so every pair was resident
    /// simultaneously; concurrent mutations of *other* shards proceed
    /// untouched. A pure read: no counter moves and no recency changes.
    pub fn snapshot_entries(&self) -> Vec<(Arc<[u8]>, V)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let lru = lock(&shard.lru);
            let index = read(&shard.index);
            let mut slot = lru.tail;
            while slot != NIL {
                let node = lru.node(slot);
                if let Some(entry) = index.get(&node.key) {
                    out.push((Arc::clone(&node.key), entry.value.clone()));
                }
                slot = node.prev;
            }
        }
        out
    }

    /// Aggregated counters: the sum of one consistent per-shard snapshot
    /// each (shards are snapshotted one at a time, so each shard's numbers
    /// are internally consistent even while other threads keep mutating
    /// other shards).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats {
            hits: 0,
            misses: 0,
            entries: 0,
            evictions: 0,
            inserts: 0,
            peak_entries: 0,
            weight: 0,
            peak_weight: 0,
            fast_hits: 0,
            locked_hits: 0,
            flight_leaders: 0,
            flight_joins: 0,
            bytes_hits: 0,
            bytes_misses: 0,
            shards: self.shards.len(),
        };
        for stats in self.shard_stats() {
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.entries += stats.entries;
            total.evictions += stats.evictions;
            total.inserts += stats.inserts;
            total.peak_entries += stats.peak_entries;
            total.weight += stats.weight;
            total.peak_weight += stats.peak_weight;
            total.fast_hits += stats.fast_hits;
            total.locked_hits += stats.locked_hits;
            total.flight_leaders += stats.flight_leaders;
            total.flight_joins += stats.flight_joins;
            total.bytes_hits += stats.bytes_hits;
            total.bytes_misses += stats.bytes_misses;
        }
        total
    }

    /// One consistent [`ShardStats`] snapshot per shard, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(CacheShard::stats).collect()
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(&s.lru).entries).sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The total entry-count bound across all shards (`usize::MAX` for a
    /// weight-bounded cache).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The total resident-weight bound across all shards (`u64::MAX` for a
    /// count-bounded cache).
    pub fn weight_capacity(&self) -> u64 {
        self.weight_capacity
    }

    /// The effective (power-of-two) shard count.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Vec<u8> {
        i.to_le_bytes().to_vec()
    }

    #[test]
    fn get_insert_evict_are_wired() {
        let cache = ShardedLruCache::new(2, 1);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(1)), None);
        assert!(cache.insert(key(1), 10u32).fresh);
        assert!(cache.insert(key(2), 20).fresh);
        assert_eq!(cache.get(&key(1)), Some(10));
        // Full: inserting a third evicts the LRU (key 2, since 1 was touched).
        let outcome = cache.insert(key(3), 30);
        assert_eq!(outcome.evicted.len(), 1);
        assert_eq!(&*outcome.evicted[0], &key(2)[..]);
        assert_eq!(cache.get(&key(2)), None);
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.evictions, stats.inserts), (1, 1, 3));
        assert_eq!(stats.peak_entries, 2);
        assert!(stats.entries as u64 + stats.evictions == stats.inserts);
        // Uncontended, the hit refreshed recency under the LRU mutex.
        assert_eq!((stats.locked_hits, stats.fast_hits), (1, 0));
    }

    /// A 1-shard cache must reproduce the old engine's *global* LRU victim
    /// order exactly: the scripted trace mirrors the engine regression test
    /// `lru_eviction_prefers_least_recently_used` key for key.
    #[test]
    fn one_shard_reproduces_global_lru_victim_order() {
        let cache = ShardedLruCache::new(2, 1);
        assert_eq!(cache.shards(), 1);
        let (a, b, c) = (key(100), key(200), key(300));
        assert!(cache.insert(a.clone(), 'a').evicted.is_empty()); // [a]
        assert!(cache.insert(b.clone(), 'b').evicted.is_empty()); // [a, b]
        assert_eq!(cache.get(&a), Some('a')); // a becomes most recent
                                              // Full → the victim must be b (LRU), not a (FIFO order).
        assert_eq!(
            cache
                .insert(c.clone(), 'c')
                .evicted
                .first()
                .map(|k| k.to_vec()),
            Some(b.clone())
        );
        assert_eq!(cache.get(&a), Some('a'), "a survived");
        // Re-inserting b now evicts c, the new LRU (a was just touched).
        assert_eq!(
            cache.insert(b, 'B').evicted.first().map(|k| k.to_vec()),
            Some(c)
        );
        assert_eq!(cache.get(&a), Some('a'), "a outlived both evictions");
    }

    #[test]
    fn reinserting_a_present_key_keeps_the_first_value() {
        let cache = ShardedLruCache::new(4, 1);
        assert!(cache.insert(key(7), 1u32).fresh);
        let raced = cache.insert(key(7), 2);
        assert!(!raced.fresh);
        assert_eq!(raced.value, 1, "keep-first: the existing entry wins");
        assert!(raced.evicted.is_empty());
        assert_eq!(
            cache.stats().inserts,
            1,
            "a raced re-insert is not an insert"
        );
    }

    #[test]
    fn shard_count_is_pow2_and_clamped_to_capacity() {
        assert_eq!(ShardedLruCache::<u8>::new(64, 3).shards(), 4);
        assert_eq!(ShardedLruCache::<u8>::new(64, 4).shards(), 4);
        // Capacity 1 forces a single shard, whatever was requested.
        assert_eq!(ShardedLruCache::<u8>::new(1, 8).shards(), 1);
        // Capacity 3 supports at most 2 shards (largest power of two ≤ 3).
        assert_eq!(ShardedLruCache::<u8>::new(3, 8).shards(), 2);
        assert_eq!(ShardedLruCache::<u8>::new(8, 0).shards(), 1);
    }

    #[test]
    fn capacity_is_partitioned_exactly_across_shards() {
        // Capacity 5 over 2 shards: 3 + 2 slots. Fill far past capacity and
        // the cache as a whole must never exceed 5 resident entries.
        let cache = ShardedLruCache::new(5, 2);
        for i in 0..100u64 {
            cache.insert(key(i), i);
            assert!(cache.len() <= 5, "resident entries exceeded capacity");
        }
        assert_eq!(cache.len(), 5);
        let stats = cache.stats();
        assert_eq!(stats.inserts, 100);
        assert_eq!(stats.evictions, 95);
    }

    #[test]
    fn clear_counts_evictions_and_keeps_the_invariant() {
        let cache = ShardedLruCache::new(8, 2);
        for i in 0..6u64 {
            cache.insert(key(i), ());
        }
        cache.clear();
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 6);
        for shard in cache.shard_stats() {
            assert!(shard.is_consistent(), "{shard:?}");
        }
        // The cache stays usable after a clear.
        cache.insert(key(42), ());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn record_miss_is_per_shard() {
        let cache = ShardedLruCache::<u8>::new(16, 4);
        let k = key(9);
        let shard = cache.shard_of(&k);
        cache.record_miss(&k);
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard[shard].misses, 1);
        let elsewhere: u64 = per_shard
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != shard)
            .map(|(_, s)| s.misses)
            .sum();
        assert_eq!(elsewhere, 0);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn bytes_lane_tallies_are_per_shard_and_invariant_free() {
        let cache = ShardedLruCache::<u8>::new(16, 4);
        let k = key(11);
        let shard = cache.shard_of(&k);
        cache.insert(k.clone(), 1);
        cache.record_bytes_miss(&k);
        cache.record_bytes_hit(&k);
        cache.record_bytes_hit(&k);
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard[shard].bytes_hits, 2);
        assert_eq!(per_shard[shard].bytes_misses, 1);
        for (i, stats) in per_shard.iter().enumerate() {
            assert!(stats.is_consistent(), "{stats:?}");
            if i != shard {
                assert_eq!((stats.bytes_hits, stats.bytes_misses), (0, 0));
            }
        }
        let total = cache.stats();
        assert_eq!((total.bytes_hits, total.bytes_misses), (2, 1));
        // The bytes lane never disturbs the hit/miss accounting.
        assert_eq!((total.hits, total.misses), (0, 0));
    }

    #[test]
    fn stats_display_mentions_the_new_fields() {
        let cache = ShardedLruCache::new(4, 2);
        cache.insert(key(1), 1u8);
        cache.get(&key(1));
        let shown = cache.stats().to_string();
        assert!(shown.contains("1 hits"), "{shown}");
        assert!(shown.contains("2 shards"), "{shown}");
        assert!(shown.contains("1 inserts"), "{shown}");
        assert!(shown.contains("weight 1"), "{shown}");
        assert!(shown.contains("1 locked"), "{shown}");
        assert!(shown.contains("0 fast"), "{shown}");
        assert!(shown.contains("flight leaders"), "{shown}");
        assert!(shown.contains("bytes hits"), "{shown}");
        assert!(shown.contains("bytes misses"), "{shown}");
    }

    #[test]
    fn unit_weigher_weight_tracks_entry_count() {
        let cache = ShardedLruCache::new(3, 1);
        for i in 0..5u64 {
            cache.insert(key(i), i);
            let stats = cache.stats();
            assert_eq!(stats.weight, stats.entries as u64);
            assert_eq!(stats.peak_weight, stats.peak_entries as u64);
        }
        assert_eq!(cache.weight_capacity(), u64::MAX);
    }

    #[test]
    fn weighted_insert_evicts_until_the_budget_fits() {
        // Budget 10, values weigh their own magnitude.
        let cache = ShardedLruCache::with_weigher(10, 1, |v: &u64| *v);
        assert_eq!(cache.capacity(), usize::MAX);
        assert_eq!(cache.weight_capacity(), 10);
        cache.insert(key(1), 3);
        cache.insert(key(2), 3);
        cache.insert(key(3), 3); // resident weight 9
        assert_eq!(cache.stats().weight, 9);
        // Inserting weight 7 must evict the two oldest light entries
        // (3 + 3) to get 9 + 7 = 16 back under 10.
        let outcome = cache.insert(key(4), 7);
        assert_eq!(outcome.evicted.len(), 2);
        assert_eq!(&*outcome.evicted[0], &key(1)[..], "oldest victim first");
        assert_eq!(&*outcome.evicted[1], &key(2)[..]);
        let stats = cache.stats();
        assert_eq!(stats.weight, 10);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 2);
        assert!(stats.peak_weight <= 10, "peak is measured post-eviction");
    }

    #[test]
    fn over_heavy_entry_stays_resident_alone() {
        let cache = ShardedLruCache::with_weigher(10, 1, |v: &u64| *v);
        cache.insert(key(1), 4);
        // Weight 25 exceeds the whole budget: everything else is evicted,
        // but the entry itself stays (a cache that cannot hold its current
        // working item would thrash forever).
        let outcome = cache.insert(key(2), 25);
        assert_eq!(outcome.evicted.len(), 1);
        assert_eq!(cache.get(&key(2)), Some(25));
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().weight, 25);
        // The next light insert displaces it again.
        let outcome = cache.insert(key(3), 1);
        assert_eq!(outcome.evicted.len(), 1);
        assert_eq!(&*outcome.evicted[0], &key(2)[..]);
        assert_eq!(cache.stats().weight, 1);
    }

    #[test]
    fn weighted_clear_resets_weight_and_keeps_the_invariant() {
        let cache = ShardedLruCache::with_weigher(100, 2, |v: &u64| *v + 1);
        for i in 0..6u64 {
            cache.insert(key(i), i);
        }
        let before = cache.stats();
        assert!(before.weight > 0);
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.weight, 0);
        assert_eq!(stats.entries, 0);
        for shard in cache.shard_stats() {
            assert!(shard.is_consistent(), "{shard:?}");
        }
        assert!(stats.peak_weight >= before.weight);
    }

    #[test]
    fn weighted_shard_count_is_clamped_by_the_budget() {
        // Budget 3 supports at most 2 shards (largest power of two <= 3).
        assert_eq!(ShardedLruCache::with_weigher(3, 8, |_: &u8| 1).shards(), 2);
        assert_eq!(ShardedLruCache::with_weigher(64, 4, |_: &u8| 1).shards(), 4);
        // The budget partitions across shards like capacity does: 5 over 2
        // shards is 3 + 2, so unit-weight entries behave like capacity 5.
        let cache = ShardedLruCache::with_weigher(5, 2, |_: &u64| 1);
        for i in 0..100u64 {
            cache.insert(key(i), i);
            assert!(cache.stats().weight <= 5);
        }
        assert_eq!(cache.len(), 5);
    }

    #[test]
    fn get_or_compute_leads_once_then_hits() {
        let cache = ShardedLruCache::new(4, 1);
        let first = cache
            .get_or_compute::<()>(&key(1), || Ok(11u32))
            .expect("compute succeeds");
        assert_eq!(first.value, 11);
        assert_eq!(first.outcome, FlightOutcome::Led);
        assert!(first.outcome == FlightOutcome::Led && !first.outcome.served_from_cache());
        // Warm: served from the cache, recency touched (no contention).
        let second = cache
            .get_or_compute::<()>(&key(1), || panic!("must not recompute"))
            .expect("hit");
        assert_eq!(second.value, 11);
        assert_eq!(second.outcome, FlightOutcome::LockedHit);
        assert!(second.outcome.served_from_cache());
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.flight_leaders), (1, 1));
        assert_eq!(
            (stats.hits, stats.locked_hits, stats.flight_joins),
            (1, 1, 0)
        );
        assert_eq!(stats.inserts, 1);
        assert_eq!(cache.flight_waiters(), 0, "no flight survives its leader");
    }

    #[test]
    fn get_or_compute_error_is_not_cached() {
        let cache = ShardedLruCache::<u32>::new(4, 1);
        let err = cache
            .get_or_compute(&key(5), || Err("boom"))
            .expect_err("compute failed");
        assert_eq!(err, "boom");
        let stats = cache.stats();
        // The failed leader still counted a miss (a computation was
        // committed to) but inserted nothing.
        assert_eq!((stats.misses, stats.flight_leaders), (1, 1));
        assert_eq!((stats.entries, stats.inserts), (0, 0));
        // A retry recomputes and succeeds; the flight table holds no corpse.
        let retry = cache
            .get_or_compute::<()>(&key(5), || Ok(50))
            .expect("retry succeeds");
        assert_eq!(retry.outcome, FlightOutcome::Led);
        assert_eq!(cache.get(&key(5)), Some(50));
        assert_eq!(cache.flight_waiters(), 0);
    }

    /// A panicking leader must dissolve its flight (the drop guard) so a
    /// subsequent requester can lead — and no cache lock stays poisoned.
    #[test]
    fn panicking_leader_dissolves_its_flight() {
        let cache = std::sync::Arc::new(ShardedLruCache::<u32>::new(4, 1));
        let for_panic = std::sync::Arc::clone(&cache);
        let k = key(9);
        let k2 = k.clone();
        let died = std::thread::spawn(move || {
            let _ = for_panic.get_or_compute::<()>(&k2, || panic!("leader dies"));
        })
        .join();
        assert!(died.is_err(), "the leader's panic propagates to its thread");
        // The cache survived: same key computes fine, stats stay consistent.
        let retry = cache
            .get_or_compute::<()>(&k, || Ok(90))
            .expect("new leader succeeds");
        assert_eq!(retry.outcome, FlightOutcome::Led);
        assert_eq!(cache.get(&k), Some(90));
        let stats = cache.stats();
        assert_eq!(stats.flight_leaders, 2, "both elections counted");
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.inserts, 1, "only the successful leader inserted");
        for shard in cache.shard_stats() {
            assert!(shard.is_consistent(), "{shard:?}");
        }
    }

    /// Gated leader + provably-parked waiters: every waiter joins and
    /// receives the leader's value, none recomputes.
    #[test]
    fn waiters_join_a_gated_leader() {
        const WAITERS: usize = 4;
        let cache = std::sync::Arc::new(ShardedLruCache::<u32>::new(8, 1));
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let k = key(3);

        std::thread::scope(|scope| {
            let leader_cache = std::sync::Arc::clone(&cache);
            let leader_key = k.clone();
            scope.spawn(move || {
                let led = leader_cache
                    .get_or_compute::<()>(&leader_key, || {
                        gate_rx.recv().expect("gate opens");
                        Ok(30)
                    })
                    .expect("leader commits");
                assert_eq!(led.outcome, FlightOutcome::Led);
            });
            // Wait for the flight to exist, then launch the joiners.
            while cache.stats().flight_leaders == 0 {
                std::thread::yield_now();
            }
            for _ in 0..WAITERS {
                let cache = std::sync::Arc::clone(&cache);
                let k = k.clone();
                scope.spawn(move || {
                    let joined = cache
                        .get_or_compute::<()>(&k, || panic!("joiner must not compute"))
                        .expect("joiner served");
                    assert_eq!(joined.value, 30, "joiner observes the leader's value");
                    assert_eq!(joined.outcome, FlightOutcome::Joined);
                });
            }
            // Release the gate only once every waiter is provably parked.
            while cache.flight_waiters() < WAITERS {
                std::thread::yield_now();
            }
            gate_tx.send(()).expect("leader is parked on the gate");
        });

        let stats = cache.stats();
        assert_eq!(stats.flight_joins, WAITERS as u64);
        assert_eq!(
            (stats.flight_leaders, stats.misses, stats.inserts),
            (1, 1, 1)
        );
        assert_eq!(cache.flight_waiters(), 0);
    }

    /// Parked work is never waited on: the next requester runs it in place
    /// (a join), and the owner's resume then shares the value without
    /// counting anything.
    #[test]
    fn parked_work_runs_on_the_next_thread_that_asks() {
        let cache = ShardedLruCache::<u32>::new(8, 1);
        let k = key(4);
        let Lead::Leader(lease) = cache.try_lead(&k) else {
            panic!("a cold key is led");
        };
        assert!(
            matches!(cache.try_lead(&k), Lead::Busy),
            "the flight is open"
        );
        lease.park(Box::new(|| Some(40)));
        let joined = cache
            .get_or_compute::<()>(&k, || panic!("the parked work computes"))
            .expect("served");
        assert_eq!((joined.value, joined.outcome), (40, FlightOutcome::Joined));
        let resumed = cache
            .resume::<()>(&k, || panic!("the value is resident"))
            .expect("served");
        assert_eq!((resumed.value, resumed.outcome), (40, FlightOutcome::Led));
        let stats = cache.stats();
        assert_eq!(
            (
                stats.flight_leaders,
                stats.misses,
                stats.flight_joins,
                stats.hits
            ),
            (1, 1, 1, 1),
            "{stats:?}"
        );
        assert_eq!(stats.inserts, 1);
    }

    /// The owner that finds its parked work untaken runs it itself; parked
    /// work that fails abandons the flight, and the owner leads a new one.
    #[test]
    fn the_owner_resumes_its_own_parked_work() {
        let cache = ShardedLruCache::<u32>::new(8, 1);
        let (k, failing) = (key(5), key(6));
        let Lead::Leader(lease) = cache.try_lead(&k) else {
            panic!("a cold key is led");
        };
        lease.park(Box::new(|| Some(50)));
        let resumed = cache.resume::<()>(&k, || panic!("parked")).expect("ran");
        assert_eq!((resumed.value, resumed.outcome), (50, FlightOutcome::Led));
        let Lead::Leader(lease) = cache.try_lead(&failing) else {
            panic!("a cold key is led");
        };
        lease.park(Box::new(|| None));
        let err = cache
            .resume(&failing, || Err("recomputed"))
            .expect_err("the failure is met again");
        assert_eq!(err, "recomputed");
        let stats = cache.stats();
        assert_eq!((stats.flight_leaders, stats.misses), (3, 3), "{stats:?}");
        assert_eq!((stats.hits, stats.inserts), (0, 1), "{stats:?}");
        assert_eq!(cache.flight_waiters(), 0);
    }

    /// A waiter parked on a running flight wakes when the leader parks its
    /// work, and runs it: no thread is left waiting on work nobody runs.
    #[test]
    fn a_waiting_thread_takes_work_parked_after_it_arrived() {
        let cache = ShardedLruCache::<u32>::new(8, 1);
        let k = key(7);
        let Lead::Leader(lease) = cache.try_lead(&k) else {
            panic!("a cold key is led");
        };
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| cache.get_or_compute::<()>(&k, || panic!("joins")));
            while cache.flight_waiters() < 1 {
                std::thread::yield_now();
            }
            lease.park(Box::new(|| Some(70)));
            let joined = waiter.join().expect("waiter").expect("served");
            assert_eq!((joined.value, joined.outcome), (70, FlightOutcome::Joined));
        });
        assert_eq!(cache.get(&k), Some(70));
        assert_eq!(cache.stats().flight_leaders, 1);
    }

    #[test]
    fn snapshot_entries_lists_coldest_first_and_counts_nothing() {
        let cache = ShardedLruCache::new(4, 1);
        for i in 0..4 {
            cache.insert(key(i), i);
        }
        cache.get(&key(0)); // 0 becomes most recent: order is 1, 2, 3, 0
        let before = cache.stats();
        let snapshot = cache.snapshot_entries();
        assert_eq!(cache.stats(), before, "a pure read moves no counter");
        let values: Vec<u64> = snapshot.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, vec![1, 2, 3, 0], "coldest first, hit moved to back");
        for (k, v) in &snapshot {
            assert_eq!(k.as_ref(), key(*v).as_slice(), "keys pair their values");
        }

        // Re-inserting in snapshot order into a smaller cache keeps the
        // hottest entries and evicts the cold prefix.
        let restored = ShardedLruCache::new(2, 1);
        for (k, v) in snapshot {
            restored.insert(k.to_vec(), v);
        }
        assert_eq!(restored.get(&key(3)), Some(3));
        assert_eq!(restored.get(&key(0)), Some(0));
        assert_eq!(restored.get(&key(1)), None, "cold tail evicted first");
        let stats = restored.stats();
        assert_eq!(stats.entries as u64 + stats.evictions, stats.inserts);

        assert!(ShardedLruCache::<u64>::new(4, 2)
            .snapshot_entries()
            .is_empty());
    }
}
