//! The O(1)-per-operation memo cache behind [`Engine`](crate::Engine).
//!
//! [`LruCache`] is a bounded map from byte keys to cloneable values under
//! **one** [`Mutex`]. Everything lives inside it: the key map (key → slab
//! slot), a slab of nodes threaded onto an intrusive doubly-linked recency
//! list (`prev`/`next` are slot indices into the slab — no pointers, no
//! `unsafe`; most recent at the head, eviction victim at the tail), the
//! flight table of keys whose value is being computed, the weight budget and
//! every counter. Hit-touch (unlink + relink at head), insert and evict
//! (pop the tail) are all O(1), and recency is exact: every hit moves its
//! entry to the head.
//!
//! # Per-key single-flight
//!
//! [`LruCache::get_or_compute`] is the stampede-proof miss path. A miss
//! installs an in-flight marker (a [`Condvar`] slot keyed by the exact byte
//! key) in the flight table; the installing thread — the **leader** — runs
//! the compute closure *on its own thread*, with no lock held, and commits
//! the result. Concurrent requesters for the same key find the marker and
//! wait on the slot's own condvar, so waiters never hold the cache lock;
//! when the leader commits they receive the committed value directly (a
//! **join**). N threads asking for one cold key therefore perform exactly
//! one computation.
//!
//! A commit inserts the value and removes the flight in one critical
//! section, so a requester either finds the value resident or finds the
//! flight — never neither while a successful leader is finishing.
//!
//! Recovery: the leader holds a drop guard, so a leader that dies — panics,
//! or returns an error (errors are never cached) — dissolves its flight and
//! wakes every waiter *before* the panic propagates. Woken waiters re-probe
//! and elect a new leader among themselves; nothing deadlocks and no lock
//! stays poisoned (every guard is acquired poison-tolerantly, and every
//! critical section leaves the structure consistent before anything that
//! could panic). Each generation of a key — from insert to eviction — has
//! at most one successful leader.
//!
//! Deadlock rule: waiting happens only on a computation some thread runs
//! *in place*, never on queued pool work — it needs no pool capacity to
//! finish, so a pool worker may safely wait as a joiner. (The engine's rule
//! that pool workers must not park on *pool jobs* is unaffected; see
//! `Engine::submit_notify`.)
//!
//! # Parked flights
//!
//! A leader that must not compute to the end on its own thread — the
//! engine's inline classify lane, which runs a bounded slice of work on a
//! server's front-end thread — leads without waiting
//! ([`LruCache::try_lead`]: a hit, a [`Lead::Busy`] key, or a
//! [`FlightLease`]) and, when it stops, **parks** the rest of its
//! computation in the flight ([`FlightLease::park`]). The flight stays
//! open, so concurrent requesters still find it, but nobody waits on
//! parked work: the first thread to join the flight takes the work and
//! runs it in place as the flight's leader, and waiters already parked wake
//! to take it. The request that parked the work then gets the value with
//! [`LruCache::resume`], running the work itself if nobody took it; it
//! counted its miss when it led, so the resume counts nothing more. Parked
//! work that fails abandons the flight like a failed leader.
//!
//! # Counters
//!
//! Every counter is a plain integer inside the cache mutex, updated in the
//! same critical section as the change it describes, so every
//! [`CacheStats`] snapshot is exact: `entries + evictions == inserts`,
//! `flight_joins <= hits`, and the peaks are the true high-water marks.
//!
//! **Miss discipline.** [`LruCache::get`] counts a hit on success and
//! *nothing* on a miss; misses are recorded when a computation is committed
//! to — by the single-flight leader, or explicitly via
//! [`LruCache::record_miss`] for callers driving the raw get/insert cycle.
//! This keeps the engine's long-standing accounting: a peek miss
//! ([`Engine::cached`](crate::Engine::cached)) costs nothing, while every
//! actual computation counts exactly one miss.
//!
//! **Weighing.** The cache has one budget. [`LruCache::new`] prices every
//! entry at 1, so the budget is an entry count; [`LruCache::with_weigher`]
//! prices each value with a caller-supplied weigher (for example in
//! approximate bytes) at insert time. An insert evicts LRU victims until the
//! resident weight fits the budget again — so one insert can evict several
//! light entries, and a single entry heavier than the whole budget stays
//! resident alone (a cache that cannot hold its current working item at all
//! would thrash forever).

use std::collections::{hash_map, HashMap};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The null slot index terminating the intrusive list. Slot indices are
/// `u32` deliberately: it keeps a node's links small, and 4 billion slots
/// is far beyond any realistic capacity.
const NIL: u32 = u32::MAX;

/// Locks a mutex, seeing through poison: every critical section in this
/// module leaves the structure consistent before any operation that could
/// panic (see the module docs), so a poisoned lock carries no torn state.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The counters of an [`LruCache`], read in one critical section (see the
/// [module docs](self) for what that guarantees).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups served without computing: resident hits plus
    /// `flight_joins`.
    pub hits: u64,
    /// Lookups that had to be computed: single-flight leaders (successful or
    /// not) plus explicit [`LruCache::record_miss`] calls.
    pub misses: u64,
    /// Distinct keys currently cached.
    pub entries: usize,
    /// Entries removed: LRU budget victims plus entries dropped by
    /// [`LruCache::clear`]. Counting both keeps `entries + evictions ==
    /// inserts` true at every snapshot.
    pub evictions: u64,
    /// Entries ever inserted (a raced re-insert of a present key keeps the
    /// first entry and does not count).
    pub inserts: u64,
    /// The most entries ever resident at once.
    pub peak_entries: usize,
    /// Total weight of the resident entries, as priced by the cache's
    /// weigher (equal to `entries` under the default unit weigher).
    pub weight: u64,
    /// The most weight ever resident at once.
    pub peak_weight: u64,
    /// Single-flight leaders elected: cold-key computations started
    /// (successful or not). Under pure `get_or_compute` traffic this equals
    /// `misses`.
    pub flight_leaders: u64,
    /// Requesters that waited on another thread's in-flight computation and
    /// received the leader's committed value without computing.
    pub flight_joins: u64,
    /// Reply-bytes lane: lookups that found the value's pre-serialized reply
    /// payload already attached ([`LruCache::record_bytes_hit`]). Tallied by
    /// the serving layer, so it participates in no structural invariant —
    /// under pure byte-splicing traffic `bytes_hits + bytes_misses` tracks
    /// the cache hits that went on to serialize.
    pub bytes_hits: u64,
    /// Reply-bytes lane: cache hits whose reply payload had to be serialized
    /// (and attached) first ([`LruCache::record_bytes_miss`] — at most one
    /// per resident entry per generation).
    pub bytes_misses: u64,
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

    /// The bookkeeping invariants every snapshot satisfies: each inserted
    /// entry is either still resident or was evicted, every join is a hit,
    /// and nothing resident exceeds its high-water mark.
    pub fn is_consistent(&self) -> bool {
        self.entries as u64 + self.evictions == self.inserts
            && self.flight_joins <= self.hits
            && self.entries <= self.peak_entries
            && self.weight <= self.peak_weight
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache: {} hits ({} joined) / {} misses ({:.1}% hit ratio), \
             {} flight leaders, {} entries (peak {}), weight {} (peak {}), \
             {} evictions / {} inserts, {} bytes hits / {} bytes misses",
            self.hits,
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
        )
    }
}

/// The outcome of [`LruCache::insert`].
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
    /// references, handed over rather than copied). At most one entry under
    /// the unit weigher; a weighted insert may evict several light entries
    /// at once.
    pub evicted: Vec<Arc<[u8]>>,
}

/// How a [`LruCache::get_or_compute`] call was served.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FlightOutcome {
    /// Served from the cache (recency refreshed).
    Hit,
    /// Waited on another thread's in-flight computation and received the
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

/// The result of [`LruCache::get_or_compute`]: the winning value and how
/// this particular call obtained it.
#[derive(Clone, Debug)]
pub struct Computed<V> {
    /// The committed value for the key, shared by the leader and every
    /// joiner of the same flight.
    pub value: V,
    /// How this call was served.
    pub outcome: FlightOutcome,
}

/// One slab node: a resident entry threaded onto the intrusive LRU list by
/// slot index.
#[derive(Debug)]
struct Node<V> {
    /// Shared with the key map's key (one allocation, refcounted).
    key: Arc<[u8]>,
    value: V,
    /// The value's weight as priced at insert time (1 under the unit
    /// weigher); remembered so eviction never re-prices a value.
    weight: u64,
    /// Slot index of the next-more-recent node (`NIL` at the head).
    prev: u32,
    /// Slot index of the next-less-recent node (`NIL` at the tail).
    next: u32,
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

/// A flight's state and the threads waiting on it.
struct SlotState<V> {
    flight: FlightState<V>,
    /// Threads currently inside [`FlightSlot::join`] — a diagnostic for
    /// [`LruCache::flight_waiters`] (and deterministic tests).
    waiters: usize,
}

/// One in-flight computation: the waiting slot installed in the flight
/// table while a leader computes a cold key. It has its own lock and
/// condvar, so joiners wait without holding the cache lock.
struct FlightSlot<V> {
    state: Mutex<SlotState<V>>,
    arrived: Condvar,
}

impl<V: Clone> FlightSlot<V> {
    fn new() -> Self {
        FlightSlot {
            state: Mutex::new(SlotState {
                flight: FlightState::Running,
                waiters: 0,
            }),
            arrived: Condvar::new(),
        }
    }

    /// Waits while a thread computes in place, until the flight resolves,
    /// is abandoned or holds parked work — which this thread then takes:
    /// nobody waits on work that no thread is running.
    fn join(&self) -> Joined<V> {
        let mut state = lock(&self.state);
        state.waiters += 1;
        let outcome = loop {
            match &mut state.flight {
                FlightState::Running => {
                    state = self
                        .arrived
                        .wait(state)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
                FlightState::Parked(_) => {
                    let FlightState::Parked(work) =
                        std::mem::replace(&mut state.flight, FlightState::Running)
                    else {
                        unreachable!("matched Parked");
                    };
                    break Joined::Claimed(work);
                }
                FlightState::Resolved(value) => break Joined::Value(value.clone()),
                FlightState::Abandoned => break Joined::Abandoned,
            }
        };
        state.waiters -= 1;
        outcome
    }

    /// Moves the flight to `flight` and wakes every waiter.
    fn settle(&self, flight: FlightState<V>) {
        lock(&self.state).flight = flight;
        self.arrived.notify_all();
    }
}

/// Everything the cache mutex guards.
struct State<V> {
    /// Key → slab slot of its node.
    map: HashMap<Arc<[u8]>, u32>,
    /// Slot-indexed node storage; `None` marks a free slot awaiting reuse.
    slab: Vec<Option<Node<V>>>,
    /// Free slot indices (filled by evictions, drained by inserts).
    free: Vec<u32>,
    /// Most recently used slot (`NIL` when empty).
    head: u32,
    /// Least recently used slot — the eviction victim (`NIL` when empty).
    tail: u32,
    /// One slot per key whose value is being computed.
    flights: HashMap<Arc<[u8]>, Arc<FlightSlot<V>>>,
    stats: CacheStats,
}

impl<V: Clone> State<V> {
    fn node(&self, i: u32) -> &Node<V> {
        self.slab[i as usize].as_ref().expect("linked slot is live")
    }

    fn node_mut(&mut self, i: u32) -> &mut Node<V> {
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

    /// Moves slot `i` to the head of the recency list and returns its value.
    fn touch(&mut self, i: u32) -> V {
        if self.head != i {
            self.detach(i);
            self.push_front(i);
        }
        self.node(i).value.clone()
    }

    /// The value under `key`, refreshed as most recent; counts nothing.
    fn get(&mut self, key: &[u8]) -> Option<V> {
        let slot = *self.map.get(key)?;
        Some(self.touch(slot))
    }

    /// Removes the LRU victim and returns its key; the slot goes on the free
    /// list. The caller must remove the same key from the key map.
    fn evict_tail(&mut self) -> Arc<[u8]> {
        let i = self.tail;
        debug_assert_ne!(i, NIL, "evict on an empty cache");
        self.detach(i);
        let node = self.slab[i as usize].take().expect("tail slot is live");
        self.free.push(i);
        self.stats.evictions += 1;
        self.stats.entries -= 1;
        self.stats.weight -= node.weight;
        node.key
    }

    /// Inserts `key → stored` priced at `weight` unless `key` is present
    /// (keep-first), then evicts from the tail until the resident weight
    /// fits `budget`. `value` is the caller's copy of `stored`, returned
    /// when the insert is fresh.
    fn insert(
        &mut self,
        key: Arc<[u8]>,
        value: V,
        stored: V,
        weight: u64,
        budget: u64,
    ) -> Inserted<V> {
        let vacant = match self.map.entry(key) {
            hash_map::Entry::Occupied(e) => Err(*e.get()),
            hash_map::Entry::Vacant(e) => Ok(e),
        };
        let entry = match vacant {
            // Keep-first: another thread won the race to this key; refresh
            // its recency and hand back the shared value.
            Err(slot) => {
                return Inserted {
                    value: self.touch(slot),
                    fresh: false,
                    evicted: Vec::new(),
                }
            }
            Ok(entry) => entry,
        };
        let node = Node {
            key: Arc::clone(entry.key()),
            value: stored,
            weight,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Some(node);
                i
            }
            None => {
                self.slab.push(Some(node));
                (self.slab.len() - 1) as u32
            }
        };
        entry.insert(slot);
        self.push_front(slot);
        self.stats.entries += 1;
        self.stats.weight += weight;
        // Evict after linking: the fresh node is the head, so the tail
        // victims are never the node just inserted (the `entries > 1` guard
        // keeps it resident even when it alone outweighs the budget).
        let mut evicted = Vec::new();
        while self.stats.weight > budget && self.stats.entries > 1 {
            let victim = self.evict_tail();
            self.map.remove(&*victim);
            evicted.push(victim);
        }
        self.stats.inserts += 1;
        self.stats.peak_entries = self.stats.peak_entries.max(self.stats.entries);
        self.stats.peak_weight = self.stats.peak_weight.max(self.stats.weight);
        Inserted {
            value,
            fresh: true,
            evicted,
        }
    }

    /// Removes `key`'s flight from the table.
    fn dissolve(&mut self, key: &[u8], slot: &Arc<FlightSlot<V>>) {
        let removed = self.flights.remove(key);
        debug_assert!(
            removed.is_none_or(|removed| Arc::ptr_eq(&removed, slot)),
            "a leader only ever dissolves its own flight"
        );
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
    cache: &'a LruCache<V>,
    key: Arc<[u8]>,
    slot: Arc<FlightSlot<V>>,
    settled: bool,
}

impl<V: Clone> FlightLease<'_, V> {
    /// Inserts `value` (keep-first, as [`LruCache::insert`]), dissolving the
    /// flight in the same critical section, and resolves the flight with the
    /// resident value, which it returns.
    pub fn commit(mut self, value: V) -> V {
        let value = self
            .cache
            .insert_keyed(Arc::clone(&self.key), value, Some(&self.slot))
            .value;
        self.slot.settle(FlightState::Resolved(value.clone()));
        self.settled = true;
        value
    }

    /// Leaves `work`, the rest of this flight's computation, in the flight.
    /// The flight stays open: the next thread that joins it — or resumes it
    /// ([`LruCache::resume`]) — takes the work and runs it in place, so no
    /// thread ever waits on work that nobody is running. Waiters already
    /// parked wake to take it.
    pub fn park(mut self, work: ParkedWork<V>) {
        self.slot.settle(FlightState::Parked(work));
        self.settled = true;
    }
}

impl<V: Clone> Drop for FlightLease<'_, V> {
    fn drop(&mut self) {
        if !self.settled {
            self.cache.lock().dissolve(&self.key, &self.slot);
            self.slot.settle(FlightState::Abandoned);
        }
    }
}

/// What [`LruCache::try_lead`] found.
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
    /// The request whose lead parked the flight ([`LruCache::resume`]): it
    /// already counted its miss, so nothing more is counted unless it must
    /// lead a new flight.
    Owner,
}

/// A bounded LRU map from byte keys to cloneable values under one mutex,
/// with O(1) hit-touch, insert and evict and per-key single-flight misses.
/// See the [module docs](self) for the design.
pub struct LruCache<V> {
    state: Mutex<State<V>>,
    /// The resident-weight bound (an entry count under the unit weigher).
    budget: u64,
    /// Prices a value at insert time; `|_| 1` for [`LruCache::new`].
    weigher: fn(&V) -> u64,
}

impl<V> fmt::Debug for LruCache<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LruCache")
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

impl<V: Clone> LruCache<V> {
    /// Creates a cache holding at most `capacity` entries (at least 1):
    /// every entry weighs 1. See [`LruCache::with_weigher`] for a byte-cost
    /// bound instead.
    pub fn new(capacity: usize) -> Self {
        Self::with_weigher(capacity as u64, |_| 1)
    }

    /// Creates a cache bounded by total resident **weight**: `weigher`
    /// prices each value at insert time (typically in approximate bytes) and
    /// inserts evict LRU victims until at most `budget` (at least 1) is
    /// resident. One insert may evict several light entries; a single entry
    /// heavier than the whole budget stays resident alone.
    pub fn with_weigher(budget: u64, weigher: fn(&V) -> u64) -> Self {
        LruCache {
            state: Mutex::new(State {
                map: HashMap::new(),
                slab: Vec::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
                flights: HashMap::new(),
                stats: CacheStats::default(),
            }),
            budget: budget.max(1),
            weigher,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<V>> {
        lock(&self.state)
    }

    /// Looks `key` up, refreshing its recency and counting a hit on
    /// success. A miss counts **nothing** (see [`LruCache::record_miss`]).
    pub fn get(&self, key: &[u8]) -> Option<V> {
        let mut state = self.lock();
        let value = state.get(key)?;
        state.stats.hits += 1;
        Some(value)
    }

    /// Counts one miss. Callers driving the raw get/insert cycle invoke this
    /// when they commit to computing the value, so `hits + misses` equals
    /// the number of computing lookups while pure peeks stay free.
    /// ([`LruCache::get_or_compute`] does this automatically for its
    /// leader.)
    pub fn record_miss(&self) {
        self.lock().stats.misses += 1;
    }

    /// Counts one reply-bytes lane hit: a lookup whose value carried its
    /// pre-serialized reply payload, so the serving layer answered with an
    /// id-splice instead of serializing. A pure tally for the serving layer
    /// (the cache itself never inspects values), outside every structural
    /// invariant.
    pub fn record_bytes_hit(&self) {
        self.lock().stats.bytes_hits += 1;
    }

    /// Counts one reply-bytes lane miss: a cached value whose reply payload
    /// had to be serialized (and attached) before it could be spliced — at
    /// most once per resident entry per generation, since the payload then
    /// lives and dies with the entry.
    pub fn record_bytes_miss(&self) {
        self.lock().stats.bytes_misses += 1;
    }

    /// Inserts `key → value`, evicting least recently used entries until the
    /// budget fits. If the key is already present the existing entry wins
    /// (its recency is refreshed, nothing is replaced); the returned
    /// [`Inserted::value`] is the value all callers should share.
    pub fn insert(&self, key: Vec<u8>, value: V) -> Inserted<V> {
        self.insert_keyed(key.into(), value, None)
    }

    /// [`LruCache::insert`], also dissolving `flight` (the flight of `key`)
    /// in the same critical section when one is given.
    fn insert_keyed(
        &self,
        key: Arc<[u8]>,
        value: V,
        flight: Option<&Arc<FlightSlot<V>>>,
    ) -> Inserted<V> {
        // The clone and the weigher are the only operations here that could
        // conceivably panic; they run before the lock is taken so a poisoned
        // cache can never hold a half-linked list.
        let stored = value.clone();
        let weight = (self.weigher)(&value);
        let mut state = self.lock();
        if let Some(slot) = flight {
            state.dissolve(&key, slot);
        }
        state.insert(key, value, stored, weight, self.budget)
    }

    /// Single-flight lookup-or-compute: a hit returns immediately; on a cold
    /// key exactly one caller — the leader — runs `compute` on its own
    /// thread and commits the result, while concurrent callers for the same
    /// key wait and receive the committed value ([`FlightOutcome::Joined`]).
    /// A caller that finds the flight's work parked ([`FlightLease::park`])
    /// takes it and runs it in place, and is served as a join too.
    ///
    /// Errors are not cached: the leader's error is returned to the leader
    /// alone, and its waiters wake to re-probe and elect a new leader (as
    /// they do if the leader panics — the flight is dissolved by a drop
    /// guard, so waiters never deadlock and the panic propagates on the
    /// leader's thread only). `compute` is called at most once per
    /// `get_or_compute` call.
    ///
    /// Waiting discipline: a waiter blocks only on a computation some
    /// thread is running in place, which needs no pool capacity to finish —
    /// so both caller threads and pool workers may wait here without
    /// violating the engine's pool-deadlock rule (workers must never park on
    /// queued pool *jobs*; see `Engine::submit_notify`). Parked work is never
    /// waited on: the waiter runs it.
    pub fn get_or_compute<E>(
        &self,
        key: &[u8],
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Computed<V>, E> {
        self.obtain(key, compute, Requester::New)
    }

    /// The owner's half of a parked flight: the request whose
    /// [`LruCache::try_lead`] lease parked the flight's work gets the
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
        let mut state = self.lock();
        if let Some(value) = state.get(key) {
            state.stats.hits += 1;
            return Lead::Hit(value);
        }
        if state.flights.contains_key(key) {
            return Lead::Busy;
        }
        Lead::Leader(self.lead(&mut state, key))
    }

    /// Installs a new flight for `key` and counts its leader and miss.
    fn lead(&self, state: &mut State<V>, key: &[u8]) -> FlightLease<'_, V> {
        let key: Arc<[u8]> = key.into();
        let slot = Arc::new(FlightSlot::new());
        state.flights.insert(Arc::clone(&key), Arc::clone(&slot));
        state.stats.flight_leaders += 1;
        state.stats.misses += 1;
        FlightLease {
            cache: self,
            key,
            slot,
            settled: false,
        }
    }

    /// [`LruCache::get_or_compute`] and [`LruCache::resume`].
    fn obtain<E>(
        &self,
        key: &[u8],
        compute: impl FnOnce() -> Result<V, E>,
        requester: Requester,
    ) -> Result<Computed<V>, E> {
        let mut compute = Some(compute);
        loop {
            let mut state = self.lock();
            if let Some(value) = state.get(key) {
                let outcome = match requester {
                    Requester::New => {
                        state.stats.hits += 1;
                        FlightOutcome::Hit
                    }
                    Requester::Owner => FlightOutcome::Led,
                };
                return Ok(Computed { value, outcome });
            }
            if let Some(slot) = state.flights.get(key) {
                let slot = Arc::clone(slot);
                drop(state);
                let value = match slot.join() {
                    Joined::Value(value) => value,
                    Joined::Claimed(work) => {
                        // This thread runs the parked work under the
                        // flight's lease; `None` (or a panic) abandons it.
                        let lease = FlightLease {
                            cache: self,
                            key: key.into(),
                            slot,
                            settled: false,
                        };
                        match work() {
                            Some(value) => lease.commit(value),
                            None => continue,
                        }
                    }
                    // The leader died without committing; retry — this
                    // thread may find the value, join a successor, or lead
                    // itself.
                    Joined::Abandoned => continue,
                };
                if requester == Requester::Owner {
                    return Ok(Computed {
                        value,
                        outcome: FlightOutcome::Led,
                    });
                }
                let mut state = self.lock();
                state.stats.hits += 1;
                state.stats.flight_joins += 1;
                return Ok(Computed {
                    value,
                    outcome: FlightOutcome::Joined,
                });
            }
            // Cold key, no flight: become the leader. A panic or `Err` drops
            // the lease unsettled, which wakes every waiter into
            // recomputing. No lock is held across the computation.
            let lease = self.lead(&mut state, key);
            drop(state);
            let fresh = (compute.take().expect("a call leads at most one flight"))()?;
            return Ok(Computed {
                value: lease.commit(fresh),
                outcome: FlightOutcome::Led,
            });
        }
    }

    /// Threads currently waiting on in-flight computations. A diagnostic:
    /// tests use it to release a gated leader only once every expected
    /// waiter is provably waiting, and operators can poll it to observe
    /// stampedes being absorbed.
    pub fn flight_waiters(&self) -> usize {
        self.lock()
            .flights
            .values()
            .map(|slot| lock(&slot.state).waiters)
            .sum()
    }

    /// Drops every entry. Counters are kept; the dropped entries count as
    /// evictions so `entries + evictions == inserts` keeps holding. Open
    /// flights are untouched.
    pub fn clear(&self) {
        let mut state = self.lock();
        state.map.clear();
        state.slab.clear();
        state.free.clear();
        state.head = NIL;
        state.tail = NIL;
        state.stats.evictions += state.stats.entries as u64;
        state.stats.entries = 0;
        state.stats.weight = 0;
    }

    /// One `(key, value)` pair per resident entry, for persistence, listed
    /// **coldest first** (the eviction victim leads). Re-inserting a
    /// snapshot in the returned order reproduces the cache's recency order —
    /// the hottest entries end up most recent, so a smaller restore target
    /// keeps exactly the most recently used ones.
    ///
    /// Captured in one critical section, so every pair was resident
    /// simultaneously. A pure read: no counter moves and no recency changes.
    pub fn snapshot_entries(&self) -> Vec<(Arc<[u8]>, V)> {
        let state = self.lock();
        let mut out = Vec::with_capacity(state.stats.entries);
        let mut slot = state.tail;
        while slot != NIL {
            let node = state.node(slot);
            out.push((Arc::clone(&node.key), node.value.clone()));
            slot = node.prev;
        }
        out
    }

    /// Every counter, read in one critical section.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
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
        let cache = LruCache::new(2);
        assert_eq!(cache.get(&key(1)), None);
        assert!(cache.insert(key(1), 10u32).fresh);
        assert!(cache.insert(key(2), 20).fresh);
        assert_eq!(cache.get(&key(1)), Some(10));
        // Full: inserting a third evicts the LRU (key 2, since 1 was touched).
        let outcome = cache.insert(key(3), 30);
        assert_eq!(outcome.evicted.len(), 1);
        assert_eq!(&*outcome.evicted[0], &key(2)[..]);
        assert_eq!(cache.get(&key(2)), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.evictions, stats.inserts), (1, 1, 3));
        assert_eq!(stats.peak_entries, 2);
        assert!(stats.is_consistent(), "{stats:?}");
    }

    /// The cache's victim order is the exact global LRU order: the scripted
    /// trace mirrors the engine regression test
    /// `lru_eviction_prefers_least_recently_used` key for key.
    #[test]
    fn victims_follow_the_global_lru_order() {
        let cache = LruCache::new(2);
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
        let cache = LruCache::new(4);
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
    fn capacity_bounds_the_resident_entries() {
        let cache = LruCache::new(5);
        for i in 0..100u64 {
            cache.insert(key(i), i);
            assert!(
                cache.stats().entries <= 5,
                "resident entries exceeded capacity"
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 5);
        assert_eq!(stats.inserts, 100);
        assert_eq!(stats.evictions, 95);
    }

    #[test]
    fn clear_counts_evictions_and_keeps_the_invariant() {
        let cache = LruCache::new(8);
        for i in 0..6u64 {
            cache.insert(key(i), ());
        }
        cache.clear();
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (0, 6));
        assert!(stats.is_consistent(), "{stats:?}");
        // The cache stays usable after a clear.
        cache.insert(key(42), ());
        assert_eq!(cache.stats().entries, 1);
    }

    /// The peaks are the true high-water marks of one cache, not a sum of
    /// per-part marks reached at different times.
    #[test]
    fn peak_entries_is_the_true_high_water_mark() {
        let cache = LruCache::new(8);
        cache.insert(key(1), 1u64);
        cache.insert(key(2), 2);
        cache.clear();
        cache.insert(key(3), 3);
        cache.insert(key(4), 4);
        let stats = cache.stats();
        assert_eq!((stats.peak_entries, stats.peak_weight), (2, 2), "{stats:?}");
    }

    #[test]
    fn tallies_stay_outside_the_hit_and_miss_accounting() {
        let cache = LruCache::<u8>::new(16);
        cache.insert(key(11), 1);
        cache.record_bytes_miss();
        cache.record_bytes_hit();
        cache.record_bytes_hit();
        cache.record_miss();
        let stats = cache.stats();
        assert_eq!((stats.bytes_hits, stats.bytes_misses), (2, 1));
        assert_eq!((stats.hits, stats.misses), (0, 1));
        assert!(stats.is_consistent(), "{stats:?}");
    }

    #[test]
    fn stats_display_mentions_every_counter() {
        let cache = LruCache::new(4);
        cache.insert(key(1), 1u8);
        cache.get(&key(1));
        let shown = cache.stats().to_string();
        assert_eq!(
            shown,
            "cache: 1 hits (0 joined) / 0 misses (100.0% hit ratio), 0 flight leaders, \
             1 entries (peak 1), weight 1 (peak 1), 0 evictions / 1 inserts, \
             0 bytes hits / 0 bytes misses"
        );
    }

    #[test]
    fn unit_weigher_weight_tracks_entry_count() {
        let cache = LruCache::new(3);
        for i in 0..5u64 {
            cache.insert(key(i), i);
            let stats = cache.stats();
            assert_eq!(stats.weight, stats.entries as u64);
            assert_eq!(stats.peak_weight, stats.peak_entries as u64);
        }
    }

    #[test]
    fn weighted_insert_evicts_until_the_budget_fits() {
        // Budget 10, values weigh their own magnitude.
        let cache = LruCache::with_weigher(10, |v: &u64| *v);
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
        let cache = LruCache::with_weigher(10, |v: &u64| *v);
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
        let cache = LruCache::with_weigher(100, |v: &u64| *v + 1);
        for i in 0..6u64 {
            cache.insert(key(i), i);
        }
        let before = cache.stats();
        assert!(before.weight > 0);
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.weight, 0);
        assert_eq!(stats.entries, 0);
        assert!(stats.is_consistent(), "{stats:?}");
        assert_eq!(stats.peak_weight, before.weight);
    }

    #[test]
    fn get_or_compute_leads_once_then_hits() {
        let cache = LruCache::new(4);
        let first = cache
            .get_or_compute::<()>(&key(1), || Ok(11u32))
            .expect("compute succeeds");
        assert_eq!(first.value, 11);
        assert_eq!(first.outcome, FlightOutcome::Led);
        assert!(!first.outcome.served_from_cache());
        let second = cache
            .get_or_compute::<()>(&key(1), || panic!("must not recompute"))
            .expect("hit");
        assert_eq!(second.value, 11);
        assert_eq!(second.outcome, FlightOutcome::Hit);
        assert!(second.outcome.served_from_cache());
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.flight_leaders), (1, 1));
        assert_eq!((stats.hits, stats.flight_joins), (1, 0));
        assert_eq!(stats.inserts, 1);
        assert_eq!(cache.flight_waiters(), 0, "no flight survives its leader");
    }

    #[test]
    fn get_or_compute_error_is_not_cached() {
        let cache = LruCache::<u32>::new(4);
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
    /// subsequent requester can lead — and the cache lock stays usable.
    #[test]
    fn panicking_leader_dissolves_its_flight() {
        let cache = Arc::new(LruCache::<u32>::new(4));
        let for_panic = Arc::clone(&cache);
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
        assert!(stats.is_consistent(), "{stats:?}");
    }

    /// Gated leader + provably waiting joiners: every waiter joins and
    /// receives the leader's value, none recomputes.
    #[test]
    fn waiters_join_a_gated_leader() {
        const WAITERS: usize = 4;
        let cache = Arc::new(LruCache::<u32>::new(8));
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let k = key(3);

        std::thread::scope(|scope| {
            let leader_cache = Arc::clone(&cache);
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
                let cache = Arc::clone(&cache);
                let k = k.clone();
                scope.spawn(move || {
                    let joined = cache
                        .get_or_compute::<()>(&k, || panic!("joiner must not compute"))
                        .expect("joiner served");
                    assert_eq!(joined.value, 30, "joiner observes the leader's value");
                    assert_eq!(joined.outcome, FlightOutcome::Joined);
                });
            }
            // Release the gate only once every waiter is provably waiting.
            while cache.flight_waiters() < WAITERS {
                std::thread::yield_now();
            }
            gate_tx.send(()).expect("leader is parked on the gate");
        });

        let stats = cache.stats();
        assert_eq!(stats.flight_joins, WAITERS as u64);
        assert_eq!(stats.hits, WAITERS as u64, "a join is a hit");
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
        let cache = LruCache::<u32>::new(8);
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
        let cache = LruCache::<u32>::new(8);
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

    /// A waiter on a running flight wakes when the leader parks its work,
    /// and runs it: no thread is left waiting on work nobody runs.
    #[test]
    fn a_waiting_thread_takes_work_parked_after_it_arrived() {
        let cache = LruCache::<u32>::new(8);
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
        let cache = LruCache::new(4);
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

        // Re-inserting in snapshot order into a smaller cache keeps exactly
        // the most recently used entries.
        let restored = LruCache::new(2);
        for (k, v) in snapshot {
            restored.insert(k.to_vec(), v);
        }
        let kept: Vec<u64> = restored
            .snapshot_entries()
            .iter()
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(kept, vec![3, 0], "the two hottest, in their order");
        assert!(restored.stats().is_consistent());

        assert!(LruCache::<u64>::new(4).snapshot_entries().is_empty());
    }
}
