//! The service-ready classification engine.
//!
//! [`Engine`] is the long-lived entry point this crate exposes to servers,
//! batch jobs and tools. Where the free function [`crate::classify`] performs
//! one classification from scratch, an engine
//!
//! * **memoizes**: classifications are cached under the problem's exact
//!   [`structural key`](lcl_problem::NormalizedLcl::structural_key) (name-
//!   and label-name-insensitive, collision-free), so once a problem is
//!   cached, the expensive type-semigroup and feasibility work is never
//!   repeated for that structure. Misses are **single-flight**: threads that
//!   miss a *cold* cache concurrently elect one leader that computes while
//!   the rest park and receive the committed value, so N concurrent requests
//!   for one cold problem perform exactly one classification (a leader that
//!   panics or errors wakes its waiters into electing a successor — see
//!   [`LruCache::get_or_compute`]). [`Engine::classify_many`]
//!   additionally deduplicates its batch up front so duplicates never even
//!   reach the flight table. The cache is one bounded [`LruCache`] under
//!   one lock ([`EngineBuilder::cache_capacity`] entries, or
//!   [`EngineBuilder::cache_weight_capacity`] approximate bytes; O(1)
//!   touch-on-hit LRU eviction), and [`Engine::cache_stats`] reads its
//!   hit/miss/insert/eviction/flight counters in one critical section;
//! * **runs bounded slices of a classification inline**:
//!   [`Engine::classify_inline`] runs a cold classification's stages on the
//!   calling thread while a deterministic [`WorkMeter`] allows, parks the
//!   finished stages in the key's flight when it must stop, and
//!   [`Engine::resume`] finishes them on another thread — a server's
//!   front-end thread classifies small problems without a pool round-trip
//!   and never waits on another thread;
//! * **owns a persistent worker pool**: [`EngineBuilder::build`] spawns
//!   [`Engine::parallelism`] long-lived worker threads once; batch
//!   classification and server request dispatch inject jobs into the pool's
//!   MPMC queue, so no thread is ever spawned on the per-request path
//!   ([`Engine::pool_stats`] exposes queue depth and completed-job counters);
//! * **batches**: [`Engine::classify_many`] classifies a whole workload on
//!   the pool (structurally identical problems are deduplicated first),
//!   returning verdicts in deterministic input order;
//! * **solves end-to-end**: [`Engine::solve`] classifies, synthesizes the
//!   optimal LOCAL algorithm and runs it on a concrete
//!   [`Instance`] in the ball-view simulator, returning the labeling together
//!   with the round count;
//! * **speaks the wire format**: [`Engine::verdict`] produces a serializable
//!   [`Verdict`] summary, and problems enter the engine through
//!   [`lcl_problem::ProblemSpec`] just as well as through built values.
//!
//! Parallelism note: the pool uses plain `std::thread` workers over an MPMC
//! channel rather than rayon — the offline build environment cannot fetch
//! rayon, and per-job reply channels with slot indices give the same
//! deterministic-order guarantee for this fan-out shape.
//!
//! # Example
//!
//! ```
//! use lcl_classifier::{Complexity, Engine};
//! use lcl_problem::NormalizedLcl;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NormalizedLcl::builder("3-coloring");
//! b.input_labels(&["x"]);
//! b.output_labels(&["1", "2", "3"]);
//! b.allow_all_node_pairs();
//! for p in 0..3u16 {
//!     for q in 0..3u16 {
//!         if p != q {
//!             b.allow_edge_idx(p, q);
//!         }
//!     }
//! }
//! let problem = b.build()?;
//!
//! let engine = Engine::new();
//! let first = engine.classify(&problem)?;
//! let second = engine.classify(&problem)?; // served from the memo cache
//! assert_eq!(first.complexity(), Complexity::LogStar);
//! assert_eq!(second.complexity(), Complexity::LogStar);
//! assert_eq!(engine.cache_stats().hits, 1);
//! # Ok(())
//! # }
//! ```

use crate::cache::{CacheStats, Lead, LruCache};
use crate::classify::{classify_with_options, ClassifierOptions, Progress, Stage};
use crate::pool::{PoolStats, WorkerPool};
use crate::types_info::GapTypes;
use crate::verdict::{Classification, Complexity, Verdict};
use crate::Result;
use lcl_local_sim::{LocalAlgorithm, Network, SyncSimulator};
use lcl_problem::{Instance, Labeling, NormalizedLcl};
use lcl_semigroup::WorkMeter;
use std::collections::HashMap;
use std::sync::{mpsc, Arc, OnceLock};
use std::thread;

/// Builder for [`Engine`].
///
/// Wraps [`ClassifierOptions`] and adds engine-level knobs: worker-pool
/// width ([`EngineBuilder::parallelism`]) and memo-cache bound
/// ([`EngineBuilder::cache_capacity`]). Building spawns the persistent
/// worker pool, so construct one engine and share it.
///
/// ```
/// use lcl_classifier::{Complexity, Engine};
/// use lcl_problems::coloring;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = Engine::builder()
///     .parallelism(2)       // two persistent pool workers
///     .cache_capacity(64)   // LRU-bounded memo cache
///     .build();
/// assert_eq!(engine.parallelism(), 2);
///
/// let verdicts = engine.classify_many(&[coloring(3), coloring(2)]);
/// assert_eq!(verdicts[0].as_ref().unwrap().complexity(), Complexity::LogStar);
/// assert_eq!(
///     verdicts[1].as_ref().unwrap().complexity(),
///     Complexity::Unsolvable, // odd cycles are not 2-colorable
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct EngineBuilder {
    options: ClassifierOptions,
    parallelism: Option<usize>,
    cache_capacity: Option<usize>,
    cache_weight_capacity: Option<u64>,
}

/// Default bound on the number of cached classifications per engine.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

impl EngineBuilder {
    /// Starts from default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the classifier options wholesale.
    pub fn options(mut self, options: ClassifierOptions) -> Self {
        self.options = options;
        self
    }

    /// Caps the number of types (transfer relations) enumerated per problem.
    pub fn type_budget(mut self, budget: usize) -> Self {
        self.options.type_budget = budget;
        self
    }

    /// Caps the number of backtracking nodes in the feasibility search (see
    /// [`ClassifierOptions::search_budget`]: a node is a connection class
    /// assigned).
    pub fn search_budget(mut self, budget: usize) -> Self {
        self.options.search_budget = budget;
        self
    }

    /// Caps the primitive-pattern length used by the `O(1)` conditions.
    pub fn pattern_length_cap(mut self, cap: usize) -> Self {
        self.options.pattern_length_cap = cap;
        self
    }

    /// Sets the number of persistent worker threads the engine's pool spawns.
    /// Defaults to the machine's available parallelism.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = Some(workers.max(1));
        self
    }

    /// Bounds the number of cached classifications; when full, the least
    /// recently used entry is evicted. Defaults to
    /// [`DEFAULT_CACHE_CAPACITY`].
    pub fn cache_capacity(mut self, entries: usize) -> Self {
        self.cache_capacity = Some(entries.max(1));
        self
    }

    /// Bounds the memo cache by approximate resident **bytes** instead of
    /// entry count: each cached entry is priced by
    /// [`approximate_entry_weight`] (classification plus the reply-bytes
    /// reservation) and inserts evict least-recently-used entries until at
    /// most `bytes` remain resident.
    /// Overrides [`EngineBuilder::cache_capacity`]; the default remains the
    /// count bound, which treats a tiny 2-type classification and one
    /// carrying a long unsolvability witness as equally expensive.
    pub fn cache_weight_capacity(mut self, bytes: u64) -> Self {
        self.cache_weight_capacity = Some(bytes.max(1));
        self
    }

    /// Builds the engine, spawning its persistent worker pool.
    pub fn build(self) -> Engine {
        let parallelism = self
            .parallelism
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, |p| p.get()));
        let cache = match self.cache_weight_capacity {
            Some(bytes) => LruCache::with_weigher(bytes, entry_weight),
            None => LruCache::new(self.cache_capacity.unwrap_or(DEFAULT_CACHE_CAPACITY)),
        };
        let core = Arc::new(EngineCore {
            options: self.options,
            cache,
        });
        Engine {
            core,
            pool: WorkerPool::new(parallelism),
        }
    }
}

/// One memo-cache entry: the classification plus the **reply-bytes lane** —
/// a lazily attached, pre-serialized reply payload (`Arc<[u8]>`) so a
/// serving layer can answer a hot hit by splicing the request id around
/// cached bytes instead of re-serializing the verdict per frame.
///
/// The payload is attached at most once per entry generation
/// ([`Engine::cached_reply`]) and lives and dies with the entry: eviction or
/// [`Engine::clear_cache`] drops entry and payload together, so the lane can
/// never serve bytes for a classification that is no longer resident.
///
/// Because the cache key is the *structural* fingerprint — deliberately
/// name-insensitive — while a serialized verdict embeds the problem's name,
/// the payload remembers the name it was rendered for; a structurally
/// identical problem under a different name is served [`ReplyLane::Render`]
/// instead of someone else's bytes.
#[derive(Debug)]
pub struct CacheEntry {
    classification: Arc<Classification>,
    reply: OnceLock<ReplyPayload>,
}

/// The attached pre-serialized reply payload plus the problem *name* it was
/// rendered for (see [`CacheEntry`]). The name is the only per-problem field
/// of a verdict the structural key does not pin: the embedded canonical hash
/// digests the same name-insensitive structure as the key, so a key match
/// implies a hash match.
#[derive(Debug)]
struct ReplyPayload {
    name: Box<str>,
    bytes: Arc<[u8]>,
}

impl CacheEntry {
    pub(crate) fn new(classification: Arc<Classification>) -> Self {
        CacheEntry {
            classification,
            reply: OnceLock::new(),
        }
    }

    /// The entry of a classification just computed.
    fn fresh(classification: Classification) -> Arc<Self> {
        Arc::new(CacheEntry::new(Arc::new(classification)))
    }

    /// The cached classification.
    pub fn classification(&self) -> &Arc<Classification> {
        &self.classification
    }

    /// The attached reply payload bytes, if any request rendered them yet.
    pub fn reply_bytes(&self) -> Option<&Arc<[u8]>> {
        self.reply.get().map(|payload| &payload.bytes)
    }
}

/// How [`Engine::cached_reply`] served a memo-cache hit.
#[derive(Clone, Debug)]
pub enum ReplyLane {
    /// The pre-serialized reply payload: the caller splices its request id
    /// around these bytes and writes — no serialization.
    Bytes(Arc<[u8]>),
    /// The classification is cached but the attached payload was rendered
    /// for a structurally identical problem under a *different* name or
    /// hash; the caller must serialize freshly for this request's identity.
    Render(Arc<Classification>),
}

/// How [`Engine::classify_inline`] left a classification.
#[derive(Clone, Debug)]
pub enum Lane {
    /// Classified on the calling thread, or found cached (`hit`).
    Done {
        /// The classification.
        classification: Arc<Classification>,
        /// Whether the memo cache served it.
        hit: bool,
    },
    /// Stopped before `stage`: the stages before it are done, and their
    /// state waits in the key's flight. Finish with [`Engine::resume`] on a
    /// pool worker.
    Parked(Stage),
    /// Not started: another thread holds the key's flight, or the problem
    /// does not fit the lane. Classify with [`Engine::classify_keyed`] on a
    /// pool worker, which joins the flight.
    Pool,
}

/// The result of [`Engine::solve`]: the classification together with the
/// labeling the synthesized algorithm produced on the given instance and the
/// number of LOCAL rounds it used.
#[derive(Clone, Debug)]
pub struct Solution {
    classification: Arc<Classification>,
    labeling: Labeling,
    rounds: usize,
}

impl Solution {
    /// The classification backing the run.
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// The complexity class of the problem.
    pub fn complexity(&self) -> Complexity {
        self.classification.complexity()
    }

    /// The valid labeling produced by the synthesized algorithm.
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// The number of LOCAL rounds (= view radius) the algorithm used on this
    /// instance.
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

/// The sharable inner state of an [`Engine`]: options, memo cache and
/// counters. Pool workers hold an `Arc` to this, never to the `Engine`
/// itself, so the engine can own (and on drop, join) its pool.
#[derive(Debug)]
struct EngineCore {
    options: ClassifierOptions,
    /// The memo store: [`CacheEntry`]s (classification + lazily attached
    /// reply bytes) keyed by the problem's exact
    /// [`structural key`](NormalizedLcl::structural_key) (collision-free,
    /// unlike the 64-bit canonical hash).
    cache: LruCache<Arc<CacheEntry>>,
}

impl EngineCore {
    /// Probes the cache, refreshing recency and counting a hit on success.
    /// A miss is *not* counted here — only actual computations count as
    /// misses (see `classify`).
    fn lookup(&self, key: &[u8]) -> Option<Arc<CacheEntry>> {
        self.cache.get(key)
    }

    /// Memoized classification on the calling thread.
    fn classify(&self, problem: &NormalizedLcl) -> Result<Arc<Classification>> {
        self.classify_keyed(&problem.structural_key(), problem)
            .map(|(c, _)| c)
    }

    /// [`EngineCore::classify`] under the problem's structural key, also
    /// reporting whether the memo cache served the result (`true` = hit),
    /// for callers that attribute latency.
    fn classify_keyed(
        &self,
        key: &[u8],
        problem: &NormalizedLcl,
    ) -> Result<(Arc<Classification>, bool)> {
        self.classify_entry(key, problem)
            .map(|(entry, hit)| (Arc::clone(&entry.classification), hit))
    }

    /// The full memoized path, under the problem's structural key `key`:
    /// returns the whole cache entry, so callers that splice replies can
    /// reach the bytes lane without a second probe.
    fn classify_entry(
        &self,
        key: &[u8],
        problem: &NormalizedLcl,
    ) -> Result<(Arc<CacheEntry>, bool)> {
        // Single-flight: at most one thread per cold key runs the closure
        // (counting the miss when it commits to computing); concurrent
        // requesters park on the leader's flight and share its Arc. Waiting
        // is on a computation some thread runs in place, never on pool
        // capacity, so this is safe from pool workers too (see
        // `Engine::dispatch`).
        let computed = self.cache.get_or_compute(key, || self.compute(problem))?;
        Ok((computed.value, computed.outcome.served_from_cache()))
    }

    /// One cold classification, as a cache entry.
    fn compute(&self, problem: &NormalizedLcl) -> Result<Arc<CacheEntry>> {
        classify_with_options(problem, &self.options).map(CacheEntry::fresh)
    }

    /// The error reported when a pool job died (panicked) before sending its
    /// reply; the engine and its pool remain usable.
    fn dropped_reply() -> crate::ClassifierError {
        crate::ClassifierError::Internal {
            what: "worker-pool job dropped its reply (the job panicked); retry the request"
                .to_string(),
        }
    }
}

/// A long-lived, concurrency-safe classification service.
///
/// See the [module documentation](self) for the design and an example. An
/// engine is cheap to share: all methods take `&self`, and every memo-cache
/// operation is O(1) under the cache's one lock, which no computation
/// holds. Construction spawns the persistent worker pool;
/// dropping the engine closes the pool's queue and joins every worker.
#[derive(Debug)]
pub struct Engine {
    core: Arc<EngineCore>,
    pool: WorkerPool,
}

impl Default for Engine {
    fn default() -> Self {
        EngineBuilder::new().build()
    }
}

impl Engine {
    /// Creates an engine with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts building an engine with custom options.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The classifier options this engine runs with.
    pub fn options(&self) -> &ClassifierOptions {
        &self.core.options
    }

    /// The number of persistent worker threads in the engine's pool.
    pub fn parallelism(&self) -> usize {
        self.pool.workers()
    }

    /// Peeks the memo cache: returns the cached classification without
    /// computing anything on a miss.
    ///
    /// A hit refreshes the entry's LRU recency and counts as a cache hit; a
    /// miss counts nothing (misses are only counted when a classification
    /// is actually computed). Use this when a thread must never block on
    /// classification work — e.g. to answer memoized requests on a
    /// latency-sensitive thread and route only the misses to
    /// [`Engine::dispatch`].
    pub fn cached(&self, problem: &NormalizedLcl) -> Option<Arc<Classification>> {
        self.core
            .lookup(&problem.structural_key())
            .map(|entry| Arc::clone(&entry.classification))
    }

    /// The zero-serialization fast lane: peeks the memo cache and, on a hit,
    /// returns the entry's pre-serialized reply payload — attaching it first
    /// (via `render`) if this entry has never been served through the lane.
    ///
    /// Accounting: a hit counts one ordinary cache hit (exactly like
    /// [`Engine::cached`]); serving previously attached bytes additionally
    /// counts a `bytes_hit`, and the one-time attach
    /// counts a `bytes_miss`. A cache miss returns `None` and counts
    /// nothing — route it to the ordinary compute path.
    ///
    /// Because the cache key ignores problem names while the serialized
    /// verdict embeds them, a hit for a problem whose *name* differs from
    /// the one the payload was rendered for yields [`ReplyLane::Render`]:
    /// the caller serializes freshly from the returned classification (no
    /// bytes tally — the lane neither hit nor changed). Either way the reply
    /// a client observes is byte-identical to what the envelope serializer
    /// would produce for *this* request.
    pub fn cached_reply(
        &self,
        problem: &NormalizedLcl,
        render: impl FnOnce(&Classification) -> Vec<u8>,
    ) -> Option<ReplyLane> {
        self.cached_reply_keyed(&problem.structural_key(), problem, render)
    }

    /// [`Engine::cached_reply`] for a caller that already holds the
    /// problem's [structural key](NormalizedLcl::structural_key) `key`.
    pub fn cached_reply_keyed(
        &self,
        key: &[u8],
        problem: &NormalizedLcl,
        render: impl FnOnce(&Classification) -> Vec<u8>,
    ) -> Option<ReplyLane> {
        let entry = self.core.lookup(key)?;
        let mut fresh = false;
        let payload = entry.reply.get_or_init(|| {
            fresh = true;
            ReplyPayload {
                name: problem.name().into(),
                bytes: render(&entry.classification).into(),
            }
        });
        if payload.name.as_ref() == problem.name() {
            if fresh {
                self.core.cache.record_bytes_miss();
            } else {
                self.core.cache.record_bytes_hit();
            }
            Some(ReplyLane::Bytes(Arc::clone(&payload.bytes)))
        } else {
            Some(ReplyLane::Render(Arc::clone(&entry.classification)))
        }
    }

    /// Classifies a problem on the calling thread, serving repeated requests
    /// for structurally identical problems from the memo cache.
    ///
    /// # Errors
    ///
    /// See [`crate::classify_with_options`]. Errors are not cached; a retry
    /// with the same engine recomputes.
    pub fn classify(&self, problem: &NormalizedLcl) -> Result<Arc<Classification>> {
        self.core.classify(problem)
    }

    /// [`Engine::classify`] for a caller that already holds the problem's
    /// [structural key](NormalizedLcl::structural_key) `key`, also
    /// reporting whether the memo cache served the result (`true` = hit or
    /// join, `false` = computed now). This is what request tracing uses to
    /// attribute a request's latency to cache or compute without an extra
    /// (stats-perturbing) cache probe.
    ///
    /// # Errors
    ///
    /// See [`Engine::classify`].
    pub fn classify_keyed(
        &self,
        key: &[u8],
        problem: &NormalizedLcl,
    ) -> Result<(Arc<Classification>, bool)> {
        self.core.classify_keyed(key, problem)
    }

    /// Runs a classification's stages on the calling thread while `meter`
    /// is under its slice, and never waits on another thread.
    ///
    /// A cached problem is [`Lane::Done`] at once. Otherwise the call leads
    /// the key's flight — one counted miss, as any leader — and runs the
    /// stages in order, each under the meter's per-stage cap, until the
    /// classification is done ([`Lane::Done`], committed to the cache) or
    /// the next stage may not finish here: the meter passed its slice, or
    /// the stage stopped at its cap or failed. Then the state of the
    /// finished stages is parked in the flight ([`Lane::Parked`]), and
    /// [`Engine::resume`] on a pool worker continues from the stage that
    /// did not finish — the types stage from where it stopped, any other
    /// from its start. An error is deterministic, so the pool meets it
    /// again and reports it.
    ///
    /// A key whose flight another thread holds is [`Lane::Pool`] without
    /// any work, as is a problem with 64 or more output labels or whose
    /// transfer system alone would pass the cap.
    ///
    /// A panic in a stage unwinds out of this call; the flight is then
    /// abandoned, as a panicking leader's is.
    pub fn classify_inline(
        &self,
        key: &[u8],
        problem: &NormalizedLcl,
        meter: &mut WorkMeter,
    ) -> Lane {
        if problem.num_outputs() >= 64 || GapTypes::transfer_units(problem) > meter.cap() {
            return Lane::Pool;
        }
        let lease = match self.core.cache.try_lead(key) {
            Lead::Hit(entry) => {
                return Lane::Done {
                    classification: Arc::clone(&entry.classification),
                    hit: true,
                }
            }
            Lead::Busy => return Lane::Pool,
            Lead::Leader(lease) => lease,
        };
        let options = &self.core.options;
        let mut progress = Progress::Start;
        loop {
            let Some(stage) = progress.next_stage() else {
                let Progress::Done(classification) = progress else {
                    unreachable!("only a done classification has no next stage");
                };
                let entry = lease.commit(CacheEntry::fresh(classification));
                return Lane::Done {
                    classification: Arc::clone(&entry.classification),
                    hit: false,
                };
            };
            // A stage that stops leaves the state it started from (or, for
            // the types stage, how far it got), which is parked.
            if meter.within_slice() && progress.advance(problem, options, meter).is_ok() {
                continue;
            }
            let (problem, options) = (problem.clone(), options.clone());
            lease.park(Box::new(move || {
                progress
                    .finish(&problem, &options, &mut WorkMeter::unlimited())
                    .ok()
                    .map(CacheEntry::fresh)
            }));
            return Lane::Parked(stage);
        }
    }

    /// Finishes a classification that [`Engine::classify_inline`] parked
    /// (see [`Lane::Parked`]), for the request that parked it: runs the
    /// parked stages on the calling thread, unless another thread already
    /// took them, whose result it then shares. Counts no hit or join: the
    /// request counted its miss when it led. A parked classification that
    /// failed is recomputed here, and its error returned.
    ///
    /// # Errors
    ///
    /// See [`Engine::classify`].
    pub fn resume(&self, key: &[u8], problem: &NormalizedLcl) -> Result<Arc<Classification>> {
        let computed = self.core.cache.resume(key, || self.core.compute(problem))?;
        Ok(Arc::clone(&computed.value.classification))
    }

    /// Submits an arbitrary task to the worker pool **without blocking** and
    /// returns the receiver its result will arrive on.
    ///
    /// This is the dispatch primitive of the server's *pipelined* connection
    /// path: the connection's reader thread submits one task per request
    /// frame and immediately goes back to reading, while the writer thread
    /// later parks on each receiver in request order. Submission never
    /// blocks (the pool queue is unbounded); the receiver disconnects
    /// without a value if the task panics on its worker.
    ///
    /// Deadlock warning: the task runs *on* a pool worker, so it must not
    /// itself park on other pool jobs ([`Engine::classify_many`]) — with a
    /// single-worker pool that self-wait can never be served. Every other
    /// engine method works on the calling thread and is safe here.
    pub fn dispatch<T, F>(&self, task: F) -> mpsc::Receiver<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.pool.submit_with_reply(task)
    }

    /// Submits a task that delivers its own results over channels it
    /// captured, with a completion hook and no reply channel. `notify` runs
    /// on the worker after the task returned or unwound, so what the task
    /// sent is observable by then, and a sender it held reads as
    /// disconnected if it panicked.
    ///
    /// This is the waker half of a readiness-based server: instead of a
    /// writer thread parked per connection, a single reactor thread sleeps
    /// in `epoll_wait` and `notify` signals its eventfd when a request's
    /// frames are in. The same deadlock rules as [`Engine::dispatch`] apply
    /// to `task`; `notify` must be cheap and must not touch the pool.
    pub fn submit_notify<F, N>(&self, task: F, notify: N)
    where
        F: FnOnce() + Send + 'static,
        N: FnOnce() + Send + 'static,
    {
        self.pool.submit_notify(task, notify);
    }

    /// Classifies a batch of problems on the persistent worker pool,
    /// returning verdicts in the order of the input slice.
    ///
    /// Structurally identical problems (equal structural key) are classified
    /// once and share the resulting `Arc`. Each unique problem becomes one
    /// pool job carrying a slot index and a reply channel, so the output
    /// order is deterministic regardless of scheduling — and no thread is
    /// spawned, however large the batch.
    pub fn classify_many(&self, problems: &[NormalizedLcl]) -> Vec<Result<Arc<Classification>>> {
        if problems.is_empty() {
            return Vec::new();
        }
        // Deduplicate by structure: owners[i] is the index of the first
        // problem with the same structural key.
        let mut first_of: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut owners = Vec::with_capacity(problems.len());
        let mut unique = Vec::new();
        for (i, problem) in problems.iter().enumerate() {
            let rep = *first_of.entry(problem.structural_key()).or_insert_with(|| {
                unique.push(i);
                i
            });
            owners.push(rep);
        }

        let (tx, rx) = mpsc::channel();
        for &index in &unique {
            let tx = tx.clone();
            let core = Arc::clone(&self.core);
            let problem = problems[index].clone();
            self.pool.submit(move || {
                let _ = tx.send((index, core.classify(&problem)));
            });
        }
        drop(tx);
        let by_rep: HashMap<usize, Result<Arc<Classification>>> = rx.into_iter().collect();
        owners
            .iter()
            .map(|rep| {
                // A missing representative means its job died (panicked) on
                // the worker without sending; report it per item.
                by_rep
                    .get(rep)
                    .cloned()
                    .unwrap_or_else(|| Err(EngineCore::dropped_reply()))
            })
            .collect()
    }

    /// Classifies the problem, then runs the synthesized optimal algorithm on
    /// the instance (sequential identifiers, ball-view simulator) and verifies
    /// the output: classify → synthesize → execute in one call, all on the
    /// calling thread (so it is safe inside an [`Engine::dispatch`]ed task).
    ///
    /// # Errors
    ///
    /// Returns [`crate::ClassifierError::Problem`] when the instance carries
    /// input labels outside the problem's alphabet (wire payloads are not
    /// validated before this point), [`crate::ClassifierError::Solve`] when
    /// the problem is unsolvable (globally, or on this specific instance),
    /// propagates classification errors, and wraps simulator failures in
    /// [`crate::ClassifierError::Sim`].
    pub fn solve(&self, problem: &NormalizedLcl, instance: &Instance) -> Result<Solution> {
        self.solve_keyed(&problem.structural_key(), problem, instance)
    }

    /// [`Engine::solve`] for a caller that already holds the problem's
    /// [structural key](NormalizedLcl::structural_key) `key`.
    ///
    /// # Errors
    ///
    /// See [`Engine::solve`].
    pub fn solve_keyed(
        &self,
        key: &[u8],
        problem: &NormalizedLcl,
        instance: &Instance,
    ) -> Result<Solution> {
        // Instances can arrive straight off the wire; validate against the
        // problem's alphabet before the verifier's assertions would panic.
        instance.check_alphabet(problem.num_inputs())?;
        let (classification, _) = self.classify_keyed(key, problem)?;
        self.solve_classified(problem, instance, classification)
    }

    /// The tail of [`Engine::solve`]: synthesize, simulate, verify,
    /// diagnose.
    fn solve_classified(
        &self,
        problem: &NormalizedLcl,
        instance: &Instance,
        classification: Arc<Classification>,
    ) -> Result<Solution> {
        if classification.complexity() == Complexity::Unsolvable {
            return Err(crate::ClassifierError::Solve {
                what: format!(
                    "problem {} is unsolvable (witness of length {})",
                    problem.name(),
                    classification
                        .unsolvability_witness()
                        .map_or(0, Instance::len),
                ),
            });
        }
        let network = Network::with_sequential_ids(instance.clone());
        let algorithm = classification.algorithm();
        let rounds = algorithm.radius(instance.len());
        let labeling = SyncSimulator::new().run(&network, algorithm)?;
        let report = problem.check(instance, &labeling);
        if !report.is_valid() {
            // Asymptotically solvable problems can still have degenerate
            // instances with no valid labeling at all (e.g. a 1-node cycle
            // for 3-coloring); diagnose that before blaming the synthesizer.
            let solvable =
                lcl_semigroup::TransferSystem::new(problem).instance_solvable(instance)?;
            if !solvable {
                return Err(crate::ClassifierError::Solve {
                    what: format!(
                        "this {}-node {} instance admits no valid labeling for problem {}",
                        instance.len(),
                        instance.topology(),
                        problem.name(),
                    ),
                });
            }
            return Err(crate::ClassifierError::Solve {
                what: format!(
                    "synthesized {} algorithm produced an invalid labeling on a {}-node {} ({} violations)",
                    classification.complexity(),
                    instance.len(),
                    instance.topology(),
                    report.violations().len(),
                ),
            });
        }
        Ok(Solution {
            classification,
            labeling,
            rounds,
        })
    }

    /// Classifies the problem and returns the serializable [`Verdict`]
    /// summary (the wire-format view of a [`Classification`]).
    ///
    /// # Errors
    ///
    /// See [`Engine::classify`].
    pub fn verdict(&self, problem: &NormalizedLcl) -> Result<Verdict> {
        let classification = self.classify(problem)?;
        Ok(Verdict::new(problem, &classification))
    }

    /// Current cache counters, read in one critical section, so
    /// `entries + evictions == inserts` holds for every snapshot (see
    /// [`CacheStats::is_consistent`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.core.cache.stats()
    }

    /// Current worker-pool counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Drops every cached classification (counters are kept; the dropped
    /// entries count as evictions, keeping `entries + evictions == inserts`).
    pub fn clear_cache(&self) {
        self.core.cache.clear();
    }

    /// Serializes the structural keys of the memo cache's resident
    /// classifications into a versioned, checksummed snapshot document (see
    /// [`crate::snapshot`]), coldest entries first. No verdict or search
    /// answer is written: restore recomputes them. Safe to call under live
    /// traffic — the cache is captured in one consistent critical section.
    pub fn snapshot_document(&self) -> String {
        crate::snapshot::serialize_entries(&self.core.cache.snapshot_entries())
    }

    /// Restores a snapshot produced by [`Engine::snapshot_document`] into
    /// this engine's memo cache, re-inserting entries in file order through
    /// the ordinary insert path (recency reproduced, stats invariants
    /// preserved, present keys kept). Each key is decoded back into its
    /// problem and classified with this engine's options
    /// ([`crate::classify_with_options`]), so a restored entry is a freshly
    /// classified one; restoring counts no cache miss.
    ///
    /// # Errors
    ///
    /// Returns a wire-format error when the document's envelope is invalid
    /// (bad header, version skew, entry-count mismatch, checksum mismatch,
    /// truncation), before any entry is installed; a key that fails to
    /// decode or to classify under this engine's budgets (types beyond its
    /// `type_budget`, say) is skipped and counted in the report instead.
    /// Callers treating snapshots as best-effort warmth should log the error
    /// and continue with a cold cache.
    pub fn restore_snapshot(&self, document: &str) -> Result<crate::snapshot::RestoreReport> {
        crate::snapshot::restore_entries(document, &self.core.options, |key, entry| {
            self.core.cache.insert(key, Arc::new(entry));
        })
    }
}

/// Prices a cached classification in approximate resident bytes, for
/// [`EngineBuilder::cache_weight_capacity`]: a fixed overhead for the entry
/// itself (key, slab node, map slot, synthesized algorithm core), the
/// per-type tables and the unsolvability witness, plus the buffers of the
/// type semigroup an `O(1)` or `Θ(log* n)` algorithm keeps
/// ([`TypeSemigroup::resident_bytes`](lcl_semigroup::TypeSemigroup::resident_bytes):
/// its relation arena, witnesses and transfer system, whose two product
/// tables alone are 4 KiB at `|Σ_out| = 8`) and of its feasible structure
/// ([`FeasibleStructure::resident_bytes`](crate::FeasibleStructure::resident_bytes):
/// the facing sets, the block table and the pattern labelings). Deliberately
/// coarse — the bound exists to keep cache memory proportional to what is
/// cached, not to audit the allocator.
pub fn approximate_classification_weight(classification: &Arc<Classification>) -> u64 {
    let types = classification.num_types() as u64;
    let witness = classification
        .unsolvability_witness()
        .map_or(0, |w| w.len() as u64);
    let algorithm = classification.algorithm();
    let semigroup = algorithm.semigroup().map_or(0, |s| s.resident_bytes());
    let structure = algorithm
        .feasible_structure()
        .map_or(0, |s| s.resident_bytes());
    256 + 64 * types + 2 * witness + (semigroup + structure) as u64
}

/// Prices a whole [`CacheEntry`] in approximate resident bytes:
/// [`approximate_classification_weight`] plus a conservative reservation for
/// the reply-bytes lane. The lane fills *after* insertion (the weigher runs
/// once, at insert time, and never re-prices), so the serialized payload —
/// a fixed verdict skeleton plus the JSON-rendered witness, about six bytes
/// per witness node — must be paid for up front whether or not a reply is
/// ever attached.
pub fn approximate_entry_weight(classification: &Arc<Classification>) -> u64 {
    let witness = classification
        .unsolvability_witness()
        .map_or(0, |w| w.len() as u64);
    approximate_classification_weight(classification) + 256 + 6 * witness
}

/// The cache weigher: adapts [`approximate_entry_weight`] to the cache's
/// value type.
fn entry_weight(entry: &Arc<CacheEntry>) -> u64 {
    approximate_entry_weight(&entry.classification)
}

/// The process-wide engine backing the legacy free functions
/// ([`crate::classify`]). Built on first use with default options.
pub fn default_engine() -> &'static Engine {
    static DEFAULT: OnceLock<Engine> = OnceLock::new();
    DEFAULT.get_or_init(Engine::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_problem::Topology;

    fn coloring(k: u16) -> NormalizedLcl {
        let mut b = NormalizedLcl::builder(format!("{k}-coloring"));
        b.input_labels(&["x"]);
        let names: Vec<String> = (1..=k).map(|i| i.to_string()).collect();
        b.output_labels(&names);
        b.allow_all_node_pairs();
        for p in 0..k {
            for q in 0..k {
                if p != q {
                    b.allow_edge_idx(p, q);
                }
            }
        }
        b.build().unwrap()
    }

    fn three_coloring() -> NormalizedLcl {
        coloring(3)
    }

    fn two_coloring() -> NormalizedLcl {
        coloring(2)
    }

    #[test]
    fn cache_hits_skip_recomputation() {
        let engine = Engine::new();
        let first = engine.classify(&three_coloring()).unwrap();
        assert_eq!(
            engine.cache_stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                entries: 1,
                evictions: 0,
                inserts: 1,
                peak_entries: 1,
                weight: 1,
                peak_weight: 1,
                flight_leaders: 1,
                flight_joins: 0,
                bytes_hits: 0,
                bytes_misses: 0,
            }
        );
        let second = engine.classify(&three_coloring()).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "served from cache");
        assert_eq!(engine.cache_stats().hits, 1);
        engine.clear_cache();
        let cleared = engine.cache_stats();
        assert_eq!(cleared.entries, 0);
        assert_eq!(cleared.evictions, 1, "clear accounts dropped entries");
        assert_eq!(
            cleared.entries as u64 + cleared.evictions,
            cleared.inserts,
            "snapshot invariant survives a clear"
        );
    }

    #[test]
    fn batch_matches_sequential_and_dedupes() {
        let problems = vec![three_coloring(), two_coloring(), three_coloring()];
        let engine = Engine::builder().parallelism(2).build();
        let batch = engine.classify_many(&problems);
        assert_eq!(batch.len(), 3);
        // Duplicates are classified once and share the Arc.
        let first = batch[0].as_ref().unwrap();
        let third = batch[2].as_ref().unwrap();
        assert!(Arc::ptr_eq(first, third));
        assert_eq!(engine.cache_stats().misses, 2);
        for (problem, result) in problems.iter().zip(&batch) {
            let fresh = Engine::new().classify(problem).unwrap();
            assert_eq!(
                fresh.complexity(),
                result.as_ref().unwrap().complexity(),
                "batch and sequential disagree on {}",
                problem.name()
            );
        }
        assert!(engine.classify_many(&[]).is_empty());
    }

    #[test]
    fn batches_run_on_the_persistent_pool() {
        let engine = Engine::builder().parallelism(2).build();
        assert_eq!(engine.pool_stats().workers, 2);
        let problems = vec![three_coloring(), two_coloring(), coloring(4)];
        let batch = engine.classify_many(&problems);
        assert!(batch.iter().all(Result::is_ok));
        // The pool's completion counter is incremented just after each job
        // body finishes; poll briefly for the bookkeeping to settle.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while engine.pool_stats().jobs_completed < 3 {
            assert!(
                std::time::Instant::now() < deadline,
                "pool never recorded the batch: {:?}",
                engine.pool_stats()
            );
            std::thread::yield_now();
        }
        assert_eq!(engine.pool_stats().queue_depth, 0);
        let shown = engine.pool_stats().to_string();
        assert!(shown.contains("2 workers"), "{shown}");
    }

    #[test]
    fn cached_peeks_without_computing() {
        let engine = Engine::new();
        let problem = three_coloring();
        assert!(engine.cached(&problem).is_none());
        // A peek miss is not a cache miss: nothing was computed.
        assert_eq!(engine.cache_stats().misses, 0);
        let computed = engine.classify(&problem).unwrap();
        let peeked = engine.cached(&problem).expect("memoized now");
        assert!(Arc::ptr_eq(&computed, &peeked));
        assert_eq!(engine.cache_stats().hits, 1, "a peek hit counts as a hit");
    }

    #[test]
    fn dispatch_returns_before_the_task_runs() {
        let engine = Engine::builder().parallelism(1).build();
        // Park the only worker: dispatch must still return immediately.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate = engine.dispatch(move || {
            let _ = gate_rx.recv();
        });
        let problem = three_coloring();
        let core_engine = Engine::builder().parallelism(1).build();
        let rx = engine.dispatch(move || core_engine.classify(&problem).map(|c| c.complexity()));
        gate_tx.send(()).expect("worker parked on the gate");
        assert_eq!(rx.recv().unwrap().unwrap(), Complexity::LogStar);
        gate.recv().expect("gate task completed");
    }

    #[test]
    fn solve_is_safe_inside_a_dispatched_job() {
        let engine = Engine::builder().parallelism(1).build();
        let problem = three_coloring();
        let instance = Instance::from_indices(Topology::Cycle, &[0; 30]);
        let direct = engine.solve(&problem, &instance).unwrap();
        // solve classifies on the calling thread, so it returns from a
        // dispatched task even on this single-worker pool. The Arc must
        // outlive the task: an engine dropped on its own worker would
        // self-join.
        let inner = std::sync::Arc::new(Engine::builder().parallelism(1).build());
        let inner_for_task = std::sync::Arc::clone(&inner);
        let rx = inner.dispatch(move || {
            inner_for_task
                .solve(&problem, &instance)
                .map(|s| (s.labeling().clone(), s.rounds()))
        });
        let (labeling, rounds) = rx.recv().unwrap().unwrap();
        assert_eq!(&labeling, direct.labeling());
        assert_eq!(rounds, direct.rounds());
        drop(inner);
    }

    #[test]
    fn solve_runs_the_synthesized_algorithm() {
        let engine = Engine::new();
        let problem = three_coloring();
        let instance = Instance::from_indices(Topology::Cycle, &[0; 60]);
        let solution = engine.solve(&problem, &instance).unwrap();
        assert_eq!(solution.complexity(), Complexity::LogStar);
        assert_eq!(solution.labeling().len(), 60);
        assert!(solution.rounds() > 0);
        assert!(problem.is_valid(&instance, solution.labeling()));
        assert!(solution.classification().num_types() >= 1);
    }

    #[test]
    fn solve_reports_unsolvable_problems() {
        let engine = Engine::new();
        let instance = Instance::from_indices(Topology::Cycle, &[0; 5]);
        let err = engine.solve(&two_coloring(), &instance).unwrap_err();
        assert!(matches!(err, crate::ClassifierError::Solve { .. }));
        assert!(err.to_string().contains("unsolvable"));
    }

    #[test]
    fn builder_knobs_are_applied() {
        let engine = Engine::builder()
            .type_budget(1)
            .search_budget(10)
            .pattern_length_cap(2)
            .parallelism(3)
            .build();
        assert_eq!(engine.options().type_budget, 1);
        assert_eq!(engine.options().search_budget, 10);
        assert_eq!(engine.options().pattern_length_cap, 2);
        assert_eq!(engine.parallelism(), 3);
        // A budget of one type is too small for any real problem.
        assert!(engine.classify(&three_coloring()).is_err());
        // Errors are not cached.
        assert_eq!(engine.cache_stats().entries, 0);
        assert_eq!(engine.cache_stats().misses, 1);
    }

    #[test]
    fn solve_diagnoses_unsolvable_instances_of_solvable_problems() {
        // 3-coloring is Θ(log* n) on long cycles, but a 1-node cycle admits
        // no valid labeling; the error must blame the instance, not the
        // synthesized algorithm.
        let engine = Engine::new();
        let singleton = Instance::from_indices(Topology::Cycle, &[0]);
        let err = engine.solve(&three_coloring(), &singleton).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("admits no valid labeling"),
            "wrong diagnosis: {message}"
        );
    }

    #[test]
    fn solve_rejects_out_of_alphabet_instances() {
        // Wire payloads only guarantee labels fit in u16; solve must reject
        // labels outside the problem's alphabet instead of panicking.
        let engine = Engine::new();
        let instance = Instance::from_indices(Topology::Cycle, &[5; 10]);
        let err = engine.solve(&three_coloring(), &instance).unwrap_err();
        assert!(matches!(err, crate::ClassifierError::Problem(_)));
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn full_cache_evicts_somebody() {
        let engine = Engine::builder().cache_capacity(1).build();
        engine.classify(&three_coloring()).unwrap();
        assert_eq!(engine.cache_stats().entries, 1);
        engine.classify(&two_coloring()).unwrap();
        // Capacity 1: three-coloring was evicted, two-coloring remains.
        assert_eq!(engine.cache_stats().entries, 1);
        engine.classify(&three_coloring()).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.hits, 0, "evicted entry cannot hit");
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 2);
    }

    #[test]
    fn lru_eviction_prefers_least_recently_used() {
        // Regression test for the FIFO → LRU upgrade (the raw-cache twin
        // asserting the victim keys lives in cache.rs:
        // `victims_follow_the_global_lru_order`).
        let engine = Engine::builder().cache_capacity(2).parallelism(1).build();
        let a = three_coloring();
        let b = two_coloring();
        let c = coloring(4);

        engine.classify(&a).unwrap(); // cache: [a]
        engine.classify(&b).unwrap(); // cache: [a, b]
        engine.classify(&a).unwrap(); // hit: a becomes most recent
        engine.classify(&c).unwrap(); // full → evicts b (LRU), NOT a (FIFO)
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 3, 1));
        assert_eq!(stats.entries, 2);

        engine.classify(&a).unwrap(); // still cached: hit
        assert_eq!(engine.cache_stats().hits, 2, "a must have survived");
        engine.classify(&b).unwrap(); // recompute: b was the victim
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 4, "b must have been evicted");
        assert_eq!(stats.evictions, 2, "inserting b evicted c (the new LRU)");

        engine.classify(&a).unwrap(); // a outlived both evictions
        assert_eq!(engine.cache_stats().hits, 3);
    }

    #[test]
    fn cache_stats_hit_ratio_and_display() {
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            entries: 1,
            evictions: 0,
            inserts: 1,
            peak_entries: 1,
            weight: 1,
            peak_weight: 1,
            flight_leaders: 1,
            flight_joins: 1,
            bytes_hits: 0,
            bytes_misses: 0,
        };
        assert!((stats.hit_ratio() - 0.75).abs() < 1e-12);
        assert!(stats.is_consistent());
        let shown = stats.to_string();
        assert!(shown.contains("3 hits (1 joined)"), "{shown}");
        assert!(shown.contains("75.0%"), "{shown}");
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn weight_bounded_cache_evicts_by_classification_size() {
        // Price one classification, then budget the cache to hold exactly
        // one of them: a second distinct problem must displace the first.
        let probe = Engine::builder().parallelism(1).build();
        let priced = probe.classify(&three_coloring()).unwrap();
        let weight = approximate_entry_weight(&priced);
        assert!(
            weight >= approximate_classification_weight(&priced) + 256,
            "the reply-bytes reservation is priced in"
        );
        let engine = Engine::builder()
            .parallelism(1)
            .cache_weight_capacity(weight)
            .build();
        engine.classify(&three_coloring()).unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.entries, stats.weight), (1, weight));
        engine.classify(&two_coloring()).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 1, "budget holds one classification");
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries as u64 + stats.evictions, stats.inserts);
    }

    #[test]
    fn concurrent_cold_classify_computes_once() {
        // Eight threads race the same cold problem through the barrier: the
        // single-flight cache must elect exactly one leader, and every
        // thread must share the leader's allocation.
        const THREADS: usize = 8;
        let engine = std::sync::Arc::new(Engine::builder().parallelism(2).build());
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(THREADS));
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let engine = std::sync::Arc::clone(&engine);
            let barrier = std::sync::Arc::clone(&barrier);
            joins.push(std::thread::spawn(move || {
                barrier.wait();
                engine.classify(&three_coloring()).unwrap()
            }));
        }
        let results: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        for other in &results[1..] {
            assert!(
                Arc::ptr_eq(&results[0], other),
                "all threads share the leader's classification"
            );
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "one computation, however many racers");
        assert_eq!(stats.flight_leaders, 1);
        assert_eq!(stats.inserts, 1);
        assert_eq!(
            stats.hits + stats.misses,
            THREADS as u64,
            "every thread is exactly one of hit/join/leader: {stats:?}"
        );
        assert!(stats.is_consistent(), "{stats:?}");
    }

    #[test]
    fn cached_reply_attaches_once_and_serves_shared_bytes() {
        let engine = Engine::new();
        let problem = three_coloring();
        // Cold cache: the lane declines without computing or counting.
        assert!(engine
            .cached_reply(&problem, |_| unreachable!("no entry to render for"))
            .is_none());
        assert_eq!(engine.cache_stats().misses, 0);

        engine.classify(&problem).unwrap();
        let first = match engine.cached_reply(&problem, |c| {
            format!("payload for {} types", c.num_types()).into_bytes()
        }) {
            Some(ReplyLane::Bytes(bytes)) => bytes,
            other => panic!("expected attached bytes, got {other:?}"),
        };
        let second = match engine.cached_reply(&problem, |_| unreachable!("attached already")) {
            Some(ReplyLane::Bytes(bytes)) => bytes,
            other => panic!("expected cached bytes, got {other:?}"),
        };
        assert!(Arc::ptr_eq(&first, &second), "one payload allocation");
        let stats = engine.cache_stats();
        assert_eq!((stats.bytes_misses, stats.bytes_hits), (1, 1));
        assert_eq!(stats.hits, 2, "each lane probe is an ordinary hit too");

        // Clearing the cache drops the payload with its entry.
        engine.clear_cache();
        assert!(engine.cached_reply(&problem, |_| Vec::new()).is_none());
    }

    #[test]
    fn cached_reply_refuses_bytes_rendered_for_another_name() {
        // Structural twins share a cache entry, but the serialized verdict
        // embeds the problem name — the lane must hand back the
        // classification for fresh serialization instead of the twin's bytes.
        let engine = Engine::new();
        let original = three_coloring();
        let renamed = {
            let mut b = NormalizedLcl::builder("same-structure-other-name");
            b.input_labels(&["x"]);
            b.output_labels(&["1", "2", "3"]);
            b.allow_all_node_pairs();
            for p in 0..3u16 {
                for q in 0..3u16 {
                    if p != q {
                        b.allow_edge_idx(p, q);
                    }
                }
            }
            b.build().unwrap()
        };
        assert_eq!(original.structural_key(), renamed.structural_key());

        let classified = engine.classify(&original).unwrap();
        match engine.cached_reply(&original, |_| b"original bytes".to_vec()) {
            Some(ReplyLane::Bytes(_)) => {}
            other => panic!("expected attached bytes, got {other:?}"),
        }
        match engine.cached_reply(&renamed, |_| unreachable!("must not re-render")) {
            Some(ReplyLane::Render(classification)) => {
                assert!(Arc::ptr_eq(&classification, &classified));
            }
            other => panic!("expected fresh-render verdict, got {other:?}"),
        }
        let stats = engine.cache_stats();
        assert_eq!(
            (stats.bytes_misses, stats.bytes_hits),
            (1, 0),
            "an alias probe is neither a bytes hit nor a bytes miss"
        );
    }

    /// The inline lane returns at once, without charging anything, while
    /// another thread computes the key in place; the pool path then joins
    /// that flight.
    #[test]
    fn the_inline_lane_never_waits_on_a_running_flight() {
        let engine = Engine::builder().parallelism(1).build();
        let problem = three_coloring();
        let key = problem.structural_key();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (led_tx, led_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let (engine, problem, key) = (&engine, &problem, &key);
            scope.spawn(move || {
                let Lead::Leader(lease) = engine.core.cache.try_lead(key) else {
                    panic!("a cold key is led");
                };
                led_tx.send(()).expect("main thread waits");
                gate_rx.recv().expect("gate opens");
                lease.commit(engine.core.compute(problem).expect("classifies"));
            });
            led_rx.recv().expect("the flight is open");
            let mut meter = WorkMeter::unlimited();
            let lane = engine.classify_inline(key, problem, &mut meter);
            assert!(matches!(lane, Lane::Pool), "{lane:?}");
            assert_eq!(meter.used(), 0, "nothing ran here");
            gate_tx.send(()).expect("leader waits on the gate");
        });
        let (classification, hit) = engine.classify_keyed(&key, &problem).unwrap();
        assert!(hit);
        assert_eq!(classification.complexity(), Complexity::LogStar);
        assert_eq!(engine.cache_stats().misses, 1);
    }

    /// A lane that stops between stages parks the finished stages, and
    /// resuming them gives the verdict a whole classification gives.
    #[test]
    fn a_parked_classification_resumes_to_the_same_verdict() {
        let engine = Engine::builder().parallelism(1).build();
        for problem in [three_coloring(), two_coloring(), coloring(5)] {
            let key = problem.structural_key();
            let whole = classify_with_options(&problem, engine.options()).unwrap();
            for slice in 0..6 {
                engine.clear_cache();
                // A stage charges at least one unit, so a slice of `s`
                // units stops after at most `s + 1` stages.
                let mut meter = WorkMeter::new(slice, u64::MAX);
                let classification = match engine.classify_inline(&key, &problem, &mut meter) {
                    Lane::Done { classification, .. } => classification,
                    Lane::Parked(_) => engine.resume(&key, &problem).unwrap(),
                    Lane::Pool => panic!("a cold key fits the lane"),
                };
                assert_eq!(
                    Verdict::new(&problem, &classification),
                    Verdict::new(&problem, &whole)
                );
            }
        }
    }

    #[test]
    fn default_engine_is_shared() {
        let a = default_engine();
        let b = default_engine();
        assert!(std::ptr::eq(a, b));
    }
}
