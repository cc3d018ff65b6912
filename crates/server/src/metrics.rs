//! Request counters of a running [`Service`], and the one snapshot that both
//! metric renderings are made from.
//!
//! [`ServerMetrics`] is the recording side. Every dispatched frame —
//! including unparseable ones, which are accounted under the `invalid`
//! pseudo-kind — bumps one kind's counters (request count, error count,
//! cumulative and maximum latency) **and** its [`LatencyHistogram`], so the
//! `stats` reply and the `metrics` exposition can report p50/p90/p99/p99.9
//! per kind, not just mean/max. Accounted latencies are clamped to ≥ 1 µs: a
//! frame that was handled was not free, and the `invalid` histogram in
//! particular must never hide rejected frames behind zero-duration samples.
//! Histogram recording (not the plain counters) is gated by the *detailed*
//! flag ([`ServerMetrics::set_detailed`]): the no-op-recorder mode the
//! throughput bench compares against to bound observability overhead.
//!
//! [`MetricsSnapshot`] is the reading side: [`Service::metrics_snapshot`]
//! reads every counter once — these, the engine's cache and pool counters,
//! and the server identity — into one plain
//! value. [`FAMILIES`] is the one metric catalogue: for each family its
//! name, type, label, HELP text and place in the `stats` payload. The
//! `stats` payload ([`stats_payload`]) and the exposition
//! ([`crate::render_exposition`]) are both pure functions of a snapshot
//! that walk this table, so a family added to it appears in both.
//!
//! [`Service`]: crate::Service
//! [`Service::metrics_snapshot`]: crate::Service::metrics_snapshot

use crate::service::RequestKind;
use lcl_paths::classifier::obs::{HistogramSnapshot, LatencyHistogram};
use lcl_paths::classifier::{CacheStats, PoolStats, Stage};
use lcl_paths::problem::json::JsonValue;
use lcl_paths::Engine;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

/// Clamps an accounted latency to at least one microsecond: every handled
/// frame must leave a nonzero trail in its histogram.
fn accounted_micros(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros())
        .unwrap_or(u64::MAX)
        .max(1)
}

/// The request kinds counted apart: every [`RequestKind`], then the
/// `invalid` pseudo-kind of frames that never resolved to one.
const KINDS: usize = RequestKind::ALL.len() + 1;

/// Where a kind's counters sit among the [`KINDS`]: its position in
/// [`RequestKind::ALL`] (the enum's declaration order), `invalid` last.
fn kind_slot(kind: Option<RequestKind>) -> usize {
    kind.map_or(RequestKind::ALL.len(), |kind| kind as usize)
}

/// The serving front-end names [`ServerMetrics::set_backend`] knows, `none`
/// (nothing registered yet) first.
const BACKENDS: [&str; 3] = ["none", "reactor", "stdio"];

/// The lanes a `classify` miss can take: `inline`, then one per
/// classification stage ([`Stage`]) a pool job can continue from.
const LANES: usize = 1 + Stage::ALL.len();

/// Where a lane's counter sits among the [`LANES`]: `inline` first, then
/// the stages in order.
fn lane_slot(handed_off_at: Option<Stage>) -> usize {
    handed_off_at.map_or(0, |stage| 1 + stage as usize)
}

/// Lock-free counters for one request kind.
#[derive(Debug, Default)]
struct KindCounters {
    count: AtomicU64,
    errors: AtomicU64,
    /// Frames rejected at admission (load shed or quota). A shed frame is
    /// also counted in `count`/`errors` and its (sub-millisecond) handling
    /// latency lands in the histogram like any other reply — admission
    /// rejections must never be invisible in the latency accounting.
    shed: AtomicU64,
    total_micros: AtomicU64,
    max_micros: AtomicU64,
    histogram: LatencyHistogram,
}

impl KindCounters {
    fn record(&self, elapsed: Duration, ok: bool, detailed: bool) {
        self.count.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        let micros = accounted_micros(elapsed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
        if detailed {
            self.histogram.record(micros);
        }
    }

    fn snapshot(&self) -> KindSnapshot {
        KindSnapshot {
            count: self.count.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            total_micros: self.total_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
            latency: self.histogram.snapshot(),
        }
    }
}

/// One request kind's counters and latency histogram, as read into a
/// [`MetricsSnapshot`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KindSnapshot {
    /// Requests of this kind handled (successful or not).
    pub count: u64,
    /// Requests of this kind that produced an error reply.
    pub errors: u64,
    /// Requests of this kind rejected at admission (load shed or quota);
    /// every shed frame is also counted in `count` and `errors`.
    pub shed: u64,
    /// Cumulative handling latency, in microseconds.
    pub total_micros: u64,
    /// Largest single-request handling latency, in microseconds.
    pub max_micros: u64,
    /// Handling-latency histogram (empty while detailed metrics are off).
    pub latency: HistogramSnapshot,
}

/// Per-kind request counters of a running service. All methods are lock-free
/// and safe to call from any connection thread.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Per-kind counters, indexed by [`kind_slot`].
    kinds: [KindCounters; KINDS],
    /// `solve_stream` time-to-first-chunk: request read to the first chunk
    /// frame handed to the writer. The per-kind `solve_stream` histogram is
    /// the full drain; splitting the two is what keeps streaming latency
    /// from hiding behind drain time.
    stream_first_chunk: LatencyHistogram,
    /// Whether histogram recording is off (the plain counters always
    /// count). Stored inverted so that a new service records everything.
    histograms_off: AtomicBool,
    /// The serving front-end, for the `stats` reply and the exposition's
    /// `build_info`: an index into [`BACKENDS`].
    /// Last-started front-end wins when several share one service (the
    /// `--smoke` harness does this deliberately).
    backend: AtomicU8,
    /// Requests currently dispatched to the worker pool by pipelined
    /// connections and not yet answered (a gauge, not a counter).
    pipelined_inflight: AtomicU64,
    /// High-water mark of `pipelined_inflight` since the service started.
    pipelined_peak: AtomicU64,
    /// Currently open TCP connections (a gauge the reactor maintains).
    open_connections: AtomicU64,
    /// High-water mark of `open_connections` since the service started.
    peak_connections: AtomicU64,
    /// Connections accepted and served since the service started.
    total_accepted: AtomicU64,
    /// Connections closed at accept time by the `--max-conns` cap.
    total_rejected: AtomicU64,
    /// Reactor only: times the event loop woke from `epoll_wait`.
    reactor_wakeups: AtomicU64,
    /// Reactor only: completed worker-pool jobs whose eventfd
    /// notification the reactor consumed.
    reactor_completions: AtomicU64,
    /// `classify` replies answered by the zero-serialization fast lane: the
    /// cached payload bytes were spliced around the request id instead of
    /// serializing the verdict ([`crate::SplicedReply`]).
    spliced_frames: AtomicU64,
    /// Reactor only: successful `writev` calls that flushed
    /// connection output (each gathers up to a batch of reply segments —
    /// compare with `reactor_wakeups` for the coalescing ratio).
    writev_batches: AtomicU64,
    /// `classify` misses by lane, indexed by [`lane_slot`]: answered on the
    /// dispatching thread, or handed to the pool at a stage.
    classify_lanes: [AtomicU64; LANES],
}

impl ServerMetrics {
    fn counters(&self, kind: Option<RequestKind>) -> &KindCounters {
        &self.kinds[kind_slot(kind)]
    }

    /// Records one handled frame (`None` = unparseable / unknown kind).
    ///
    /// For requests dispatched through the pipelined path the elapsed time
    /// is measured from frame parse to reply production, so it *includes*
    /// the time the job spent queued behind the worker pool — the latency a
    /// pipelined client observes, not just the compute time.
    pub(crate) fn record(&self, kind: Option<RequestKind>, elapsed: Duration, ok: bool) {
        self.counters(kind).record(elapsed, ok, self.detailed());
    }

    /// Records one frame rejected at admission (load shed or quota denial).
    /// Callers must *also* call [`record`](Self::record) for the frame so
    /// the count/error/latency accounting stays symmetric with served
    /// frames; this only bumps the dedicated shed tally.
    pub(crate) fn record_shed(&self, kind: Option<RequestKind>) {
        self.counters(kind).shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `solve_stream` request's time-to-first-chunk (request read
    /// to the first chunk frame leaving the handler).
    pub(crate) fn record_stream_first_chunk(&self, elapsed: Duration) {
        if self.detailed() {
            self.stream_first_chunk.record(accounted_micros(elapsed));
        }
    }

    /// Turns histogram recording on or off. Off is the no-op-recorder mode
    /// the throughput bench compares against; the plain count/error/mean/max
    /// counters keep working either way. On by default.
    pub fn set_detailed(&self, detailed: bool) {
        self.histograms_off.store(!detailed, Ordering::Relaxed);
    }

    /// Whether histogram recording (and per-request tracing) is on.
    pub fn detailed(&self) -> bool {
        !self.histograms_off.load(Ordering::Relaxed)
    }

    /// Registers the serving front-end by name (`reactor`, `stdio`); the
    /// last started front-end wins when several share one service.
    pub fn set_backend(&self, name: &str) {
        let code = BACKENDS.iter().position(|&known| known == name);
        self.backend
            .store(code.unwrap_or(0) as u8, Ordering::Relaxed);
    }

    /// The registered serving front-end (`none` before any registered).
    fn backend_name(&self) -> &'static str {
        BACKENDS[usize::from(self.backend.load(Ordering::Relaxed))]
    }

    /// Accounts one request entering the pipelined in-flight window,
    /// updating the high-water mark.
    pub(crate) fn pipeline_enter(&self) {
        let now = self.pipelined_inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.pipelined_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Accounts one pipelined request leaving the window (its reply was
    /// produced — successfully or not).
    pub(crate) fn pipeline_exit(&self) {
        self.pipelined_inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Accounts one accepted connection entering service, updating the
    /// open-connection gauge and its high-water mark.
    pub(crate) fn connection_opened(&self) {
        self.total_accepted.fetch_add(1, Ordering::Relaxed);
        let now = self.open_connections.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_connections.fetch_max(now, Ordering::Relaxed);
    }

    /// Accounts one connection leaving service (EOF, error or shutdown).
    pub(crate) fn connection_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Accounts one connection closed at accept time by the `--max-conns`
    /// cap.
    pub(crate) fn connection_rejected(&self) {
        self.total_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one return from the reactor's `epoll_wait`.
    pub(crate) fn reactor_wakeup(&self) {
        self.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts `n` job-completion notifications consumed by the reactor.
    pub(crate) fn reactor_completions(&self, n: u64) {
        self.reactor_completions.fetch_add(n, Ordering::Relaxed);
    }

    /// Accounts one `classify` reply answered by the zero-serialization
    /// fast lane (cached payload bytes spliced around the request id).
    pub(crate) fn record_spliced_frame(&self) {
        self.spliced_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one `classify` miss by its lane: answered on the
    /// dispatching thread (`None`), or handed to a pool job that continues
    /// from `stage`.
    pub(crate) fn record_classify_lane(&self, handed_off_at: Option<Stage>) {
        self.classify_lanes[lane_slot(handed_off_at)].fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one successful vectored write flushing connection output on
    /// the reactor backend.
    pub(crate) fn record_writev_batch(&self) {
        self.writev_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// `classify` replies answered by the zero-serialization fast lane.
    pub fn spliced_frames(&self) -> u64 {
        self.spliced_frames.load(Ordering::Relaxed)
    }

    /// Successful vectored writes flushing connection output (0 on
    /// stdio).
    pub fn writev_batches(&self) -> u64 {
        self.writev_batches.load(Ordering::Relaxed)
    }

    /// Snapshot of one kind's latency histogram (`None` = the `invalid`
    /// pseudo-kind), for the admission p99 signal. Empty while detailed
    /// metrics are off.
    pub(crate) fn histogram(&self, kind: Option<RequestKind>) -> HistogramSnapshot {
        self.counters(kind).histogram.snapshot()
    }

    /// Reads every counter once, together with `engine`'s cache and pool
    /// counters and the server identity.
    pub(crate) fn snapshot(&self, engine: &Engine, uptime: Duration) -> MetricsSnapshot {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        MetricsSnapshot {
            backend: self.backend_name(),
            version: env!("CARGO_PKG_VERSION"),
            workers: engine.parallelism(),
            uptime,
            kinds: self.kinds.each_ref().map(KindCounters::snapshot),
            stream_first_chunk: self.stream_first_chunk.snapshot(),
            pipeline_inflight: load(&self.pipelined_inflight),
            pipeline_peak: load(&self.pipelined_peak),
            connections_open: load(&self.open_connections),
            connections_peak: load(&self.peak_connections),
            connections_accepted: load(&self.total_accepted),
            connections_rejected: load(&self.total_rejected),
            reactor_wakeups: load(&self.reactor_wakeups),
            reactor_completions: load(&self.reactor_completions),
            spliced_frames: load(&self.spliced_frames),
            writev_batches: load(&self.writev_batches),
            classify_lanes: self.classify_lanes.each_ref().map(load),
            cache: engine.cache_stats(),
            pool: engine.pool_stats(),
        }
    }
}

/// Every counter the `stats` reply and the metrics exposition report, read
/// once ([`Service::metrics_snapshot`]). Both renderings are pure functions
/// of this value, through one catalogue of metric families.
///
/// [`Service::metrics_snapshot`]: crate::Service::metrics_snapshot
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MetricsSnapshot {
    /// The serving front-end: `reactor`, `stdio`, or `none` before one
    /// started (the last started wins when several share one
    /// service).
    pub backend: &'static str,
    /// The server's crate version.
    pub version: &'static str,
    /// Worker-pool threads.
    pub workers: usize,
    /// Wall-clock time since the service was constructed.
    pub uptime: Duration,
    /// Per-kind counters, in [`RequestKind::ALL`] order and then the
    /// `invalid` pseudo-kind ([`MetricsSnapshot::kind`] looks one up).
    pub kinds: [KindSnapshot; KINDS],
    /// `solve_stream` time-to-first-chunk: request read to the first chunk
    /// frame handed to the writer (the kind histogram is the full drain).
    pub stream_first_chunk: HistogramSnapshot,
    /// Pipelined requests in flight (a gauge).
    pub pipeline_inflight: u64,
    /// Most pipelined requests ever in flight at once.
    pub pipeline_peak: u64,
    /// Open connections (a gauge).
    pub connections_open: u64,
    /// Most connections ever open at once.
    pub connections_peak: u64,
    /// Connections accepted so far.
    pub connections_accepted: u64,
    /// Connections refused by the `--max-conns` cap.
    pub connections_rejected: u64,
    /// The reactor's `epoll_wait` returns (0 on stdio).
    pub reactor_wakeups: u64,
    /// Pool completions the reactor consumed (0 on stdio).
    pub reactor_completions: u64,
    /// `classify` replies answered by the zero-serialization fast lane.
    pub spliced_frames: u64,
    /// Successful reactor `writev` flushes (0 on stdio).
    pub writev_batches: u64,
    /// `classify` misses by lane: `inline` first, then handed off at each
    /// stage in [`Stage::ALL`] order.
    pub classify_lanes: [u64; LANES],
    /// The engine's memo-cache counters.
    pub cache: CacheStats,
    /// The engine's worker-pool counters.
    pub pool: PoolStats,
}

impl MetricsSnapshot {
    /// One kind's counters (`None` = the `invalid` pseudo-kind).
    pub fn kind(&self, kind: Option<RequestKind>) -> &KindSnapshot {
        &self.kinds[kind_slot(kind)]
    }

    /// Each kind's wire name (`invalid` last) with its counters.
    pub(crate) fn labelled_kinds(&self) -> impl Iterator<Item = (&'static str, &KindSnapshot)> {
        let names = RequestKind::ALL.iter().map(|k| k.wire_name());
        names.chain(["invalid"]).zip(&self.kinds)
    }

    /// Each lane's name (`inline`, then the stage names) with its count.
    pub(crate) fn labelled_lanes(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let names = Stage::ALL.iter().map(|stage| stage.name());
        ["inline"]
            .into_iter()
            .chain(names)
            .zip(self.classify_lanes.iter().copied())
    }

    /// Frames handled across all kinds, invalid ones included.
    pub fn requests_served(&self) -> u64 {
        self.kinds.iter().map(|kind| kind.count).sum()
    }

    /// The server identity: the `stats` reply's `server` fields and the
    /// labels of the build-info gauge.
    pub(crate) fn identity(&self) -> [(&'static str, JsonValue); 3] {
        [
            ("backend", JsonValue::Str(self.backend.to_string())),
            ("version", JsonValue::Str(self.version.to_string())),
            ("workers", int(self.workers as u64)),
        ]
    }
}

/// A metric family's type, label and value source.
pub(crate) enum Source {
    /// A gauge of constant 1 labelled with [`MetricsSnapshot::identity`].
    BuildInfo,
    /// One unlabelled counter.
    Counter(fn(&MetricsSnapshot) -> u64),
    /// One unlabelled gauge.
    Gauge(fn(&MetricsSnapshot) -> u64),
    /// One counter per request kind, labelled `kind`.
    KindCounter(fn(&KindSnapshot) -> u64),
    /// One latency histogram per request kind, labelled `kind`.
    KindLatency,
    /// One unlabelled latency histogram.
    Histogram(fn(&MetricsSnapshot) -> &HistogramSnapshot),
    /// One counter per `classify` lane, labelled `lane`.
    LaneCounter,
}

/// One metric family of the catalogue.
pub(crate) struct Family {
    /// The family name, without the `lcl_` prefix.
    pub(crate) name: &'static str,
    /// The exposition's `# HELP` text.
    pub(crate) help: &'static str,
    /// Type, label and value.
    pub(crate) source: Source,
    /// Where the value goes in the `stats` payload: a dotted path, `*`
    /// standing for the `kind` label; empty when the payload omits it.
    /// Histograms place one [`latency_json`] object there, count included
    /// (which is why `requests_total` has no path of its own).
    pub(crate) stats: &'static str,
}

use Source::*;

/// The metric catalogue, one row per family in exposition order: its name
/// (without the `lcl_` prefix) and `# HELP` text, its source (type, label
/// and value), and its place in the `stats` payload.
#[rustfmt::skip]
pub(crate) static FAMILIES: [Family; 33] = [
    Family { name: "build_info", help: "Constant 1; the labels carry the server identity and \
                    configuration.",
             source: BuildInfo, stats: "server" },
    Family { name: "uptime_seconds", help: "Wall-clock seconds since the service was constructed.",
             source: Gauge(|s| s.uptime.as_secs()), stats: "server.uptime_seconds" },
    Family { name: "requests_total", help: "Frames handled, by request kind (invalid = never \
                    resolved to one).",
             source: KindCounter(|k| k.count), stats: "" },
    Family { name: "request_errors_total", help: "Frames answered with an error reply, by request \
                    kind.",
             source: KindCounter(|k| k.errors), stats: "server.kinds.*.errors" },
    Family { name: "shed_total", help: "Frames rejected at admission (load shed or quota), by \
                    request kind; every shed frame is also counted in requests_total and \
                    request_errors_total.",
             source: KindCounter(|k| k.shed), stats: "server.kinds.*.shed" },
    Family { name: "request_latency_micros", help: "End-to-end request handling latency in \
                    microseconds, by kind (empty while detailed metrics are off).",
             source: KindLatency, stats: "server.kinds.*" },
    Family { name: "stream_first_chunk_micros", help: "solve_stream time-to-first-chunk in \
                    microseconds (the kind histogram has the full drain).",
             source: Histogram(|s| &s.stream_first_chunk), stats: "server.stream_first_chunk" },
    Family { name: "pipeline_inflight", help: "Pipelined requests dispatched and not yet \
                    answered.",
             source: Gauge(|s| s.pipeline_inflight), stats: "server.pipeline.inflight" },
    Family { name: "pipeline_peak_inflight", help: "High-water mark of pipeline_inflight.",
             source: Gauge(|s| s.pipeline_peak), stats: "server.pipeline.peak_inflight" },
    Family { name: "connections_open", help: "Currently open connections.",
             source: Gauge(|s| s.connections_open), stats: "server.connections.open" },
    Family { name: "connections_peak", help: "High-water mark of connections_open.",
             source: Gauge(|s| s.connections_peak), stats: "server.connections.peak" },
    Family { name: "connections_accepted_total", help: "Connections accepted and served.",
             source: Counter(|s| s.connections_accepted), stats: "server.connections.accepted" },
    Family { name: "connections_rejected_total", help: "Connections closed at accept time by the \
                    --max-conns cap.",
             source: Counter(|s| s.connections_rejected), stats: "server.connections.rejected" },
    Family { name: "reactor_wakeups_total", help: "Event-loop returns from epoll_wait (0 on other \
                    backends).",
             source: Counter(|s| s.reactor_wakeups), stats: "server.reactor.wakeups" },
    Family { name: "reactor_completions_total", help: "Worker-pool completions the reactor \
                    consumed (0 on other backends).",
             source: Counter(|s| s.reactor_completions), stats: "server.reactor.completions" },
    Family { name: "spliced_frames_total", help: "classify replies answered by splicing cached \
                    payload bytes around the request id, skipping serialization and the worker \
                    pool.",
             source: Counter(|s| s.spliced_frames), stats: "server.spliced_frames" },
    Family { name: "classify_lane_total", help: "classify misses by lane: inline = classified on \
                    the dispatching thread within its work slice; a stage name = handed to a \
                    worker-pool job that continues from that stage.",
             source: LaneCounter, stats: "server.classify_lanes.*" },
    Family { name: "writev_batches_total", help: "Vectored reply flushes issued by the reactor \
                    (one writev per sample; 0 on other backends).",
             source: Counter(|s| s.writev_batches), stats: "server.writev_batches" },
    Family { name: "cache_hits_total", help: "Classification lookups served from the memo cache.",
             source: Counter(|s| s.cache.hits), stats: "cache.hits" },
    Family { name: "cache_flight_leaders_total", help: "Single-flight leaders elected: cold-key \
                    classifications started.",
             source: Counter(|s| s.cache.flight_leaders), stats: "cache.flight_leaders" },
    Family { name: "cache_flight_joins_total", help: "Requests served by parking on another \
                    request's in-flight classification (stampedes absorbed).",
             source: Counter(|s| s.cache.flight_joins), stats: "cache.flight_joins" },
    Family { name: "cache_misses_total", help: "Classification lookups that had to be computed.",
             source: Counter(|s| s.cache.misses), stats: "cache.misses" },
    Family { name: "cache_bytes_hits_total", help: "Classify hits answered by splicing the cached \
                    reply bytes (no JSON serialization).",
             source: Counter(|s| s.cache.bytes_hits), stats: "cache.bytes_hits" },
    Family { name: "cache_bytes_misses_total", help: "Classify hits that had to render and attach \
                    the reply bytes (first hit per entry).",
             source: Counter(|s| s.cache.bytes_misses), stats: "cache.bytes_misses" },
    Family { name: "cache_inserts_total", help: "Entries ever inserted into the memo cache.",
             source: Counter(|s| s.cache.inserts), stats: "cache.inserts" },
    Family { name: "cache_evictions_total", help: "Entries removed from the memo cache (LRU \
                    victims and clears).",
             source: Counter(|s| s.cache.evictions), stats: "cache.evictions" },
    Family { name: "cache_entries", help: "Problems currently cached.",
             source: Gauge(|s| s.cache.entries as u64), stats: "cache.entries" },
    Family { name: "cache_weight", help: "Total weight of the resident cache entries.",
             source: Gauge(|s| s.cache.weight), stats: "cache.weight" },
    Family { name: "cache_peak_entries", help: "Upper bound on entries ever resident at once.",
             source: Gauge(|s| s.cache.peak_entries as u64), stats: "cache.peak_entries" },
    Family { name: "cache_peak_weight", help: "Upper bound on resident weight ever held at once.",
             source: Gauge(|s| s.cache.peak_weight), stats: "cache.peak_weight" },
    Family { name: "pool_workers", help: "Long-lived worker threads.",
             source: Gauge(|s| s.pool.workers as u64), stats: "pool.workers" },
    Family { name: "pool_queue_depth", help: "Jobs submitted but not yet picked up by a worker.",
             source: Gauge(|s| s.pool.queue_depth as u64), stats: "pool.queue_depth" },
    Family { name: "pool_jobs_completed_total", help: "Jobs fully executed since the pool was \
                    built.",
             source: Counter(|s| s.pool.jobs_completed), stats: "pool.jobs_completed" },
];

/// A counter as a JSON integer (saturating: the wire's integers are `i64`).
fn int(value: u64) -> JsonValue {
    JsonValue::Int(i64::try_from(value).unwrap_or(i64::MAX))
}

/// The one histogram-to-JSON rule of the `stats` payload: count, total,
/// mean and max of the observations, and quantile estimates from the
/// buckets (upper bounds, ≤ 12.5% relative error; 0 while detailed
/// metrics are off).
fn latency_json(count: u64, total: u64, max: u64, histogram: &HistogramSnapshot) -> JsonValue {
    JsonValue::object([
        ("count", int(count)),
        ("total_micros", int(total)),
        ("max_micros", int(max)),
        ("mean_micros", int(total.checked_div(count).unwrap_or(0))),
        ("p50_micros", int(histogram.quantile(0.50))),
        ("p90_micros", int(histogram.quantile(0.90))),
        ("p99_micros", int(histogram.quantile(0.99))),
        ("p999_micros", int(histogram.quantile(0.999))),
    ])
}

/// Puts `value` at the dotted `path` of the object `root`, creating the
/// objects on the way and merging an object value into one already there.
fn place(root: &mut JsonValue, path: &str, value: JsonValue) {
    let mut node = root;
    for key in path.split('.') {
        let JsonValue::Object(fields) = node else {
            unreachable!("stats paths only run through objects");
        };
        node = fields
            .entry(key.to_string())
            .or_insert_with(|| JsonValue::object([]));
    }
    match (node, value) {
        (JsonValue::Object(into), JsonValue::Object(from)) => into.extend(from),
        (node, value) => *node = value,
    }
}

/// The `stats` reply payload: every catalogue family placed at its `stats`
/// path, plus the fields derived from them (`requests_served`, the cache
/// hit ratio, the human-readable summaries and
/// `uptime_ms`).
pub(crate) fn stats_payload(snapshot: &MetricsSnapshot) -> JsonValue {
    let mut payload = JsonValue::object([]);
    for family in &FAMILIES {
        let path = family.stats;
        if path.is_empty() {
            continue;
        }
        match family.source {
            BuildInfo => {
                for (key, value) in snapshot.identity() {
                    place(&mut payload, &format!("{path}.{key}"), value);
                }
            }
            Counter(value) | Gauge(value) => place(&mut payload, path, int(value(snapshot))),
            KindCounter(value) => {
                for (label, kind) in snapshot.labelled_kinds() {
                    place(&mut payload, &path.replace('*', label), int(value(kind)));
                }
            }
            KindLatency => {
                for (label, kind) in snapshot.labelled_kinds() {
                    let json = latency_json(
                        kind.count,
                        kind.total_micros,
                        kind.max_micros,
                        &kind.latency,
                    );
                    place(&mut payload, &path.replace('*', label), json);
                }
            }
            Histogram(histogram) => {
                let h = histogram(snapshot);
                place(&mut payload, path, latency_json(h.count, h.sum, h.max, h));
            }
            LaneCounter => {
                for (label, count) in snapshot.labelled_lanes() {
                    place(&mut payload, &path.replace('*', label), int(count));
                }
            }
        }
    }
    let cache = &snapshot.cache;
    for (path, value) in [
        ("server.requests_served", int(snapshot.requests_served())),
        (
            "cache.hit_ratio",
            JsonValue::Str(format!("{:.4}", cache.hit_ratio())),
        ),
        ("cache.summary", JsonValue::Str(cache.to_string())),
        ("pool.summary", JsonValue::Str(snapshot.pool.to_string())),
        (
            "uptime_ms",
            int(u64::try_from(snapshot.uptime.as_millis()).unwrap_or(u64::MAX)),
        ),
    ] {
        place(&mut payload, path, value);
    }
    payload
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `metrics` with an idle engine, the way the service does.
    fn read(metrics: &ServerMetrics) -> MetricsSnapshot {
        metrics.snapshot(&Engine::builder().parallelism(1).build(), Duration::ZERO)
    }

    fn stats_json(metrics: &ServerMetrics) -> String {
        stats_payload(&read(metrics)).to_json_string()
    }

    #[test]
    fn counters_accumulate_per_kind() {
        for (at, &kind) in RequestKind::ALL.iter().enumerate() {
            assert_eq!(kind_slot(Some(kind)), at, "declaration order is ALL order");
        }
        let metrics = ServerMetrics::default();
        metrics.record(Some(RequestKind::Classify), Duration::from_micros(10), true);
        metrics.record(
            Some(RequestKind::Classify),
            Duration::from_micros(30),
            false,
        );
        metrics.record(None, Duration::from_micros(5), false);

        let snapshot = read(&metrics);
        let classify = snapshot.kind(Some(RequestKind::Classify));
        assert_eq!(classify.count, 2);
        assert_eq!(classify.errors, 1);
        assert_eq!(classify.total_micros, 40);
        assert_eq!(classify.max_micros, 30);

        assert_eq!(snapshot.kind(Some(RequestKind::Solve)).count, 0);
        assert_eq!(snapshot.kind(None).errors, 1);
        assert_eq!(snapshot.requests_served(), 3);

        let json = stats_json(&metrics);
        assert!(json.contains("\"mean_micros\":20"), "{json}");
        assert!(json.contains("\"requests_served\":3"), "{json}");
        assert!(json.contains("\"invalid\""), "{json}");
        assert!(json.contains("\"metrics\""), "{json}");
        assert!(json.contains("\"p99_micros\""), "{json}");
    }

    #[test]
    fn shed_frames_keep_latency_accounting_symmetric() {
        let metrics = ServerMetrics::default();
        // A shed frame records through both channels, like the dispatch
        // path does: the regular record() plus the shed tally.
        metrics.record(Some(RequestKind::Solve), Duration::from_micros(7), false);
        metrics.record_shed(Some(RequestKind::Solve));
        metrics.record(Some(RequestKind::Solve), Duration::from_micros(90), true);

        let snapshot = read(&metrics);
        let solve = snapshot.kind(Some(RequestKind::Solve));
        assert_eq!(solve.count, 2);
        assert_eq!(solve.errors, 1);
        assert_eq!(solve.shed, 1);
        assert_eq!(
            solve.latency.count, solve.count,
            "shed frames must land in the histogram too"
        );
        assert_eq!(snapshot.kind(Some(RequestKind::Classify)).shed, 0);

        let json = stats_json(&metrics);
        assert!(json.contains("\"shed\":1"), "{json}");
        assert!(json.contains("\"shed\":0"), "{json}");
    }

    #[test]
    fn histograms_mirror_the_counters_and_report_quantiles() {
        let metrics = ServerMetrics::default();
        for micros in [10u64, 20, 30, 40, 1000] {
            metrics.record(
                Some(RequestKind::Solve),
                Duration::from_micros(micros),
                true,
            );
        }
        let snapshot = read(&metrics);
        let stats = snapshot.kind(Some(RequestKind::Solve));
        let histogram = &stats.latency;
        assert_eq!(histogram.count, stats.count);
        assert_eq!(histogram.sum, stats.total_micros);
        assert_eq!(histogram.max, stats.max_micros);
        assert!(histogram.quantile(0.5) >= 20 && histogram.quantile(0.5) <= 40);
        assert_eq!(histogram.quantile(1.0), 1000);
    }

    #[test]
    fn accounted_latency_is_never_zero() {
        let metrics = ServerMetrics::default();
        metrics.record(None, Duration::ZERO, false);
        let snapshot = read(&metrics);
        let invalid = snapshot.kind(None);
        assert_eq!(invalid.count, 1);
        assert_eq!(invalid.total_micros, 1, "zero elapsed clamps to 1µs");
        assert_eq!(invalid.max_micros, 1);
        assert_eq!(invalid.latency.count, 1);
        assert_eq!(invalid.latency.sum, 1);
    }

    #[test]
    fn detailed_off_skips_histograms_but_keeps_counters() {
        let metrics = ServerMetrics::default();
        assert!(metrics.detailed(), "detailed is the default");
        metrics.set_detailed(false);
        metrics.record(Some(RequestKind::Classify), Duration::from_micros(50), true);
        metrics.record_stream_first_chunk(Duration::from_micros(5));
        let snapshot = read(&metrics);
        assert_eq!(snapshot.kind(Some(RequestKind::Classify)).count, 1);
        assert_eq!(snapshot.kind(Some(RequestKind::Classify)).latency.count, 0);
        assert_eq!(snapshot.stream_first_chunk.count, 0);
        metrics.set_detailed(true);
        metrics.record_stream_first_chunk(Duration::from_micros(5));
        assert_eq!(read(&metrics).stream_first_chunk.count, 1);
    }

    #[test]
    fn backend_registration_is_last_wins() {
        let metrics = ServerMetrics::default();
        assert_eq!(metrics.backend_name(), "none");
        metrics.set_backend("reactor");
        assert_eq!(metrics.backend_name(), "reactor");
        metrics.set_backend("stdio");
        assert_eq!(metrics.backend_name(), "stdio");
        metrics.set_backend("bogus");
        assert_eq!(metrics.backend_name(), "none");
    }

    #[test]
    fn connection_gauges_track_open_peak_accepted_rejected() {
        let metrics = ServerMetrics::default();
        metrics.connection_opened();
        metrics.connection_opened();
        metrics.connection_opened();
        let snapshot = read(&metrics);
        assert_eq!(snapshot.connections_open, 3);
        assert_eq!(snapshot.connections_peak, 3);
        assert_eq!(snapshot.connections_accepted, 3);
        metrics.connection_closed();
        metrics.connection_closed();
        metrics.connection_rejected();
        let snapshot = read(&metrics);
        assert_eq!(snapshot.connections_open, 1);
        assert_eq!(snapshot.connections_peak, 3, "peak is a high-water mark");
        assert_eq!(snapshot.connections_rejected, 1);
        assert_eq!(
            snapshot.connections_accepted, 3,
            "rejected connections are not accepted ones"
        );

        metrics.reactor_wakeup();
        metrics.reactor_completions(5);
        let snapshot = read(&metrics);
        assert_eq!(snapshot.reactor_wakeups, 1);
        assert_eq!(snapshot.reactor_completions, 5);

        let json = stats_json(&metrics);
        assert!(json.contains("\"connections\""), "{json}");
        assert!(json.contains("\"peak\":3"), "{json}");
        assert!(json.contains("\"rejected\":1"), "{json}");
        assert!(json.contains("\"reactor\""), "{json}");
        assert!(json.contains("\"completions\":5"), "{json}");
    }

    #[test]
    fn pipeline_gauges_track_inflight_and_peak() {
        let metrics = ServerMetrics::default();
        assert_eq!(read(&metrics).pipeline_inflight, 0);
        metrics.pipeline_enter();
        metrics.pipeline_enter();
        metrics.pipeline_enter();
        let snapshot = read(&metrics);
        assert_eq!(snapshot.pipeline_inflight, 3);
        assert_eq!(snapshot.pipeline_peak, 3);
        metrics.pipeline_exit();
        metrics.pipeline_exit();
        let snapshot = read(&metrics);
        assert_eq!(snapshot.pipeline_inflight, 1);
        assert_eq!(snapshot.pipeline_peak, 3, "peak is a high-water mark");
        metrics.pipeline_enter();
        assert_eq!(
            read(&metrics).pipeline_peak,
            3,
            "returning below peak keeps it"
        );

        let json = stats_json(&metrics);
        assert!(json.contains("\"pipeline\""), "{json}");
        assert!(json.contains("\"peak_inflight\":3"), "{json}");
    }
}
