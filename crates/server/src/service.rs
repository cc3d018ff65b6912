//! Framing-independent request dispatch: one NDJSON frame in, one reply out.
//!
//! [`Service`] owns the [`Engine`] and the server metrics; the TCP and stdio
//! front-ends only move frames. Dispatch never panics on wire input and never
//! kills the stream: every frame — however malformed — produces exactly one
//! terminal reply, with errors mapped to structured [`ErrorReply`]s whose
//! category identifies the failing subsystem of [`lcl_paths::Error`].
//!
//! Every front-end — the TCP reactor and stdio — hands each [`Frame`] to
//! [`Service::dispatch`] together with the connection's [`Origin`], and gets
//! a [`PendingResponse`] back without blocking:
//!
//! * a frame answerable on the calling thread resolves there as a *ready*
//!   reply, with no pool job and no channel: a `classify` whose reply bytes
//!   are cached (an id-splice), a `classify` miss whose classification
//!   finishes within the inline lane's work slice, an admission rejection,
//!   an oversized-frame rejection;
//! * anything else — execution, serialization and, for most frames, the
//!   JSON parse — becomes one worker-pool job ([`Engine::submit_notify`]),
//!   so N requests from one connection progress concurrently on an N-worker
//!   pool. Jobs classify and solve on the worker itself — a worker parked
//!   on *another* pool job could deadlock a narrow pool.
//!
//! # The inline classify lane
//!
//! A `classify` miss runs its classification stages (types, solvability,
//! the biclique search, pattern labelings, synthesis) on the calling thread
//! in order while a [`WorkMeter`] has charged fewer than
//! [`CLASSIFY_SLICE_UNITS`] units, each stage capped at
//! [`CLASSIFY_STAGE_CAP_UNITS`] ([`Engine::classify_inline`]). The meter
//! counts work, not time, so which lane a request takes depends on the
//! problem alone. A classification done within the slice is a ready reply.
//! Otherwise the finished stages' state is parked in the key's cache
//! flight and the request becomes a pool job that continues from the stage
//! that did not finish ([`Engine::resume`]); a stage stopped at its cap
//! runs again there, except the types stage, which continues where it
//! stopped. The lane never waits: a key whose flight another thread holds
//! goes to a pool job, which joins the flight. Any thread that finds
//! parked work runs it, so no thread ever waits on work nobody is running,
//! and each cold key is computed once and counted as one miss. A panic in
//! the lane never unwinds into the front end: the request gets the reply a
//! pool job that died would have produced. `lcl_classify_lane_total`
//! counts each miss by lane.
//!
//! # Parsing
//!
//! Each frame is parsed once, except a `classify` frame the front end
//! declines, which the tree parse reads again. A `classify` frame is read by the request
//! front end ([`RequestEnvelope::read_classify`]): one pass of the JSON pull
//! reader straight into the problem, with no `JsonValue` tree. The splice
//! probe reads every `classify` frame that way on the calling thread and
//! builds the problem's structural key once; the cache probe, the inline
//! lane and the pool job all use that key, and the canonical hash in the
//! reply is read off it ([`NormalizedLcl::hash_of_key`]). A miss the
//! inline lane does not finish takes the request id, the problem and the
//! key to its pool job, which classifies without reading again and writes
//! its verdict reply straight to bytes. Every other kind, and each
//! `classify` frame the front end does not accept whole (unknown fields,
//! errors), takes the tree parse ([`JsonValue::parse`], then
//! [`RequestEnvelope::from_json`]): on the calling thread for a declined
//! `classify` frame, whose pool job gets the result; in its pool job for
//! the rest. The pool job builds every error reply from the tree parse,
//! so each error reply is what the tree path has always produced.
//!
//! Front-ends resolve the handles in request order through the connection
//! core's reply queue (`conn.rs`). [`Service::handle_line`] is the
//! lock-step helper for embedders: it runs the pool-job body inline on the
//! calling thread and returns the envelope.
//!
//! Most kinds produce exactly one reply frame. `solve_stream` additionally
//! *streams*: zero or more already-serialized [`StreamFrame::Chunk`]s precede
//! the terminal envelope. The per-request frame channel is a small bounded
//! queue, so a streaming job can only run a couple of frames ahead of the
//! connection writer — backpressure reaches the producing worker instead of
//! buffering a million-node labeling in memory.
//!
//! Nothing ever spawns a thread on the request path.

use crate::admission::{AdmissionConfig, QuotaLimiter, ShedPolicy};
use crate::frame::{Frame, MAX_FRAME_BYTES};
use crate::metrics::{MetricsSnapshot, ServerMetrics};
use crate::splice::SplicedReply;
use crate::trace::{Trace, TraceSink};
use lcl_paths::classifier::{
    Classification, ClassifierError, Lane, ReplyLane, Stage, Verdict, WorkMeter,
};
use lcl_paths::gen::GenConfig;
use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::{
    ErrorReply, Instance, NormalizedLcl, ProblemError, ProblemSpec, RequestEnvelope,
    ResponseEnvelope, StreamInstanceSpec, PROTOCOL_VERSION,
};
use lcl_paths::{Engine, Error};
use std::fmt;
use std::io::{self, Write as _};
use std::net::IpAddr;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// The request kinds the service dispatches.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RequestKind {
    /// Classify one problem; reply with its wire verdict.
    Classify,
    /// Classify a batch on the worker pool; reply with per-item outcomes.
    ClassifyMany,
    /// Classify, synthesize and run on a concrete instance.
    Solve,
    /// Classify, synthesize and run on a *streamed* instance: the labeling
    /// goes back as ordered chunk frames, memory stays O(chunk + radius).
    SolveStream,
    /// Deterministically generate a seeded LCL problem ([`lcl_paths::gen`]).
    Generate,
    /// Cache / pool / per-kind latency counters.
    Stats,
    /// Liveness probe.
    Health,
    /// The same counters as plaintext metrics exposition (the scrape
    /// format), for pull-style collectors.
    Metrics,
    /// Write the warm-cache snapshot to the configured `--cache-snapshot`
    /// path (an operator checkpoint; the same document is written on
    /// graceful shutdown and restored at startup).
    Snapshot,
}

impl RequestKind {
    /// All request kinds, in protocol order.
    pub const ALL: [RequestKind; 9] = [
        RequestKind::Classify,
        RequestKind::ClassifyMany,
        RequestKind::Solve,
        RequestKind::SolveStream,
        RequestKind::Generate,
        RequestKind::Stats,
        RequestKind::Health,
        RequestKind::Metrics,
        RequestKind::Snapshot,
    ];

    /// The stable ASCII identifier used on the wire.
    pub fn wire_name(self) -> &'static str {
        match self {
            RequestKind::Classify => "classify",
            RequestKind::ClassifyMany => "classify_many",
            RequestKind::Solve => "solve",
            RequestKind::SolveStream => "solve_stream",
            RequestKind::Generate => "generate",
            RequestKind::Stats => "stats",
            RequestKind::Health => "health",
            RequestKind::Metrics => "metrics",
            RequestKind::Snapshot => "snapshot",
        }
    }

    /// Parses a wire identifier produced by [`RequestKind::wire_name`].
    pub fn from_wire_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.wire_name() == name)
    }

    /// Whether this kind does engine compute work and is therefore subject
    /// to admission control. The control kinds (`stats`, `health`,
    /// `metrics`, `snapshot`) are always admitted: an operator must be able
    /// to observe — and checkpoint — an overloaded server.
    pub fn is_compute(self) -> bool {
        !matches!(
            self,
            RequestKind::Stats | RequestKind::Health | RequestKind::Metrics | RequestKind::Snapshot
        )
    }
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wire_name())
    }
}

/// Maps a unified error to its structured wire reply; the category names the
/// subsystem that failed.
pub fn error_reply(error: &Error) -> ErrorReply {
    let category = match error {
        Error::Problem(_) => "problem",
        Error::Semigroup(_) => "semigroup",
        Error::Sim(_) => "simulator",
        Error::Lba(_) => "lba",
        Error::Classifier(_) => "classifier",
        Error::Gen(_) => "gen",
        _ => "internal",
    };
    ErrorReply::new(category, error.to_string())
}

fn protocol_error(id: Option<i64>, message: String) -> ResponseEnvelope {
    ResponseEnvelope::error(id, "invalid", ErrorReply::new("protocol", message))
}

/// One frame of a pipelined reply stream, as delivered by
/// [`PendingResponse::try_frame`] / [`PendingResponse::wait_frame`].
///
/// Every kind terminates with exactly one [`StreamFrame::Final`]; only
/// `solve_stream` precedes it with [`StreamFrame::Chunk`]s. Both carry the
/// frame already serialized (without its newline terminator), in strict
/// protocol order.
#[derive(Debug)]
pub enum StreamFrame {
    /// An intermediate chunk frame — zero or more per request, always
    /// before the terminal envelope.
    Chunk(String),
    /// The terminal reply envelope — exactly one per request, always last.
    Final(String),
    /// A terminal `classify` reply served from the engine's reply-bytes
    /// cache: the payload bytes are shared with the cache entry and the
    /// request id is spliced in at write time. Wire-equivalent to a
    /// [`StreamFrame::Final`] carrying
    /// [`SplicedReply::to_frame_string`].
    Spliced(SplicedReply),
}

/// Producer-side depth of the per-request frame channel: a streaming job
/// can run at most this many serialized frames ahead of the connection
/// writer before its `emit` blocks. This is the in-process half of
/// `solve_stream` backpressure — the socket's flow control is the other —
/// and what keeps a million-node labeling from ever being resident at once.
const STREAM_CHANNEL_DEPTH: usize = 2;

/// Where a frame came from: the client address the per-peer quota buckets
/// key on, and an optional completion hook. A connection builds one and
/// passes it with every frame it dispatches.
#[derive(Default)]
pub struct Origin {
    peer: Option<IpAddr>,
    notify: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl Origin {
    /// Frames from `peer`; `None` (stdio, embedders) shares one quota
    /// bucket.
    pub fn new(peer: Option<IpAddr>) -> Origin {
        Origin { peer, notify: None }
    }

    /// Adds a completion hook: it runs on the pool worker every time a new
    /// frame becomes observable on a dispatched request's handle — a chunk
    /// was emitted, the reply is ready, or the job died and
    /// [`PendingResponse::try_frame`] will synthesize its error. This is the
    /// reactor's wakeup path (it signals the eventfd) instead of a writer
    /// thread parked per connection. Ready replies never call it: they are
    /// observable before [`Service::dispatch`] returns.
    pub fn with_notify(mut self, notify: impl Fn() + Send + Sync + 'static) -> Origin {
        self.notify = Some(Arc::new(notify));
        self
    }
}

/// The result of [`Service::dispatch`]: a handle on one request's reply
/// frames. The connection writer resolves these **in request order**, which
/// is what turns out-of-order pool completion into the protocol's in-order
/// reply guarantee.
#[derive(Debug)]
pub struct PendingResponse {
    reply: Reply,
    /// The request's stage trace (when detailed metrics are on). The
    /// connection core's reply queue takes it to stamp the write stage
    /// after the terminal frame reaches the socket; an untaken trace
    /// finalizes on drop, so a dying connection still records its partial
    /// stages.
    pub(crate) trace: Option<Arc<Trace>>,
}

#[derive(Debug)]
enum Reply {
    /// Resolved on the dispatching thread: the terminal frame, until taken.
    Ready(Option<StreamFrame>),
    /// Running as a pool job that delivers its frames on `rx`, terminal
    /// last. `id` and `kind` are salvaged best-effort from the frame, only
    /// to label the synthesized reply of a job that dies without one.
    Job {
        rx: mpsc::Receiver<StreamFrame>,
        id: Option<i64>,
        kind: String,
    },
}

impl PendingResponse {
    fn ready(frame: StreamFrame, trace: Option<Arc<Trace>>) -> PendingResponse {
        PendingResponse {
            reply: Reply::Ready(Some(frame)),
            trace,
        }
    }

    /// Blocks until the next frame is available and returns it.
    ///
    /// A job that died (panicked) on its worker dropped the sending half;
    /// that is observed here and answered with a synthesized structured
    /// `internal` error as the terminal frame, so every dispatched frame
    /// still yields exactly one terminal reply. Callers stop consuming at
    /// the terminal frame.
    ///
    /// # Panics
    ///
    /// When called again after a ready reply's terminal frame was taken.
    pub fn wait_frame(&mut self) -> StreamFrame {
        match &mut self.reply {
            Reply::Ready(frame) => frame.take().expect("a ready reply is taken once"),
            Reply::Job { rx, id, kind } => rx.recv().unwrap_or_else(|_| dropped_reply(*id, kind)),
        }
    }

    /// Non-blocking probe: the next frame if one is already available (or
    /// the job already died — then the synthesized terminal error), `None`
    /// while the job is still running. A connection writer checks this
    /// before parking in [`PendingResponse::wait_frame`], so replies it has
    /// already buffered can be flushed to the peer instead of stalling
    /// behind a slow job.
    pub fn try_frame(&mut self) -> Option<StreamFrame> {
        match &mut self.reply {
            Reply::Ready(frame) => frame.take(),
            Reply::Job { rx, id, kind } => match rx.try_recv() {
                Ok(frame) => Some(frame),
                Err(mpsc::TryRecvError::Disconnected) => Some(dropped_reply(*id, kind)),
                Err(mpsc::TryRecvError::Empty) => None,
            },
        }
    }

    /// Blocks until the **terminal** reply frame and returns it, discarding
    /// any intermediate chunk frames. Convenience for embedders and tests
    /// that only care about the final envelope; connection writers must use
    /// [`PendingResponse::wait_frame`] / [`PendingResponse::try_frame`] so
    /// chunks reach the peer.
    pub fn wait(mut self) -> String {
        loop {
            match self.wait_frame() {
                StreamFrame::Final(line) => return line,
                StreamFrame::Spliced(spliced) => return spliced.to_frame_string(),
                StreamFrame::Chunk(_) => {}
            }
        }
    }
}

/// The terminal reply for a job whose sender disconnected without one.
fn dropped_reply(id: Option<i64>, kind: &str) -> StreamFrame {
    let reply = ErrorReply::new(
        "internal",
        "request job dropped its reply (the job panicked); retry the request",
    );
    StreamFrame::Final(ResponseEnvelope::error(id, kind, reply).into_json_string())
}

/// Best-effort scan for the frame's `"id":<int>` field without a JSON
/// parse. Only used to label the synthesized reply after a job panic, so a
/// wrong match on pathological input (the literal `"id":` inside a string
/// value) costs nothing but a mislabeled error frame.
fn salvage_id(line: &str) -> Option<i64> {
    let rest = line[line.find("\"id\":")? + 5..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '-')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Best-effort scan for `"kind":"…"`; `invalid` when unrecognizable (the
/// same pseudo-kind unparseable frames report).
fn salvage_kind(line: &str) -> String {
    line.find("\"kind\":\"")
        .and_then(|at| {
            let rest = &line[at + 8..];
            rest.find('"').map(|end| rest[..end].to_string())
        })
        .unwrap_or_else(|| "invalid".to_string())
}

/// What one cache-snapshot write put on disk.
struct SnapshotWrite {
    entries: usize,
    bytes: usize,
}

/// Decrements the pipelined-in-flight gauge even if the job panics.
struct PipelineGuard<'a>(&'a ServerMetrics);

impl Drop for PipelineGuard<'_> {
    fn drop(&mut self) {
        self.0.pipeline_exit();
    }
}

/// The work slice of the inline classify lane ([`Service::dispatch`]), in
/// [`WorkMeter`] units: a `classify` miss runs its next stage on the
/// dispatching thread only while it has charged fewer units than this.
/// The units were weighed, stage by stage, against the time each stage
/// takes on the 2-vCPU host the lane was sized on, until every stage's
/// unit came within 2× of the others: a unit is 4–9 ns of classification
/// work there (more when the shared host runs slow), so the slice is
/// about 25–35 µs, and it finishes about nine in ten cold classifies of
/// the repository benchmark's `cold_classify` workload inline
/// (`docs/ARCHITECTURE.md`). A constant, not an option: which lane serves
/// a request depends on the problem alone.
pub const CLASSIFY_SLICE_UNITS: u64 = 4_000;

/// The per-stage cap of the inline classify lane, in [`WorkMeter`] units:
/// a stage that would charge more stops there, and its pool job continues
/// the types stage where it stopped or runs any other stage again. A miss
/// therefore charges at most `CLASSIFY_SLICE_UNITS +
/// CLASSIFY_STAGE_CAP_UNITS` units on the dispatching thread.
pub const CLASSIFY_STAGE_CAP_UNITS: u64 = 4_000;

/// Default ceiling on a serialized `solve_stream` chunk frame
/// (`--max-chunk-bytes`): 256 KiB keeps roughly 32k labels per frame while
/// staying well under [`MAX_FRAME_BYTES`].
pub const DEFAULT_MAX_CHUNK_BYTES: usize = 256 * 1024;

/// The framing-independent request handler: an [`Engine`] plus metrics.
///
/// Shared across connection threads behind an `Arc`; all methods take
/// `&self`.
#[derive(Debug)]
pub struct Service {
    engine: Engine,
    metrics: ServerMetrics,
    trace: Arc<TraceSink>,
    started: Instant,
    max_chunk_bytes: usize,
    /// Gates the zero-serialization classify fast lane
    /// (`Service::splice`). On by default; the `server_throughput`
    /// bench toggles it live to measure the lane's effect.
    reply_splice: AtomicBool,
    /// Load-shedding thresholds (`--shed-p99-micros` / `--shed-queue-depth`);
    /// `None` when shedding is disabled.
    shed: Option<ShedPolicy>,
    /// Per-peer token buckets (`--quota-rps` / `--quota-burst`); `None`
    /// when quotas are disabled.
    quota: Option<QuotaLimiter>,
    /// Where the warm-cache snapshot is written (`--cache-snapshot`);
    /// `None` disables the `snapshot` kind and the startup restore.
    snapshot_path: Option<PathBuf>,
    /// Held across a snapshot's capture, write, sync and rename: writers
    /// share the temp path, so two at once would rename each other's file.
    snapshot_write: Mutex<()>,
}

/// What [`Service::respond`] runs: a raw frame, or a frame the splice
/// probe already parsed on the dispatching thread.
enum Request<'a> {
    /// A frame still to be parsed.
    Line(&'a str),
    /// A well-formed `classify` of an uncached problem ([`Splice::Miss`]).
    Classify(ParsedClassify),
    /// A frame the `classify` front end declined, with the tree parse's
    /// result ([`Splice::Declined`]).
    Parsed(TreeParse),
}

/// What the tree parse ([`Service::parse`]) makes of a frame: its kind and
/// envelope, or the ready-to-send error reply.
type TreeParse = Result<(RequestKind, RequestEnvelope), ResponseEnvelope>;

/// A `classify` frame read and normalized, with its problem's structural
/// key: the splice probe moves it into the pool job of a cache miss, so the
/// job neither parses the frame nor builds the key again.
struct ParsedClassify {
    id: i64,
    problem: NormalizedLcl,
    key: Vec<u8>,
    /// The inline lane parked this request's own flight: the job resumes it
    /// ([`Engine::resume`]) instead of classifying as a new request.
    parked: bool,
}

impl ParsedClassify {
    fn new(id: i64, problem: NormalizedLcl) -> ParsedClassify {
        let key = problem.structural_key();
        ParsedClassify {
            id,
            problem,
            key,
            parked: false,
        }
    }

    /// The problem's canonical hash, read off the key.
    fn hash(&self) -> u64 {
        NormalizedLcl::hash_of_key(&self.key)
    }
}

/// One request's reply before serialization: what [`Service::respond`]
/// returns.
enum Outcome {
    /// A `classify` that succeeded. A pool job writes its frame straight to
    /// bytes ([`classify_frame`]); [`Service::handle_line`] wraps it in an
    /// envelope.
    Classified {
        id: i64,
        problem: NormalizedLcl,
        hash: u64,
        classification: Arc<Classification>,
    },
    /// Every other reply, errors included.
    Envelope(ResponseEnvelope),
}

impl Outcome {
    fn is_ok(&self) -> bool {
        match self {
            Outcome::Classified { .. } => true,
            Outcome::Envelope(response) => response.is_ok(),
        }
    }

    /// The reply as an envelope, its payload a tree.
    fn into_envelope(self) -> ResponseEnvelope {
        match self {
            Outcome::Classified {
                id,
                problem,
                classification,
                ..
            } => ResponseEnvelope::ok(
                id,
                RequestKind::Classify.wire_name(),
                JsonValue::object([("verdict", Verdict::new(&problem, &classification).to_json())]),
            ),
            Outcome::Envelope(response) => response,
        }
    }

    /// The reply as one serialized frame, byte-identical to
    /// `self.into_envelope().into_json_string()`.
    fn into_frame(self) -> String {
        match self {
            Outcome::Classified {
                id,
                problem,
                hash,
                classification,
            } => classify_frame(id, &problem, hash, &classification),
            Outcome::Envelope(response) => response.into_json_string(),
        }
    }
}

/// Writes a classify reply's `{"verdict":…}` payload straight to bytes;
/// `hash` is the problem's canonical hash.
fn write_verdict_payload(
    problem: &NormalizedLcl,
    hash: u64,
    classification: &Classification,
    out: &mut String,
) {
    out.push_str("{\"verdict\":");
    Verdict::write_json_hashed(problem, hash, classification, out);
    out.push('}');
}

/// A classify success frame, written directly: the bytes
/// `ResponseEnvelope::ok(id, "classify", {"verdict": …}).into_json_string()`
/// prints, without the tree.
fn classify_frame(
    id: i64,
    problem: &NormalizedLcl,
    hash: u64,
    classification: &Classification,
) -> String {
    let mut out = String::with_capacity(384);
    crate::splice::write_head(id, &mut out);
    write_verdict_payload(problem, hash, classification, &mut out);
    out.push('}');
    out
}

/// What the inline classify lane ([`Service::classify_inline`]) made of a
/// `classify` miss.
enum Inline {
    /// The reply, accounted.
    Ready(StreamFrame),
    /// The request, for a pool job.
    Pool(ParsedClassify),
}

/// What the splice probe ([`Service::splice`]) made of one frame.
enum Splice {
    /// A cache hit, answered and accounted on the calling thread.
    Hit(StreamFrame, Option<Arc<Trace>>),
    /// A well-formed `classify` whose problem is not cached: the parse, for
    /// the inline lane and, if it does not finish, the pool job.
    Miss(ParsedClassify),
    /// A frame naming `classify` that the front end declined and that is
    /// not a well-formed `classify` either (a malformed frame or problem,
    /// or another kind after all): the tree parse's result, handed to the
    /// pool job, which owns the error reply.
    Declined(TreeParse),
    /// Not for the lane (the toggle is off, or the frame does not name
    /// `classify`); the pool job parses the frame.
    Pass,
}

/// Whether a frame names the `classify` kind: a `"kind"` key, a colon with
/// optional JSON whitespace on either side, then the string `"classify"`
/// (its closing quote keeps `classify_many` out). A cheap scan before the
/// parse, which decides; a frame it misses never reaches the splice lane.
fn names_classify(line: &str) -> bool {
    const KEY: &str = "\"kind\"";
    fn skip_space(text: &str) -> &str {
        text.trim_start_matches([' ', '\t', '\n', '\r'])
    }
    line.match_indices(KEY).any(|(at, _)| {
        skip_space(&line[at + KEY.len()..])
            .strip_prefix(':')
            .is_some_and(|value| skip_space(value).starts_with("\"classify\""))
    })
}

impl Service {
    /// Wraps an engine for serving.
    pub fn new(engine: Engine) -> Self {
        Service {
            engine,
            metrics: ServerMetrics::default(),
            trace: Arc::new(TraceSink::default()),
            started: Instant::now(),
            max_chunk_bytes: DEFAULT_MAX_CHUNK_BYTES,
            reply_splice: AtomicBool::new(true),
            shed: None,
            quota: None,
            snapshot_path: None,
            snapshot_write: Mutex::new(()),
        }
    }

    /// Configures admission control (load shedding and per-client quotas)
    /// from the CLI thresholds; an all-zero config leaves both disabled.
    pub fn with_admission(mut self, config: AdmissionConfig) -> Self {
        self.shed = ShedPolicy::new(&config);
        self.quota = QuotaLimiter::new(&config);
        self
    }

    /// Sets the warm-cache snapshot path: enables the `snapshot` request
    /// kind, the startup restore ([`Service::restore_cache_snapshot`]) and
    /// the shutdown write ([`Service::write_cache_snapshot`]).
    pub fn with_cache_snapshot_path(mut self, path: PathBuf) -> Self {
        self.snapshot_path = Some(path);
        self
    }

    /// The configured warm-cache snapshot path, if any.
    pub fn cache_snapshot_path(&self) -> Option<&Path> {
        self.snapshot_path.as_deref()
    }

    /// Replaces the trace sink (its slow-line emitter). Intended
    /// for construction time — traces already in flight keep the old sink.
    pub fn with_trace_sink(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = sink;
        self
    }

    /// Sets the ceiling on one serialized `solve_stream` chunk frame.
    /// Clamped to `1024 ..= MAX_FRAME_BYTES` so a chunk always fits a
    /// protocol frame and always carries at least one label.
    pub fn with_max_chunk_bytes(mut self, bytes: usize) -> Self {
        self.max_chunk_bytes = bytes.clamp(1024, MAX_FRAME_BYTES);
        self
    }

    /// The ceiling on one serialized `solve_stream` chunk frame.
    pub fn max_chunk_bytes(&self) -> usize {
        self.max_chunk_bytes
    }

    /// Builder form of [`Service::set_reply_splice`].
    pub fn with_reply_splice(self, enabled: bool) -> Self {
        self.set_reply_splice(enabled);
        self
    }

    /// Enables or disables the zero-serialization classify fast lane at
    /// runtime. Replies are byte-identical either way — the toggle only
    /// decides whether a hot hit re-serializes its verdict per frame — so
    /// flipping it mid-stream is safe; the `server_throughput` bench does
    /// exactly that to isolate the lane's cost.
    pub fn set_reply_splice(&self, enabled: bool) {
        self.reply_splice.store(enabled, Ordering::Relaxed);
    }

    /// Whether the zero-serialization classify fast lane is on.
    pub fn reply_splice(&self) -> bool {
        self.reply_splice.load(Ordering::Relaxed)
    }

    /// How many labels fit one chunk under [`Self::max_chunk_bytes`]: a
    /// label costs at most 6 wire bytes (`u16` digits plus comma), budgeted
    /// at 8 after reserving envelope overhead, so the serialized frame
    /// stays under the configured ceiling.
    fn chunk_nodes(&self) -> usize {
        (self.max_chunk_bytes.saturating_sub(128) / 8).max(1)
    }

    /// The engine behind this service.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The per-kind request counters.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The sink finished request traces land in (the `--trace-slow-micros`
    /// log threshold lives here).
    pub fn trace_sink(&self) -> &TraceSink {
        &self.trace
    }

    /// Reads every counter once — the request metrics, the engine's cache
    /// and pool counters and the server identity — into the one value both
    /// the `stats` reply and the metrics exposition are rendered from.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot(&self.engine, self.started.elapsed())
    }

    /// A stage trace for one request clocked from `started`, or `None` when
    /// detailed metrics are off (tracing shares the histogram gate: both
    /// are the observability work the no-op recorder mode elides).
    fn new_trace(&self, started: Instant, id: Option<i64>) -> Option<Arc<Trace>> {
        self.metrics
            .detailed()
            .then(|| Arc::new(Trace::new(Arc::clone(&self.trace), started, id)))
    }

    /// The admission decision for one frame, taken on its salvaged kind
    /// before it takes a pool job or a pipeline-window slot: `Some(reply)`
    /// — already accounted — when the frame must be rejected (per-peer
    /// quota exhausted, or the server is shedding load). Only compute kinds
    /// are ever denied (a frame whose kind cannot be salvaged is admitted:
    /// its reply is a parse error, not engine work worth shedding); the
    /// quota is consulted first so one greedy client is rejected
    /// individually before the global shed signals even matter.
    fn admission_denial(
        &self,
        line: &str,
        peer: Option<IpAddr>,
        started: Instant,
    ) -> Option<ResponseEnvelope> {
        if self.shed.is_none() && self.quota.is_none() {
            return None;
        }
        let kind_name = salvage_kind(line);
        let kind = RequestKind::from_wire_name(&kind_name).filter(|k| k.is_compute())?;
        let denial = self
            .quota
            .as_ref()
            .and_then(|quota| {
                let peer = peer.unwrap_or_else(QuotaLimiter::sentinel_peer);
                quota.admit(peer, Instant::now()).err()
            })
            .or_else(|| {
                let shed = self.shed.as_ref()?;
                let pool = self.engine.pool_stats();
                // The per-kind p99 comes from the detailed-metrics
                // histogram; with histograms off it reads 0 and the signal
                // is inert.
                let p99 = self.metrics.histogram(Some(kind)).quantile(0.99);
                shed.evaluate(pool.queue_depth, pool.workers, p99)
            })?;
        // Accounted symmetrically with served frames: the regular per-kind
        // count/error/latency record **plus** the shed tally, so
        // `shed_total` and the latency histograms always agree.
        self.metrics.record_shed(Some(kind));
        self.metrics.record(Some(kind), started.elapsed(), false);
        let reply = ErrorReply::overloaded(denial.message, denial.retry_after_millis);
        Some(ResponseEnvelope::error(salvage_id(line), kind_name, reply))
    }

    /// Handles one request frame in lock-step, returning exactly one
    /// response envelope: the body of a [`Service::dispatch`] pool job, run
    /// inline on the calling thread (no splice lane, no admission). Never
    /// panics on wire input. `solve_stream` chunk frames have nowhere to go
    /// in this shape and are discarded; the terminal summary is still
    /// computed and returned.
    pub fn handle_line(&self, line: &str) -> ResponseEnvelope {
        let started = Instant::now();
        // The trace finalizes into the sink when it drops here: lock-step
        // embedders cannot observe the write.
        let trace = self.new_trace(started, None);
        self.respond(
            Request::Line(line),
            started,
            &mut |_| true,
            trace.as_deref(),
        )
        .into_envelope()
    }

    /// Dispatches one request frame and returns the handle its reply
    /// arrives on, without blocking. This is the one entry point every
    /// front-end uses.
    ///
    /// Frames answerable on the calling thread come back as ready replies:
    /// an oversized frame's rejection, a cached `classify` hit (the splice
    /// lane), a `classify` miss classified within the inline lane's work
    /// slice, an admission rejection. Everything else becomes one pool job
    /// that executes and serializes the frame. A `classify` miss the inline
    /// lane did not finish moves the request the splice probe already
    /// parsed into its job, which continues from the stage the lane stopped
    /// before; any other frame is parsed by the job. The job delivers its frames
    /// over a bounded channel (depth 2): a streaming job whose consumer
    /// stops draining parks its pool worker until the writer catches up or
    /// drops the handle (which aborts the stream). The per-connection
    /// in-flight window bounds how many workers one slow peer can park.
    ///
    /// The caller must resolve the returned handles in dispatch order to
    /// uphold the protocol's per-connection reply-ordering guarantee.
    pub fn dispatch(self: &Arc<Self>, frame: Frame, origin: &Origin) -> PendingResponse {
        let line = match frame {
            Frame::Line(line) => line,
            Frame::Oversized { discarded, started } => {
                // The framing layer already discarded the line; `started`
                // is when it began arriving, so the drain is accounted.
                let reply = protocol_error(
                    None,
                    format!("frame exceeds {MAX_FRAME_BYTES} bytes ({discarded} bytes discarded)"),
                );
                self.metrics.record(None, started.elapsed(), false);
                return PendingResponse::ready(StreamFrame::Final(reply.into_json_string()), None);
            }
        };
        let started = Instant::now();
        let (parsed, declined) = match self.splice(&line, started) {
            Splice::Hit(frame, trace) => return PendingResponse::ready(frame, trace),
            Splice::Miss(parsed) => (Some(parsed), None),
            Splice::Declined(tree) => (None, Some(tree)),
            Splice::Pass => (None, None),
        };
        // A shed reply only occupies the connection's ordered-reply slot,
        // so it stays fast — and the server observable — however deep the
        // pool backlog is.
        if let Some(reply) = self.admission_denial(&line, origin.peer, started) {
            return PendingResponse::ready(StreamFrame::Final(reply.into_json_string()), None);
        }
        let (id, kind) = match &parsed {
            Some(parsed) => (Some(parsed.id), RequestKind::Classify.to_string()),
            None => (salvage_id(&line), salvage_kind(&line)),
        };
        // The trace is shared three ways: the job stamps queue → serialize,
        // the connection writer (via the PendingResponse) stamps the write,
        // and whichever Arc drops last finalizes it if nobody did.
        let trace = self.new_trace(started, id);
        if let (Some(trace), Some(_)) = (&trace, &parsed) {
            // A miss was parsed here, before the inline lane and any queue
            // wait.
            trace.mark_parsed(Some(RequestKind::Classify), id);
        }
        let parsed = match parsed {
            Some(parsed) => match self.classify_inline(parsed, started, trace.as_deref()) {
                Inline::Ready(frame) => return PendingResponse::ready(frame, trace),
                Inline::Pool(parsed) => Some(parsed),
            },
            None => None,
        };
        let service = Arc::clone(self);
        let job_trace = trace.clone();
        self.metrics.pipeline_enter();
        let (tx, rx) = mpsc::sync_channel::<StreamFrame>(STREAM_CHANNEL_DEPTH);
        let notify = origin.notify.clone();
        let job_notify = notify.clone();
        // The reply travels frame by frame through `tx`; the job has no
        // result channel of its own. The engine-side hook fires after the
        // job ends — even by panic, with `tx` already dropped — which is
        // what makes the synthesized error observable.
        self.engine.submit_notify(
            move || {
                let guard = PipelineGuard(service.metrics());
                let trace = job_trace.as_deref();
                if let Some(trace) = trace {
                    trace.mark_queue();
                }
                let mut emit = |frame: String| {
                    let delivered = tx.send(StreamFrame::Chunk(frame)).is_ok();
                    if let Some(notify) = &job_notify {
                        notify();
                    }
                    delivered
                };
                let request = match (parsed, declined) {
                    (Some(parsed), _) => Request::Classify(parsed),
                    (None, Some(tree)) => Request::Parsed(tree),
                    (None, None) => Request::Line(&line),
                };
                let reply = service
                    .respond(request, started, &mut emit, trace)
                    .into_frame();
                if let Some(trace) = trace {
                    trace.mark_serialized();
                }
                // The gauge must read as drained before the terminal frame
                // is observable (a panic unwinds the guard instead).
                drop(guard);
                let _ = tx.send(StreamFrame::Final(reply));
            },
            move || {
                if let Some(notify) = notify {
                    notify();
                }
            },
        );
        PendingResponse {
            reply: Reply::Job { rx, id, kind },
            trace,
        }
    }

    /// The request body every frame runs — on a pool worker for
    /// [`Service::dispatch`], inline for [`Service::handle_line`]: parse
    /// (unless the splice probe already did), execute, and record the
    /// latency metrics (from `started`, so dispatched requests account their
    /// pool-queue wait too), stamping the stage trace along the way. A raw
    /// frame that names `classify` goes to the `classify` front end
    /// ([`Service::read_classify`]) first; the tree parse runs only for
    /// other frames and for those the front end declines.
    fn respond(
        &self,
        request: Request<'_>,
        started: Instant,
        emit: &mut dyn FnMut(String) -> bool,
        trace: Option<&Trace>,
    ) -> Outcome {
        // A well-formed `classify` with its problem, or the tree parse.
        let parsed: Result<ParsedClassify, TreeParse> = match request {
            Request::Line(line) if names_classify(line) => match Self::read_classify(line) {
                Some(parsed) => {
                    if let Some(trace) = trace {
                        trace.mark_parsed(Some(RequestKind::Classify), Some(parsed.id));
                    }
                    Ok(parsed)
                }
                None => Err(self.parse(line)),
            },
            Request::Line(line) => Err(self.parse(line)),
            Request::Classify(parsed) => Ok(parsed),
            Request::Parsed(tree) => Err(tree),
        };
        let (kind, outcome) = match parsed {
            // Parsed, and its parse stage stamped, before this point.
            Ok(parsed) => (Some(RequestKind::Classify), self.classify(parsed, trace)),
            Err(Err(response)) => {
                if let Some(trace) = trace {
                    trace.mark_parsed(None, None);
                }
                (None, Outcome::Envelope(response))
            }
            Err(Ok((kind, envelope))) => {
                if let Some(trace) = trace {
                    trace.mark_parsed(Some(kind), Some(envelope.id));
                }
                (Some(kind), self.run(kind, &envelope, started, emit, trace))
            }
        };
        self.metrics
            .record(kind, started.elapsed(), outcome.is_ok());
        if let Some(trace) = trace {
            trace.mark_computed(outcome.is_ok());
        }
        outcome
    }

    /// The request front end for `classify` frames, shared by the splice
    /// probe and [`Service::respond`]: one pass of a JSON reader straight
    /// into the problem ([`RequestEnvelope::read_classify`]). `None` for
    /// anything it does not accept whole — the tree parse then runs, so
    /// every error reply and every other kind is what it always was.
    fn read_classify(line: &str) -> Option<ParsedClassify> {
        let (id, problem) = RequestEnvelope::read_classify(line)?;
        Some(ParsedClassify::new(id, problem))
    }

    /// Wraps one request's outcome in its reply envelope.
    fn envelope(id: i64, kind: RequestKind, result: Result<JsonValue, Error>) -> ResponseEnvelope {
        match result {
            Ok(payload) => ResponseEnvelope::ok(id, kind.wire_name(), payload),
            Err(e) => ResponseEnvelope::error(Some(id), kind.wire_name(), error_reply(&e)),
        }
    }

    /// Parses one frame up to (but not including) payload interpretation.
    /// Any failure comes back as the ready-to-send error response.
    fn parse(&self, line: &str) -> Result<(RequestKind, RequestEnvelope), ResponseEnvelope> {
        let value = JsonValue::parse(line)
            .map_err(|e| protocol_error(None, format!("malformed request frame: {e}")))?;
        // Salvage the request id if the envelope itself is broken, so the
        // client can still correlate the error.
        let salvaged_id = value.get("id").and_then(|v| v.as_int().ok());
        let envelope = RequestEnvelope::from_json(value)
            .map_err(|e| protocol_error(salvaged_id, e.to_string()))?;
        let Some(kind) = RequestKind::from_wire_name(&envelope.kind) else {
            return Err(ResponseEnvelope::error(
                Some(envelope.id),
                envelope.kind.clone(),
                ErrorReply::new(
                    "protocol",
                    format!(
                        "unknown request kind `{}` (expected classify, classify_many, \
                         solve, solve_stream, generate, stats, health, metrics or snapshot)",
                        envelope.kind
                    ),
                ),
            ));
        };
        Ok((kind, envelope))
    }

    fn run(
        &self,
        kind: RequestKind,
        envelope: &RequestEnvelope,
        started: Instant,
        emit: &mut dyn FnMut(String) -> bool,
        trace: Option<&Trace>,
    ) -> Outcome {
        let payload = &envelope.payload;
        let result = match kind {
            RequestKind::Classify => {
                return match Self::parse_problem(payload) {
                    Ok(problem) => self.classify(ParsedClassify::new(envelope.id, problem), trace),
                    Err(e) => Outcome::Envelope(Self::envelope(envelope.id, kind, Err(e))),
                }
            }
            RequestKind::ClassifyMany => self.classify_many(payload),
            RequestKind::Solve => self.solve(payload, trace),
            RequestKind::SolveStream => {
                self.solve_stream(envelope.id, payload, started, emit, trace)
            }
            RequestKind::Generate => self.generate(payload),
            RequestKind::Stats => self.stats(),
            RequestKind::Health => self.health(),
            RequestKind::Metrics => self.metrics_exposition(),
            RequestKind::Snapshot => self.snapshot(),
        };
        Outcome::Envelope(Self::envelope(envelope.id, kind, result))
    }

    fn parse_problem(payload: &JsonValue) -> Result<NormalizedLcl, Error> {
        let spec = payload.require("problem").map_err(ProblemError::from)?;
        Ok(ProblemSpec::from_json(spec)?.to_problem()?)
    }

    /// The zero-serialization classify fast lane of [`Service::dispatch`]:
    /// answers a `classify` frame whose classification is already cached
    /// entirely on the calling thread — no pool round-trip and, when the
    /// reply bytes are attached ([`Engine::cached_reply`]), no
    /// serialization either, just an id-splice ([`StreamFrame::Spliced`]).
    /// The frame is read by the `classify` front end
    /// ([`Service::read_classify`]), and by the tree parse only when the
    /// front end declines it.
    ///
    /// A well-formed `classify` whose problem is not cached comes back as
    /// [`Splice::Miss`] carrying the parsed request and its structural key,
    /// so the inline lane and any pool job classify without parsing the
    /// frame or building the key again. A frame that names
    /// `classify` but is not a well-formed one is [`Splice::Declined`],
    /// carrying the tree parse's result, so its pool job does not parse it
    /// again either. Every other frame — the splice toggle is off, or the
    /// frame does not name `classify` — is [`Splice::Pass`]: its pool job
    /// parses it. The pool job owns every error reply (errors are never
    /// cached, so they are never spliced).
    ///
    /// On [`Splice::Hit`], the request is fully accounted (latency metrics,
    /// stage trace), with the write stage left for the connection writer.
    fn splice(&self, line: &str, started: Instant) -> Splice {
        // Cheap scan before the parse: the lane only serves `classify`.
        if !self.reply_splice() || !names_classify(line) {
            return Splice::Pass;
        }
        let parsed = match Self::read_classify(line) {
            Some(parsed) => parsed,
            None => match self.parse(line) {
                Ok((RequestKind::Classify, envelope)) => {
                    match Self::parse_problem(&envelope.payload) {
                        Ok(problem) => ParsedClassify::new(envelope.id, problem),
                        Err(_) => return Splice::Declined(Ok((RequestKind::Classify, envelope))),
                    }
                }
                tree => return Splice::Declined(tree),
            },
        };
        // Only an already-cached classification is served here: a miss
        // goes on to the inline lane, taking this parse along. The render
        // closure only fires for a hit whose reply bytes are not attached
        // yet (then this request pays the one serialization every later hit
        // reuses).
        let (id, problem, hash) = (parsed.id, &parsed.problem, parsed.hash());
        let lane = self
            .engine
            .cached_reply_keyed(&parsed.key, problem, |classification| {
                let mut payload = String::with_capacity(320);
                write_verdict_payload(problem, hash, classification, &mut payload);
                payload.into_bytes()
            });
        let Some(lane) = lane else {
            return Splice::Miss(parsed);
        };
        let trace = self.new_trace(started, Some(id));
        if let Some(trace) = &trace {
            trace.mark_parsed(Some(RequestKind::Classify), Some(id));
            trace.set_problem(hash, Some(true));
            trace.mark_computed(true);
        }
        let frame = match lane {
            ReplyLane::Bytes(payload) => {
                self.metrics.record_spliced_frame();
                StreamFrame::Spliced(SplicedReply::new(id, payload))
            }
            // The cached bytes were rendered for a structural twin under a
            // different problem name; serve this name a fresh serialization
            // so the reply stays byte-identical to the slow path.
            ReplyLane::Render(classification) => {
                StreamFrame::Final(classify_frame(id, problem, hash, &classification))
            }
        };
        if let Some(trace) = &trace {
            trace.mark_serialized();
        }
        self.metrics
            .record(Some(RequestKind::Classify), started.elapsed(), true);
        Splice::Hit(frame, trace)
    }

    /// The inline classify lane of [`Service::dispatch`]: a `classify`
    /// miss runs its classification stages on the calling thread while its
    /// [`WorkMeter`] is under [`CLASSIFY_SLICE_UNITS`], each stage capped at
    /// [`CLASSIFY_STAGE_CAP_UNITS`] ([`Engine::classify_inline`]). A
    /// classification done here is a ready reply, accounted here; otherwise
    /// the request goes to a pool job, which resumes the flight this lane
    /// parked or, when another thread holds the key's flight, joins it. The
    /// lane never waits on another thread, and a panic here never unwinds
    /// into the caller: the reply is then the error a pool job that died
    /// would have produced.
    fn classify_inline(
        &self,
        mut parsed: ParsedClassify,
        started: Instant,
        trace: Option<&Trace>,
    ) -> Inline {
        let lane = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut meter = WorkMeter::new(CLASSIFY_SLICE_UNITS, CLASSIFY_STAGE_CAP_UNITS);
            match self
                .engine
                .classify_inline(&parsed.key, &parsed.problem, &mut meter)
            {
                Lane::Done {
                    classification,
                    hit,
                } => {
                    let hash = parsed.hash();
                    if let Some(trace) = trace {
                        trace.set_problem(hash, Some(hit));
                        trace.mark_computed(true);
                    }
                    let frame = classify_frame(parsed.id, &parsed.problem, hash, &classification);
                    if let Some(trace) = trace {
                        trace.mark_serialized();
                    }
                    Ok(frame)
                }
                Lane::Parked(stage) => {
                    parsed.parked = true;
                    Err(stage)
                }
                // Nothing ran here: the pool job starts from the first
                // stage.
                Lane::Pool => Err(Stage::Types),
            }
        }));
        match lane {
            Ok(Ok(frame)) => {
                self.metrics.record_classify_lane(None);
                self.metrics
                    .record(Some(RequestKind::Classify), started.elapsed(), true);
                Inline::Ready(StreamFrame::Final(frame))
            }
            Ok(Err(stage)) => {
                self.metrics.record_classify_lane(Some(stage));
                Inline::Pool(parsed)
            }
            Err(_) => Inline::Ready(dropped_reply(
                Some(parsed.id),
                RequestKind::Classify.wire_name(),
            )),
        }
    }

    fn classify(&self, parsed: ParsedClassify, trace: Option<&Trace>) -> Outcome {
        let hash = parsed.hash();
        let ParsedClassify {
            id,
            problem,
            key,
            parked,
        } = parsed;
        // The hit flag comes from the classify call itself
        // ([`Engine::classify_keyed`]) — probing the cache separately would
        // count a phantom hit and refresh the LRU. A request whose own
        // flight the inline lane parked resumes it: its miss is counted.
        let result = if parked {
            self.engine
                .resume(&key, &problem)
                .map(|classification| (classification, false))
        } else {
            self.engine.classify_keyed(&key, &problem)
        };
        match result {
            Ok((classification, hit)) => {
                if let Some(trace) = trace {
                    trace.set_problem(hash, Some(hit));
                }
                Outcome::Classified {
                    id,
                    problem,
                    hash,
                    classification,
                }
            }
            Err(e) => Outcome::Envelope(Self::envelope(id, RequestKind::Classify, Err(e.into()))),
        }
    }

    /// Classifies a batch sequentially on this thread (the memo cache still
    /// deduplicates repeats): fanning it back out onto the pool from a
    /// worker could deadlock a narrow pool, and under pipelining the
    /// parallelism comes from concurrent requests instead. One malformed
    /// spec does not fail the batch: every item gets its own outcome.
    fn classify_many(&self, payload: &JsonValue) -> Result<JsonValue, Error> {
        let items = payload
            .require("problems")
            .and_then(|v| v.as_array())
            .map_err(ProblemError::from)?;
        let classify_one = |item: &JsonValue| -> Result<JsonValue, Error> {
            let problem = ProblemSpec::from_json(item)?.to_problem()?;
            let classification = self.engine.classify(&problem)?;
            Ok(Verdict::new(&problem, &classification).to_json())
        };
        let verdicts: Vec<JsonValue> = items
            .iter()
            .map(|item| match classify_one(item) {
                Ok(verdict) => {
                    JsonValue::object([("ok", JsonValue::Bool(true)), ("verdict", verdict)])
                }
                Err(e) => JsonValue::object([
                    ("ok", JsonValue::Bool(false)),
                    ("error", error_reply(&e).to_json()),
                ]),
            })
            .collect();
        Ok(JsonValue::object([
            ("count", JsonValue::Int(verdicts.len() as i64)),
            ("verdicts", JsonValue::Array(verdicts)),
        ]))
    }

    fn solve(&self, payload: &JsonValue, trace: Option<&Trace>) -> Result<JsonValue, Error> {
        let problem = Self::parse_problem(payload)?;
        // One walk of the constraint tables: the key classifies, and its
        // digest is the trace's problem hash.
        let key = problem.structural_key();
        if let Some(trace) = trace {
            trace.set_problem(NormalizedLcl::hash_of_key(&key), None);
        }
        let instance =
            Instance::from_json(payload.require("instance").map_err(ProblemError::from)?)?;
        let solution = self.engine.solve_keyed(&key, &problem, &instance)?;
        Ok(JsonValue::object([
            (
                "complexity",
                JsonValue::Str(solution.complexity().wire_name().to_string()),
            ),
            ("rounds", JsonValue::Int(solution.rounds() as i64)),
            (
                "labeling",
                JsonValue::object([(
                    "outputs",
                    JsonValue::int_array(
                        solution.labeling().outputs().iter().map(|l| i64::from(l.0)),
                    ),
                )]),
            ),
        ]))
    }

    /// Labels a streamed instance chunk by chunk: each slice of outputs
    /// goes out through `emit` as its own already-serialized `solve_stream`
    /// frame (`{"offset", "outputs", "seq"}`), and the returned payload is
    /// the terminal summary (`{"complexity", "done", "nodes", "rounds",
    /// "seq"}`). The instance is never materialized — memory stays
    /// O(chunk + radius) whatever `length` says ([`StreamSolution`]).
    ///
    /// [`StreamSolution`]: lcl_paths::classifier::StreamSolution
    fn solve_stream(
        &self,
        id: i64,
        payload: &JsonValue,
        started: Instant,
        emit: &mut dyn FnMut(String) -> bool,
        trace: Option<&Trace>,
    ) -> Result<JsonValue, Error> {
        let problem = Self::parse_problem(payload)?;
        let key = problem.structural_key();
        if let Some(trace) = trace {
            trace.set_problem(NormalizedLcl::hash_of_key(&key), None);
        }
        let spec = StreamInstanceSpec::from_json(
            payload.require("instance").map_err(ProblemError::from)?,
        )?;
        let mut solution = self.engine.solve_stream_keyed(&key, &problem, &spec)?;
        let chunk_nodes = self.chunk_nodes();
        let mut seq = 0i64;
        let mut offset = 0i64;
        while let Some(chunk) = solution.next_chunk(chunk_nodes) {
            let outputs = chunk?;
            let frame = ResponseEnvelope::ok(
                id,
                RequestKind::SolveStream.wire_name(),
                JsonValue::object([
                    ("offset", JsonValue::Int(offset)),
                    (
                        "outputs",
                        JsonValue::int_array(outputs.iter().map(|l| i64::from(l.0))),
                    ),
                    ("seq", JsonValue::Int(seq)),
                ]),
            )
            .into_json_string();
            offset += outputs.len() as i64;
            if seq == 0 {
                // Time-to-first-chunk — from frame read (pool queue wait
                // included) to the first chunk leaving the handler. The
                // per-kind solve_stream histogram records the full drain,
                // which for a big instance is dominated by backpressure.
                self.metrics.record_stream_first_chunk(started.elapsed());
            }
            seq += 1;
            if !emit(frame) {
                return Err(Error::Classifier(ClassifierError::Internal {
                    what: "solve_stream peer went away mid-stream; labeling aborted".to_string(),
                }));
            }
        }
        Ok(JsonValue::object([
            (
                "complexity",
                JsonValue::Str(solution.complexity().wire_name().to_string()),
            ),
            ("done", JsonValue::Bool(true)),
            ("nodes", JsonValue::Int(solution.nodes() as i64)),
            ("rounds", JsonValue::Int(solution.rounds() as i64)),
            ("seq", JsonValue::Int(seq)),
        ]))
    }

    /// Deterministically generates an LCL problem from a seeded config: the
    /// reply carries the full problem spec — ready to feed straight back
    /// into `classify` or `solve` — plus its canonical hash, so both ends
    /// of a differential harness can cheaply agree on what was produced.
    fn generate(&self, payload: &JsonValue) -> Result<JsonValue, Error> {
        let config = GenConfig::from_json(payload)?;
        let problem = lcl_paths::gen::generate(&config)?;
        Ok(JsonValue::object([
            (
                "canonical_hash",
                JsonValue::Str(format!("{:016x}", problem.canonical_hash())),
            ),
            (
                "family",
                JsonValue::Str(config.family.wire_name().to_string()),
            ),
            ("problem", problem.to_spec().to_json()),
            ("seed", JsonValue::Int(config.seed as i64)),
        ]))
    }

    /// The `metrics` kind: the same counters the `stats` JSON reports, as
    /// one plaintext metrics exposition document ([`crate::expo`]) inside
    /// the reply payload. This is the transport-independent scrape path —
    /// the `--metrics-addr` HTTP listener serves the identical document.
    fn metrics_exposition(&self) -> Result<JsonValue, Error> {
        Ok(JsonValue::object([(
            "exposition",
            JsonValue::Str(crate::expo::render_exposition(&self.metrics_snapshot())),
        )]))
    }

    /// The `snapshot` kind: writes the warm-cache snapshot to the
    /// configured `--cache-snapshot` path and reports what was written.
    /// Always admitted (a control kind): checkpointing must work exactly
    /// when the server is overloaded and about to be restarted.
    fn snapshot(&self) -> Result<JsonValue, Error> {
        let Some(path) = &self.snapshot_path else {
            return Err(Error::Classifier(ClassifierError::Internal {
                what: "no cache snapshot path configured \
                       (start the server with --cache-snapshot PATH)"
                    .to_string(),
            }));
        };
        let write = self.write_snapshot_to(path).map_err(|e| {
            Error::Classifier(ClassifierError::Internal {
                what: format!("cache snapshot write to {} failed: {e}", path.display()),
            })
        })?;
        Ok(JsonValue::object([
            ("bytes", JsonValue::Int(write.bytes as i64)),
            ("entries", JsonValue::Int(write.entries as i64)),
            ("path", JsonValue::Str(path.display().to_string())),
        ]))
    }

    /// Serializes the engine's cache and writes it to `path` via a synced
    /// temp file + rename, so a concurrent reader (or a crash mid-write)
    /// never observes a torn document. Concurrent writers take turns, and
    /// the last to rename wrote the latest capture.
    fn write_snapshot_to(&self, path: &Path) -> io::Result<SnapshotWrite> {
        let _turn = self
            .snapshot_write
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let document = self.engine.snapshot_document();
        // Header and checksum trailer aside, one line per entry.
        let entries = document.lines().count().saturating_sub(2);
        let bytes = document.len();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(document.as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(SnapshotWrite { entries, bytes })
    }

    /// Writes the warm-cache snapshot to the configured path, returning a
    /// loggable summary; `None` when no path is configured. This is the
    /// graceful-shutdown write of `lcl-serve` (the `snapshot` request kind
    /// serves the same document on demand).
    pub fn write_cache_snapshot(&self) -> Option<io::Result<String>> {
        let path = self.snapshot_path.as_ref()?;
        Some(self.write_snapshot_to(path).map(|write| {
            format!(
                "wrote {} cache entries ({} bytes) to {}",
                write.entries,
                write.bytes,
                path.display()
            )
        }))
    }

    /// Restores the warm cache from the configured snapshot path at
    /// startup. `None` when no path is configured **or** the file does not
    /// exist yet (a fresh deployment); `Some(Err(…))` describes a corrupt,
    /// truncated or version-skewed document — the caller logs it and
    /// serves on with a cold cache, never fails.
    pub fn restore_cache_snapshot(&self) -> Option<std::result::Result<String, String>> {
        let path = self.snapshot_path.as_ref()?;
        let document = match std::fs::read_to_string(path) {
            Ok(document) => document,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(e) => {
                return Some(Err(format!(
                    "could not read cache snapshot {}: {e}",
                    path.display()
                )))
            }
        };
        Some(match self.engine.restore_snapshot(&document) {
            Ok(report) => Ok(format!("{report} from {}", path.display())),
            Err(e) => Err(format!("ignoring cache snapshot {}: {e}", path.display())),
        })
    }

    /// The `stats` kind: the [`MetricsSnapshot`] as JSON.
    fn stats(&self) -> Result<JsonValue, Error> {
        Ok(crate::metrics::stats_payload(&self.metrics_snapshot()))
    }

    fn health(&self) -> Result<JsonValue, Error> {
        Ok(JsonValue::object([
            ("status", JsonValue::Str("ok".to_string())),
            ("protocol", JsonValue::Int(PROTOCOL_VERSION)),
            ("workers", JsonValue::Int(self.engine.parallelism() as i64)),
            (
                "requests_served",
                JsonValue::Int(self.metrics_snapshot().requests_served() as i64),
            ),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_paths::problems;

    fn service() -> Service {
        Service::new(Engine::builder().parallelism(2).build())
    }

    /// Dispatches `line` as a frame from `origin`.
    fn dispatch_from(service: &Arc<Service>, line: String, origin: &Origin) -> PendingResponse {
        service.dispatch(Frame::Line(line), origin)
    }

    fn dispatch(service: &Arc<Service>, line: String) -> PendingResponse {
        dispatch_from(service, line, &Origin::default())
    }

    /// The lock-step reply to `line`, serialized.
    fn lock_step(service: &Service, line: &str) -> String {
        service.handle_line(line).into_json_string()
    }

    fn classify_line(id: i64) -> String {
        let payload = JsonValue::object([("problem", problems::coloring(3).to_spec().to_json())]);
        RequestEnvelope::new(id, "classify", payload).to_json_string()
    }

    #[test]
    fn dispatch_resolves_every_frame_to_one_reply() {
        let service = Arc::new(service());

        // Well-formed cheap kind.
        let health = dispatch(&service, r#"{"v":1,"id":1,"kind":"health"}"#.to_string()).wait();
        let health = ResponseEnvelope::from_json_str(&health).expect("reply parses");
        assert_eq!(health.id, Some(1));
        assert!(health.is_ok());

        // Unparseable frames still get their structured reply through the
        // same deferred path.
        let garbage = dispatch(&service, "not json at all".to_string()).wait();
        let garbage = ResponseEnvelope::from_json_str(&garbage).expect("reply parses");
        assert_eq!(garbage.id, None);
        assert_eq!(garbage.result.unwrap_err().category, "protocol");

        // A classify runs parse + classification + serialization on the
        // pool and is byte-identical to the lock-step reply.
        let deferred = dispatch(&service, classify_line(5)).wait();
        let parsed = ResponseEnvelope::from_json_str(&deferred).expect("reply parses");
        assert_eq!(parsed.id, Some(5), "request id echoed");
        assert!(parsed.is_ok());
        assert_eq!(
            deferred,
            lock_step(&service, &classify_line(5)),
            "deferred and lock-step replies must serialize identically"
        );

        // The window gauge drained and recorded its high-water mark.
        assert_eq!(service.metrics_snapshot().pipeline_inflight, 0);
        assert!(service.metrics_snapshot().pipeline_peak >= 1);

        // An oversized frame's rejection is ready on return, accounted
        // under `invalid`.
        let mut oversized = service.dispatch(
            Frame::Oversized {
                discarded: MAX_FRAME_BYTES + 1,
                started: Instant::now(),
            },
            &Origin::default(),
        );
        let StreamFrame::Final(line) = oversized.try_frame().expect("ready on return") else {
            panic!("an oversized rejection is one final frame");
        };
        let error = ResponseEnvelope::from_json_str(&line)
            .unwrap()
            .result
            .unwrap_err();
        assert_eq!(error.category, "protocol");
        assert!(error.message.contains("exceeds"), "{}", error.message);
        assert_eq!(service.metrics_snapshot().kind(None).errors, 2);
    }

    #[test]
    fn dispatch_splices_hot_classify_hits_byte_identically() {
        let service = Arc::new(service());

        // Cold: the miss runs on the pool; nothing to splice yet.
        let cold = dispatch(&service, classify_line(1)).wait();
        assert!(ResponseEnvelope::from_json_str(&cold).unwrap().is_ok());
        assert_eq!(service.metrics().spliced_frames(), 0);

        // First hot hit: resolved on the calling thread — ready before
        // dispatch returns; this request pays the one render that attaches
        // the reply bytes (a bytes miss), and its frame is already spliced.
        let mut pending = dispatch(&service, classify_line(2));
        let spliced = match pending.try_frame().expect("ready on return") {
            StreamFrame::Spliced(spliced) => spliced,
            other => panic!("expected a spliced frame, got {other:?}"),
        };
        assert_eq!(
            spliced.to_frame_string(),
            lock_step(&service, &classify_line(2)),
            "spliced frame must be byte-identical to the canonical serializer"
        );
        assert_eq!(service.metrics().spliced_frames(), 1);
        assert_eq!(service.engine().cache_stats().bytes_misses, 1);

        // Second hot hit reuses the attached bytes: a bytes hit, shared
        // payload, still byte-identical modulo the spliced id.
        let again = dispatch(&service, classify_line(-3)).wait();
        assert_eq!(again, lock_step(&service, &classify_line(-3)));
        assert_eq!(service.metrics().spliced_frames(), 2);
        assert_eq!(service.engine().cache_stats().bytes_hits, 1);

        // The lane never takes a pipeline-window slot.
        assert_eq!(service.metrics_snapshot().pipeline_inflight, 0);

        // Toggled off, the same hot frame goes through the pool and still
        // serializes identically — the lane is invisible on the wire.
        service.set_reply_splice(false);
        let slow = dispatch(&service, classify_line(4)).wait();
        assert_eq!(slow, lock_step(&service, &classify_line(4)));
        assert_eq!(service.metrics().spliced_frames(), 2, "lane was off");
    }

    #[test]
    fn spaced_kind_members_reach_the_splice_lane() {
        for (line, classify) in [
            (r#"{"kind":"classify"}"#, true),
            (r#"{"kind": "classify"}"#, true),
            ("{\"kind\" \t:\r\n \"classify\"}", true),
            (r#"{"id":"kind","kind" : "classify"}"#, true),
            (r#"{"kind":"classify_many"}"#, false),
            (r#"{"kind": "classify_many"}"#, false),
            (r#"{"kind": "health"}"#, false),
            (r#"{"kind" "classify"}"#, false),
            (r#"{"kinds": "classify"}"#, false),
        ] {
            assert_eq!(names_classify(line), classify, "{line}");
        }

        // Three canonical frames of one problem: a miss, then two spliced
        // hits. Frames spelled with `": "` are hits the lane splices too,
        // byte-identical to the lock-step path.
        let service = Arc::new(service());
        let cold = dispatch(&service, classify_line(1)).wait();
        assert!(ResponseEnvelope::from_json_str(&cold).unwrap().is_ok());
        for id in 2..=3 {
            assert_eq!(
                dispatch(&service, classify_line(id)).wait(),
                lock_step(&service, &classify_line(id))
            );
        }
        assert_eq!(service.metrics().spliced_frames(), 2);
        for id in 4..=6 {
            let spaced = classify_line(id).replace("\":", "\": ");
            assert!(spaced.contains("\"kind\": \"classify\""), "{spaced}");
            let mut pending = dispatch(&service, spaced.clone());
            let Some(StreamFrame::Spliced(spliced)) = pending.try_frame() else {
                panic!("{spaced}: not spliced on the calling thread");
            };
            assert_eq!(spliced.to_frame_string(), lock_step(&service, &spaced));
        }
        assert_eq!(service.metrics().spliced_frames(), 5);
    }

    /// A classify frame of 3-coloring with one spec field replaced.
    fn classify_line_with(id: i64, field: &str, value: JsonValue) -> String {
        let JsonValue::Object(mut spec) = problems::coloring(3).to_spec().to_json() else {
            panic!("a spec is an object");
        };
        spec.insert(field.to_string(), value);
        let payload = JsonValue::object([("problem", JsonValue::Object(spec))]);
        RequestEnvelope::new(id, "classify", payload).to_json_string()
    }

    #[test]
    fn a_classify_miss_hands_its_parse_to_the_pool_job() {
        let lines = Arc::new(Mutex::new(Vec::new()));
        let captured = Arc::clone(&lines);
        let sink = Arc::new(TraceSink::with_emitter(move |line| {
            captured.lock().unwrap().push(line.to_string());
        }));
        sink.set_slow_micros(Some(1));
        let handed = Arc::new(service().with_trace_sink(sink));
        let unspliced = Arc::new(service().with_reply_splice(false));
        let lock_stepped = service();

        let bad_label = classify_line_with(
            2,
            "edge_pairs",
            JsonValue::Array(vec![JsonValue::int_array([0, 9])]),
        );
        let empty_alphabet = classify_line_with(
            3,
            "input_labels",
            JsonValue::str_array(Vec::<String>::new()),
        );
        // The probe hands over the parse of a well-formed cold classify,
        // and the tree parse of a malformed classify frame or problem;
        // other kinds pass to the pool unparsed.
        assert!(matches!(
            handed.splice(&classify_line(1), Instant::now()),
            Splice::Miss(ParsedClassify { id: 1, .. })
        ));
        assert!(matches!(
            handed.splice(r#"{"v":1,"id":1,"kind":"health"}"#, Instant::now()),
            Splice::Pass
        ));
        assert!(matches!(
            handed.splice(r#"{"v":1,"id":1,"kind":"classify""#, Instant::now()),
            Splice::Declined(Err(_))
        ));
        for line in [&bad_label, &empty_alphabet] {
            assert!(
                matches!(
                    handed.splice(line, Instant::now()),
                    Splice::Declined(Ok((RequestKind::Classify, _)))
                ),
                "{line}"
            );
        }

        // The handed-over miss: its slow-trace record reports the parse
        // the dispatching thread did as parse, not as queue wait.
        let mut pending = dispatch(&handed, classify_line(5));
        let trace = pending.trace.take().expect("detailed metrics are on");
        let StreamFrame::Final(cold) = pending.wait_frame() else {
            panic!("a miss replies from its pool job");
        };
        trace.finish_written();
        let record = JsonValue::parse(&lines.lock().unwrap()[0]).unwrap();
        let field = |name: &str| record.require(name).unwrap().as_int().unwrap();
        assert_eq!(field("id"), 5);
        assert!(!record.require("cache_hit").unwrap().as_bool().unwrap());
        assert!(field("parse_micros") > 0, "{record:?}");
        assert!(field("parse_micros") + field("queue_micros") <= field("total_micros"));
        assert_eq!(cold, dispatch(&unspliced, classify_line(5)).wait());
        assert_eq!(cold, lock_step(&lock_stepped, &classify_line(5)));

        // Every path gives the same bytes (an error for a bad problem),
        // and each frame counts exactly once.
        let spaced = classify_line(6).replace(',', ", ");
        for (line, ok) in [
            (classify_line(6), true),
            (spaced, true),
            (bad_label, false),
            (empty_alphabet, false),
        ] {
            let served = |service: &Service| {
                let snapshot = service.metrics_snapshot();
                (
                    snapshot.requests_served(),
                    snapshot.kind(Some(RequestKind::Classify)).count,
                )
            };
            let before = served(&handed);
            let reply = dispatch(&handed, line.clone()).wait();
            assert_eq!(served(&handed), (before.0 + 1, before.1 + 1), "{line}");
            assert_eq!(reply, dispatch(&unspliced, line.clone()).wait(), "{line}");
            assert_eq!(reply, lock_step(&lock_stepped, &line), "{line}");
            match ResponseEnvelope::from_json_str(&reply).unwrap().result {
                Ok(_) => assert!(ok, "{line}"),
                Err(error) => assert!(!ok && error.category == "problem", "{reply}"),
            }
        }
    }

    #[test]
    fn pending_response_synthesizes_an_error_when_the_job_dies() {
        // Build the handle by hand with a dropped sender: exactly what the
        // writer observes after a job panic.
        let (tx, rx) = mpsc::sync_channel::<StreamFrame>(STREAM_CHANNEL_DEPTH);
        drop(tx);
        let pending = PendingResponse {
            reply: Reply::Job {
                rx,
                id: Some(77),
                kind: "classify".to_string(),
            },
            trace: None,
        };
        let reply = ResponseEnvelope::from_json_str(&pending.wait()).expect("reply parses");
        assert_eq!(
            reply.id,
            Some(77),
            "salvaged id labels the synthesized reply"
        );
        assert_eq!(reply.kind, "classify");
        let error = reply.result.unwrap_err();
        assert_eq!(error.category, "internal");
        assert!(error.message.contains("panicked"), "{}", error.message);
    }

    #[test]
    fn salvage_scans_are_best_effort_but_robust() {
        assert_eq!(salvage_id(r#"{"v":1,"id":42,"kind":"solve"}"#), Some(42));
        assert_eq!(salvage_id(r#"{"id": -7}"#), Some(-7));
        assert_eq!(salvage_id("not json"), None);
        assert_eq!(salvage_id(r#"{"id":"text"}"#), None);
        assert_eq!(salvage_kind(r#"{"kind":"classify_many"}"#), "classify_many");
        assert_eq!(salvage_kind("garbage"), "invalid");
    }

    #[test]
    fn classify_roundtrip_matches_in_process_verdict() {
        let service = service();
        let response = service.handle_line(&classify_line(7));
        assert_eq!(response.id, Some(7));
        assert_eq!(response.kind, "classify");
        let payload = response.result.expect("classification succeeds");
        let wire = payload.require("verdict").unwrap().to_json_string();
        let local = Engine::new()
            .verdict(&problems::coloring(3))
            .unwrap()
            .to_json_string();
        assert_eq!(wire, local, "wire verdict must be byte-identical");
    }

    #[test]
    fn unknown_kind_and_bad_frames_get_structured_errors() {
        let service = service();

        let garbage = service.handle_line("not json at all");
        assert!(!garbage.is_ok());
        assert_eq!(garbage.id, None);
        assert_eq!(garbage.result.unwrap_err().category, "protocol");

        let wrong_version = service.handle_line(r#"{"v":9,"id":4,"kind":"health"}"#);
        assert_eq!(wrong_version.id, Some(4), "id salvaged from bad envelope");
        assert!(!wrong_version.is_ok());

        let unknown = service.handle_line(r#"{"v":1,"id":5,"kind":"shutdown"}"#);
        assert_eq!(unknown.id, Some(5));
        let error = unknown.result.unwrap_err();
        assert_eq!(error.category, "protocol");
        assert!(error.message.contains("shutdown"), "{}", error.message);

        // Domain errors carry the failing subsystem's category.
        let bad_payload = service.handle_line(r#"{"v":1,"id":6,"kind":"classify","payload":{}}"#);
        assert_eq!(bad_payload.result.unwrap_err().category, "problem");

        // The invalid frames were accounted, and the service still works.
        assert!(service.metrics_snapshot().kind(None).errors >= 2);
        assert!(service.handle_line(&classify_line(8)).is_ok());
    }

    #[test]
    fn stats_and_health_report_engine_state() {
        let service = service();
        assert!(service.handle_line(&classify_line(1)).is_ok());
        assert!(service.handle_line(&classify_line(2)).is_ok()); // cache hit

        let health = service.handle_line(r#"{"v":1,"id":3,"kind":"health"}"#);
        let payload = health.result.expect("health is ok");
        assert_eq!(payload.require("status").unwrap().as_str().unwrap(), "ok");
        assert_eq!(
            payload.require("protocol").unwrap().as_int().unwrap(),
            PROTOCOL_VERSION
        );

        let stats = service.handle_line(r#"{"v":1,"id":4,"kind":"stats"}"#);
        let payload = stats.result.expect("stats is ok");
        let cache = payload.require("cache").unwrap();
        assert_eq!(cache.require("hits").unwrap().as_int().unwrap(), 1);
        assert_eq!(cache.require("misses").unwrap().as_int().unwrap(), 1);
        assert_eq!(cache.require("inserts").unwrap().as_int().unwrap(), 1);
        // The single classification elected one single-flight leader; the
        // repeat was a plain hit, not a join.
        assert_eq!(
            cache.require("flight_leaders").unwrap().as_int().unwrap(),
            1
        );
        assert_eq!(cache.require("flight_joins").unwrap().as_int().unwrap(), 0);
        assert_eq!(cache.require("peak_entries").unwrap().as_int().unwrap(), 1);
        for removed in ["fast_hits", "locked_hits", "shards"] {
            assert!(cache.require(removed).is_err(), "{removed} is gone");
        }
        // The snapshot invariant the one-critical-section read guarantees.
        assert_eq!(
            cache.require("entries").unwrap().as_int().unwrap()
                + cache.require("evictions").unwrap().as_int().unwrap(),
            cache.require("inserts").unwrap().as_int().unwrap()
        );
        let summary = cache.require("summary").unwrap().as_str().unwrap();
        assert!(summary.contains("1 hits"), "{summary}");
        let pool = payload.require("pool").unwrap();
        assert_eq!(pool.require("workers").unwrap().as_int().unwrap(), 2);
        let server = payload.require("server").unwrap();
        assert!(server.require("requests_served").unwrap().as_int().unwrap() >= 3);
    }

    #[test]
    fn solve_executes_on_the_instance() {
        let service = service();
        let payload = JsonValue::object([
            ("problem", problems::coloring(3).to_spec().to_json()),
            (
                "instance",
                Instance::from_indices(lcl_paths::problem::Topology::Cycle, &[0; 24]).to_json(),
            ),
        ]);
        let line = RequestEnvelope::new(9, "solve", payload).to_json_string();
        let response = service.handle_line(&line);
        let payload = response.result.expect("solve succeeds");
        assert_eq!(
            payload.require("complexity").unwrap().as_str().unwrap(),
            "log-star"
        );
        let outputs = payload
            .require("labeling")
            .unwrap()
            .require("outputs")
            .unwrap();
        assert_eq!(outputs.as_array().unwrap().len(), 24);
    }

    /// A `solve` and a `solve_stream` line for `problem` on a 40-node cycle
    /// with uniform input.
    fn solve_lines(problem: &NormalizedLcl, id: i64) -> [String; 2] {
        let with_instance = |instance: JsonValue| {
            JsonValue::object([
                ("problem", problem.to_spec().to_json()),
                ("instance", instance),
            ])
        };
        let cycle = lcl_paths::problem::Topology::Cycle;
        let instance = Instance::from_indices(cycle, &[0; 40]).to_json();
        let stream = lcl_paths::problem::StreamInstanceSpec {
            topology: cycle,
            length: 40,
            inputs: lcl_paths::problem::StreamInputs::Uniform { label: 0 },
        };
        [
            RequestEnvelope::new(id, "solve", with_instance(instance)).to_json_string(),
            RequestEnvelope::new(id + 1, "solve_stream", with_instance(stream.to_json()))
                .to_json_string(),
        ]
    }

    #[test]
    fn keyed_solves_reply_as_the_engine_solves_and_trace_the_canonical_hash() {
        let lines = Arc::new(Mutex::new(Vec::new()));
        let captured = Arc::clone(&lines);
        let sink = Arc::new(TraceSink::with_emitter(move |line| {
            captured.lock().unwrap().push(line.to_string());
        }));
        sink.set_slow_micros(Some(1));
        let traced = service().with_trace_sink(sink);
        let plain = service();
        // Every frame the service writes for a line, stream chunks first.
        let frames = |service: &Service, line: &str| {
            let mut frames = Vec::new();
            let started = Instant::now();
            let trace = service.new_trace(started, None);
            let mut emit = |frame| {
                frames.push(frame);
                true
            };
            let reply = service.respond(Request::Line(line), started, &mut emit, trace.as_deref());
            frames.push(reply.into_envelope().into_json_string());
            frames
        };
        let engine = Engine::builder().parallelism(1).build();
        for (i, problem) in [problems::coloring(3), problems::coloring(5)]
            .iter()
            .enumerate()
        {
            let [solve, stream] = solve_lines(problem, 10 * i as i64);
            for line in [&solve, &stream] {
                let before = lines.lock().unwrap().len();
                let got = frames(&traced, line);
                assert_eq!(got, frames(&plain, line), "{line}");
                let record = JsonValue::parse(&lines.lock().unwrap()[before]).unwrap();
                assert_eq!(
                    record.require("problem_hash").unwrap().as_str().unwrap(),
                    format!("{:016x}", problem.canonical_hash()),
                    "{line}"
                );
            }
            // The solve reply is the unkeyed engine solve's.
            let instance = Instance::from_indices(lcl_paths::problem::Topology::Cycle, &[0; 40]);
            let solution = engine.solve(problem, &instance).unwrap();
            let reply = ResponseEnvelope::from_json_str(&frames(&plain, &solve)[0]).unwrap();
            let payload = reply.result.expect("solve succeeds");
            let outputs: Vec<i64> = solution
                .labeling()
                .outputs()
                .iter()
                .map(|l| i64::from(l.0))
                .collect();
            assert_eq!(
                payload
                    .require("labeling")
                    .unwrap()
                    .require("outputs")
                    .unwrap(),
                &JsonValue::int_array(outputs.iter().copied())
            );
            assert_eq!(
                payload.require("rounds").unwrap().as_int().unwrap(),
                solution.rounds() as i64
            );
            // The streamed labels are the unkeyed engine stream's.
            let spec = lcl_paths::problem::StreamInstanceSpec {
                topology: lcl_paths::problem::Topology::Cycle,
                length: 40,
                inputs: lcl_paths::problem::StreamInputs::Uniform { label: 0 },
            };
            let mut cursor = engine.solve_stream(problem, &spec).unwrap();
            let mut streamed = Vec::new();
            while let Some(chunk) = cursor.next_chunk(64) {
                streamed.extend(chunk.unwrap().iter().map(|l| i64::from(l.0)));
            }
            let mut wire = Vec::new();
            for frame in &frames(&plain, &stream) {
                let payload = ResponseEnvelope::from_json_str(frame)
                    .unwrap()
                    .result
                    .unwrap();
                if let Ok(chunk) = payload.require("outputs") {
                    wire.extend(
                        chunk
                            .as_array()
                            .unwrap()
                            .iter()
                            .map(|v| v.as_int().unwrap()),
                    );
                }
            }
            assert_eq!(wire, streamed);
        }
    }

    fn stream_line(id: i64, length: u64) -> String {
        let payload = JsonValue::object([
            ("problem", problems::coloring(3).to_spec().to_json()),
            (
                "instance",
                lcl_paths::problem::StreamInstanceSpec {
                    topology: lcl_paths::problem::Topology::Cycle,
                    length,
                    inputs: lcl_paths::problem::StreamInputs::Uniform { label: 0 },
                }
                .to_json(),
            ),
        ]);
        RequestEnvelope::new(id, "solve_stream", payload).to_json_string()
    }

    #[test]
    fn solve_stream_chunks_concatenate_to_the_full_labeling() {
        let service = service().with_max_chunk_bytes(1024); // 112 labels/chunk
        let mut chunks = Vec::new();
        let mut emit = |frame| {
            chunks.push(frame);
            true
        };
        let response = service
            .respond(
                Request::Line(&stream_line(21, 300)),
                Instant::now(),
                &mut emit,
                None,
            )
            .into_envelope();
        assert_eq!(response.id, Some(21));
        let summary = response.result.expect("stream succeeds");
        assert!(summary.require("done").unwrap().as_bool().unwrap());
        assert_eq!(summary.require("nodes").unwrap().as_int().unwrap(), 300);
        assert_eq!(
            summary.require("seq").unwrap().as_int().unwrap(),
            chunks.len() as i64
        );
        assert!(chunks.len() >= 2, "300 nodes at 1 KiB must need 2+ chunks");

        // Chunks are well-formed envelopes in seq order with contiguous
        // offsets, and their labels concatenate to one valid 3-coloring.
        let mut outputs = Vec::new();
        for (i, frame) in chunks.iter().enumerate() {
            assert!(frame.len() <= 1024, "chunk frame over the ceiling");
            let envelope = ResponseEnvelope::from_json_str(frame).expect("chunk parses");
            assert_eq!(envelope.id, Some(21));
            assert_eq!(envelope.kind, "solve_stream");
            let payload = envelope.result.expect("chunk is ok");
            assert_eq!(payload.require("seq").unwrap().as_int().unwrap(), i as i64);
            assert_eq!(
                payload.require("offset").unwrap().as_int().unwrap(),
                outputs.len() as i64
            );
            for v in payload.require("outputs").unwrap().as_array().unwrap() {
                outputs.push(v.as_int().unwrap());
            }
        }
        assert_eq!(outputs.len(), 300);
        for at in 0..outputs.len() {
            assert_ne!(
                outputs[at],
                outputs[(at + 1) % outputs.len()],
                "adjacent cycle nodes share a color at {at}"
            );
        }
    }

    #[test]
    fn solve_stream_pipelined_delivers_ordered_frames() {
        let service = Arc::new(service().with_max_chunk_bytes(1024));
        let mut pending = dispatch(&service, stream_line(22, 250));
        let mut frames = Vec::new();
        let terminal = loop {
            match pending.wait_frame() {
                StreamFrame::Chunk(frame) => frames.push(frame),
                StreamFrame::Final(line) => break line,
                StreamFrame::Spliced(spliced) => break spliced.to_frame_string(),
            }
        };
        let terminal = ResponseEnvelope::from_json_str(&terminal).expect("reply parses");
        assert!(terminal.is_ok());
        let summary = terminal.result.unwrap();
        assert_eq!(
            summary.require("seq").unwrap().as_int().unwrap(),
            frames.len() as i64
        );
        assert!(!frames.is_empty());
        for (i, frame) in frames.iter().enumerate() {
            let payload = ResponseEnvelope::from_json_str(frame)
                .expect("chunk parses")
                .result
                .expect("chunk is ok");
            assert_eq!(payload.require("seq").unwrap().as_int().unwrap(), i as i64);
        }
    }

    #[test]
    fn solve_stream_aborts_when_the_emit_sink_reports_the_peer_gone() {
        let service = service().with_max_chunk_bytes(1024);
        let mut emitted = 0;
        let mut emit = |_| {
            emitted += 1;
            false
        };
        let response = service
            .respond(
                Request::Line(&stream_line(23, 300)),
                Instant::now(),
                &mut emit,
                None,
            )
            .into_envelope();
        assert_eq!(emitted, 1, "stream must stop at the first refusal");
        let error = response.result.unwrap_err();
        assert_eq!(error.category, "classifier");
        assert!(
            error.message.contains("peer went away"),
            "{}",
            error.message
        );
    }

    #[test]
    fn generate_replies_with_a_classifiable_problem_spec() {
        let service = service();
        let payload = JsonValue::object([
            ("seed", JsonValue::Int(7)),
            ("family", JsonValue::Str("solvable".to_string())),
        ]);
        let line = RequestEnvelope::new(31, "generate", payload).to_json_string();
        let response = service.handle_line(&line);
        assert_eq!(response.kind, "generate");
        let payload = response.result.expect("generation succeeds");
        assert_eq!(payload.require("seed").unwrap().as_int().unwrap(), 7);
        assert_eq!(
            payload.require("family").unwrap().as_str().unwrap(),
            "solvable"
        );

        // The echoed hash matches a local regeneration, and the spec feeds
        // straight back into classify.
        let config = GenConfig::new(7).family(lcl_paths::gen::Family::Solvable);
        let local = lcl_paths::gen::generate(&config).unwrap();
        assert_eq!(
            payload.require("canonical_hash").unwrap().as_str().unwrap(),
            format!("{:016x}", local.canonical_hash())
        );
        let classify = RequestEnvelope::new(
            32,
            "classify",
            JsonValue::object([("problem", payload.require("problem").unwrap().clone())]),
        )
        .to_json_string();
        assert!(service.handle_line(&classify).is_ok());

        // Config errors come back under the dedicated `gen` category.
        let bad = RequestEnvelope::new(
            33,
            "generate",
            JsonValue::object([
                ("seed", JsonValue::Int(1)),
                ("out_degree", JsonValue::Int(0)),
            ]),
        )
        .to_json_string();
        let error = service.handle_line(&bad).result.unwrap_err();
        assert_eq!(error.category, "gen");
    }

    #[test]
    fn classify_many_reports_per_item_outcomes() {
        let service = service();
        let good = problems::coloring(3).to_spec().to_json();
        let payload = JsonValue::object([(
            "problems",
            JsonValue::Array(vec![good.clone(), good.clone(), good]),
        )]);
        let line = RequestEnvelope::new(11, "classify_many", payload).to_json_string();
        let response = service.handle_line(&line);
        let payload = response.result.expect("batch succeeds");
        assert_eq!(payload.require("count").unwrap().as_int().unwrap(), 3);
        for item in payload.require("verdicts").unwrap().as_array().unwrap() {
            assert!(item.require("ok").unwrap().as_bool().unwrap());
        }
        // The three duplicates were deduplicated into one classification.
        assert_eq!(service.engine().cache_stats().misses, 1);
    }

    #[test]
    fn one_malformed_spec_does_not_fail_the_batch() {
        let service = service();
        let good = problems::coloring(3).to_spec().to_json();
        let payload = JsonValue::object([(
            "problems",
            JsonValue::Array(vec![
                good.clone(),
                JsonValue::object([("version", JsonValue::Int(1))]), // missing fields
                good,
            ]),
        )]);
        let line = RequestEnvelope::new(12, "classify_many", payload).to_json_string();
        let payload = service.handle_line(&line).result.expect("batch succeeds");
        assert_eq!(payload.require("count").unwrap().as_int().unwrap(), 3);
        let items = payload.require("verdicts").unwrap().as_array().unwrap();
        assert!(items[0].require("ok").unwrap().as_bool().unwrap());
        assert!(!items[1].require("ok").unwrap().as_bool().unwrap());
        assert_eq!(
            items[1]
                .require("error")
                .unwrap()
                .require("category")
                .unwrap()
                .as_str()
                .unwrap(),
            "problem"
        );
        assert!(items[2].require("ok").unwrap().as_bool().unwrap());
    }

    #[test]
    fn quota_denials_reject_with_the_overloaded_category() {
        let service = Arc::new(service().with_admission(AdmissionConfig {
            quota_rps: 1,
            quota_burst: 1,
            ..AdmissionConfig::default()
        }));
        // The splice lane legitimately bypasses admission (cache hits cost
        // nothing); turn it off so the second frame reaches the quota.
        service.set_reply_splice(false);
        let peer = Origin::new(Some("10.0.0.7".parse().unwrap()));

        // The burst admits the first frame…
        let first = dispatch_from(&service, classify_line(1), &peer).wait();
        assert!(ResponseEnvelope::from_json_str(&first).unwrap().is_ok());

        // …and the second is rejected before taking a pool slot, with the
        // structured retry hint on the wire.
        let second = dispatch_from(&service, classify_line(2), &peer).wait();
        let reply = ResponseEnvelope::from_json_str(&second).unwrap();
        assert_eq!(reply.id, Some(2), "denials still echo the request id");
        assert_eq!(reply.kind, "classify");
        let error = reply.result.unwrap_err();
        assert_eq!(error.category, "overloaded");
        assert_eq!(error.retryable, Some(true));
        assert!(error.retry_after_millis.unwrap_or(0) >= 1);

        // A different peer still has its own untouched bucket.
        let other = Origin::new(Some("10.0.0.8".parse().unwrap()));
        let third = dispatch_from(&service, classify_line(3), &other).wait();
        assert!(ResponseEnvelope::from_json_str(&third).unwrap().is_ok());

        // Latency accounting stays symmetric: the shed frame is counted,
        // errored, shed, and present in the histogram.
        let snapshot = service.metrics_snapshot();
        let stats = snapshot.kind(Some(RequestKind::Classify));
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.count, 3);
        assert_eq!(stats.latency.count, 3);
    }

    #[test]
    fn p99_shed_rejects_compute_frames_but_admits_control_kinds() {
        let service = Arc::new(service().with_admission(AdmissionConfig {
            shed_p99_micros: 1_000,
            ..AdmissionConfig::default()
        }));
        // Seed the classify histogram well past the threshold, as a sustained
        // period of 50ms requests would.
        for _ in 0..64 {
            service.metrics().record(
                Some(RequestKind::Classify),
                std::time::Duration::from_millis(50),
                true,
            );
        }

        let reply = dispatch(&service, classify_line(9)).wait();
        let reply = ResponseEnvelope::from_json_str(&reply).unwrap();
        let error = reply.result.unwrap_err();
        assert_eq!(error.category, "overloaded");
        assert!(error.message.contains("p99"), "{}", error.message);
        assert_eq!(error.retryable, Some(true));
        assert_eq!(
            service
                .metrics_snapshot()
                .kind(Some(RequestKind::Classify))
                .shed,
            1
        );

        // Control kinds are never shed — operators must be able to observe
        // an overloaded server.
        for kind in ["stats", "health", "metrics"] {
            let line = format!("{{\"v\":1,\"id\":1,\"kind\":\"{kind}\"}}");
            let reply = dispatch(&service, line).wait();
            assert!(
                ResponseEnvelope::from_json_str(&reply).unwrap().is_ok(),
                "{kind} must bypass admission"
            );
        }

        // The stdio front-end sheds identically: it dispatches the same way.
        let mut output = Vec::new();
        crate::serve_stdio(
            &service,
            format!("{}\n", classify_line(10)).as_bytes(),
            &mut output,
        )
        .expect("stdio session");
        let reply = ResponseEnvelope::from_json_str(std::str::from_utf8(&output).unwrap().trim());
        assert_eq!(reply.unwrap().result.unwrap_err().category, "overloaded");
    }

    #[test]
    fn control_kinds_are_admitted_past_an_exhausted_quota() {
        let service = Arc::new(service().with_admission(AdmissionConfig {
            quota_rps: 1,
            quota_burst: 1,
            ..AdmissionConfig::default()
        }));
        service.set_reply_splice(false);
        let peer = Origin::new(Some("192.168.1.20".parse().unwrap()));
        let first = dispatch_from(&service, classify_line(1), &peer).wait();
        assert!(ResponseEnvelope::from_json_str(&first).unwrap().is_ok());
        for kind in ["stats", "health", "metrics"] {
            let line = format!("{{\"v\":1,\"id\":2,\"kind\":\"{kind}\"}}");
            let reply = dispatch_from(&service, line, &peer).wait();
            assert!(
                ResponseEnvelope::from_json_str(&reply).unwrap().is_ok(),
                "{kind} must not consume quota"
            );
        }
    }

    #[test]
    fn snapshot_kind_writes_the_configured_path_and_restores() {
        let dir = std::env::temp_dir().join(format!("lcl-snap-service-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("cache.snap");
        let warm = service().with_cache_snapshot_path(path.clone());

        // Warm the cache, then snapshot over the wire.
        assert!(warm.handle_line(&classify_line(1)).is_ok());
        let payload = warm
            .handle_line(r#"{"v":1,"id":2,"kind":"snapshot"}"#)
            .result
            .expect("snapshot succeeds");
        assert_eq!(payload.require("entries").unwrap().as_int().unwrap(), 1);
        assert_eq!(
            payload.require("path").unwrap().as_str().unwrap(),
            path.display().to_string()
        );
        assert!(path.exists());

        // A fresh service restores it at startup and reports the count.
        let fresh = service().with_cache_snapshot_path(path.clone());
        let restored = fresh
            .restore_cache_snapshot()
            .expect("path configured and file present")
            .expect("snapshot restores");
        assert!(restored.contains("restored 1/1"), "{restored}");
        assert_eq!(fresh.engine().cache_stats().entries, 1);

        // A corrupt snapshot is reported, not fatal.
        std::fs::write(&path, "not a snapshot\n").expect("overwrite");
        let corrupt = service().with_cache_snapshot_path(path.clone());
        let error = corrupt
            .restore_cache_snapshot()
            .expect("file present")
            .expect_err("corrupt snapshot rejected");
        assert!(error.contains("ignoring cache snapshot"), "{error}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_kind_without_a_path_is_a_classifier_error() {
        let service = service();
        let error = service
            .handle_line(r#"{"v":1,"id":3,"kind":"snapshot"}"#)
            .result
            .unwrap_err();
        assert_eq!(error.category, "classifier");
        assert!(
            error.message.contains("--cache-snapshot"),
            "{}",
            error.message
        );
    }
}
