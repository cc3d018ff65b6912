//! Per-request stage tracing: where one request's latency actually went.
//!
//! Every dispatched frame (when detailed metrics are on) carries an
//! [`Trace`] handle from frame read to reply write. Each pipeline stage
//! stamps a monotonic offset on it — queue wait, parse, compute, serialize,
//! write — and when the last stage finishes (or the handle is dropped
//! because the connection died), the trace collapses into a
//! [`TraceRecord`] and reaches the [`TraceSink`], which (with
//! `--trace-slow-micros`) writes one structured NDJSON line on stderr per
//! request whose end-to-end latency crossed the threshold. The line carries
//! the request id, kind, problem hash, cache hit/miss and per-stage
//! microseconds, so a slow request is attributable from the log alone.
//!
//! All stamping is relaxed atomics on a shared `Arc`; the hot path never
//! locks, never allocates beyond the one `Arc` per request, and a stage
//! that never runs (an invalid frame has no compute) simply reports 0.

use crate::service::RequestKind;
use lcl_paths::classifier::obs::{TraceKind, TraceRecord};
use lcl_paths::problem::json::JsonValue;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The stable index of a request kind inside a [`TraceRecord`]
/// (`TraceRecord::kind`): its position in [`RequestKind::ALL`], with
/// [`TraceRecord::KIND_INVALID`] for frames that never resolved to a kind.
pub fn kind_index(kind: Option<RequestKind>) -> TraceKind {
    match kind {
        Some(kind) => RequestKind::ALL
            .iter()
            .position(|&k| k == kind)
            .map(|at| at as TraceKind)
            .unwrap_or(TraceRecord::KIND_INVALID),
        None => TraceRecord::KIND_INVALID,
    }
}

/// The wire name of a [`TraceRecord::kind`] index (`invalid` for
/// [`TraceRecord::KIND_INVALID`] and anything out of range).
pub fn kind_wire_name(index: TraceKind) -> &'static str {
    RequestKind::ALL
        .get(index as usize)
        .map(|k| k.wire_name())
        .unwrap_or("invalid")
}

/// Serializes one finished trace as the slow-request NDJSON log line:
/// a single-line JSON object with sorted keys, `"trace":"slow"` as the
/// discriminator, and one `*_micros` field per stage. `id`,
/// `problem_hash` (16 hex digits, same encoding as verdicts) and
/// `cache_hit` appear only when known.
pub fn slow_trace_line(record: &TraceRecord) -> String {
    let mut fields = vec![
        ("trace", JsonValue::Str("slow".to_string())),
        (
            "kind",
            JsonValue::Str(kind_wire_name(record.kind).to_string()),
        ),
        ("ok", JsonValue::Bool(record.ok)),
        ("queue_micros", JsonValue::Int(record.queue_micros as i64)),
        ("parse_micros", JsonValue::Int(record.parse_micros as i64)),
        (
            "compute_micros",
            JsonValue::Int(record.compute_micros as i64),
        ),
        (
            "serialize_micros",
            JsonValue::Int(record.serialize_micros as i64),
        ),
        ("write_micros", JsonValue::Int(record.write_micros as i64)),
        ("total_micros", JsonValue::Int(record.total_micros as i64)),
    ];
    if let Some(id) = record.id {
        fields.push(("id", JsonValue::Int(id)));
    }
    if let Some(hash) = record.problem_hash {
        fields.push(("problem_hash", JsonValue::Str(format!("{hash:016x}"))));
    }
    if let Some(hit) = record.cache_hit {
        fields.push(("cache_hit", JsonValue::Bool(hit)));
    }
    JsonValue::object(fields).to_json_string()
}

/// Where finished request traces go: the optional slow-request log line.
/// One sink per [`Service`], shared by every in-flight request's stage
/// trace.
///
/// [`Service`]: crate::Service
pub struct TraceSink {
    /// End-to-end latency threshold for the slow-request log line;
    /// 0 = disabled.
    slow_micros: AtomicU64,
    /// Receives each slow-request NDJSON line; stderr by default,
    /// swappable for tests.
    emit: Box<dyn Fn(&str) + Send + Sync>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("slow_micros", &self.slow_micros.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

impl TraceSink {
    /// A sink with the slow log disabled and stderr as its line emitter.
    pub fn new() -> TraceSink {
        TraceSink::with_emitter(|line| eprintln!("{line}"))
    }

    /// [`TraceSink::new`] with a custom slow-line emitter (tests capture
    /// lines instead of printing them).
    pub fn with_emitter(emit: impl Fn(&str) + Send + Sync + 'static) -> TraceSink {
        TraceSink {
            slow_micros: AtomicU64::new(0),
            emit: Box::new(emit),
        }
    }

    /// Sets the slow-request threshold: a finished request whose end-to-end
    /// latency is at least `micros` microseconds emits one NDJSON line
    /// ([`slow_trace_line`]). `None` (or 0) disables the log.
    pub fn set_slow_micros(&self, micros: Option<u64>) {
        self.slow_micros
            .store(micros.unwrap_or(0), Ordering::Relaxed);
    }

    /// The current slow-request threshold (`None` = log disabled).
    pub fn slow_micros(&self) -> Option<u64> {
        match self.slow_micros.load(Ordering::Relaxed) {
            0 => None,
            micros => Some(micros),
        }
    }

    /// Accepts one finished trace: onto the slow log when over the
    /// threshold.
    fn accept(&self, record: &TraceRecord) {
        let slow = self.slow_micros.load(Ordering::Relaxed);
        if slow > 0 && record.total_micros >= slow {
            (self.emit)(&slow_trace_line(record));
        }
    }
}

/// Stage-offset atomics use 0 for "never stamped"; a stamped offset is
/// stored `+1` so a genuinely zero-microsecond offset stays distinguishable.
fn stamp(slot: &AtomicU64, started: Instant) {
    let offset = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX - 1);
    slot.store(offset.saturating_add(1), Ordering::Relaxed);
}

/// The live trace of one in-flight request, shared (as an `Arc`) between
/// the dispatching thread, the pool worker executing the request and the
/// connection writer. Every mutator is a relaxed atomic store, so the
/// stages can stamp from different threads without coordination.
///
/// The trace finishes — collapses into a [`TraceRecord`] and reaches its
/// sink — exactly once: at [`Trace::finish`] (the write stage, normally),
/// or on drop if no stage ever finished it (the connection died before
/// the reply was written; the partial stages still reach the sink).
#[derive(Debug)]
pub(crate) struct Trace {
    sink: Arc<TraceSink>,
    started: Instant,
    id: AtomicI64,
    has_id: AtomicBool,
    kind: AtomicU8,
    ok: AtomicBool,
    problem_hash: AtomicU64,
    has_hash: AtomicBool,
    /// 0 = unknown, 1 = miss, 2 = hit.
    cache_hit: AtomicU8,
    /// Offsets (micros since `started`, stored `+1`; 0 = never stamped) at
    /// which each stage *ended*.
    queue: AtomicU64,
    parse: AtomicU64,
    compute: AtomicU64,
    serialize: AtomicU64,
    write: AtomicU64,
    done: AtomicBool,
}

impl Trace {
    /// A fresh trace clocked from `started` (the instant the frame was
    /// read), with the kind pre-set to invalid until parse resolves it.
    pub(crate) fn new(sink: Arc<TraceSink>, started: Instant, id: Option<i64>) -> Trace {
        Trace {
            sink,
            started,
            id: AtomicI64::new(id.unwrap_or(0)),
            has_id: AtomicBool::new(id.is_some()),
            kind: AtomicU8::new(TraceRecord::KIND_INVALID),
            ok: AtomicBool::new(false),
            problem_hash: AtomicU64::new(0),
            has_hash: AtomicBool::new(false),
            cache_hit: AtomicU8::new(0),
            queue: AtomicU64::new(0),
            parse: AtomicU64::new(0),
            compute: AtomicU64::new(0),
            serialize: AtomicU64::new(0),
            write: AtomicU64::new(0),
            done: AtomicBool::new(false),
        }
    }

    /// Stamps the end of the queue stage (a pool worker picked the job up).
    pub(crate) fn mark_queue(&self) {
        stamp(&self.queue, self.started);
    }

    /// Stamps the end of the parse stage and the now-known identity.
    pub(crate) fn mark_parsed(&self, kind: Option<RequestKind>, id: Option<i64>) {
        self.kind.store(kind_index(kind), Ordering::Relaxed);
        if let Some(id) = id {
            self.id.store(id, Ordering::Relaxed);
            self.has_id.store(true, Ordering::Relaxed);
        }
        stamp(&self.parse, self.started);
    }

    /// Stamps the end of the compute stage and the outcome.
    pub(crate) fn mark_computed(&self, ok: bool) {
        self.ok.store(ok, Ordering::Relaxed);
        stamp(&self.compute, self.started);
    }

    /// Stamps the end of the serialize stage (the reply bytes exist).
    pub(crate) fn mark_serialized(&self) {
        stamp(&self.serialize, self.started);
    }

    /// Records which problem the request touched and (when known) whether
    /// the memo cache served its classification.
    pub(crate) fn set_problem(&self, canonical_hash: u64, cache_hit: Option<bool>) {
        self.problem_hash.store(canonical_hash, Ordering::Relaxed);
        self.has_hash.store(true, Ordering::Relaxed);
        if let Some(hit) = cache_hit {
            self.cache_hit
                .store(if hit { 2 } else { 1 }, Ordering::Relaxed);
        }
    }

    /// Stamps the end of the write stage (the reply's bytes left for the
    /// socket) and finishes the trace into its sink. Idempotent.
    pub(crate) fn finish_written(&self) {
        // One clock read serves both the write stamp and the total: the
        // write stage ends at the same instant the trace finishes.
        let total = u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX - 1);
        self.write.store(total.saturating_add(1), Ordering::Relaxed);
        self.finish_at(total);
    }

    /// Finishes the trace into its sink without a write stamp (front-ends
    /// that cannot observe the write, e.g. lock-step embedding). Idempotent.
    pub(crate) fn finish(&self) {
        self.finish_at(u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX));
    }

    /// [`Trace::finish`] with the end-to-end total already measured.
    fn finish_at(&self, total_micros: u64) {
        if self.done.swap(true, Ordering::AcqRel) {
            return;
        }
        self.sink.accept(&self.record(total_micros));
    }

    /// Collapses the stamped offsets into disjoint per-stage durations:
    /// each stamped stage lasts from the stamp before it in time to its
    /// own, an unstamped stage lasts 0, and the total is the wall clock
    /// from frame read to the finish call. Stages are taken in the order
    /// they ended, not in a fixed order: a `classify` miss the splice probe
    /// handed to the pool was parsed before its queue wait.
    fn record(&self, total_micros: u64) -> TraceRecord {
        let offsets = [
            self.queue.load(Ordering::Relaxed),
            self.parse.load(Ordering::Relaxed),
            self.compute.load(Ordering::Relaxed),
            self.serialize.load(Ordering::Relaxed),
            self.write.load(Ordering::Relaxed),
        ];
        let mut order = [0, 1, 2, 3, 4];
        order.sort_by_key(|&stage| offsets[stage]);
        let mut durations = [0u64; 5];
        let mut previous = 0u64;
        for stage in order {
            if offsets[stage] > 0 {
                let offset = offsets[stage] - 1;
                durations[stage] = offset - previous;
                previous = offset;
            }
        }
        TraceRecord {
            id: self
                .has_id
                .load(Ordering::Relaxed)
                .then(|| self.id.load(Ordering::Relaxed)),
            kind: self.kind.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            problem_hash: self
                .has_hash
                .load(Ordering::Relaxed)
                .then(|| self.problem_hash.load(Ordering::Relaxed)),
            cache_hit: match self.cache_hit.load(Ordering::Relaxed) {
                1 => Some(false),
                2 => Some(true),
                _ => None,
            },
            queue_micros: durations[0],
            parse_micros: durations[1],
            compute_micros: durations[2],
            serialize_micros: durations[3],
            write_micros: durations[4],
            total_micros,
        }
    }
}

impl Drop for Trace {
    /// A trace abandoned mid-flight (connection died before its reply was
    /// written) still reaches the sink with whatever stages it stamped.
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A sink whose slow log (threshold 1µs) captures every line.
    fn capturing_sink() -> (Arc<TraceSink>, Arc<Mutex<Vec<String>>>) {
        let lines = Arc::new(Mutex::new(Vec::new()));
        let captured = Arc::clone(&lines);
        let sink = Arc::new(TraceSink::with_emitter(move |line| {
            captured.lock().unwrap().push(line.to_string());
        }));
        sink.set_slow_micros(Some(1));
        (sink, lines)
    }

    /// A trace clocked from 1ms ago, so its total always clears the 1µs
    /// threshold of [`capturing_sink`].
    fn old_trace(sink: &Arc<TraceSink>, id: Option<i64>) -> Trace {
        let started = Instant::now() - std::time::Duration::from_millis(1);
        Trace::new(Arc::clone(sink), started, id)
    }

    fn parsed(lines: &Mutex<Vec<String>>) -> Vec<JsonValue> {
        let lines = lines.lock().unwrap();
        lines
            .iter()
            .map(|line| JsonValue::parse(line).unwrap())
            .collect()
    }

    fn micros(line: &JsonValue, field: &str) -> i64 {
        line.require(field).unwrap().as_int().unwrap()
    }

    #[test]
    fn kind_indices_round_trip_through_wire_names() {
        for &kind in &RequestKind::ALL {
            assert_eq!(kind_wire_name(kind_index(Some(kind))), kind.wire_name());
        }
        assert_eq!(kind_wire_name(kind_index(None)), "invalid");
        assert_eq!(kind_wire_name(TraceRecord::KIND_INVALID), "invalid");
    }

    #[test]
    fn stages_collapse_into_disjoint_durations() {
        let (sink, lines) = capturing_sink();
        let trace = old_trace(&sink, None);
        trace.mark_queue();
        trace.mark_parsed(Some(RequestKind::Classify), Some(9));
        trace.set_problem(0xabcd, Some(true));
        trace.mark_computed(true);
        trace.mark_serialized();
        trace.finish_written();
        let lines = parsed(&lines);
        assert_eq!(lines.len(), 1);
        let line = &lines[0];
        assert_eq!(micros(line, "id"), 9);
        assert_eq!(line.require("kind").unwrap().as_str().unwrap(), "classify");
        assert!(line.require("ok").unwrap().as_bool().unwrap());
        assert_eq!(
            line.require("problem_hash").unwrap().as_str().unwrap(),
            format!("{:016x}", 0xabcd)
        );
        assert!(line.require("cache_hit").unwrap().as_bool().unwrap());
        let stage_sum: i64 = ["queue", "parse", "compute", "serialize", "write"]
            .iter()
            .map(|stage| micros(line, &format!("{stage}_micros")))
            .sum();
        let total = micros(line, "total_micros");
        assert!(
            stage_sum <= total + 1,
            "disjoint stages cannot exceed the total: {stage_sum} vs {total}"
        );
    }

    #[test]
    fn a_parse_before_the_queue_wait_is_reported_as_parse() {
        // A handed-over classify miss: parsed on the dispatching thread,
        // then queued for a worker.
        let (sink, lines) = capturing_sink();
        let trace = old_trace(&sink, Some(4));
        trace.mark_parsed(Some(RequestKind::Classify), Some(4));
        std::thread::sleep(std::time::Duration::from_millis(2));
        trace.mark_queue();
        trace.mark_computed(true);
        trace.mark_serialized();
        trace.finish_written();
        let lines = parsed(&lines);
        let line = &lines[0];
        // The trace was clocked from 1ms before the parse stamp, and the
        // queue stamp came at least 2ms after it.
        assert!(micros(line, "parse_micros") >= 1_000, "{line:?}");
        assert!(micros(line, "queue_micros") >= 2_000, "{line:?}");
        let stage_sum: i64 = ["queue", "parse", "compute", "serialize", "write"]
            .iter()
            .map(|stage| micros(line, &format!("{stage}_micros")))
            .sum();
        assert!(stage_sum <= micros(line, "total_micros") + 1);
    }

    #[test]
    fn dropping_an_unfinished_trace_still_records_it() {
        let (sink, lines) = capturing_sink();
        let trace = old_trace(&sink, Some(3));
        trace.mark_queue();
        drop(trace);
        let lines = parsed(&lines);
        assert_eq!(lines.len(), 1);
        assert_eq!(micros(&lines[0], "id"), 3);
        assert_eq!(
            lines[0].require("kind").unwrap().as_str().unwrap(),
            "invalid"
        );
        assert_eq!(micros(&lines[0], "write_micros"), 0, "write never happened");
    }

    #[test]
    fn finish_is_idempotent() {
        let (sink, lines) = capturing_sink();
        let trace = old_trace(&sink, None);
        trace.finish_written();
        trace.finish();
        drop(trace);
        assert_eq!(parsed(&lines).len(), 1, "one line despite three finishes");
    }

    #[test]
    fn slow_traces_emit_one_parseable_ndjson_line() {
        let (sink, lines) = capturing_sink();
        sink.set_slow_micros(Some(100));
        assert_eq!(sink.slow_micros(), Some(100));
        let fast = TraceRecord {
            total_micros: 99,
            ..TraceRecord::default()
        };
        sink.accept(&fast);
        assert!(lines.lock().unwrap().is_empty(), "under threshold: no line");
        let slow = TraceRecord {
            id: Some(41),
            kind: kind_index(Some(RequestKind::Solve)),
            ok: true,
            problem_hash: Some(0xfeed),
            cache_hit: Some(false),
            queue_micros: 10,
            parse_micros: 20,
            compute_micros: 200,
            serialize_micros: 5,
            write_micros: 15,
            total_micros: 250,
        };
        sink.accept(&slow);
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 1);
        let parsed = JsonValue::parse(&lines[0]).expect("slow line is valid JSON");
        assert_eq!(parsed.require("trace").unwrap().as_str().unwrap(), "slow");
        assert_eq!(parsed.require("kind").unwrap().as_str().unwrap(), "solve");
        assert_eq!(parsed.require("id").unwrap().as_int().unwrap(), 41);
        assert_eq!(
            parsed.require("problem_hash").unwrap().as_str().unwrap(),
            format!("{:016x}", 0xfeedu64)
        );
        assert!(!parsed.require("cache_hit").unwrap().as_bool().unwrap());
        for (field, expected) in [
            ("queue_micros", 10),
            ("parse_micros", 20),
            ("compute_micros", 200),
            ("serialize_micros", 5),
            ("write_micros", 15),
            ("total_micros", 250),
        ] {
            assert_eq!(
                parsed.require(field).unwrap().as_int().unwrap(),
                expected,
                "{field}"
            );
        }
        // Optional fields are really optional.
        let bare = slow_trace_line(&TraceRecord::default());
        let parsed = JsonValue::parse(&bare).unwrap();
        assert!(parsed.get("id").is_none());
        assert!(parsed.get("problem_hash").is_none());
        assert!(parsed.get("cache_hit").is_none());
        assert_eq!(parsed.require("kind").unwrap().as_str().unwrap(), "invalid");
    }

    #[test]
    fn disabling_the_slow_log_stops_lines() {
        let (sink, lines) = capturing_sink();
        sink.set_slow_micros(Some(1));
        sink.accept(&TraceRecord {
            total_micros: 10,
            ..TraceRecord::default()
        });
        sink.set_slow_micros(None);
        assert_eq!(sink.slow_micros(), None);
        sink.accept(&TraceRecord {
            total_micros: 10,
            ..TraceRecord::default()
        });
        assert_eq!(lines.lock().unwrap().len(), 1);
    }
}
