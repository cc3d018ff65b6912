//! Spans around the public calls into each layer, and the replays that
//! produce them in the traced run.
//!
//! A replayed child span runs right after its parent, not inside it: the
//! benchmark can only time public calls, and a layer's internals are one
//! call. A parent's self time is its duration minus its children's, so it
//! measures how much of the parent the public child calls account for.

use crate::inputs::StreamCase;
use lcl_paths::classifier::{
    classify_with_options, feasibility::find_feasible, Classification, ClassifierOptions,
    ConstantAlgorithm, GapTypes, LogStarAlgorithm, Verdict,
};
use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::{InLabel, NormalizedLcl, ProblemSpec, RequestEnvelope, ResponseEnvelope};
use lcl_paths::semigroup::{primitive_strings_up_to, TransferSystem, TypeSemigroup};
use lcl_paths::sim::LocalAlgorithm;
use lcl_paths::Engine;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

/// Spans and per-call counts, kept in memory and written out at the end.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// An empty tracer on the same clock, for another thread to fill and
    /// hand back to [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            t0: self.t0,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Takes over the spans and counts of a fork.
    pub fn absorb(&mut self, fork: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(fork.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (name, values) in fork.counts {
            self.counts.entry(name).or_default().extend(values);
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        op: u64,
    ) -> u32 {
        let ns = |at: Instant| at.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = Instant::now();
        let out = black_box(f());
        let end = Instant::now();
        (out, self.record(name, start, end, parent, op))
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    pub fn duration_us(&self, span: u32) -> f64 {
        let s = &self.spans[span as usize];
        (s.end_ns - s.start_ns) as f64 / 1e3
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self times (µs) of every span called `name`: duration minus the
    /// durations of its children.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| ((s.end_ns - s.start_ns) as f64 - children[i] as f64) / 1e3)
            .collect()
    }

    /// Writes the spans as JSON lines, at most `WRITE_CAP_PER_NAME` of each
    /// name: a traced warm run records about a million request spans.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        const WRITE_CAP_PER_NAME: usize = 20_000;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut written: BTreeMap<&str, usize> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let n = written.entry(s.name).or_default();
            *n += 1;
            if *n > WRITE_CAP_PER_NAME {
                continue;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// The classify reply payload exactly as the server renders it, so a probe
/// that attaches reply bytes to a cache entry attaches the server's bytes.
fn verdict_payload(problem: &NormalizedLcl, classification: &Classification) -> JsonValue {
    JsonValue::object([("verdict", Verdict::new(problem, classification).to_json())])
}

/// The request front of one frame: parse the envelope, normalize the
/// problem (spec, tables, structural key), probe the cache, render the
/// verdict reply. Returns the normalized problem.
pub fn replay_front(
    t: &mut Tracer,
    engine: &Engine,
    frame: &str,
    parent: u32,
    op: u64,
    fallback: Option<&Classification>,
) -> Option<NormalizedLcl> {
    let (envelope, _) = t.time("problem.parse", Some(parent), op, || {
        RequestEnvelope::from_json_str(frame)
    });
    let envelope = envelope.ok()?;
    let (problem, _) = t.time("problem.normalize", Some(parent), op, || {
        let spec = ProblemSpec::from_json(envelope.payload.get("problem")?).ok()?;
        let problem = spec.to_problem().ok()?;
        black_box(problem.structural_key());
        Some(problem)
    });
    let problem = problem?;
    t.time("core.cache.probe", Some(parent), op, || {
        engine.cached_reply(&problem, |c| {
            verdict_payload(&problem, c).to_json_string().into_bytes()
        })
    });
    let cached = engine.cached(&problem);
    if let Some(classification) = cached.as_deref().or(fallback) {
        t.time("problem.render", Some(parent), op, || {
            ResponseEnvelope::ok(
                envelope.id,
                "classify",
                verdict_payload(&problem, classification),
            )
            .into_json_string()
        });
    }
    Some(problem)
}

/// The canonical primitive input patterns the `O(1)` test quantifies over:
/// the least rotation of every primitive word up to length `max_len`.
fn canonical_patterns(alpha: usize, max_len: usize) -> Vec<Vec<InLabel>> {
    primitive_strings_up_to(alpha, max_len)
        .into_iter()
        .filter(|w| {
            (1..w.len()).all(|s| {
                let rot: Vec<InLabel> = (0..w.len()).map(|i| w[(i + s) % w.len()]).collect();
                rot >= *w
            })
        })
        .collect()
}

/// Feasibility-search time by output alphabet size β, for the bucketed
/// report.
pub struct Feasibility {
    pub test: &'static str,
    pub beta: usize,
    pub us: f64,
}

/// Replays one classification: `classify_with_options` as the parent span,
/// then the public stage calls it is made of, in the order it makes them.
pub fn replay_classify(
    t: &mut Tracer,
    feas: &mut Vec<Feasibility>,
    problem: &NormalizedLcl,
    parent: Option<u32>,
    op: u64,
) -> Option<Classification> {
    let options = ClassifierOptions::default();
    let (classification, root) = t.time("core.classify", parent, op, || {
        classify_with_options(problem, &options)
    });
    let classification = classification.ok()?;
    let root = Some(root);
    let (info, gap) = t.time("core.gap_types", root, op, || {
        GapTypes::compute(problem, options.type_budget)
    });
    let system = t
        .time("semigroup.transfer", Some(gap), op, || {
            TransferSystem::new(problem)
        })
        .0;
    let _ = t.time("semigroup.enumerate", Some(gap), op, || {
        TypeSemigroup::compute(&system, options.type_budget)
    });
    let info = info.ok()?;
    t.count("semigroup.types", info.semigroup().len() as f64);
    t.count("core.quantified_types", info.quantified().len() as f64);
    let (witness, _) = t.time("core.solvability", root, op, || info.solvability_witness());
    if witness.ok()?.is_some() {
        return Some(classification);
    }
    let beta = problem.num_outputs();
    let kappa = info
        .semigroup()
        .pump_threshold()
        .min(options.pattern_length_cap)
        .max(1);
    let patterns = canonical_patterns(problem.num_inputs(), kappa);
    let (constant, span) = t.time("core.feasibility.constant", root, op, || {
        find_feasible(&info, &patterns, options.search_budget)
    });
    feas.push(Feasibility {
        test: "constant",
        beta,
        us: t.duration_us(span),
    });
    if let Some(structure) = constant.ok()? {
        let (algorithm, _) = t.time("core.synthesis", root, op, || {
            ConstantAlgorithm::new(&info, structure, kappa)
        });
        t.count("core.synthesis.radius", algorithm.radius(1 << 20) as f64);
        return Some(classification);
    }
    let (logstar, span) = t.time("core.feasibility.logstar", root, op, || {
        find_feasible(&info, &[], options.search_budget)
    });
    feas.push(Feasibility {
        test: "logstar",
        beta,
        us: t.duration_us(span),
    });
    if let Some(structure) = logstar.ok()? {
        let (algorithm, _) = t.time("core.synthesis", root, op, || {
            LogStarAlgorithm::new(&info, structure)
        });
        t.count("core.synthesis.radius", algorithm.radius(1 << 20) as f64);
    }
    Some(classification)
}

/// Labels one streamed instance in-process: `Engine::solve_stream`, then
/// `next_chunk` until the instance is done.
pub fn replay_stream(
    t: &mut Tracer,
    engine: &Engine,
    problem: &NormalizedLcl,
    case: &StreamCase,
    chunk_nodes: usize,
    parent: Option<u32>,
    op: u64,
) -> Result<(), String> {
    let (solution, _) = t.time("core.stream.setup", parent, op, || {
        engine.solve_stream(problem, &case.spec())
    });
    let mut solution = solution.map_err(|e| e.to_string())?;
    let (mut nodes, mut ns) = (0u64, 0u128);
    loop {
        let start = Instant::now();
        let chunk = solution.next_chunk(chunk_nodes);
        let end = Instant::now();
        match chunk {
            None => break,
            Some(Ok(labels)) => {
                t.record("core.stream.chunk", start, end, parent, op);
                nodes += labels.len() as u64;
                ns += (end - start).as_nanos();
            }
            Some(Err(e)) => return Err(e.to_string()),
        }
    }
    t.count("core.stream.ns_per_node", ns as f64 / nodes.max(1) as f64);
    t.count(
        "core.stream.peak_resident_nodes",
        solution.peak_resident_nodes() as f64,
    );
    Ok(())
}
