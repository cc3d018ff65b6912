//! Workload inputs and the oracles that judge the replies.
//!
//! Everything here is derived from the run's seed. The oracles share no
//! code with the classifier: verdicts are checked against answers known by
//! construction (generator families, the corpus' literature answers, the
//! colouring and unconstrained ladders), and streamed labelings against the
//! node and edge tables of the problem's own spec JSON.

use crate::util::{splitmix64, Rng};
use lcl_paths::gen::{generate, Family, GenConfig};
use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::{NormalizedLcl, StreamInputs, StreamInstanceSpec, Topology};
use lcl_paths::problems::{self, KnownComplexity};
use std::collections::HashSet;

/// What the oracle knows about a problem's verdict.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    Constant,
    LogStar,
    Unsolvable,
    /// Near-threshold draws are never `O(1)` by construction.
    NotConstant,
    /// Uniform draws: any class, but the reply must be a verdict.
    AnyVerdict,
}

impl Expect {
    pub fn admits(self, complexity: &str) -> bool {
        match self {
            Expect::Constant => complexity == "constant",
            Expect::LogStar => complexity == "log-star",
            Expect::Unsolvable => complexity == "unsolvable",
            Expect::NotConstant => {
                matches!(complexity, "log-star" | "linear" | "unsolvable")
            }
            Expect::AnyVerdict => {
                matches!(
                    complexity,
                    "constant" | "log-star" | "linear" | "unsolvable"
                )
            }
        }
    }

    fn of_family(family: Family) -> Expect {
        match family {
            Family::Solvable => Expect::Constant,
            Family::Unsolvable => Expect::Unsolvable,
            Family::NearThreshold => Expect::NotConstant,
            Family::Uniform => Expect::AnyVerdict,
        }
    }

    fn of_known(known: KnownComplexity) -> Option<Expect> {
        match known {
            KnownComplexity::Constant => Some(Expect::Constant),
            KnownComplexity::LogStar => Some(Expect::LogStar),
            KnownComplexity::Unsolvable => Some(Expect::Unsolvable),
            KnownComplexity::Linear => None,
        }
    }
}

/// One problem a workload sends, with what reproduces it.
pub struct Problem {
    pub problem: NormalizedLcl,
    /// The canonical `ProblemSpec` JSON, as a client would send it.
    pub spec_json: String,
    pub expect: Expect,
    /// `GenConfig` JSON or a corpus/ladder name: the reproducer's handle.
    pub origin: String,
}

impl Problem {
    fn new(problem: NormalizedLcl, expect: Expect, origin: String) -> Problem {
        let spec_json = problem.to_spec().to_json_string();
        Problem {
            problem,
            spec_json,
            expect,
            origin,
        }
    }

    fn renamed(&self, name: &str) -> Problem {
        let mut spec = self.problem.to_spec();
        spec.name = name.to_string();
        let problem = spec.to_problem().expect("a renamed valid spec stays valid");
        Problem::new(
            problem,
            self.expect,
            format!("{} renamed {name}", self.origin),
        )
    }
}

/// How a classify frame is spelled. Only `Canonical` matches the bytes the
/// server's raw-text memo recognizes; the others take the parse path. The
/// `"kind":"classify"` member stays unspaced in all of them, so every warm
/// frame stays in the server's fast lane on the reactor thread.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Spelling {
    Canonical,
    Spaced,
    Reordered,
}

/// A classify frame with a hole for the request id: `head + id + tail`.
pub struct Frame {
    pub head: String,
    pub tail: String,
}

impl Frame {
    pub fn classify(spec_json: &str, spelling: Spelling) -> Frame {
        let (head, tail) = match spelling {
            Spelling::Canonical => (
                "{\"id\":".to_string(),
                format!(",\"kind\":\"classify\",\"payload\":{{\"problem\":{spec_json}}},\"v\":1}}"),
            ),
            Spelling::Spaced => (
                "{ \"id\": ".to_string(),
                format!(" ,\"kind\":\"classify\", \"payload\": {{ \"problem\": {spec_json} }}, \"v\": 1 }}"),
            ),
            Spelling::Reordered => (
                format!("{{\"v\":1,\"payload\":{{\"problem\":{spec_json}}},\"kind\":\"classify\",\"id\":"),
                "}".to_string(),
            ),
        };
        Frame { head, tail }
    }

    pub fn solve_stream(spec_json: &str, case: &StreamCase) -> Frame {
        Frame {
            head: "{\"id\":".to_string(),
            tail: format!(
                ",\"kind\":\"solve_stream\",\"payload\":{{\"instance\":{},\"problem\":{spec_json}}},\"v\":1}}",
                case.spec().to_json_string()
            ),
        }
    }

    pub fn with_id(&self, id: i64) -> String {
        format!("{}{id}{}", self.head, self.tail)
    }

    pub fn write_with_id(&self, out: &mut Vec<u8>, id: i64) {
        out.extend_from_slice(self.head.as_bytes());
        out.extend_from_slice(id.to_string().as_bytes());
        out.extend_from_slice(self.tail.as_bytes());
        out.push(b'\n');
    }
}

/// Splits a reply line into its id and everything after `{"id":<id>,`.
pub fn split_reply(line: &str) -> Option<(i64, &str)> {
    let rest = line.strip_prefix("{\"id\":")?;
    let comma = rest.find(',')?;
    Some((rest[..comma].parse().ok()?, &rest[comma + 1..]))
}

/// The verdict's complexity in a classify reply, or `None` for anything but
/// a successful classify reply.
pub fn reply_complexity(line: &str) -> Option<String> {
    let value = JsonValue::parse(line).ok()?;
    if !value.get("ok")?.as_bool().ok()? {
        return None;
    }
    let verdict = value.get("payload")?.get("verdict")?;
    Some(verdict.get("complexity")?.as_str().ok()?.to_string())
}

fn gen_config(
    rng: &mut Rng,
    family: Family,
    inputs: (usize, usize),
    outputs: (usize, usize),
) -> GenConfig {
    GenConfig::new(rng.next_u64() >> 1)
        .family(family)
        .input_labels(rng.range(inputs.0, inputs.1))
        .output_labels(rng.range(outputs.0, outputs.1))
}

/// `count` structurally distinct generated problems, families in rotation.
pub fn generated(
    rng: &mut Rng,
    count: usize,
    inputs: (usize, usize),
    outputs: (usize, usize),
) -> Vec<Problem> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    let mut attempts = 0;
    while out.len() < count && attempts < count * 20 {
        attempts += 1;
        let family = Family::ALL[out.len() % Family::ALL.len()];
        let config = gen_config(rng, family, inputs, outputs);
        let problem = generate(&config).expect("generator knobs are in range");
        if seen.insert(problem.structural_key()) {
            let origin = format!("GenConfig {}", config.to_json().to_json_string());
            out.push(Problem::new(problem, Expect::of_family(family), origin));
        }
    }
    out
}

/// The warm problem sets: `distinct` structures plus `twins` renamed
/// copies (structural twins the cache serves under another name). The
/// structures are drawn from a fixed generator seed (`base`) and relabeled
/// by the run's seed ([`relabeled`]), so every seed sends different
/// problems of the same cost and size.
pub fn warm_set(
    rng: &mut Rng,
    base: u64,
    distinct: usize,
    twins: usize,
    inputs: (usize, usize),
    outputs: (usize, usize),
) -> Vec<Problem> {
    let mut set: Vec<Problem> = generated(&mut Rng::new(base), distinct, inputs, outputs)
        .iter()
        .map(|p| relabeled(p, rng))
        .collect();
    for i in 0..twins {
        let original = &set[rng.range(0, distinct - 1)];
        let twin = original.renamed(&format!("twin-{i}-{}", original.problem.name()));
        set.push(twin);
    }
    set
}

/// The colouring and unconstrained ladders, whose answers are textbook:
/// `k`-colouring with `k ≥ 3` is `Θ(log* n)` and an unconstrained problem
/// is `O(1)` whatever its alphabet.
pub fn ladders() -> Vec<Problem> {
    let colorings = (3..=14).map(|k| {
        Problem::new(
            problems::coloring(k),
            Expect::LogStar,
            format!("coloring({k})"),
        )
    });
    let unconstrained = (2..=16).map(|k| {
        Problem::new(
            problems::unconstrained(k),
            Expect::Constant,
            format!("unconstrained({k})"),
        )
    });
    colorings.chain(unconstrained).collect()
}

/// Known failures at this revision: problems and instances the oracles
/// reject. They are kept out of the timed workloads (which must not fail)
/// and probed by `--known-failures`.
pub fn known_failing_verdicts() -> Vec<Problem> {
    vec![
        Problem::new(
            problems::coloring(64),
            Expect::LogStar,
            "coloring(64)".into(),
        ),
        Problem::new(
            problems::unconstrained(64),
            Expect::Constant,
            "unconstrained(64)".into(),
        ),
    ]
}

/// The cold problem base: the ladders plus `per_cell` structurally new
/// draws for every family × input alphabet (1–3) × output alphabet (3–8)
/// cell, drawn from one fixed generator seed. Classification cost is
/// heavy-tailed in the draw, so drawing per seed made seeds incomparable;
/// each round sends a seeded relabeling of this base ([`cold_round`]).
pub fn cold_base(per_cell: usize) -> Vec<Problem> {
    const BASE_SEED: u64 = 0x636f_6c64_6261_7365;
    let mut base_rng = Rng::new(BASE_SEED);
    let mut set = ladders();
    let mut seen: HashSet<Vec<u8>> = set.iter().map(|p| p.problem.structural_key()).collect();
    for family in Family::ALL {
        for inputs in 1..=3 {
            for outputs in 3..=8 {
                let mut drawn = 0;
                for _ in 0..per_cell * 20 {
                    if drawn == per_cell {
                        break;
                    }
                    let config =
                        gen_config(&mut base_rng, family, (inputs, inputs), (outputs, outputs));
                    let problem = generate(&config).expect("generator knobs are in range");
                    if !seen.insert(problem.structural_key()) {
                        continue;
                    }
                    let origin = format!("GenConfig {}", config.to_json().to_json_string());
                    set.push(Problem::new(problem, Expect::of_family(family), origin));
                    drawn += 1;
                }
            }
        }
    }
    set
}

/// One `cold_classify` round: every base problem relabeled ([`relabeled`])
/// and the set shuffled, both by `rng`. The classifier's cost depends on
/// the order of the labels, so a fresh relabeling per round lets a run
/// average over many orders instead of resting on the one its seed drew.
pub fn cold_round(base: &[Problem], rng: &mut Rng) -> Vec<Problem> {
    let mut set: Vec<Problem> = base.iter().map(|p| relabeled(p, rng)).collect();
    rng.shuffle(&mut set);
    set
}

/// `p` with its input and output labels permuted by seeded permutations:
/// different constraint tables (so a different cache key and frame), but
/// an isomorphic problem, so the same complexity class.
pub fn relabeled(p: &Problem, rng: &mut Rng) -> Problem {
    let spec = p.problem.to_spec();
    let permutation = |n: usize, rng: &mut Rng| {
        let mut perm: Vec<u16> = (0..n as u16).collect();
        rng.shuffle(&mut perm);
        perm
    };
    let (pi, po) = (
        permutation(spec.input_labels.len(), rng),
        permutation(spec.output_labels.len(), rng),
    );
    let permuted = |names: &[String], perm: &[u16]| {
        let mut out = names.to_vec();
        for (k, name) in names.iter().enumerate() {
            out[usize::from(perm[k])] = name.clone();
        }
        out
    };
    let mut relabeled = spec.clone();
    relabeled.name = format!("{}-r{}", spec.name, rng.next_u64() % 1_000_000);
    relabeled.input_labels = permuted(&spec.input_labels, &pi);
    relabeled.output_labels = permuted(&spec.output_labels, &po);
    relabeled.node_pairs = spec
        .node_pairs
        .iter()
        .map(|&(i, o)| (pi[usize::from(i)], po[usize::from(o)]))
        .collect();
    relabeled.edge_pairs = spec
        .edge_pairs
        .iter()
        .map(|&(a, b)| (po[usize::from(a)], po[usize::from(b)]))
        .collect();
    let problem = relabeled
        .to_problem()
        .expect("a relabeled valid spec stays valid");
    let origin = format!("{} relabeled as {}", p.origin, relabeled.to_json_string());
    Problem::new(problem, p.expect, origin)
}

/// The corpus problems `solve_stream` can label (`O(1)` and `Θ(log* n)`).
pub fn stream_problems() -> Vec<Problem> {
    problems::corpus()
        .into_iter()
        .filter(|e| {
            matches!(
                e.expected,
                KnownComplexity::Constant | KnownComplexity::LogStar
            )
        })
        .map(|e| {
            let expect = Expect::of_known(e.expected).expect("filtered to solvable classes");
            let name = e.problem.name().to_string();
            Problem::new(e.problem, expect, name)
        })
        .collect()
}

/// One `solve_stream` instance with seeded inputs.
#[derive(Clone, Debug)]
pub struct StreamCase {
    pub topology: Topology,
    pub length: u64,
    pub seed: u64,
    /// The problem's input alphabet size.
    pub alphabet: usize,
}

impl StreamCase {
    pub fn spec(&self) -> StreamInstanceSpec {
        StreamInstanceSpec {
            topology: self.topology,
            length: self.length,
            inputs: StreamInputs::Seeded { seed: self.seed },
        }
    }

    /// The input label of node `i`, from the wire definition of the rule.
    pub fn input_at(&self, i: u64) -> u16 {
        (splitmix64(self.seed ^ i) % self.alphabet.max(1) as u64) as u16
    }

    pub fn describe(&self) -> String {
        self.spec().to_json_string()
    }
}

/// Instances that fail at this revision, probed by `--known-failures`.
pub fn known_failing_case(problem: &Problem, case: &StreamCase) -> bool {
    let name = problem.problem.name();
    let log_star = matches!(name, "3-coloring" | "4-coloring" | "mis");
    (name == "input-boundary" && case.length >= 1000)
        || (log_star && case.topology == Topology::Path && case.length >= 300)
}

/// The node and edge tables of a spec JSON, read independently of the
/// problem crate's own tables.
pub struct Tables {
    outputs: usize,
    node: Vec<bool>,
    edge: Vec<bool>,
}

impl Tables {
    pub fn from_spec_json(spec_json: &str) -> Tables {
        let spec = JsonValue::parse(spec_json).expect("spec JSON parses");
        let len = |key: &str| {
            spec.get(key)
                .and_then(|v| v.as_array().ok())
                .map_or(0, |a| a.len())
        };
        let (inputs, outputs) = (len("input_labels"), len("output_labels"));
        let pairs = |key: &str| -> Vec<(usize, usize)> {
            spec.get(key)
                .and_then(|v| v.as_array().ok())
                .map(|items| {
                    items
                        .iter()
                        .filter_map(|pair| {
                            let pair = pair.as_array().ok()?;
                            Some((
                                pair[0].as_int().ok()? as usize,
                                pair[1].as_int().ok()? as usize,
                            ))
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        let mut node = vec![false; inputs * outputs];
        for (i, o) in pairs("node_pairs") {
            node[i * outputs + o] = true;
        }
        let mut edge = vec![false; outputs * outputs];
        for (p, q) in pairs("edge_pairs") {
            edge[p * outputs + q] = true;
        }
        Tables {
            outputs,
            node,
            edge,
        }
    }

    pub fn node_ok(&self, input: u16, output: u16) -> bool {
        let (i, o) = (usize::from(input), usize::from(output));
        o < self.outputs
            && self
                .node
                .get(i * self.outputs + o)
                .copied()
                .unwrap_or(false)
    }

    pub fn edge_ok(&self, pred: u16, succ: u16) -> bool {
        let (p, q) = (usize::from(pred), usize::from(succ));
        p < self.outputs && q < self.outputs && self.edge[p * self.outputs + q]
    }
}

/// Checks a labeling as it streams in, chunk by chunk.
pub struct LabelingCheck<'a> {
    tables: &'a Tables,
    case: &'a StreamCase,
    next: u64,
    first: Option<u16>,
    last: Option<u16>,
    pub violation: Option<String>,
}

impl<'a> LabelingCheck<'a> {
    pub fn new(tables: &'a Tables, case: &'a StreamCase) -> Self {
        LabelingCheck {
            tables,
            case,
            next: 0,
            first: None,
            last: None,
            violation: None,
        }
    }

    pub fn chunk(&mut self, offset: u64, outputs: &[u16]) {
        if self.violation.is_some() {
            return;
        }
        if offset != self.next {
            self.violation = Some(format!("chunk offset {offset}, expected {}", self.next));
            return;
        }
        for (k, &out) in outputs.iter().enumerate() {
            let i = offset + k as u64;
            if !self.tables.node_ok(self.case.input_at(i), out) {
                self.violation = Some(format!(
                    "node {i} labeled {out} against input {}",
                    self.case.input_at(i)
                ));
                return;
            }
            if let Some(prev) = self.last {
                if !self.tables.edge_ok(prev, out) {
                    self.violation = Some(format!("edge ({}, {i}) labeled ({prev}, {out})", i - 1));
                    return;
                }
            }
            self.first.get_or_insert(out);
            self.last = Some(out);
        }
        self.next += outputs.len() as u64;
    }

    /// Final checks: every node labeled, and the closing edge of a cycle.
    pub fn finish(&mut self) -> Option<String> {
        if self.violation.is_none() && self.next != self.case.length {
            self.violation = Some(format!(
                "{} of {} nodes labeled",
                self.next, self.case.length
            ));
        }
        if self.violation.is_none() && self.case.topology == Topology::Cycle {
            if let (Some(last), Some(first)) = (self.last, self.first) {
                if !self.tables.edge_ok(last, first) {
                    self.violation = Some(format!("closing edge labeled ({last}, {first})"));
                }
            }
        }
        self.violation.take()
    }
}
