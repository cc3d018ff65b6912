//! Classification verdicts, including the serializable wire-format summary.

use crate::Result;
use lcl_local_sim::LocalAlgorithm;
use lcl_problem::json::{self, JsonValue};
use lcl_problem::{Instance, NormalizedLcl, ProblemError};
use std::fmt;

/// The deterministic LOCAL complexity class of an LCL problem on labeled
/// directed cycles (and paths, via the endpoint-label lift).
///
/// The paper shows these are the only possible classes for `∆ = 2`
/// (§1, "the time complexity of any LCL problem is either O(1), Θ(log* n), or
/// Θ(n)"); we add an explicit `Unsolvable` verdict for problems that admit no
/// valid labeling on some instance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Complexity {
    /// Some input-labeled cycle admits no valid output labeling at all.
    Unsolvable,
    /// Solvable in a constant number of rounds.
    Constant,
    /// Solvable in `Θ(log* n)` rounds and not faster.
    LogStar,
    /// Requires `Θ(n)` rounds.
    Linear,
}

impl Complexity {
    /// The stable ASCII identifier used by the wire format (as opposed to the
    /// human-oriented [`fmt::Display`] form, which uses mathematical
    /// notation).
    pub fn wire_name(&self) -> &'static str {
        match self {
            Complexity::Unsolvable => "unsolvable",
            Complexity::Constant => "constant",
            Complexity::LogStar => "log-star",
            Complexity::Linear => "linear",
        }
    }

    /// Parses a wire identifier produced by [`Complexity::wire_name`].
    pub fn from_wire_name(name: &str) -> Option<Self> {
        match name {
            "unsolvable" => Some(Complexity::Unsolvable),
            "constant" => Some(Complexity::Constant),
            "log-star" => Some(Complexity::LogStar),
            "linear" => Some(Complexity::Linear),
            _ => None,
        }
    }
}

impl fmt::Display for Complexity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Complexity::Unsolvable => write!(f, "unsolvable"),
            Complexity::Constant => write!(f, "O(1)"),
            Complexity::LogStar => write!(f, "Θ(log* n)"),
            Complexity::Linear => write!(f, "Θ(n)"),
        }
    }
}

/// The full result of classifying a problem: the complexity class, an optional
/// unsolvability witness, and the synthesized algorithm for the class.
#[derive(Clone, Debug)]
pub struct Classification {
    pub(crate) complexity: Complexity,
    pub(crate) witness: Option<Instance>,
    pub(crate) synthesized: crate::synthesis::SynthesizedAlgorithm,
    pub(crate) num_types: usize,
    pub(crate) pump_threshold: usize,
}

impl Classification {
    /// The complexity class.
    pub fn complexity(&self) -> Complexity {
        self.complexity.clone()
    }

    /// A witness instance with no valid labeling, for unsolvable problems.
    pub fn unsolvability_witness(&self) -> Option<&Instance> {
        self.witness.as_ref()
    }

    /// The synthesized asymptotically optimal LOCAL algorithm (the trivial
    /// gather-all algorithm for `Θ(n)` and unsolvable problems).
    pub fn algorithm(&self) -> &crate::synthesis::SynthesizedAlgorithm {
        &self.synthesized
    }

    /// The number of path types (transfer relations) of the problem —
    /// the size of the object the decision procedure works with.
    pub fn num_types(&self) -> usize {
        self.num_types
    }

    /// The computed pumping threshold (the stand-in for the paper's `ℓ_pump`).
    pub fn pump_threshold(&self) -> usize {
        self.pump_threshold
    }
}

impl fmt::Display for Classification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} types, pump threshold {})",
            self.complexity, self.num_types, self.pump_threshold
        )
    }
}

/// The serializable summary of a classification: everything a service client
/// needs to know about a verdict, without the (non-serializable) synthesized
/// algorithm. Produced by [`crate::Engine::verdict`] or [`Verdict::new`];
/// round-trips through JSON.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Verdict {
    /// The complexity class.
    pub complexity: Complexity,
    /// Number of path types of the problem.
    pub num_types: usize,
    /// The computed pumping threshold.
    pub pump_threshold: usize,
    /// Name of the classified problem.
    pub problem_name: String,
    /// The problem's canonical structural hash
    /// ([`NormalizedLcl::canonical_hash`]).
    pub problem_hash: u64,
    /// Name of the synthesized algorithm.
    pub algorithm: String,
    /// Witness instance with no valid labeling, for unsolvable problems.
    pub witness: Option<Instance>,
}

impl Verdict {
    /// Summarizes a classification of `problem`.
    pub fn new(problem: &NormalizedLcl, classification: &Classification) -> Self {
        Verdict {
            complexity: classification.complexity(),
            num_types: classification.num_types(),
            pump_threshold: classification.pump_threshold(),
            problem_name: problem.name().to_string(),
            problem_hash: problem.canonical_hash(),
            algorithm: classification.algorithm().name().to_string(),
            witness: classification.unsolvability_witness().cloned(),
        }
    }

    /// Serializes to a JSON document.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            (
                "complexity",
                JsonValue::Str(self.complexity.wire_name().into()),
            ),
            ("num_types", JsonValue::Int(self.num_types as i64)),
            ("pump_threshold", JsonValue::Int(self.pump_threshold as i64)),
            ("problem_name", JsonValue::Str(self.problem_name.clone())),
            (
                "problem_hash",
                JsonValue::Str(format!("{:016x}", self.problem_hash)),
            ),
            ("algorithm", JsonValue::Str(self.algorithm.clone())),
            (
                "witness",
                match &self.witness {
                    Some(instance) => instance.to_json(),
                    None => JsonValue::Null,
                },
            ),
        ])
    }

    /// Serializes to a compact JSON string with canonical field order.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_json_string()
    }

    /// Appends the bytes of `Verdict::new(problem,
    /// classification).to_json_string()` to `out`, written directly
    /// instead of through a [`JsonValue`] tree and without copying the
    /// name, the algorithm name or the witness into a `Verdict` first.
    /// `to_json` stays the reference the tests hold this to.
    pub fn write_json(problem: &NormalizedLcl, classification: &Classification, out: &mut String) {
        Self::write_json_hashed(problem, problem.canonical_hash(), classification, out);
    }

    /// [`Verdict::write_json`] for a caller that already holds the
    /// problem's canonical hash (for instance from its structural key,
    /// [`NormalizedLcl::hash_of_key`]), so the constraint tables are not
    /// walked again.
    pub fn write_json_hashed(
        problem: &NormalizedLcl,
        problem_hash: u64,
        classification: &Classification,
        out: &mut String,
    ) {
        write_verdict(
            out,
            &classification.complexity,
            (classification.num_types, classification.pump_threshold),
            (problem.name(), problem_hash),
            classification.algorithm().name(),
            classification.unsolvability_witness(),
        );
    }

    /// Parses a verdict from its JSON wire form.
    ///
    /// # Errors
    ///
    /// Returns a wire-format error on malformed JSON, unknown complexity
    /// identifiers, or invalid hash/witness fields.
    pub fn from_json_str(text: &str) -> Result<Self> {
        let wire = |what: String| crate::ClassifierError::Problem(ProblemError::Wire { what });
        let value = JsonValue::parse(text).map_err(|e| wire(e.to_string()))?;
        Self::from_json(&value)
    }

    /// Reads a verdict back from a parsed JSON document
    /// (see [`Verdict::from_json_str`]).
    ///
    /// # Errors
    ///
    /// Returns a wire-format error on missing fields, unknown complexity
    /// identifiers, or invalid hash/witness fields.
    pub fn from_json(value: &JsonValue) -> Result<Self> {
        let wire = |what: String| crate::ClassifierError::Problem(ProblemError::Wire { what });
        let json_err = |e: lcl_problem::json::JsonError| wire(e.to_string());
        let complexity_name = value.require("complexity").map_err(json_err)?;
        let complexity = Complexity::from_wire_name(complexity_name.as_str().map_err(json_err)?)
            .ok_or_else(|| wire(format!("unknown complexity {complexity_name:?}")))?;
        let count = |field: &str| -> Result<usize> {
            let v = value
                .require(field)
                .and_then(|v| v.as_int())
                .map_err(json_err)?;
            usize::try_from(v)
                .map_err(|_| wire(format!("field `{field}` must be non-negative, got {v}")))
        };
        let num_types = count("num_types")?;
        let pump_threshold = count("pump_threshold")?;
        let problem_name = value
            .require("problem_name")
            .and_then(|v| v.as_str())
            .map_err(json_err)?
            .to_string();
        let hash_text = value
            .require("problem_hash")
            .and_then(|v| v.as_str())
            .map_err(json_err)?;
        if hash_text.is_empty() || !hash_text.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(wire(format!("invalid problem hash `{hash_text}`")));
        }
        let problem_hash = u64::from_str_radix(hash_text, 16)
            .map_err(|_| wire(format!("invalid problem hash `{hash_text}`")))?;
        let algorithm = value
            .require("algorithm")
            .and_then(|v| v.as_str())
            .map_err(json_err)?
            .to_string();
        let witness = match value.require("witness").map_err(json_err)? {
            JsonValue::Null => None,
            instance => Some(Instance::from_json(instance)?),
        };
        Ok(Verdict {
            complexity,
            num_types,
            pump_threshold,
            problem_name,
            problem_hash,
            algorithm,
            witness,
        })
    }
}

/// The canonical verdict object, keys in sorted order as the tree
/// serializer prints them.
fn write_verdict(
    out: &mut String,
    complexity: &Complexity,
    (num_types, pump_threshold): (usize, usize),
    (problem_name, problem_hash): (&str, u64),
    algorithm: &str,
    witness: Option<&Instance>,
) {
    out.push_str("{\"algorithm\":");
    json::write_string(algorithm, out);
    out.push_str(",\"complexity\":\"");
    out.push_str(complexity.wire_name());
    out.push_str("\",\"num_types\":");
    json::write_int(num_types as i64, out);
    out.push_str(",\"problem_hash\":\"");
    // `{:016x}`: sixteen lower-case hex digits.
    for shift in (0..16).rev() {
        out.push(HEX_DIGITS[(problem_hash >> (4 * shift)) as usize & 0xf] as char);
    }
    out.push_str("\",\"problem_name\":");
    json::write_string(problem_name, out);
    out.push_str(",\"pump_threshold\":");
    json::write_int(pump_threshold as i64, out);
    out.push_str(",\"witness\":");
    match witness {
        Some(instance) => instance.write_json(out),
        None => out.push_str("null"),
    }
    out.push('}');
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ({} types, pump threshold {}, via {})",
            self.problem_name, self.complexity, self.num_types, self.pump_threshold, self.algorithm
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify;

    #[test]
    fn display() {
        assert_eq!(Complexity::Constant.to_string(), "O(1)");
        assert_eq!(Complexity::LogStar.to_string(), "Θ(log* n)");
        assert_eq!(Complexity::Linear.to_string(), "Θ(n)");
        assert_eq!(Complexity::Unsolvable.to_string(), "unsolvable");
    }

    #[test]
    fn wire_names_roundtrip() {
        for c in [
            Complexity::Unsolvable,
            Complexity::Constant,
            Complexity::LogStar,
            Complexity::Linear,
        ] {
            assert_eq!(Complexity::from_wire_name(c.wire_name()), Some(c));
        }
        assert_eq!(Complexity::from_wire_name("O(1)"), None);
    }

    fn two_coloring() -> NormalizedLcl {
        let mut b = NormalizedLcl::builder("2-coloring");
        b.input_labels(&["x"]);
        b.output_labels(&["1", "2"]);
        b.allow_all_node_pairs();
        b.allow_edge_idx(0, 1);
        b.allow_edge_idx(1, 0);
        b.build().unwrap()
    }

    #[test]
    fn verdict_roundtrips_through_json() {
        let problem = two_coloring();
        let classification = classify(&problem).unwrap();
        let verdict = Verdict::new(&problem, &classification);
        assert_eq!(verdict.complexity, Complexity::Unsolvable);
        assert!(
            verdict.witness.is_some(),
            "unsolvable verdicts carry witnesses"
        );
        let text = verdict.to_json_string();
        let back = Verdict::from_json_str(&text).unwrap();
        assert_eq!(back, verdict);
        assert!(verdict.to_string().contains("2-coloring"));
    }

    #[test]
    fn the_direct_writer_prints_the_tree_bytes() {
        let mut problems: Vec<NormalizedLcl> = lcl_problems_for_tests();
        problems.push(two_coloring());
        for problem in &problems {
            let Ok(classification) = classify(problem) else {
                continue;
            };
            let verdict = Verdict::new(problem, &classification);
            let tree = verdict.to_json_string();
            let mut direct = String::from("prefix");
            Verdict::write_json(problem, &classification, &mut direct);
            assert_eq!(direct, format!("prefix{tree}"), "{}", problem.name());
        }
        // Escapes in the names, extreme counts and hashes.
        let verdict = Verdict {
            complexity: Complexity::Linear,
            num_types: usize::MAX >> 1,
            pump_threshold: 0,
            problem_name: "q\"u\\o\te\u{1}é".to_string(),
            problem_hash: u64::MAX,
            algorithm: "a\nb".to_string(),
            witness: Some(Instance::from_indices(
                lcl_problem::Topology::Path,
                &[0, 65535],
            )),
        };
        let mut direct = String::new();
        write_verdict(
            &mut direct,
            &verdict.complexity,
            (verdict.num_types, verdict.pump_threshold),
            (&verdict.problem_name, verdict.problem_hash),
            &verdict.algorithm,
            verdict.witness.as_ref(),
        );
        assert_eq!(direct, verdict.to_json_string());
        assert_eq!(Verdict::from_json_str(&direct).unwrap(), verdict);
    }

    /// Problems of every class, built here: the problem crate's corpus
    /// lives in a crate that depends on this one.
    fn lcl_problems_for_tests() -> Vec<NormalizedLcl> {
        let mut out = Vec::new();
        for k in 2..=4u16 {
            let mut b = NormalizedLcl::builder(format!("{k}-colouring"));
            b.input_labels(&["x"]);
            b.output_labels(&(0..k).map(|c| c.to_string()).collect::<Vec<_>>());
            b.allow_all_node_pairs();
            for p in 0..k {
                for q in 0..k {
                    if p != q {
                        b.allow_edge_idx(p, q);
                    }
                }
            }
            out.push(b.build().unwrap());
        }
        let mut copy = NormalizedLcl::builder("copy input");
        copy.input_labels(&["a", "b"]);
        copy.output_labels(&["a", "b"]);
        copy.allow_node_idx(0, 0);
        copy.allow_node_idx(1, 1);
        copy.allow_all_edge_pairs();
        out.push(copy.build().unwrap());
        let mut free = NormalizedLcl::builder("anything");
        free.input_labels(&["x"]);
        free.output_labels(&["o"]);
        free.allow_all_node_pairs();
        free.allow_all_edge_pairs();
        out.push(free.build().unwrap());
        out
    }

    #[test]
    fn malformed_verdicts_are_rejected() {
        assert!(Verdict::from_json_str("{").is_err());
        assert!(Verdict::from_json_str("{}").is_err());
        let bad_complexity = r#"{"algorithm":"a","complexity":"sublinear","num_types":1,"problem_hash":"00","problem_name":"p","pump_threshold":1,"witness":null}"#;
        assert!(Verdict::from_json_str(bad_complexity).is_err());
        let bad_hash = r#"{"algorithm":"a","complexity":"linear","num_types":1,"problem_hash":"zz","problem_name":"p","pump_threshold":1,"witness":null}"#;
        assert!(Verdict::from_json_str(bad_hash).is_err());
        let plus_hash = r#"{"algorithm":"a","complexity":"linear","num_types":1,"problem_hash":"+ff","problem_name":"p","pump_threshold":1,"witness":null}"#;
        assert!(Verdict::from_json_str(plus_hash).is_err());
        let negative_count = r#"{"algorithm":"a","complexity":"linear","num_types":-1,"problem_hash":"00","problem_name":"p","pump_threshold":1,"witness":null}"#;
        assert!(Verdict::from_json_str(negative_count).is_err());
    }
}
