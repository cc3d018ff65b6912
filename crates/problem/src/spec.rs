//! The versioned wire format for problems and instances, and canonical
//! problem hashing.
//!
//! [`ProblemSpec`] is the service-boundary representation of a
//! [`NormalizedLcl`]: a flat, versioned description (alphabets as name lists,
//! constraints as explicit index pairs) that serializes to canonical JSON and
//! round-trips losslessly. The spec exists so that problems can cross process
//! boundaries — request payloads, corpus files, cache manifests — without
//! exposing the in-memory table layout, and the `version` field lets future
//! revisions evolve the format without breaking old payloads.
//!
//! [`NormalizedLcl::structural_key`] is the exact byte encoding of the fields
//! that determine a problem's complexity (alphabet sizes and constraint
//! tables) — it deliberately ignores display-only data (the problem name and
//! label names), so renamed copies of the same problem share cache entries in
//! the classifier engine, which keys its memo cache by this exact key.
//! [`NormalizedLcl::canonical_hash`] is the compact 64-bit digest of the same
//! bytes, used where a fixed-width fingerprint is wanted (wire verdicts,
//! logs); being a digest it can collide, so it is not used as a cache key.

use crate::json::{self, JsonError, JsonValue, Reader};
use crate::{
    Alphabet, InLabel, Instance, Labeling, NormalizedLcl, OutLabel, ProblemError, Result, Topology,
};

/// The current [`ProblemSpec`] wire-format version.
pub const PROBLEM_SPEC_VERSION: i64 = 1;

/// A flat, versioned, serializable description of a [`NormalizedLcl`].
///
/// # Example
///
/// ```
/// use lcl_problem::{NormalizedLcl, ProblemSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NormalizedLcl::builder("copy");
/// b.input_labels(&["a"]);
/// b.output_labels(&["a"]);
/// b.allow_all_node_pairs();
/// b.allow_all_edge_pairs();
/// let problem = b.build()?;
///
/// let json = ProblemSpec::from_problem(&problem).to_json_string();
/// let back = ProblemSpec::from_json_str(&json)?.to_problem()?;
/// assert_eq!(back, problem);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProblemSpec {
    /// Wire-format version; currently always [`PROBLEM_SPEC_VERSION`].
    pub version: i64,
    /// Human-readable problem name.
    pub name: String,
    /// Input alphabet names, in index order.
    pub input_labels: Vec<String>,
    /// Output alphabet names, in index order.
    pub output_labels: Vec<String>,
    /// Allowed `(input, output)` node pairs, as label indices.
    pub node_pairs: Vec<(u16, u16)>,
    /// Allowed `(pred, succ)` edge pairs, as output label indices.
    pub edge_pairs: Vec<(u16, u16)>,
}

impl ProblemSpec {
    /// Extracts the spec of a problem. Lossless: `spec.to_problem()` rebuilds
    /// an equal [`NormalizedLcl`].
    pub fn from_problem(problem: &NormalizedLcl) -> Self {
        ProblemSpec {
            version: PROBLEM_SPEC_VERSION,
            name: problem.name().to_string(),
            input_labels: problem.input_alphabet().names().to_vec(),
            output_labels: problem.output_alphabet().names().to_vec(),
            node_pairs: problem.allowed_node_pairs().collect(),
            edge_pairs: problem.allowed_edge_pairs().collect(),
        }
    }

    /// Builds the in-memory problem this spec describes.
    ///
    /// # Errors
    ///
    /// Returns an error if the spec's version is unknown, an alphabet is
    /// empty, or a constraint pair references a label outside its alphabet.
    pub fn to_problem(&self) -> Result<NormalizedLcl> {
        self.clone().into_problem()
    }

    /// [`ProblemSpec::to_problem`], consuming the spec: the name and the
    /// label names move into the problem instead of being copied.
    ///
    /// # Errors
    ///
    /// See [`ProblemSpec::to_problem`].
    pub fn into_problem(self) -> Result<NormalizedLcl> {
        if self.version != PROBLEM_SPEC_VERSION {
            return Err(ProblemError::Wire {
                what: format!(
                    "unsupported problem spec version {} (supported: {PROBLEM_SPEC_VERSION})",
                    self.version
                ),
            });
        }
        let widen = |&(a, b): &(u16, u16)| (usize::from(a), usize::from(b));
        NormalizedLcl::from_parts(
            self.name,
            Alphabet::new(self.input_labels),
            Alphabet::new(self.output_labels),
            (false, self.node_pairs.iter().map(widen)),
            (false, self.edge_pairs.iter().map(widen)),
        )
    }

    /// Reads a spec straight from `reader`, positioned at the spec object,
    /// without building a [`JsonValue`] tree.
    ///
    /// Returns `None` on anything it does not accept whole: a syntax error,
    /// a missing, repeated or unknown field, a wrong type, a pair that is
    /// not two integers, or a label index outside `u16`. Where it returns
    /// `Some`, [`ProblemSpec::from_json`] on the same text returns an equal
    /// spec; where it returns `None`, the caller reads the text again with
    /// `from_json`, which accepts unknown fields and words the error.
    pub(crate) fn read(reader: &mut Reader<'_>) -> Option<Self> {
        const FIELDS: [&str; 6] = [
            "version",
            "name",
            "input_labels",
            "output_labels",
            "node_pairs",
            "edge_pairs",
        ];
        let mut spec = ProblemSpec {
            version: 0,
            name: String::new(),
            input_labels: Vec::new(),
            output_labels: Vec::new(),
            node_pairs: Vec::new(),
            edge_pairs: Vec::new(),
        };
        let mut seen = 0u8;
        let mut more = reader.begin_object().ok()?;
        while more {
            let key = reader.read_key().ok()?;
            let field = FIELDS.iter().position(|&f| f == key)?;
            if seen & (1 << field) != 0 {
                return None;
            }
            seen |= 1 << field;
            match field {
                0 => spec.version = reader.read_int().ok()?,
                1 => spec.name = reader.read_str().ok()?.into_owned(),
                2 => spec.input_labels = read_strings(reader)?,
                3 => spec.output_labels = read_strings(reader)?,
                4 => spec.node_pairs = read_pairs(reader)?,
                _ => spec.edge_pairs = read_pairs(reader)?,
            }
            more = reader.object_continues().ok()?;
        }
        (seen == (1 << FIELDS.len()) - 1).then_some(spec)
    }

    /// Serializes to a JSON document.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("version", JsonValue::Int(self.version)),
            ("name", JsonValue::Str(self.name.clone())),
            (
                "input_labels",
                JsonValue::str_array(self.input_labels.iter().cloned()),
            ),
            (
                "output_labels",
                JsonValue::str_array(self.output_labels.iter().cloned()),
            ),
            ("node_pairs", pairs_to_json(&self.node_pairs)),
            ("edge_pairs", pairs_to_json(&self.edge_pairs)),
        ])
    }

    /// Serializes to a compact JSON string with canonical field order.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_json_string()
    }

    /// Reads a spec back from a JSON document.
    ///
    /// # Errors
    ///
    /// Returns an error on missing fields, wrong types, or out-of-range label
    /// indices.
    pub fn from_json(value: &JsonValue) -> Result<Self> {
        let version = value.require("version")?.as_int().map_err(wire)?;
        let name = value.require("name")?.as_str().map_err(wire)?.to_string();
        let input_labels = string_list(value.require("input_labels")?)?;
        let output_labels = string_list(value.require("output_labels")?)?;
        let node_pairs = pairs_from_json(value.require("node_pairs")?)?;
        let edge_pairs = pairs_from_json(value.require("edge_pairs")?)?;
        Ok(ProblemSpec {
            version,
            name,
            input_labels,
            output_labels,
            node_pairs,
            edge_pairs,
        })
    }

    /// Parses a spec from its JSON string form.
    ///
    /// # Errors
    ///
    /// See [`ProblemSpec::from_json`]; additionally reports JSON syntax errors.
    pub fn from_json_str(text: &str) -> Result<Self> {
        Self::from_json(&JsonValue::parse(text).map_err(wire)?)
    }
}

fn wire(e: JsonError) -> ProblemError {
    ProblemError::Wire {
        what: e.to_string(),
    }
}

impl From<JsonError> for ProblemError {
    fn from(e: JsonError) -> Self {
        wire(e)
    }
}

fn pairs_to_json(pairs: &[(u16, u16)]) -> JsonValue {
    JsonValue::Array(
        pairs
            .iter()
            .map(|&(a, b)| JsonValue::int_array([i64::from(a), i64::from(b)]))
            .collect(),
    )
}

fn pairs_from_json(value: &JsonValue) -> Result<Vec<(u16, u16)>> {
    let mut out = Vec::new();
    for item in value.as_array().map_err(wire)? {
        let pair = item.as_array().map_err(wire)?;
        if pair.len() != 2 {
            return Err(ProblemError::Wire {
                what: format!("constraint pair has {} entries, expected 2", pair.len()),
            });
        }
        let a = int_as_u16(pair[0].as_int().map_err(wire)?)?;
        let b = int_as_u16(pair[1].as_int().map_err(wire)?)?;
        out.push((a, b));
    }
    Ok(out)
}

fn int_as_u16(v: i64) -> Result<u16> {
    u16::try_from(v).map_err(|_| ProblemError::Wire {
        what: format!("label index {v} does not fit in u16"),
    })
}

fn string_list(value: &JsonValue) -> Result<Vec<String>> {
    value
        .as_array()
        .map_err(wire)?
        .iter()
        .map(|v| Ok(v.as_str().map_err(wire)?.to_string()))
        .collect()
}

/// An array of strings, for [`ProblemSpec::read`].
fn read_strings(reader: &mut Reader<'_>) -> Option<Vec<String>> {
    let mut out = Vec::new();
    let mut more = reader.begin_array().ok()?;
    while more {
        out.push(reader.read_str().ok()?.into_owned());
        more = reader.array_continues().ok()?;
    }
    Some(out)
}

/// An array of `[a, b]` label-index pairs, for [`ProblemSpec::read`].
fn read_pairs(reader: &mut Reader<'_>) -> Option<Vec<(u16, u16)>> {
    let mut out = Vec::new();
    let label = |reader: &mut Reader<'_>| u16::try_from(reader.read_int().ok()?).ok();
    let mut more = reader.begin_array().ok()?;
    while more {
        if !reader.begin_array().ok()? {
            return None;
        }
        let a = label(reader)?;
        if !reader.array_continues().ok()? {
            return None;
        }
        let b = label(reader)?;
        if reader.array_continues().ok()? {
            return None;
        }
        out.push((a, b));
        more = reader.array_continues().ok()?;
    }
    Some(out)
}

impl NormalizedLcl {
    /// Iterates over the allowed `(input, output)` node pairs, in row-major
    /// index order.
    pub fn allowed_node_pairs(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        (0..self.num_inputs()).flat_map(move |i| {
            (0..self.num_outputs()).filter_map(move |o| {
                self.node_ok(InLabel::from_index(i), OutLabel::from_index(o))
                    .then_some((i as u16, o as u16))
            })
        })
    }

    /// Iterates over the allowed `(pred, succ)` edge pairs, in row-major
    /// index order.
    pub fn allowed_edge_pairs(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        (0..self.num_outputs()).flat_map(move |p| {
            (0..self.num_outputs()).filter_map(move |q| {
                self.edge_ok(OutLabel::from_index(p), OutLabel::from_index(q))
                    .then_some((p as u16, q as u16))
            })
        })
    }

    /// Extracts the problem's wire spec. Shorthand for
    /// [`ProblemSpec::from_problem`].
    pub fn to_spec(&self) -> ProblemSpec {
        ProblemSpec::from_problem(self)
    }

    /// Serializes the problem to its canonical JSON wire form.
    pub fn to_json_string(&self) -> String {
        self.to_spec().to_json_string()
    }

    /// Parses a problem from its JSON wire form.
    ///
    /// # Errors
    ///
    /// See [`ProblemSpec::from_json_str`] and [`ProblemSpec::to_problem`].
    pub fn from_json_str(text: &str) -> Result<Self> {
        ProblemSpec::from_json_str(text)?.to_problem()
    }

    /// The exact byte encoding of the problem's structure: the alphabet sizes
    /// followed by the bit-packed node and edge constraint tables.
    ///
    /// Two problems have equal keys exactly when they have the same alphabet
    /// sizes and identical constraint tables; the name and label names do not
    /// participate, because they never influence the complexity
    /// classification. The layout is fixed (sizes, then the row-major node
    /// table, then the row-major edge table), so keys are stable across
    /// processes. The classifier engine uses this as its collision-free memo
    /// key; [`Self::canonical_hash`] is the compact 64-bit digest of the same
    /// bytes.
    pub fn structural_key(&self) -> Vec<u8> {
        let alpha = self.num_inputs();
        let beta = self.num_outputs();
        let table_bits = alpha * beta + beta * beta;
        let mut key = Vec::with_capacity(16 + table_bits.div_ceil(8));
        self.structural_bytes(|byte| key.push(byte));
        key
    }

    /// Feeds the bytes of [`Self::structural_key`] to `sink` in order,
    /// without materializing them — the hot classify path hashes these bytes
    /// per request, so the digest must not cost an allocation.
    fn structural_bytes(&self, mut sink: impl FnMut(u8)) {
        let alpha = self.num_inputs();
        let beta = self.num_outputs();
        for byte in (alpha as u64).to_le_bytes() {
            sink(byte);
        }
        for byte in (beta as u64).to_le_bytes() {
            sink(byte);
        }
        // Pack the boolean tables into bits so the key is layout-independent.
        let mut acc: u8 = 0;
        let mut bits = 0u32;
        let node = (0..alpha).flat_map(|i| {
            (0..beta).map(move |o| (InLabel::from_index(i), OutLabel::from_index(o)))
        });
        for (i, o) in node {
            acc = (acc << 1) | u8::from(self.node_ok(i, o));
            bits += 1;
            if bits == 8 {
                sink(acc);
                acc = 0;
                bits = 0;
            }
        }
        let edge = (0..beta).flat_map(|p| {
            (0..beta).map(move |q| (OutLabel::from_index(p), OutLabel::from_index(q)))
        });
        for (p, q) in edge {
            acc = (acc << 1) | u8::from(self.edge_ok(p, q));
            bits += 1;
            if bits == 8 {
                sink(acc);
                acc = 0;
                bits = 0;
            }
        }
        if bits > 0 {
            sink(acc << (8 - bits));
        }
    }

    /// Rebuilds a problem from its [`Self::structural_key`] bytes.
    ///
    /// The key deliberately drops display data, so the rebuilt problem
    /// carries synthetic names (`"restored"`, labels `i0…`/`o0…`) — but its
    /// structure, and therefore its `structural_key`, `canonical_hash` and
    /// complexity classification, are exactly those of the problem that
    /// produced the key; the round trip is re-verified before returning.
    /// The engine's cache snapshot restore uses this, the key being the only
    /// problem identity a snapshot persists.
    ///
    /// # Errors
    ///
    /// Returns a wire-format error on a truncated or padded key, implausible
    /// alphabet sizes (each bounded at 1024 — far beyond anything the
    /// classifier can enumerate), a table that fails problem construction,
    /// or a decoded problem whose re-encoded key differs (corrupt padding
    /// bits). Never panics on arbitrary input bytes.
    pub fn from_structural_key(key: &[u8]) -> Result<NormalizedLcl> {
        const MAX_ALPHABET: u64 = 1024;
        let wire = |what: String| ProblemError::Wire { what };
        if key.len() < 16 {
            return Err(wire(format!(
                "structural key of {} bytes is shorter than its 16-byte header",
                key.len()
            )));
        }
        let alpha = u64::from_le_bytes(key[0..8].try_into().expect("sliced 8 bytes"));
        let beta = u64::from_le_bytes(key[8..16].try_into().expect("sliced 8 bytes"));
        if alpha == 0 || beta == 0 || alpha > MAX_ALPHABET || beta > MAX_ALPHABET {
            return Err(wire(format!(
                "structural key claims alphabet sizes {alpha}x{beta} \
                 (supported: 1..={MAX_ALPHABET} each)"
            )));
        }
        let (alpha, beta) = (alpha as usize, beta as usize);
        let table_bits = alpha * beta + beta * beta;
        let expected = 16 + table_bits.div_ceil(8);
        if key.len() != expected {
            return Err(wire(format!(
                "structural key is {} bytes, expected {expected} for alphabet sizes {alpha}x{beta}",
                key.len()
            )));
        }
        let bit = |k: usize| (key[16 + k / 8] >> (7 - (k % 8))) & 1 == 1;
        let mut builder = NormalizedLcl::builder("restored");
        builder.input_alphabet(Alphabet::new((0..alpha).map(|i| format!("i{i}"))));
        builder.output_alphabet(Alphabet::new((0..beta).map(|o| format!("o{o}"))));
        let mut k = 0;
        for i in 0..alpha {
            for o in 0..beta {
                if bit(k) {
                    builder.allow_node_idx(i as u16, o as u16);
                }
                k += 1;
            }
        }
        for p in 0..beta {
            for q in 0..beta {
                if bit(k) {
                    builder.allow_edge_idx(p as u16, q as u16);
                }
                k += 1;
            }
        }
        let problem = builder.build()?;
        if problem.structural_key() != key {
            return Err(wire(
                "structural key does not round-trip through decoding \
                 (corrupt padding bits?)"
                    .to_string(),
            ));
        }
        Ok(problem)
    }

    /// A 64-bit structural fingerprint of the problem: FNV-1a over
    /// [`Self::structural_key`] (computed without materializing the key).
    ///
    /// The name and label names do not participate (see `structural_key`).
    /// Being a 64-bit digest this can collide; use `structural_key` where an
    /// exact identity is required (the engine's memo cache does).
    pub fn canonical_hash(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        self.structural_bytes(|byte| fnv_step(&mut hash, byte));
        hash
    }

    /// [`Self::canonical_hash`] of the problem whose
    /// [`Self::structural_key`] is `key`, read off the key bytes: a caller
    /// that already holds the key digests it without walking the
    /// constraint tables again.
    pub fn hash_of_key(key: &[u8]) -> u64 {
        fnv1a(key)
    }
}

/// The FNV-1a offset basis and prime of [`fnv1a`].
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a 64-bit of `bytes`, the digest behind
/// [`NormalizedLcl::canonical_hash`]: dependency-free and deterministic
/// across processes and builds.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &byte in bytes {
        fnv_step(&mut hash, byte);
    }
    hash
}

/// One FNV-1a step.
fn fnv_step(hash: &mut u64, byte: u8) {
    *hash ^= u64::from(byte);
    *hash = hash.wrapping_mul(FNV_PRIME);
}

impl Instance {
    /// Serializes the instance to a JSON document:
    /// `{"topology":"cycle","inputs":[0,1,…]}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("topology", JsonValue::Str(self.topology().to_string())),
            (
                "inputs",
                JsonValue::int_array(self.inputs().iter().map(|l| i64::from(l.0))),
            ),
        ])
    }

    /// Serializes the instance to its JSON wire form.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_json_string()
    }

    /// Appends the bytes of [`Instance::to_json_string`] to `out`, without
    /// building a [`JsonValue`] tree.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"inputs\":[");
        for (i, label) in self.inputs().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_int(i64::from(label.0), out);
        }
        out.push_str(match self.topology() {
            Topology::Path => "],\"topology\":\"path\"}",
            Topology::Cycle => "],\"topology\":\"cycle\"}",
        });
    }

    /// Reads an instance back from a JSON document.
    ///
    /// # Errors
    ///
    /// Returns an error on an unknown topology or label indices that do not
    /// fit in `u16`.
    pub fn from_json(value: &JsonValue) -> Result<Self> {
        let topology = match value.require("topology")?.as_str().map_err(wire)? {
            "path" => Topology::Path,
            "cycle" => Topology::Cycle,
            other => {
                return Err(ProblemError::Wire {
                    what: format!("unknown topology `{other}`"),
                })
            }
        };
        let mut inputs = Vec::new();
        for v in value.require("inputs")?.as_array().map_err(wire)? {
            inputs.push(InLabel(int_as_u16(v.as_int().map_err(wire)?)?));
        }
        Ok(match topology {
            Topology::Path => Instance::path(inputs),
            Topology::Cycle => Instance::cycle(inputs),
        })
    }

    /// Parses an instance from its JSON wire form.
    ///
    /// # Errors
    ///
    /// See [`Instance::from_json`]; additionally reports JSON syntax errors.
    pub fn from_json_str(text: &str) -> Result<Self> {
        Self::from_json(&JsonValue::parse(text).map_err(wire)?)
    }
}

impl Labeling {
    /// Serializes the labeling to its JSON wire form: `{"outputs":[…]}`.
    pub fn to_json_string(&self) -> String {
        JsonValue::object([(
            "outputs",
            JsonValue::int_array(self.outputs().iter().map(|l| i64::from(l.0))),
        )])
        .to_json_string()
    }

    /// Parses a labeling from its JSON wire form.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed JSON or out-of-range label indices.
    pub fn from_json_str(text: &str) -> Result<Self> {
        let value = JsonValue::parse(text).map_err(wire)?;
        let mut outputs = Vec::new();
        for v in value.require("outputs")?.as_array().map_err(wire)? {
            outputs.push(OutLabel(int_as_u16(v.as_int().map_err(wire)?)?));
        }
        Ok(Labeling::new(outputs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_coloring() -> NormalizedLcl {
        let mut b = NormalizedLcl::builder("3-coloring");
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
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let p = three_coloring();
        let spec = p.to_spec();
        assert_eq!(spec.version, PROBLEM_SPEC_VERSION);
        assert_eq!(spec.node_pairs.len(), 3);
        assert_eq!(spec.edge_pairs.len(), 6);
        let text = spec.to_json_string();
        let back = ProblemSpec::from_json_str(&text).unwrap();
        assert_eq!(back, spec);
        let rebuilt = back.to_problem().unwrap();
        assert_eq!(rebuilt, p);
        assert_eq!(
            NormalizedLcl::from_json_str(&p.to_json_string()).unwrap(),
            p
        );
    }

    #[test]
    fn canonical_hash_ignores_names_but_not_structure() {
        let p = three_coloring();
        let mut renamed = NormalizedLcl::builder("same-problem-other-name");
        renamed.input_labels(&["in"]);
        renamed.output_labels(&["r", "g", "b"]);
        renamed.allow_all_node_pairs();
        for q in 0..3u16 {
            for r in 0..3u16 {
                if q != r {
                    renamed.allow_edge_idx(q, r);
                }
            }
        }
        let renamed = renamed.build().unwrap();
        assert_eq!(p.canonical_hash(), renamed.canonical_hash());

        let mut different = NormalizedLcl::builder("3-coloring");
        different.input_labels(&["x"]);
        different.output_labels(&["1", "2", "3"]);
        different.allow_all_node_pairs();
        different.allow_all_edge_pairs();
        let different = different.build().unwrap();
        assert_ne!(p.canonical_hash(), different.canonical_hash());
    }

    #[test]
    fn hash_is_stable_across_serialization() {
        let p = three_coloring();
        let back = NormalizedLcl::from_json_str(&p.to_json_string()).unwrap();
        assert_eq!(p.canonical_hash(), back.canonical_hash());
    }

    #[test]
    fn structural_key_roundtrips_through_decoding() {
        let p = three_coloring();
        let key = p.structural_key();
        let decoded = NormalizedLcl::from_structural_key(&key).unwrap();
        // Names are synthetic, structure is exact: same key, same hash, same
        // constraint tables.
        assert_eq!(decoded.structural_key(), key);
        assert_eq!(decoded.canonical_hash(), p.canonical_hash());
        assert_eq!(decoded.name(), "restored");
        assert_eq!(
            decoded.allowed_node_pairs().collect::<Vec<_>>(),
            p.allowed_node_pairs().collect::<Vec<_>>()
        );
        assert_eq!(
            decoded.allowed_edge_pairs().collect::<Vec<_>>(),
            p.allowed_edge_pairs().collect::<Vec<_>>()
        );
    }

    #[test]
    fn corrupt_structural_keys_are_rejected_without_panicking() {
        let key = three_coloring().structural_key();
        // Too short for the header.
        assert!(NormalizedLcl::from_structural_key(&key[..8]).is_err());
        // Truncated table.
        assert!(NormalizedLcl::from_structural_key(&key[..key.len() - 1]).is_err());
        // Trailing garbage.
        let mut long = key.clone();
        long.push(0);
        assert!(NormalizedLcl::from_structural_key(&long).is_err());
        // Zero / absurd alphabet sizes.
        let mut zeroed = key.clone();
        zeroed[0..8].fill(0);
        assert!(NormalizedLcl::from_structural_key(&zeroed).is_err());
        let mut huge = key.clone();
        huge[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(NormalizedLcl::from_structural_key(&huge).is_err());
        // A flipped padding bit keeps the length valid but cannot round-trip.
        let mut padded = key.clone();
        *padded.last_mut().unwrap() |= 1;
        assert!(NormalizedLcl::from_structural_key(&padded).is_err());
        assert!(NormalizedLcl::from_structural_key(&[]).is_err());
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut spec = three_coloring().to_spec();
        spec.version = 999;
        assert!(matches!(spec.to_problem(), Err(ProblemError::Wire { .. })));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(ProblemSpec::from_json_str("{").is_err());
        assert!(ProblemSpec::from_json_str("{}").is_err());
        assert!(ProblemSpec::from_json_str(
            r#"{"version":1,"name":"x","input_labels":["a"],"output_labels":["o"],"node_pairs":[[0]],"edge_pairs":[]}"#
        )
        .is_err());
        assert!(ProblemSpec::from_json_str(
            r#"{"version":1,"name":"x","input_labels":["a"],"output_labels":["o"],"node_pairs":[[0,70000]],"edge_pairs":[]}"#
        )
        .is_err());
        // Out-of-alphabet pair: caught at build time.
        let spec = ProblemSpec {
            version: PROBLEM_SPEC_VERSION,
            name: "bad".into(),
            input_labels: vec!["a".into()],
            output_labels: vec!["o".into()],
            node_pairs: vec![(0, 5)],
            edge_pairs: vec![],
        };
        assert!(spec.to_problem().is_err());
    }

    #[test]
    fn instance_and_labeling_roundtrip() {
        let inst = Instance::from_indices(Topology::Cycle, &[0, 2, 1]);
        let back = Instance::from_json_str(&inst.to_json_string()).unwrap();
        assert_eq!(back, inst);
        let path = Instance::from_indices(Topology::Path, &[1, 0]);
        assert_eq!(
            Instance::from_json_str(&path.to_json_string()).unwrap(),
            path
        );
        assert!(Instance::from_json_str(r#"{"topology":"star","inputs":[]}"#).is_err());

        let labeling = Labeling::from_indices(&[2, 0, 1]);
        assert_eq!(
            Labeling::from_json_str(&labeling.to_json_string()).unwrap(),
            labeling
        );
    }
}
