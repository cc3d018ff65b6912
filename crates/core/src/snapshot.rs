//! Warm-cache snapshot/restore: the memo cache's persistence format.
//!
//! A snapshot is a versioned, checksummed JSON-lines document capturing the
//! classifications resident in an [`Engine`](crate::Engine)'s memo cache:
//! per entry the key bytes, the complexity class and the answer of the
//! feasibility search, but not the volatile reply-bytes lane (payloads
//! re-attach lazily on the first post-restore splice). Restore rebuilds the
//! rest with the code [`crate::classify_with_options`] runs (types, witness,
//! block table via `FeasibleStructure::new`, synthesized algorithm), so a
//! restored entry is a freshly classified one minus the search.
//!
//! Layout, one JSON object per line:
//!
//! ```text
//! {"entries":N,"format":"lcl-cache-snapshot","version":2}   header
//! {"complexity":…,"key":"<hex>"[,"left_facing":…,"patterns":…,"right_facing":…]}
//!                                                           N entry lines
//! {"checksum":"<16 hex digits>"}                            trailer
//! ```
//!
//! `O(1)` and `Θ(log* n)` entries carry `left_facing` and `right_facing`:
//! per quantified type, the ascending output-label indices of `A(τ)` and
//! `B(τ)`. `O(1)` entries add `patterns`: one periodic labeling per
//! canonical pattern of length at most `κ`, in enumeration order.
//!
//! The trailer is the FNV-1a 64-bit digest of every preceding byte
//! (newlines included), so truncation, bit rot and concatenation are all
//! detected before any entry is trusted. Restore is deliberately forgiving
//! *per entry* — an entry that fails to decode or validate is skipped and
//! counted, never fatal — but strict about the envelope: a bad header,
//! version skew or a checksum mismatch rejects the whole document, because a
//! file that fails its own framing cannot be partially trusted.
//!
//! Entries are written coldest-first over the whole cache
//! ([`LruCache::snapshot_entries`](crate::LruCache::snapshot_entries)), and
//! restore re-inserts them in file order through the cache's ordinary
//! insert path: LRU recency is reproduced, a smaller restore target keeps
//! exactly the most recently used entries, and every stats invariant
//! (`entries + evictions == inserts`) holds afterwards because no counter is
//! ever written directly. Entry order is not part of the envelope, so
//! documents that earlier builds wrote coldest-first per cache shard
//! restore unchanged under the same version.

use crate::classify::{canonical_patterns, pattern_length, Answer, ClassifierOptions};
use crate::engine::CacheEntry;
use crate::feasibility::{FeasibleStructure, PatternLabeling, Patterns};
use crate::types_info::GapTypes;
use crate::verdict::Complexity;
use crate::Result;
use lcl_problem::json::JsonValue;
use lcl_problem::{Instance, Labeling, NormalizedLcl, OutLabel, ProblemError};
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// The `format` discriminator every snapshot header carries.
pub const SNAPSHOT_FORMAT: &str = "lcl-cache-snapshot";

/// The snapshot format version this build writes and accepts.
pub const SNAPSHOT_VERSION: i64 = 2;

/// The outcome of [`Engine::restore_snapshot`](crate::Engine::restore_snapshot):
/// how many entries the document declared, how many were installed, and how
/// many were skipped because they failed to decode (first failure retained
/// for logging).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Entry count the header declared.
    pub entries: usize,
    /// Entries decoded, validated and inserted into the cache.
    pub restored: usize,
    /// Entries skipped because they failed to decode or validate.
    pub skipped: usize,
    /// The first per-entry failure, for the operator's log line.
    pub first_error: Option<String>,
}

impl fmt::Display for RestoreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "restored {}/{} snapshot entries ({} skipped)",
            self.restored, self.entries, self.skipped
        )
    }
}

/// FNV-1a 64-bit, the same digest [`NormalizedLcl::canonical_hash`] uses —
/// dependency-free and deterministic across processes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for byte in bytes {
        let _ = write!(out, "{byte:02x}");
    }
    out
}

fn hex_decode(text: &str) -> Option<Vec<u8>> {
    if !text.len().is_multiple_of(2) {
        return None;
    }
    text.as_bytes()
        .chunks_exact(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            Some((hi * 16 + lo) as u8)
        })
        .collect()
}

fn wire(what: String) -> crate::ClassifierError {
    crate::ClassifierError::Problem(ProblemError::Wire { what })
}

/// Serializes cache entries (as returned by
/// [`LruCache::snapshot_entries`](crate::LruCache::snapshot_entries))
/// into a snapshot document.
pub(crate) fn serialize_entries(entries: &[(Arc<[u8]>, Arc<CacheEntry>)]) -> String {
    let mut out = String::new();
    JsonValue::object([
        ("entries", JsonValue::Int(entries.len() as i64)),
        ("format", JsonValue::Str(SNAPSHOT_FORMAT.to_string())),
        ("version", JsonValue::Int(SNAPSHOT_VERSION)),
    ])
    .write_json_string(&mut out);
    out.push('\n');
    for (key, entry) in entries {
        let classification = entry.classification();
        let mut fields = vec![
            (
                "complexity",
                JsonValue::Str(classification.complexity().wire_name().to_string()),
            ),
            ("key", JsonValue::Str(hex_encode(key))),
        ];
        if let Some(structure) = classification.algorithm().feasible_structure() {
            let types = 0..structure.num_types();
            let left = types.clone().map(|t| structure.left_facing(t));
            fields.push(("left_facing", lists_json(left)));
            let right = types.map(|t| structure.right_facing(t));
            fields.push(("right_facing", lists_json(right)));
            if !structure.patterns.is_empty() {
                let labelings = structure.patterns.iter().map(|p| p.labeling.as_slice());
                fields.push(("patterns", lists_json(labelings)));
            }
        }
        JsonValue::object(fields).write_json_string(&mut out);
        out.push('\n');
    }
    let checksum = fnv1a(out.as_bytes());
    JsonValue::object([("checksum", JsonValue::Str(format!("{checksum:016x}")))])
        .write_json_string(&mut out);
    out.push('\n');
    out
}

/// Renders output-label lists as nested arrays of label indices.
fn lists_json<'a>(lists: impl IntoIterator<Item = &'a [OutLabel]>) -> JsonValue {
    let indices = |labels: &[OutLabel]| JsonValue::int_array(labels.iter().map(|l| i64::from(l.0)));
    JsonValue::Array(lists.into_iter().map(indices).collect())
}

/// Reads `field` as a list of output-label lists, checking every label
/// against the output alphabet size `beta`.
fn label_lists(value: &JsonValue, field: &str, beta: usize) -> Result<Vec<Vec<OutLabel>>> {
    let json_err = |e: lcl_problem::json::JsonError| wire(format!("field `{field}`: {e}"));
    let label = |label: &JsonValue| {
        let index = label.as_int().map_err(json_err)?;
        match usize::try_from(index) {
            Ok(i) if i < beta => Ok(OutLabel::from_index(i)),
            _ => Err(wire(format!("field `{field}`: label {index} out of range"))),
        }
    };
    let lists = value.require(field).and_then(JsonValue::as_array);
    let list = |list: &JsonValue| {
        list.as_array()
            .map_err(json_err)?
            .iter()
            .map(label)
            .collect()
    };
    lists.map_err(json_err)?.iter().map(list).collect()
}

/// Reads back the answer of the feasibility search and checks it against
/// the rebuilt types: one ascending facing set per quantified type with
/// `A(τ) × B(τ) ⊆ C(τ)`, one periodically valid labeling per pattern, and a
/// block table that materializes. The pairwise pattern bridging is not
/// re-checked; like the verdict, it is trusted behind the checksum.
fn decode_structure(
    value: &JsonValue,
    info: &GapTypes,
    patterns: &Patterns,
) -> Result<FeasibleStructure> {
    let problem = info.problem();
    let beta = problem.num_outputs();
    let left = label_lists(value, "left_facing", beta)?;
    let right = label_lists(value, "right_facing", beta)?;
    let types = info.quantified().len();
    if left.len() != types || right.len() != types {
        return Err(wire(format!("facing sets do not match the {types} types")));
    }
    let ascending = |set: &Vec<OutLabel>| set.windows(2).all(|w| w[0] < w[1]);
    for (i, (a, b)) in left.iter().zip(&right).enumerate() {
        if !ascending(a) || !ascending(b) {
            return Err(wire(format!("facing sets of type {i} are not ascending")));
        }
        let connected = |p: &OutLabel| {
            b.iter()
                .all(|q| info.connection(i).get(p.index(), q.index()))
        };
        if !a.iter().all(connected) {
            return Err(wire(format!("facing sets of type {i} are not connected")));
        }
    }
    let labelings = match patterns.len() {
        0 => Vec::new(),
        _ => label_lists(value, "patterns", beta)?,
    };
    if labelings.len() != patterns.len() {
        return Err(wire(format!(
            "expected {} pattern labelings",
            patterns.len()
        )));
    }
    let mut chosen = Vec::with_capacity(patterns.len());
    for (pattern, labeling) in patterns.iter().zip(labelings) {
        let pattern = pattern.to_vec();
        let cycle = Instance::cycle(pattern.clone());
        if !problem.is_valid(&cycle, &Labeling::new(labeling.clone())) {
            return Err(wire(format!("invalid periodic labeling {labeling:?}")));
        }
        chosen.push(PatternLabeling { pattern, labeling });
    }
    FeasibleStructure::new(info, left, right, chosen)
        .ok_or_else(|| wire("facing sets leave an anchor block unlabelable".to_string()))
}

/// Decodes one entry line back into a `(key, entry)` pair ready for cache
/// insertion, rebuilding the classification as
/// [`crate::classify_with_options`] would with `options`.
fn decode_entry(line: &str, options: &ClassifierOptions) -> Result<(Vec<u8>, CacheEntry)> {
    let value = JsonValue::parse(line).map_err(|e| wire(e.to_string()))?;
    let json_err = |e: lcl_problem::json::JsonError| wire(e.to_string());
    let key_hex = value
        .require("key")
        .and_then(JsonValue::as_str)
        .map_err(json_err)?;
    let key =
        hex_decode(key_hex).ok_or_else(|| wire(format!("invalid snapshot key `{key_hex}`")))?;
    // The structural key is self-describing: rebuilding the problem (and
    // re-encoding inside `from_structural_key`) validates every bit of it.
    let problem = NormalizedLcl::from_structural_key(&key).map_err(crate::ClassifierError::from)?;
    let complexity_name = value
        .require("complexity")
        .and_then(JsonValue::as_str)
        .map_err(json_err)?;
    let complexity = Complexity::from_wire_name(complexity_name)
        .ok_or_else(|| wire(format!("unknown complexity `{complexity_name}`")))?;
    let info = GapTypes::compute(&problem, options.type_budget)?;
    let kappa = pattern_length(&info, options);
    let answer = match complexity {
        Complexity::Unsolvable => Answer::Unsolvable(
            info.solvability_witness()?
                .ok_or_else(|| wire("unsolvable entry for a solvable problem".to_string()))?,
        ),
        Complexity::Constant => {
            let patterns = canonical_patterns(problem.num_inputs(), kappa);
            Answer::Constant(decode_structure(&value, &info, &patterns)?)
        }
        Complexity::LogStar => {
            Answer::LogStar(decode_structure(&value, &info, &Patterns::default())?)
        }
        Complexity::Linear => Answer::Linear,
    };
    let classification = answer.into_classification(&info, kappa);
    Ok((key, CacheEntry::new(Arc::new(classification))))
}

/// Parses and validates `document`, handing each successfully decoded entry
/// to `install` in file order (coldest first, see the module docs).
///
/// # Errors
///
/// Returns a wire-format error when the document's *envelope* is invalid:
/// missing or malformed header, wrong format discriminator, unsupported
/// version, entry-count mismatch, or a missing/mismatching checksum trailer.
/// Per-entry decode failures are never errors — they are counted in the
/// returned report.
pub(crate) fn restore_entries(
    document: &str,
    options: &ClassifierOptions,
    mut install: impl FnMut(Vec<u8>, CacheEntry),
) -> Result<RestoreReport> {
    // Find the trailer: the last non-empty line.
    let trimmed = document.trim_end_matches('\n');
    if trimmed.is_empty() {
        return Err(wire("empty snapshot document".to_string()));
    }
    let (body, trailer_line) = match trimmed.rfind('\n') {
        Some(split) => (&trimmed[..split + 1], &trimmed[split + 1..]),
        None => {
            return Err(wire(
                "snapshot document has no checksum trailer".to_string(),
            ))
        }
    };
    let trailer = JsonValue::parse(trailer_line)
        .map_err(|e| wire(format!("invalid snapshot trailer: {e}")))?;
    let declared = trailer
        .require("checksum")
        .and_then(JsonValue::as_str)
        .map_err(|e| wire(format!("invalid snapshot trailer: {e}")))?;
    let actual = format!("{:016x}", fnv1a(body.as_bytes()));
    if declared != actual {
        return Err(wire(format!(
            "snapshot checksum mismatch: declared {declared}, computed {actual}"
        )));
    }
    let mut lines = body.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| wire("snapshot document has no header".to_string()))?;
    let header =
        JsonValue::parse(header_line).map_err(|e| wire(format!("invalid snapshot header: {e}")))?;
    let header_err =
        |e: lcl_problem::json::JsonError| wire(format!("invalid snapshot header: {e}"));
    let format = header
        .require("format")
        .and_then(JsonValue::as_str)
        .map_err(header_err)?;
    if format != SNAPSHOT_FORMAT {
        return Err(wire(format!("not a cache snapshot (format `{format}`)")));
    }
    let version = header
        .require("version")
        .and_then(JsonValue::as_int)
        .map_err(header_err)?;
    if version != SNAPSHOT_VERSION {
        return Err(wire(format!(
            "unsupported snapshot version {version} (this build reads version {SNAPSHOT_VERSION})"
        )));
    }
    let entries = header
        .require("entries")
        .and_then(JsonValue::as_int)
        .map_err(header_err)
        .and_then(|v| {
            usize::try_from(v).map_err(|_| wire(format!("invalid snapshot entry count {v}")))
        })?;
    let mut report = RestoreReport {
        entries,
        ..RestoreReport::default()
    };
    let mut seen = 0usize;
    for line in lines {
        seen += 1;
        match decode_entry(line, options) {
            Ok((key, entry)) => {
                install(key, entry);
                report.restored += 1;
            }
            Err(e) => {
                report.skipped += 1;
                report.first_error.get_or_insert_with(|| e.to_string());
            }
        }
    }
    if seen != entries {
        return Err(wire(format!(
            "snapshot declares {entries} entries but carries {seen}"
        )));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use lcl_problem::NormalizedLcl;

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

    #[test]
    fn snapshot_roundtrips_verdicts_byte_identically() {
        let engine = Engine::builder().parallelism(1).build();
        let problems = [coloring(2), coloring(3), coloring(4)];
        let originals: Vec<String> = problems
            .iter()
            .map(|p| engine.verdict(p).unwrap().to_json_string())
            .collect();

        let document = engine.snapshot_document();
        let fresh = Engine::builder().parallelism(1).build();
        let report = fresh.restore_snapshot(&document).unwrap();
        assert_eq!((report.entries, report.restored, report.skipped), (3, 3, 0));
        assert_eq!(report.first_error, None);
        assert_eq!(
            report.to_string(),
            "restored 3/3 snapshot entries (0 skipped)"
        );

        // Every verdict is served from the restored cache — no misses — and
        // serializes byte-identically to the original engine's.
        for (problem, original) in problems.iter().zip(&originals) {
            let verdict = fresh.verdict(problem).unwrap().to_json_string();
            assert_eq!(&verdict, original);
        }
        let stats = fresh.cache_stats();
        assert_eq!(stats.misses, 0, "all verdicts came from the snapshot");
        assert_eq!(stats.hits, 3);
        assert!(stats.is_consistent(), "{stats:?}");
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let engine = Engine::builder().parallelism(1).build();
        let document = engine.snapshot_document();
        let report = engine.restore_snapshot(&document).unwrap();
        assert_eq!(report, RestoreReport::default());
    }

    #[test]
    fn corrupt_documents_are_rejected_without_panicking() {
        let engine = Engine::builder().parallelism(1).build();
        engine.classify(&coloring(3)).unwrap();
        let document = engine.snapshot_document();
        let target = || Engine::builder().parallelism(1).build();

        // Envelope failures: whole document rejected.
        assert!(target().restore_snapshot("").is_err());
        assert!(target().restore_snapshot("\n\n").is_err());
        assert!(target().restore_snapshot("not json\n").is_err());
        let truncated = &document[..document.len() / 2];
        assert!(target().restore_snapshot(truncated).is_err(), "truncation");
        let mut flipped = document.clone().into_bytes();
        let mid = flipped.len() / 2;
        flipped[mid] = if flipped[mid] == b'a' { b'b' } else { b'a' };
        let flipped = String::from_utf8(flipped).unwrap();
        assert!(target().restore_snapshot(&flipped).is_err(), "bit rot");
        let reframed = |mutate: &dyn Fn(&str) -> String| {
            let mutated = reframe(&document, mutate);
            assert_ne!(mutated, document, "the mutation must change the document");
            mutated
        };
        // A document of the previous version is rejected whole.
        let previous = SNAPSHOT_VERSION - 1;
        let skewed = reframed(&|header| {
            header.replace(
                &format!("\"version\":{SNAPSHOT_VERSION}"),
                &format!("\"version\":{previous}"),
            )
        });
        let err = target().restore_snapshot(&skewed).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("unsupported snapshot version {previous}")),
            "{err}"
        );
        let wrong_format = reframed(&|header| header.replace(SNAPSHOT_FORMAT, "something-else"));
        let err = target().restore_snapshot(&wrong_format).unwrap_err();
        assert!(err.to_string().contains("not a cache snapshot"), "{err}");
        let wrong_count = reframed(&|header| header.replace("\"entries\":1", "\"entries\":7"));
        let err = target().restore_snapshot(&wrong_count).unwrap_err();
        assert!(err.to_string().contains("declares 7 entries"), "{err}");

        // Per-entry failures: skipped, counted, never fatal.
        let bad_key = reframed(&|body| {
            let start = body.find("\"key\":\"").unwrap() + 7;
            let mut out = body.to_string();
            out.replace_range(start..start + 8, "00000000");
            out
        });
        let report = target().restore_snapshot(&bad_key).unwrap();
        assert_eq!((report.restored, report.skipped), (0, 1));
        assert!(report.first_error.is_some());
    }

    /// 3-colouring plus a label `d` that nothing may follow: still
    /// `Θ(log* n)`, but `d` cannot face a gap from the left.
    fn dead_end_coloring() -> NormalizedLcl {
        let mut b = NormalizedLcl::builder("dead-end-coloring");
        b.input_labels(&["x"]);
        b.output_labels(&["1", "2", "3", "d"]);
        b.allow_all_node_pairs();
        for p in 0..3u16 {
            for q in 0..4u16 {
                if p != q {
                    b.allow_edge_idx(p, q);
                }
            }
        }
        b.build().unwrap()
    }

    fn copy_input() -> NormalizedLcl {
        let mut b = NormalizedLcl::builder("copy-input");
        b.input_labels(&["a", "b"]);
        b.output_labels(&["a", "b"]);
        b.allow_node_idx(0, 0);
        b.allow_node_idx(1, 1);
        b.allow_all_edge_pairs();
        b.build().unwrap()
    }

    /// Snapshots `problem` alone, rewrites its entry line through `edit`,
    /// re-seals the checksum and restores the result: the entry must be
    /// skipped with an error mentioning `expected`.
    fn assert_entry_rejected(
        problem: &NormalizedLcl,
        expected: &str,
        edit: impl Fn(&mut std::collections::BTreeMap<String, JsonValue>),
    ) {
        let engine = Engine::builder().parallelism(1).build();
        engine.classify(problem).unwrap();
        let document = engine.snapshot_document();
        let mutated = reframe(&document, |body| {
            let (header, entry) = body.trim_end().split_once('\n').unwrap();
            let JsonValue::Object(mut fields) = JsonValue::parse(entry).unwrap() else {
                panic!("entry line is an object");
            };
            edit(&mut fields);
            format!("{header}\n{}\n", JsonValue::Object(fields).to_json_string())
        });
        assert_ne!(mutated, document, "the edit must change the document");
        let target = Engine::builder().parallelism(1).build();
        let report = target.restore_snapshot(&mutated).unwrap();
        assert_eq!((report.restored, report.skipped), (0, 1), "{expected}");
        let error = report.first_error.unwrap();
        assert!(
            error.contains(expected),
            "expected `{expected}`, got: {error}"
        );
        // The untouched document restores.
        let report = target.restore_snapshot(&document).unwrap();
        assert_eq!((report.restored, report.skipped), (1, 0));
    }

    fn lists(fields: &std::collections::BTreeMap<String, JsonValue>, key: &str) -> Vec<Vec<i64>> {
        let lists = fields[key].as_array().unwrap();
        let ints = |list: &JsonValue| -> Vec<i64> {
            list.as_array()
                .unwrap()
                .iter()
                .map(|v| v.as_int().unwrap())
                .collect()
        };
        lists.iter().map(ints).collect()
    }

    fn set_lists(
        fields: &mut std::collections::BTreeMap<String, JsonValue>,
        key: &str,
        lists: Vec<Vec<i64>>,
    ) {
        let array = lists.into_iter().map(JsonValue::int_array).collect();
        fields.insert(key.to_string(), JsonValue::Array(array));
    }

    #[test]
    fn invalid_feasible_structures_are_skipped() {
        let problem = dead_end_coloring();
        assert_entry_rejected(&problem, "out of range", |fields| {
            let mut left = lists(fields, "left_facing");
            left[0].push(4);
            set_lists(fields, "left_facing", left);
        });
        assert_entry_rejected(&problem, "not ascending", |fields| {
            let mut right = lists(fields, "right_facing");
            right[0].insert(0, 3);
            set_lists(fields, "right_facing", right);
        });
        assert_entry_rejected(&problem, "do not match", |fields| {
            let mut left = lists(fields, "left_facing");
            left.push(vec![0]);
            set_lists(fields, "left_facing", left);
        });
        // Nothing may follow `d`, so `d ∈ A(τ)` breaks A(τ) × B(τ) ⊆ C(τ).
        assert_entry_rejected(&problem, "not connected", |fields| {
            let mut left = lists(fields, "left_facing");
            assert!(!left[0].contains(&3));
            left[0].push(3);
            set_lists(fields, "left_facing", left);
        });
        // A(τ) = B(τ) = {1} is connected across a long gap, but a 2-node
        // anchor block would need the edge 1 → 1.
        assert_entry_rejected(&problem, "unlabelable", |fields| {
            let types = lists(fields, "left_facing").len();
            set_lists(fields, "left_facing", vec![vec![0]; types]);
            set_lists(fields, "right_facing", vec![vec![0]; types]);
        });
        assert_entry_rejected(&problem, "right_facing", |fields| {
            fields.remove("right_facing");
        });
        assert_entry_rejected(&problem, "solvable problem", |fields| {
            fields.insert("complexity".into(), JsonValue::Str("unsolvable".into()));
        });
        assert_entry_rejected(&problem, "unknown complexity", |fields| {
            fields.insert("complexity".into(), JsonValue::Str("sublinear".into()));
        });

        let problem = copy_input();
        assert_entry_rejected(&problem, "pattern labelings", |fields| {
            let mut patterns = lists(fields, "patterns");
            patterns.pop();
            set_lists(fields, "patterns", patterns);
        });
        // Pattern `a` must be labeled `a`.
        assert_entry_rejected(&problem, "invalid periodic labeling", |fields| {
            let mut patterns = lists(fields, "patterns");
            assert_eq!(patterns[0], [0]);
            patterns[0] = vec![1];
            set_lists(fields, "patterns", patterns);
        });
        assert_entry_rejected(&problem, "patterns", |fields| {
            fields.remove("patterns");
        });
    }

    /// Applies `mutate` to the checksummed body and re-seals the trailer, so
    /// envelope tests hit the intended validation instead of the checksum.
    fn reframe(document: &str, mutate: impl FnOnce(&str) -> String) -> String {
        let split = document.trim_end_matches('\n').rfind('\n').unwrap() + 1;
        let mut body = mutate(&document[..split]);
        let checksum = fnv1a(body.as_bytes());
        body.push_str(&format!("{{\"checksum\":\"{checksum:016x}\"}}\n"));
        body
    }
}
