//! Warm-cache snapshot/restore: the memo cache's persistence format.
//!
//! A snapshot is a versioned, checksummed JSON-lines document capturing the
//! *classifications* resident in an [`Engine`](crate::Engine)'s memo cache —
//! key bytes plus verdict fields, deliberately **not** the volatile
//! reply-bytes lane (payloads re-attach lazily on the first post-restore
//! splice) and not the synthesized feasible structure (restored entries carry
//! the gather-everything stand-in, see [`RestoredAlgorithm`]; the first
//! solve against one reclassifies it).
//!
//! Layout, one JSON object per line:
//!
//! ```text
//! {"entries":N,"format":"lcl-cache-snapshot","version":1}   header
//! {"algorithm":…,"complexity":…,"key":"<hex>",…}            N entry lines
//! {"checksum":"<16 hex digits>"}                            trailer
//! ```
//!
//! The trailer is the FNV-1a 64-bit digest of every preceding byte
//! (newlines included), so truncation, bit rot and concatenation are all
//! detected before any entry is trusted. Restore is deliberately forgiving
//! *per entry* — an entry that fails to decode is skipped and counted, never
//! fatal — but strict about the envelope: a bad header, version skew or a
//! checksum mismatch rejects the whole document, because a file that fails
//! its own framing cannot be partially trusted.
//!
//! Entries are written coldest-first per shard
//! ([`ShardedLruCache::snapshot_entries`](crate::ShardedLruCache::snapshot_entries)),
//! and restore re-inserts them in file order through the cache's ordinary
//! insert path: LRU recency is reproduced, a smaller restore target keeps
//! the hottest entries, and every shard-stats invariant
//! (`entries + evictions == inserts`) holds afterwards because no counter is
//! ever written directly.

use crate::engine::CacheEntry;
use crate::synthesis::{RestoredAlgorithm, SynthesizedAlgorithm};
use crate::verdict::{Classification, Complexity};
use crate::Result;
use lcl_local_sim::LocalAlgorithm;
use lcl_problem::json::JsonValue;
use lcl_problem::{Instance, NormalizedLcl, ProblemError};
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// The `format` discriminator every snapshot header carries.
pub const SNAPSHOT_FORMAT: &str = "lcl-cache-snapshot";

/// The snapshot format version this build writes and accepts.
pub const SNAPSHOT_VERSION: i64 = 1;

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
/// [`ShardedLruCache::snapshot_entries`](crate::ShardedLruCache::snapshot_entries))
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
        JsonValue::object([
            (
                "algorithm",
                JsonValue::Str(classification.algorithm().name().to_string()),
            ),
            (
                "complexity",
                JsonValue::Str(classification.complexity().wire_name().to_string()),
            ),
            ("key", JsonValue::Str(hex_encode(key))),
            (
                "num_types",
                JsonValue::Int(classification.num_types() as i64),
            ),
            (
                "pump_threshold",
                JsonValue::Int(classification.pump_threshold() as i64),
            ),
            (
                "witness",
                match classification.unsolvability_witness() {
                    Some(instance) => instance.to_json(),
                    None => JsonValue::Null,
                },
            ),
        ])
        .write_json_string(&mut out);
        out.push('\n');
    }
    let checksum = fnv1a(out.as_bytes());
    JsonValue::object([("checksum", JsonValue::Str(format!("{checksum:016x}")))])
        .write_json_string(&mut out);
    out.push('\n');
    out
}

/// Decodes one entry line back into a `(key, entry)` pair ready for cache
/// insertion.
fn decode_entry(line: &str) -> Result<(Vec<u8>, CacheEntry)> {
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
    let count = |field: &str| -> Result<usize> {
        let v = value
            .require(field)
            .and_then(JsonValue::as_int)
            .map_err(json_err)?;
        usize::try_from(v)
            .map_err(|_| wire(format!("field `{field}` must be non-negative, got {v}")))
    };
    let num_types = count("num_types")?;
    let pump_threshold = count("pump_threshold")?;
    let algorithm = value
        .require("algorithm")
        .and_then(JsonValue::as_str)
        .map_err(json_err)?;
    let witness = match value.require("witness").map_err(json_err)? {
        JsonValue::Null => None,
        instance => Some(Instance::from_json(instance)?),
    };
    let classification = Classification {
        complexity,
        witness,
        synthesized: SynthesizedAlgorithm::Restored(RestoredAlgorithm::new(&problem, algorithm)),
        num_types,
        pump_threshold,
    };
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
        match decode_entry(line) {
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
        assert_eq!(stats.entries as u64 + stats.evictions, stats.inserts);
        for shard in fresh.cache_shard_stats() {
            assert!(shard.is_consistent(), "{shard:?}");
        }
    }

    fn trivial() -> NormalizedLcl {
        let mut b = NormalizedLcl::builder("trivial");
        b.input_labels(&["x"]);
        b.output_labels(&["o"]);
        b.allow_all_node_pairs();
        b.allow_all_edge_pairs();
        b.build().unwrap()
    }

    /// A restored entry carries the Θ(n) gather stand-in; `solve` and
    /// `solve_stream` must reclassify it and run the synthesized algorithm,
    /// exactly like an engine that classified the problem itself, while
    /// the served verdict stays byte-identical.
    #[test]
    fn restored_entries_solve_like_freshly_classified_ones() {
        use lcl_problem::{Instance, StreamInputs, StreamInstanceSpec, Topology};
        let warm = Engine::builder().parallelism(1).build();
        let problems = [coloring(3), trivial()];
        for problem in &problems {
            warm.classify(problem).unwrap();
        }
        let document = warm.snapshot_document();
        let instance = Instance::from_indices(Topology::Cycle, &[0; 200]);
        let spec = StreamInstanceSpec {
            topology: Topology::Cycle,
            length: 200,
            inputs: StreamInputs::Uniform { label: 0 },
        };
        let stream = |engine: &Engine, problem: &NormalizedLcl| {
            let mut solution = engine.solve_stream(problem, &spec).unwrap();
            let mut labels = Vec::new();
            while let Some(chunk) = solution.next_chunk(16) {
                labels.extend(chunk.unwrap());
            }
            (labels, solution.rounds(), solution.peak_resident_nodes())
        };
        for problem in &problems {
            let fresh = Engine::builder().parallelism(1).build();
            let restored = Engine::builder().parallelism(1).build();
            restored.restore_snapshot(&document).unwrap();
            let verdict = restored.verdict(problem).unwrap().to_json_string();

            let want = fresh.solve(problem, &instance).unwrap();
            let got = restored.solve(problem, &instance).unwrap();
            assert_eq!(got.rounds(), want.rounds(), "{}", problem.name());
            assert_eq!(got.labeling(), want.labeling());
            assert_eq!(stream(&restored, problem), stream(&fresh, problem));

            // One reclassification, through the ordinary miss path.
            let stats = restored.cache_stats();
            assert_eq!(stats.misses, 1, "{stats}");
            assert_eq!(stats.entries, 2);
            for shard in restored.cache_shard_stats() {
                assert!(shard.is_consistent(), "{shard:?}");
            }
            assert_eq!(restored.verdict(problem).unwrap().to_json_string(), verdict);
        }
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
        let skewed = reframe(&document, |header| {
            header.replace("\"version\":1", "\"version\":2")
        });
        let err = target().restore_snapshot(&skewed).unwrap_err();
        assert!(err.to_string().contains("version 2"), "{err}");
        let wrong_format = reframe(&document, |header| {
            header.replace(SNAPSHOT_FORMAT, "something-else")
        });
        assert!(target().restore_snapshot(&wrong_format).is_err());
        let wrong_count = reframe(&document, |header| {
            header.replace("\"entries\":1", "\"entries\":7")
        });
        assert!(target().restore_snapshot(&wrong_count).is_err());

        // Per-entry failures: skipped, counted, never fatal.
        let bad_entry = reframe(&document, |body| {
            body.replacen("{\"algorithm\"", "{\"zzz\":1,\"algorithm\"", 1)
        });
        let report = target().restore_snapshot(&bad_entry).unwrap();
        // The mangled line still parses as JSON with all fields — craft a
        // harder corruption: an entry whose key is not a structural key.
        assert_eq!(report.restored + report.skipped, 1);
        let bad_key = reframe(&document, |body| {
            let start = body.find("\"key\":\"").unwrap() + 7;
            let mut out = body.to_string();
            out.replace_range(start..start + 8, "00000000");
            out
        });
        let report = target().restore_snapshot(&bad_key).unwrap();
        assert_eq!((report.restored, report.skipped), (0, 1));
        assert!(report.first_error.is_some());
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
