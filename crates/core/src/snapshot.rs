//! Warm-cache snapshot/restore: the memo cache's persistence format.
//!
//! A snapshot is a versioned, checksummed JSON-lines document listing the
//! structural keys resident in an [`Engine`](crate::Engine)'s memo cache.
//! The decision procedure finds a verdict from the problem alone, and the
//! key is the problem ([`NormalizedLcl::from_structural_key`]), so a key is
//! all a warm cache has to remember. Restore re-classifies each key with
//! [`crate::classify_with_options`] under the restoring engine's options: a
//! restored entry is a freshly classified one, and no persisted answer is
//! ever trusted.
//!
//! Layout, one JSON object per line:
//!
//! ```text
//! {"entries":N,"format":"lcl-cache-snapshot","version":3}   header
//! {"key":"<hex>"}                                            N entry lines
//! {"checksum":"<16 hex digits>"}                            trailer
//! ```
//!
//! The trailer is the FNV-1a 64-bit digest of every preceding byte
//! (newlines included), so truncation, bit rot and concatenation are all
//! detected before any entry is read. Restore is deliberately forgiving
//! *per entry* — a key that fails to decode, or whose classification fails
//! under the restoring engine's budgets, is skipped and counted, never
//! fatal — but strict about the envelope: a bad header, version skew, an
//! entry count that disagrees with the body or a checksum mismatch rejects
//! the whole document before anything is installed, because a file that
//! fails its own framing cannot be partially trusted.
//!
//! Entries are written coldest-first over the whole cache
//! ([`LruCache::snapshot_entries`](crate::LruCache::snapshot_entries)), and
//! restore re-inserts them in file order through the cache's ordinary
//! insert path: LRU recency is reproduced, a smaller restore target keeps
//! exactly the most recently used entries, and every stats invariant
//! (`entries + evictions == inserts`) holds afterwards because no counter is
//! ever written directly.

use crate::classify::{classify_with_options, ClassifierOptions};
use crate::engine::CacheEntry;
use crate::Result;
use lcl_problem::json::JsonValue;
use lcl_problem::{fnv1a, NormalizedLcl, ProblemError};
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// The `format` discriminator every snapshot header carries.
pub const SNAPSHOT_FORMAT: &str = "lcl-cache-snapshot";

/// The snapshot format version this build writes and accepts.
pub const SNAPSHOT_VERSION: i64 = 3;

/// The outcome of [`Engine::restore_snapshot`](crate::Engine::restore_snapshot):
/// how many entries the document declared, how many were installed, and how
/// many were skipped because their key failed to decode or to classify
/// (first failure retained for logging).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Entry count the header declared.
    pub entries: usize,
    /// Entries decoded, classified and inserted into the cache.
    pub restored: usize,
    /// Entries skipped because their key failed to decode or to classify.
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

/// Serializes the keys of cache entries (as returned by
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
    for (key, _) in entries {
        JsonValue::object([("key", JsonValue::Str(hex_encode(key)))]).write_json_string(&mut out);
        out.push('\n');
    }
    let checksum = fnv1a(out.as_bytes());
    JsonValue::object([("checksum", JsonValue::Str(format!("{checksum:016x}")))])
        .write_json_string(&mut out);
    out.push('\n');
    out
}

/// Decodes one entry line back into a `(key, entry)` pair ready for cache
/// insertion, classifying the key's problem with `options`.
fn decode_entry(line: &str, options: &ClassifierOptions) -> Result<(Vec<u8>, CacheEntry)> {
    let value = JsonValue::parse(line).map_err(|e| wire(e.to_string()))?;
    let key_hex = value
        .require("key")
        .and_then(JsonValue::as_str)
        .map_err(|e| wire(e.to_string()))?;
    let key =
        hex_decode(key_hex).ok_or_else(|| wire(format!("invalid snapshot key `{key_hex}`")))?;
    // The structural key is self-describing: rebuilding the problem (and
    // re-encoding inside `from_structural_key`) validates every bit of it.
    let problem = NormalizedLcl::from_structural_key(&key).map_err(crate::ClassifierError::from)?;
    let classification = classify_with_options(&problem, options)?;
    Ok((key, CacheEntry::new(Arc::new(classification))))
}

/// Parses and validates `document`, handing each successfully classified
/// entry to `install` in file order (coldest first, see the module docs).
///
/// # Errors
///
/// Returns a wire-format error when the document's *envelope* is invalid:
/// missing or malformed header, wrong format discriminator, unsupported
/// version, entry-count mismatch, or a missing/mismatching checksum trailer.
/// The envelope is checked whole before any entry is installed. Per-entry
/// failures are never errors — they are counted in the returned report.
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
    let carried = lines.clone().count();
    if carried != entries {
        return Err(wire(format!(
            "snapshot declares {entries} entries but carries {carried}"
        )));
    }
    let mut report = RestoreReport {
        entries,
        ..RestoreReport::default()
    };
    for line in lines {
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
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Complexity, Engine};
    use lcl_problems::{coloring, unconstrained};

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
        // Envelope failures reject the whole document and install nothing.
        let rejected = |document: &str| {
            let target = target();
            let err = target.restore_snapshot(document).unwrap_err();
            assert_eq!(target.cache_stats().entries, 0, "{err}");
            err.to_string()
        };

        rejected("");
        rejected("\n\n");
        rejected("not json\n");
        rejected(&document[..document.len() / 2]);
        let mut flipped = document.clone().into_bytes();
        let mid = flipped.len() / 2;
        flipped[mid] = if flipped[mid] == b'a' { b'b' } else { b'a' };
        rejected(&String::from_utf8(flipped).unwrap());
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
        let err = rejected(&skewed);
        assert!(
            err.contains(&format!("unsupported snapshot version {previous}")),
            "{err}"
        );
        let wrong_format = reframed(&|header| header.replace(SNAPSHOT_FORMAT, "something-else"));
        let err = rejected(&wrong_format);
        assert!(err.contains("not a cache snapshot"), "{err}");
        let wrong_count = reframed(&|header| header.replace("\"entries\":1", "\"entries\":7"));
        let err = rejected(&wrong_count);
        assert!(err.contains("declares 7 entries"), "{err}");

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

    #[test]
    fn a_key_past_the_type_budget_is_skipped_and_counted() {
        let engine = Engine::builder().parallelism(1).build();
        engine.classify(&coloring(3)).unwrap();
        let document = engine.snapshot_document();
        let tight = Engine::builder().parallelism(1).type_budget(1).build();
        let report = tight.restore_snapshot(&document).unwrap();
        assert_eq!((report.entries, report.restored, report.skipped), (1, 0, 1));
        let error = report.first_error.unwrap();
        assert!(error.contains("budget"), "{error}");
        let stats = tight.cache_stats();
        assert_eq!((stats.entries, stats.inserts, stats.misses), (0, 0, 0));
    }

    /// Regression: format version 2 restored the complexity an entry line
    /// declared, so a resealed `"complexity":"linear"` made the engine
    /// serve `Θ(n)` for 3-colouring. A line's fields other than the key are
    /// never read: the classifier decides the verdict.
    #[test]
    fn an_injected_verdict_is_recomputed_not_served() {
        let problems = [coloring(3), unconstrained(2)];
        let engine = Engine::builder().parallelism(1).build();
        for problem in &problems {
            engine.classify(problem).unwrap();
        }
        let injected = reframe(&engine.snapshot_document(), |body| {
            body.replace("{\"key\":", "{\"complexity\":\"linear\",\"key\":")
        });
        assert_eq!(injected.matches("\"complexity\":\"linear\"").count(), 2);

        let restored = Engine::builder().parallelism(1).build();
        let report = restored.restore_snapshot(&injected).unwrap();
        assert_eq!((report.restored, report.skipped), (2, 0), "{report:?}");
        let fresh = Engine::builder().parallelism(1).build();
        let expected = [Complexity::LogStar, Complexity::Constant];
        for (problem, complexity) in problems.iter().zip(expected) {
            assert_eq!(
                restored.verdict(problem).unwrap().to_json_string(),
                fresh.verdict(problem).unwrap().to_json_string(),
                "{}",
                problem.name()
            );
            assert_eq!(restored.classify(problem).unwrap().complexity(), complexity);
        }
        assert_eq!(restored.cache_stats().misses, 0, "served from the restore");
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
