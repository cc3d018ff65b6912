//! Warm-cache snapshot/restore integration tests: a snapshot taken over the
//! wire mid-flood restores into a fresh engine with byte-identical
//! verdicts, the cache accounting invariant survives a restore, concurrent
//! writers never fail or tear the file, and corrupt, truncated, miscounted
//! or version-skewed files are rejected whole, without ever panicking,
//! failing startup or leaving an entry resident.

use lcl_paths::classifier::SNAPSHOT_VERSION;
use lcl_paths::{problems, Engine};
use lcl_server::{Client, RequestKind, Server, Service};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

/// A unique per-test temp directory (removed on drop).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("lcl-snap-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn service_with_path(path: PathBuf) -> Arc<Service> {
    Arc::new(Service::new(Engine::builder().parallelism(2).build()).with_cache_snapshot_path(path))
}

fn classify_line(id: i64, colors: usize) -> String {
    let spec = problems::coloring(colors).to_spec();
    let payload = lcl_paths::problem::json::JsonValue::object([("problem", spec.to_json())]);
    lcl_paths::problem::RequestEnvelope::new(id, "classify", payload).to_json_string()
}

#[test]
fn a_snapshot_taken_under_live_traffic_restores_byte_identical_verdicts() {
    let dir = TempDir::new("live");
    let path = dir.path("cache.snapshot");
    let service = service_with_path(path.clone());
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind")
        .start()
        .expect("start");
    let addr = handle.addr();

    // A background flood keeps classifications (and cache writes) in flight
    // while snapshots are taken over the wire.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flood_stop = Arc::clone(&stop);
    let flood = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("flood connect");
        let mut k = 2usize;
        while !flood_stop.load(std::sync::atomic::Ordering::Relaxed) {
            let _ = client.classify(&problems::coloring(2 + (k % 12)).to_spec());
            k += 1;
        }
    });

    let mut client = Client::connect(addr).expect("connect");
    // Guarantee some warmth regardless of flood scheduling, then snapshot
    // repeatedly while the flood mutates the cache under the writer.
    for k in 2..=6 {
        client
            .classify(&problems::coloring(k).to_spec())
            .expect("warm classify");
    }
    let mut entries = 0i64;
    for _ in 0..5 {
        let written = client
            .call("snapshot", lcl_paths::problem::json::JsonValue::object([]))
            .expect("snapshot under flood");
        entries = written.require("entries").unwrap().as_int().unwrap();
        assert!(entries >= 5, "snapshot saw the warmed entries");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    flood.join().expect("flood thread");
    handle.shutdown();

    // Restore into a fresh engine: the snapshotted problems must answer
    // byte-for-byte what a cold computation answers, and from the cache.
    let restored = service_with_path(path.clone());
    let summary = restored
        .restore_cache_snapshot()
        .expect("path configured and file present")
        .expect("snapshot restores");
    assert!(summary.contains("restored"), "{summary}");
    let cold = service_with_path(dir.path("unused.snapshot"));
    let stats_before = restored.engine().cache_stats();
    assert_eq!(stats_before.entries as i64, entries);
    for (id, k) in (2..=6).enumerate() {
        let line = classify_line(id as i64, k);
        assert_eq!(
            restored.handle_line(&line).into_json_string(),
            cold.handle_line(&line).into_json_string(),
            "restored and cold verdicts must serialize identically"
        );
    }
    let stats = restored.engine().cache_stats();
    assert_eq!(
        stats.hits,
        stats_before.hits + 5,
        "every restored problem answered from the cache"
    );

    // The accounting invariant holds after a restore, exactly as it does
    // for organically inserted entries.
    assert_eq!(
        stats.entries as u64 + stats.evictions,
        stats.inserts,
        "entries + evictions == inserts after restore"
    );
}

#[test]
fn restored_warmth_survives_capacity_pressure_with_the_invariant_intact() {
    let dir = TempDir::new("pressure");
    let path = dir.path("cache.snapshot");
    // Warm more entries than the restore target's capacity will hold.
    let writer = service_with_path(path.clone());
    for k in 2..=11 {
        assert!(writer.handle_line(&classify_line(k as i64, k)).is_ok());
    }
    assert!(writer.write_cache_snapshot().unwrap().is_ok());

    // A 4-entry cache restores what fits; the rest are evictions, never an
    // accounting leak.
    let tight = Arc::new(
        Service::new(Engine::builder().parallelism(2).cache_capacity(4).build())
            .with_cache_snapshot_path(path),
    );
    tight
        .restore_cache_snapshot()
        .expect("file present")
        .expect("restore under pressure succeeds");
    let stats = tight.engine().cache_stats();
    assert!(stats.entries <= 4, "capacity bound holds after restore");
    assert_eq!(stats.entries as u64 + stats.evictions, stats.inserts);
}

/// Regression: every writer used to share one temp path, so a second
/// writer's rename found the file already moved and the request failed.
#[test]
fn concurrent_snapshot_writes_all_succeed_and_restore_whole() {
    const WRITERS: usize = 4;
    const WRITES: usize = 50;
    let dir = TempDir::new("race");
    let path = dir.path("cache.snapshot");
    let service = service_with_path(path.clone());
    for k in 2..=6 {
        assert!(service.handle_line(&classify_line(k as i64, k)).is_ok());
    }
    let barrier = Arc::new(std::sync::Barrier::new(WRITERS));
    let writers: Vec<_> = (0..WRITERS)
        .map(|_| {
            let (service, barrier, path) =
                (Arc::clone(&service), Arc::clone(&barrier), path.clone());
            thread::spawn(move || {
                let reader = Engine::builder().parallelism(1).build();
                barrier.wait();
                let mut failures = Vec::new();
                for _ in 0..WRITES {
                    if let Err(e) = service.write_cache_snapshot().expect("path configured") {
                        failures.push(e.to_string());
                        continue;
                    }
                    let document = std::fs::read_to_string(&path).expect("snapshot file");
                    reader.clear_cache();
                    let report = reader.restore_snapshot(&document).expect("whole document");
                    assert_eq!((report.restored, report.skipped), (5, 0), "{report:?}");
                }
                failures
            })
        })
        .collect();
    let failures: Vec<String> = writers
        .into_iter()
        .flat_map(|writer| writer.join().expect("writer thread"))
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} writes failed, first: {}",
        failures.len(),
        WRITERS * WRITES,
        failures[0]
    );
}

/// FNV-1a 64-bit, the snapshot trailer's digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Rewrites a snapshot's checksummed body and re-seals its trailer, so the
/// mutation reaches the check it targets instead of the checksum.
fn reseal(document: &str, mutate: impl FnOnce(&str) -> String) -> String {
    let split = document
        .trim_end_matches('\n')
        .rfind('\n')
        .expect("trailer")
        + 1;
    let body = mutate(&document[..split]);
    format!(
        "{body}{{\"checksum\":\"{:016x}\"}}\n",
        fnv1a(body.as_bytes())
    )
}

#[test]
fn corrupt_truncated_and_version_skewed_snapshots_never_panic_or_serve() {
    let dir = TempDir::new("corrupt");
    let path = dir.path("cache.snapshot");
    let writer = service_with_path(path.clone());
    for k in 2..=6 {
        assert!(writer.handle_line(&classify_line(k as i64, k)).is_ok());
    }
    writer
        .write_cache_snapshot()
        .expect("path configured")
        .expect("snapshot writes");
    let good = std::fs::read_to_string(&path).expect("read snapshot");

    // Truncated mid-document (no trailer), flipped checksum, version skew,
    // a header whose entry count disagrees with the body, outright garbage,
    // and an empty file: every one is reported and ignored, and the service
    // then works cold.
    let header_end = good.find('\n').expect("header line") + 1;
    let carried = good.lines().count() - 2;
    let cases: Vec<(String, String)> = vec![
        ("truncated".into(), good[..good.len() * 2 / 3].to_string()),
        (
            "checksum-flip".into(),
            good.replacen("\"checksum\":\"", "\"checksum\":\"f", 1),
        ),
        (
            "version-skew".into(),
            reseal(&good, |body| {
                body.replacen(
                    &format!("\"version\":{SNAPSHOT_VERSION}"),
                    &format!("\"version\":{}", SNAPSHOT_VERSION - 1),
                    1,
                )
            }),
        ),
        (
            "wrong-count".into(),
            reseal(&good, |body| {
                body.replacen(
                    &format!("\"entries\":{carried}"),
                    &format!("\"entries\":{}", carried + 2),
                    1,
                )
            }),
        ),
        ("garbage".into(), "not a snapshot at all\n".to_string()),
        ("empty".into(), String::new()),
        ("header-only".into(), good[..header_end].to_string()),
    ];
    assert_eq!(reseal(&good, str::to_string), good, "resealing is exact");
    for (tag, document) in cases {
        assert_ne!(
            document, good,
            "[{tag}] the corruption must change the file"
        );
        std::fs::write(&path, document).expect("write corrupt snapshot");
        let victim = service_with_path(path.clone());
        let error = victim
            .restore_cache_snapshot()
            .expect("file present")
            .expect_err("corrupt snapshot must be rejected");
        assert!(error.contains("ignoring cache snapshot"), "[{tag}] {error}");
        if tag == "version-skew" {
            assert!(error.contains("unsupported snapshot version"), "{error}");
        }
        if tag == "wrong-count" {
            assert!(error.contains(&format!("but carries {carried}")), "{error}");
        }
        // Startup continues cold: nothing restored, service fully usable.
        assert_eq!(victim.engine().cache_stats().entries, 0, "[{tag}]");
        assert!(
            victim.handle_line(&classify_line(1, 3)).is_ok(),
            "[{tag}] the service must serve after a rejected snapshot"
        );
    }

    // A missing file is not an error at all — first boot is silent.
    let fresh = service_with_path(dir.path("never-written.snapshot"));
    assert!(fresh.restore_cache_snapshot().is_none());

    // The snapshot kind is part of the wire surface.
    assert_eq!(RequestKind::Snapshot.wire_name(), "snapshot");
}
