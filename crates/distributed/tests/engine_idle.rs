//! An idle engine's threads sleep: with nothing queued, every shard
//! worker and the merger block on their queues instead of waking on a
//! timer. The check counts each pipeline thread's voluntary context
//! switches (`/proc/self/task/*/status`) across a quiet window after one
//! published epoch; a thread that polls shows hundreds per second.
//!
//! Its own test binary, so no other test's `tbs-*` threads share the
//! process. Skips (and says so) where `/proc` is unavailable.

use std::collections::BTreeMap;
use std::time::Duration;
use tbs_core::merge::ShardSpec;
use tbs_core::RTbs;
use tbs_distributed::engine::{EngineConfig, ParallelIngestEngine};

/// Voluntary switches allowed per thread in the quiet window: enough for
/// stray wake-ups, far below one wake-up per millisecond.
const MAX_SWITCHES: u64 = 10;

/// `(name, voluntary context switches)` of every engine thread
/// (`tbs-shard-*`, `tbs-merger`) in this process, keyed by thread id.
fn engine_threads() -> Option<BTreeMap<String, (String, u64)>> {
    let mut threads = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let task = task.ok()?;
        // A thread that exits between the listing and the read is not
        // one of the engine's: they all outlive this call.
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(key))
                .map(str::trim)
        };
        let name = field("Name:")?;
        if !(name.starts_with("tbs-shard-") || name == "tbs-merger") {
            continue;
        }
        let switches = field("voluntary_ctxt_switches:")?.parse().ok()?;
        let tid = task.file_name().to_string_lossy().into_owned();
        threads.insert(tid, (name.to_owned(), switches));
    }
    Some(threads)
}

#[test]
fn idle_engine_threads_sleep() {
    if engine_threads().is_none() {
        eprintln!("skipped: /proc/self/task is unavailable on this host");
        return;
    }
    let cfg = EngineConfig::new(ShardSpec::rtbs(0.1, 200, 2), 7);
    let mut engine: ParallelIngestEngine<RTbs<u64>> = ParallelIngestEngine::new(cfg);
    for t in 0..50u64 {
        engine
            .ingest((0..100).map(|i| t * 1000 + i).collect())
            .unwrap();
    }
    let epoch = engine.request_snapshot().unwrap();
    engine
        .snapshot_cell()
        .wait_for_epoch_timeout(epoch, Duration::from_secs(30))
        .published()
        .expect("the epoch publishes");

    let before = engine_threads().expect("/proc readable a moment ago");
    std::thread::sleep(Duration::from_millis(300));
    let after = engine_threads().expect("/proc readable a moment ago");
    drop(engine);

    assert_eq!(
        before.len(),
        3,
        "two shard workers and the merger: {before:?}"
    );
    for (tid, (name, start)) in &before {
        let (_, end) = after
            .get(tid)
            .unwrap_or_else(|| panic!("{name} exited while the engine was alive"));
        let woke = end - start;
        assert!(
            woke <= MAX_SWITCHES,
            "{name} woke {woke} times in 300 ms with nothing to do (bound {MAX_SWITCHES})"
        );
    }
}
