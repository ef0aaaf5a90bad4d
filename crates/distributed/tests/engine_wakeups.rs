//! The engine wakes a thread only for work it can finish, and its
//! driver thread never frees a caller batch:
//!
//! * the merger blocks about once per published epoch, not once per
//!   message (its voluntary context switches, read from
//!   `/proc/self/task/*/status`; skipped where `/proc` is unavailable);
//! * the shard that reads a run last drops its caller batches, so none
//!   is dropped on the driver thread across hand-offs and `quiesce`;
//! * epoch headers queued quietly behind a stalled shard fill the
//!   merger's queue without a hang: the push that finds it full wakes
//!   the merger first, and every epoch still publishes in order;
//! * a run handed off while the shards have no other run in flight is
//!   queued quietly: parked shards stay asleep on it (no voluntary
//!   context switch, no item counted) until the next hand-off or a read
//!   wakes them, the second hand-off always does, a one-message work
//!   queue never hangs, and the sample equals that of an engine
//!   synchronized after every batch.
//!
//! Its own test binary, so no other test's `tbs-*` threads share the
//! process; the tests here take turns through one lock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;
use tbs_core::merge::ShardSpec;
use tbs_core::RTbs;
use tbs_distributed::engine::{EngineConfig, ParallelIngestEngine};

/// One engine at a time in this process.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(scheduler state letter, voluntary context switches)` of this
/// process's thread named `name`, or `None` where `/proc/self/task` is
/// unreadable.
fn thread_status(name: &str) -> Option<(char, u64)> {
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let Ok(status) = std::fs::read_to_string(task.ok()?.path().join("status")) else {
            continue;
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(key))
                .map(str::trim)
        };
        if field("Name:") == Some(name) {
            let state = field("State:")?.chars().next()?;
            return Some((state, field("voluntary_ctxt_switches:")?.parse().ok()?));
        }
    }
    None
}

/// Voluntary context switches of this process's `tbs-merger` thread, or
/// `None` where `/proc/self/task` is unreadable.
fn merger_switches() -> Option<u64> {
    Some(thread_status("tbs-merger")?.1)
}

#[test]
fn merger_wakes_about_once_per_epoch() {
    const EPOCHS: u64 = 100;
    /// Stray blocks on a contended lock, far below one per message.
    const SLACK: u64 = 10;
    let _serial = serial();
    let cfg = EngineConfig::new(ShardSpec::rtbs(0.1, 200, 2), 7);
    let mut engine: ParallelIngestEngine<RTbs<u64>> = ParallelIngestEngine::new(cfg);
    let Some(before) = merger_switches() else {
        eprintln!("skipped: /proc/self/task is unavailable on this host");
        return;
    };
    let cell = engine.snapshot_cell();
    // Enough ingest per epoch that the shards are still busy when its
    // header reaches the merger, so a merger woken by every message
    // would block again before the forks arrive.
    for e in 0..EPOCHS {
        for t in 0..20u64 {
            engine
                .ingest((0..1000).map(|i| (e * 100 + t) * 1000 + i).collect())
                .unwrap();
        }
        let epoch = engine.request_snapshot().unwrap();
        cell.wait_for_epoch_timeout(epoch, Duration::from_secs(30))
            .published()
            .expect("the epoch publishes");
    }
    let woke = merger_switches().expect("/proc readable a moment ago") - before;
    drop(engine);
    eprintln!("merger: {woke} voluntary context switches over {EPOCHS} epochs");
    assert!(
        woke <= EPOCHS + SLACK,
        "merger blocked {woke} times over {EPOCHS} epochs (bound {})",
        EPOCHS + SLACK
    );
}

thread_local! {
    /// Set on the test's own thread: the engine's driver.
    static ON_DRIVER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}
static DRIVER_DROPS: AtomicU64 = AtomicU64::new(0);
static ALL_DROPS: AtomicU64 = AtomicU64::new(0);

/// An item that counts where it is dropped.
#[derive(Clone, Debug, PartialEq)]
struct Tracked(u64);

impl Drop for Tracked {
    fn drop(&mut self) {
        ALL_DROPS.fetch_add(1, Ordering::Relaxed);
        if ON_DRIVER.with(|d| d.get()) {
            DRIVER_DROPS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[test]
fn driver_never_drops_a_caller_batch() {
    const BATCHES: u64 = 400;
    const ITEMS: u64 = 1_000;
    let _serial = serial();
    let cfg = EngineConfig::new(ShardSpec::rtbs(0.1, 200, 2), 3);
    let mut engine: ParallelIngestEngine<RTbs<Tracked>> = ParallelIngestEngine::new(cfg);
    ON_DRIVER.with(|d| d.set(true));
    DRIVER_DROPS.store(0, Ordering::Relaxed);
    ALL_DROPS.store(0, Ordering::Relaxed);
    // 400 000 items against a run target of 2 × 8192: a few dozen
    // hand-offs, so each run slot is reused many times.
    for t in 0..BATCHES {
        engine
            .ingest((0..ITEMS).map(|i| Tracked(t * ITEMS + i)).collect())
            .unwrap();
    }
    engine.quiesce().unwrap();
    let on_driver = DRIVER_DROPS.load(Ordering::Relaxed);
    let all = ALL_DROPS.load(Ordering::Relaxed);
    ON_DRIVER.with(|d| d.set(false));
    drop(engine);
    assert!(
        all >= BATCHES * ITEMS,
        "every caller item is dropped by quiesce ({all} drops)"
    );
    assert_eq!(on_driver, 0, "the driver thread dropped {on_driver} items");
}

/// Holds shard 1's worker inside its first item copy while set.
static HOLD_SHARD_1: AtomicBool = AtomicBool::new(false);

/// An item whose copy on shard 1's worker waits for `HOLD_SHARD_1`.
#[derive(Debug, PartialEq)]
struct Gated(u64);

impl Clone for Gated {
    fn clone(&self) -> Self {
        while HOLD_SHARD_1.load(Ordering::Acquire)
            && std::thread::current().name() == Some("tbs-shard-1")
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        Gated(self.0)
    }
}

#[test]
fn snapshot_flood_behind_a_stalled_shard_publishes_in_order() {
    // Three times the merger queue's 4 × (K + 2) = 16 slots, and below the
    // stalled shard's 64-message work queue.
    const REQUESTS: u64 = 48;
    let _serial = serial();
    let cfg = EngineConfig::new(ShardSpec::rtbs(0.1, 64, 2), 21);
    let feed = |engine: &mut ParallelIngestEngine<RTbs<Gated>>| {
        for t in 0..10u64 {
            engine
                .ingest((0..100).map(|i| Gated(t * 100 + i)).collect())
                .unwrap();
        }
    };
    let mut reference: ParallelIngestEngine<RTbs<Gated>> = ParallelIngestEngine::new(cfg);
    feed(&mut reference);
    let epoch = reference.request_snapshot().unwrap();
    let expect = reference
        .snapshot_cell()
        .wait_for_epoch_timeout(epoch, Duration::from_secs(30))
        .published()
        .expect("the reference epoch publishes");
    drop(reference);

    let mut engine: ParallelIngestEngine<RTbs<Gated>> = ParallelIngestEngine::new(cfg);
    let cell = engine.snapshot_cell();
    HOLD_SHARD_1.store(true, Ordering::Release);
    feed(&mut engine);
    // The first request hands the run off and shard 1 stalls in it; shard
    // 0 forks every epoch, but none can complete, so the merger's queue
    // fills with quiet headers and forks.
    let (tx, rx) = std::sync::mpsc::channel();
    let requester = std::thread::spawn(move || {
        let epochs: Vec<u64> = (0..REQUESTS)
            .map(|_| engine.request_snapshot().unwrap())
            .collect();
        tx.send(()).unwrap();
        (engine, epochs)
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("requests queued behind a full merger queue hung");
    assert_eq!(
        cell.published_epoch(),
        0,
        "no epoch completes while shard 1 stalls"
    );
    let watcher = {
        let cell = std::sync::Arc::clone(&cell);
        std::thread::spawn(move || {
            let mut seen = Vec::new();
            while seen.last() != Some(&REQUESTS) {
                if let Some(latest) = cell.latest() {
                    if seen.last() != Some(&latest.epoch()) {
                        seen.push(latest.epoch());
                    }
                }
                std::thread::yield_now();
            }
            seen
        })
    };
    HOLD_SHARD_1.store(false, Ordering::Release);
    let last = cell
        .wait_for_epoch_timeout(REQUESTS, Duration::from_secs(30))
        .published()
        .expect("every epoch publishes once the shard resumes");
    let (engine, epochs) = requester.join().unwrap();
    assert_eq!(epochs, (1..=REQUESTS).collect::<Vec<_>>());
    let seen = watcher.join().unwrap();
    assert!(
        seen.windows(2).all(|w| w[0] < w[1]),
        "epochs published out of order: {seen:?}"
    );
    // Every request sat at the same batch boundary and RNG position.
    assert_eq!(last.items(), expect.items());
    drop(engine);
}

/// Items in one run of a 2-shard engine: K × the per-shard run target.
const RUN: u64 = 2 * 8192;

/// Batch `t` of the quiet-run tests' stream: 1000 distinct items.
fn batch(t: u64) -> Vec<u64> {
    (0..1000).map(|i| t * 1000 + i).collect()
}

/// Items counted by every shard so far.
fn counted(engine: &ParallelIngestEngine<RTbs<u64>>) -> u64 {
    engine.shard_stats().iter().map(|s| s.items).sum()
}

/// The sample of an engine fed batches `0..batches` with a `quiesce()`
/// after every one, so each batch is handed off, and woken for, alone.
fn synced_reference(cfg: EngineConfig, batches: u64) -> Vec<u64> {
    let mut engine: ParallelIngestEngine<RTbs<u64>> = ParallelIngestEngine::new(cfg);
    for t in 0..batches {
        engine.ingest(batch(t)).unwrap();
        engine.quiesce().unwrap();
    }
    engine.sample().unwrap()
}

#[test]
fn first_run_after_idle_is_queued_quietly() {
    // 16 batches fill the open run; the 17th hands it off, the only
    // hand-off, and stays open.
    const BATCHES: u64 = RUN / 1000 + 1;
    let _serial = serial();
    let cfg = EngineConfig::new(ShardSpec::rtbs(0.1, 200, 2), 5);
    let mut engine: ParallelIngestEngine<RTbs<u64>> = ParallelIngestEngine::new(cfg);
    engine.quiesce().unwrap();
    let shards = ["tbs-shard-0", "tbs-shard-1"];
    let Some(mut parked) = shards
        .iter()
        .map(|n| thread_status(n))
        .collect::<Option<Vec<_>>>()
    else {
        eprintln!("skipped: /proc/self/task is unavailable on this host");
        return;
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while parked.iter().any(|&(state, _)| state != 'S') {
        assert!(
            std::time::Instant::now() < deadline,
            "shards never parked after quiesce: {parked:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
        parked = shards
            .iter()
            .map(|n| thread_status(n).expect("/proc readable a moment ago"))
            .collect();
    }
    let items_before = counted(&engine);
    for t in 0..BATCHES {
        engine.ingest(batch(t)).unwrap();
    }
    std::thread::sleep(Duration::from_millis(50));
    for (name, &(_, before)) in shards.iter().zip(&parked) {
        let (_, after) = thread_status(name).expect("/proc readable a moment ago");
        assert_eq!(
            after - before,
            0,
            "{name} woke for a run handed off while no other was in flight"
        );
    }
    assert_eq!(
        counted(&engine),
        items_before,
        "a shard processed the quietly queued run"
    );
    engine.quiesce().unwrap();
    assert_eq!(counted(&engine), BATCHES * 1000);
    assert_eq!(engine.sample().unwrap(), synced_reference(cfg, BATCHES));
}

#[test]
fn second_hand_off_wakes_the_shards() {
    // Two hand-offs of 16 batches each; the 33rd batch stays open.
    const BATCHES: u64 = 2 * (RUN / 1000) + 1;
    let _serial = serial();
    let cfg = EngineConfig::new(ShardSpec::rtbs(0.1, 200, 2), 6);
    let mut engine: ParallelIngestEngine<RTbs<u64>> = ParallelIngestEngine::new(cfg);
    engine.quiesce().unwrap();
    for t in 0..BATCHES {
        engine.ingest(batch(t)).unwrap();
    }
    // No read: only the second hand-off can have woken the shards.
    let first_run = RUN / 1000 * 1000;
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while counted(&engine) < first_run {
        assert!(
            std::time::Instant::now() < deadline,
            "shards still asleep 5 s after the second hand-off: {} of {first_run} items",
            counted(&engine)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn quiet_runs_never_hang_a_one_message_queue() {
    const BATCHES: u64 = 50 * (RUN / 1000);
    let _serial = serial();
    let mut cfg = EngineConfig::new(ShardSpec::rtbs(0.1, 200, 2), 8);
    cfg.queue_depth = 1;
    let (tx, rx) = std::sync::mpsc::channel();
    let feeder = std::thread::spawn(move || {
        let mut engine: ParallelIngestEngine<RTbs<u64>> = ParallelIngestEngine::new(cfg);
        for t in 0..BATCHES {
            engine.ingest(batch(t)).unwrap();
        }
        tx.send(engine.sample().unwrap()).unwrap();
    });
    let sample = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("ingest behind a one-message work queue hung");
    feeder.join().unwrap();
    assert_eq!(sample, synced_reference(cfg, BATCHES));
}
