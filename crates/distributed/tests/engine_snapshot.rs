//! Snapshot-protocol correctness: epoch-published `FrozenSample`s must be
//! **bit-identical** to what the exact synchronous `quiesce()`+`sample()`
//! path would have produced at the same barrier point, for R-TBS and
//! T-TBS at 1 and 4 shards, and publication must never disturb the
//! engine's own trajectory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use tbs_core::merge::{MergeableSample, ShardSpec};
use tbs_core::{RTbs, TTbs};
use tbs_distributed::engine::{EngineConfig, ParallelIngestEngine};

/// A deterministic mixed batch schedule (empty, small, large batches).
fn batch(t: u64) -> Vec<u64> {
    let b = [40u64, 0, 150, 7, 93, 1][t as usize % 6];
    (0..b).map(|i| t * 1000 + i).collect()
}

/// Drive `engine` through batches `[from, to)`.
fn feed<S>(engine: &mut ParallelIngestEngine<S>, from: u64, to: u64)
where
    S: MergeableSample<Item = u64> + Clone + Send + 'static,
{
    for t in from..to {
        engine.ingest(batch(t)).unwrap();
    }
}

/// For every barrier point in `checkpoints`: the published snapshot must
/// equal the sample a *fresh* engine (same seed and config) would return
/// from its exact synchronous path after ingesting the same prefix.
fn assert_snapshots_match_exact_path<S>(spec: ShardSpec, seed: u64, checkpoints: &[u64])
where
    S: MergeableSample<Item = u64> + Clone + Send + 'static,
{
    let cfg = EngineConfig::new(spec, seed);
    let mut engine: ParallelIngestEngine<S> = ParallelIngestEngine::new(cfg);
    let cell = engine.snapshot_cell();
    let mut fed = 0;
    for &point in checkpoints {
        feed(&mut engine, fed, point);
        fed = point;
        let epoch = engine.request_snapshot().unwrap();
        let frozen = cell.wait_for_epoch(epoch).expect("engine alive");
        assert_eq!(frozen.epoch(), epoch);
        assert_eq!(frozen.batches_observed(), point);

        // Exact reference: fresh engine, same seed, same prefix, the
        // synchronous quiesce+merge+realize path. Its driver RNG is in
        // the same (never consumed) position the snapshot recorded.
        let mut reference: ParallelIngestEngine<S> = ParallelIngestEngine::new(cfg);
        feed(&mut reference, 0, point);
        let exact = reference.sample().unwrap();
        assert_eq!(
            frozen.items(),
            &exact[..],
            "epoch {epoch} at barrier {point} diverged from the exact path \
             (shards={})",
            spec.shards
        );
    }
}

#[test]
fn rtbs_snapshots_are_bit_identical_to_exact_samples() {
    for k in [1usize, 4] {
        assert_snapshots_match_exact_path::<RTbs<u64>>(
            ShardSpec::rtbs(0.1, 64, k),
            42 + k as u64,
            &[5, 17, 40, 60],
        );
    }
}

#[test]
fn ttbs_snapshots_are_bit_identical_to_exact_samples() {
    for k in [1usize, 4] {
        assert_snapshots_match_exact_path::<TTbs<u64>>(
            ShardSpec::ttbs(0.1, 50, 48.5, k),
            7 + k as u64,
            &[6, 18, 36, 66],
        );
    }
}

#[test]
fn snapshot_requests_do_not_disturb_the_trajectory() {
    // A run that publishes snapshots mid-stream must end bit-identical to
    // a run that never does: request_snapshot consumes no randomness.
    for k in [1usize, 4] {
        let cfg = EngineConfig::new(ShardSpec::rtbs(0.1, 32, k), 5);
        let mut plain = ParallelIngestEngine::<RTbs<u64>>::new(cfg);
        let mut observed = ParallelIngestEngine::<RTbs<u64>>::new(cfg);
        let cell = observed.snapshot_cell();
        let mut last = 0;
        for t in 0..40u64 {
            plain.ingest(batch(t)).unwrap();
            observed.ingest(batch(t)).unwrap();
            if t % 9 == 0 {
                last = observed.request_snapshot().unwrap();
            }
        }
        assert!(cell.wait_for_epoch(last).is_some());
        assert_eq!(
            plain.sample().unwrap(),
            observed.sample().unwrap(),
            "k={k}: trajectory moved"
        );
    }
}

#[test]
fn epochs_publish_in_order_with_exact_staleness_stamps() {
    let mut engine =
        ParallelIngestEngine::<RTbs<u64>>::new(EngineConfig::new(ShardSpec::rtbs(0.2, 32, 2), 9));
    let cell = engine.snapshot_cell();
    let mut epochs = Vec::new();
    for t in 0..30u64 {
        engine.ingest(batch(t)).unwrap();
        if t % 5 == 4 {
            epochs.push((engine.request_snapshot().unwrap(), t + 1));
        }
    }
    for &(epoch, fed) in &epochs {
        let frozen = cell.wait_for_epoch(epoch).expect("published");
        assert!(frozen.epoch() >= epoch);
        if frozen.epoch() == epoch {
            assert_eq!(frozen.batches_observed(), fed);
        }
    }
    assert_eq!(engine.published_epoch(), epochs.last().unwrap().0);
    assert_eq!(engine.requested_epoch(), epochs.last().unwrap().0);
}

#[test]
fn published_metadata_reflects_the_weight_recursion() {
    let lambda = 0.1f64;
    let mut engine = ParallelIngestEngine::<RTbs<u64>>::new(EngineConfig::new(
        ShardSpec::rtbs(lambda, 50, 4),
        11,
    ));
    let cell = engine.snapshot_cell();
    let mut w = 0.0f64;
    for t in 0..25u64 {
        let b = batch(t);
        w = w * (-lambda).exp() + b.len() as f64;
        engine.ingest(b).unwrap();
    }
    let epoch = engine.request_snapshot().unwrap();
    let frozen = cell.wait_for_epoch(epoch).unwrap();
    let total = frozen.total_weight().expect("R-TBS tracks stream weight");
    assert!((total - w).abs() < 1e-9, "W {total} vs exact {w}");
    assert!((frozen.expected_size() - w.min(50.0)).abs() < 1e-9);
    assert!(frozen.len() <= 50);
}

#[test]
fn cell_outlives_the_engine_and_closes_cleanly() {
    let mut engine =
        ParallelIngestEngine::<RTbs<u64>>::new(EngineConfig::new(ShardSpec::rtbs(0.1, 16, 2), 3));
    let cell = engine.snapshot_cell();
    feed(&mut engine, 0, 10);
    let epoch = engine.request_snapshot().unwrap();
    assert!(cell.wait_for_epoch(epoch).is_some());
    drop(engine);
    // The last publication survives the engine...
    assert!(cell.is_closed());
    assert_eq!(cell.latest().unwrap().epoch(), epoch);
    // ...and waiting for epochs that can no longer arrive returns None
    // instead of hanging.
    assert!(cell.wait_for_epoch(epoch + 1).is_none());
}

#[test]
fn concurrent_readers_never_observe_torn_samples_while_saturated() {
    // N reader threads hammer latest() while the driver keeps the 4-shard
    // pipeline saturated and publishes every few batches. Readers check
    // self-consistency of every snapshot; the driver finishing the feed
    // proves ingest made progress (no deadlock under
    // snapshot-while-saturated).
    let spec = ShardSpec::rtbs(0.1, 100, 4);
    let mut engine = ParallelIngestEngine::<RTbs<u64>>::new(EngineConfig::new(spec, 77));
    let cell = engine.snapshot_cell();
    let stop = Arc::new(AtomicU64::new(0));
    // The readers and the driver check in before the feed starts, so a
    // loaded host cannot leave a reader unscheduled until after `stop`.
    let check_in = Arc::new(Barrier::new(5));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let cell = engine.snapshot_cell();
            let stop = Arc::clone(&stop);
            let check_in = Arc::clone(&check_in);
            std::thread::spawn(move || {
                let mut seen = 0u64;
                let mut polls = 0u64;
                check_in.wait();
                // Poll at least once after check-in, whenever `stop` lands.
                loop {
                    if cell.published_epoch() > seen {
                        let f = cell.latest().expect("epoch > 0 implies a publication");
                        // Monotonic epochs, capacity bound, coherent
                        // metadata: a torn/partial publication would trip
                        // one of these.
                        assert!(f.epoch() >= seen);
                        assert!(f.len() <= 100);
                        assert!(f.expected_size() <= 100.0 + 1e-9);
                        assert!(f.total_weight().unwrap().is_finite());
                        assert!(f.items().iter().all(|&x| x < 1_000_000));
                        seen = f.epoch();
                    }
                    polls += 1;
                    if stop.load(Ordering::Acquire) != 0 {
                        break;
                    }
                }
                (seen, polls)
            })
        })
        .collect();

    check_in.wait();
    let mut last = 0;
    for t in 0..600u64 {
        engine
            .ingest((0..200).map(|i| t * 1000 + i).collect())
            .unwrap();
        if t % 3 == 0 {
            last = engine.request_snapshot().unwrap();
        }
    }
    assert!(cell.wait_for_epoch(last).is_some(), "publication stalled");
    stop.store(1, Ordering::Release);
    for r in readers {
        let (seen, polls) = r.join().expect("reader panicked");
        assert!(polls > 0);
        assert!(seen <= last);
    }
    // The engine is still fully functional afterwards.
    assert!(engine.sample().unwrap().len() <= 100);
}
