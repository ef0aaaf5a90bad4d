//! Fault-injection matrix over the supervised engine: every injected
//! failure × {R-TBS, T-TBS} × K ∈ {1, 4, 8} must (a) never hang, (b)
//! never abort the process, and (c) either recover **bit-identically**
//! (under [`RecoveryPolicy::RespawnFromBarrier`]) or surface a named
//! [`EngineError`] (under [`RecoveryPolicy::Fail`]).
//!
//! The faults come from the seeded [`FaultPlan`]: worker kills keyed to
//! a shard's deterministic stream position, merger kills keyed to the
//! merger's message index, and dropped/delayed queue pushes keyed to
//! (shard, global batch number) — so every scenario here is exactly
//! reproducible.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tbs_core::merge::ShardSpec;
use tbs_core::{RTbs, TTbs};
use tbs_distributed::engine::{
    EngineConfig, EngineError, EngineHealth, ParallelIngestEngine, RecoveryPolicy,
};
use tbs_distributed::fault::{silence_injected_panics, FaultPlan};
use tbs_distributed::snapshot::EpochWait;

/// An erratic schedule exercising all R-TBS transitions, including
/// empty batches (the decay clock must advance through a fault too).
fn schedule(t: u64) -> u64 {
    [40u64, 0, 7, 90, 3, 0, 250, 11, 0, 0, 64, 1][t as usize % 12]
}

fn batch_at(t: u64) -> Vec<u64> {
    (0..schedule(t)).map(|i| t * 1000 + i).collect()
}

const BATCHES: u64 = 60;

/// Drive `batches` batches through a fresh R-TBS engine under `plan`,
/// returning the final realized sample (`Err` if the pipeline failed).
fn run_rtbs(
    shards: usize,
    recovery: RecoveryPolicy,
    plan: Option<Arc<FaultPlan>>,
) -> (Result<Vec<u64>, EngineError>, EngineHealth) {
    let cfg = EngineConfig::new(ShardSpec::rtbs(0.2, 64, shards), 42).recovery(recovery);
    let mut engine: ParallelIngestEngine<RTbs<u64>> = match plan {
        Some(p) => ParallelIngestEngine::with_fault_plan(cfg, p),
        None => ParallelIngestEngine::new(cfg),
    };
    let sample = drive(&mut engine);
    let health = engine.health();
    (sample, health)
}

fn run_ttbs(
    shards: usize,
    recovery: RecoveryPolicy,
    plan: Option<Arc<FaultPlan>>,
) -> (Result<Vec<u64>, EngineError>, EngineHealth) {
    let cfg = EngineConfig::new(ShardSpec::ttbs(0.1, 50, 47.0, shards), 42).recovery(recovery);
    let mut engine: ParallelIngestEngine<TTbs<u64>> = match plan {
        Some(p) => ParallelIngestEngine::with_fault_plan(cfg, p),
        None => ParallelIngestEngine::new(cfg),
    };
    let sample = drive(&mut engine);
    let health = engine.health();
    (sample, health)
}

fn drive<S>(engine: &mut ParallelIngestEngine<S>) -> Result<Vec<S::Item>, EngineError>
where
    S: tbs_core::merge::MergeableSample<Item = u64> + Clone + Send + 'static,
{
    for t in 0..BATCHES {
        engine.ingest(batch_at(t))?;
        // Periodic publishes keep the merger's message stream moving (so
        // merger-keyed faults actually fire) and refresh the recovery
        // fork records mid-stream, like a serving deployment would.
        if t % 12 == 11 {
            engine.request_snapshot()?;
        }
    }
    // The final sample quiesces every shard, so any injected death that
    // ingest outran is detected here at the latest.
    engine.sample()
}

/// The full injected-failure matrix: for each sampler and shard count,
/// each fault either fails typed (Fail) or recovers to the bit-identical
/// fault-free sample (RespawnFromBarrier). `delay_push` is a pure
/// slowdown and must be invisible under both policies.
#[test]
fn fault_matrix_is_typed_or_bit_identical() {
    silence_injected_panics();
    // (label, plan builder) — positions chosen mid-stream so state
    // exists to lose. Worker kills are keyed to the shard's own batch
    // index; pushes to the global batch number.
    type PlanBuilder = fn(usize) -> FaultPlan;
    let plans: &[(&str, PlanBuilder)] = &[
        ("kill_worker", |shards| {
            FaultPlan::new().kill_worker(shards - 1, 20)
        }),
        ("kill_merger", |_| FaultPlan::new().kill_merger(3)),
        ("drop_push", |shards| {
            FaultPlan::new().drop_push(shards / 2, 30)
        }),
        ("delay_push", |shards| {
            FaultPlan::new().delay_push(shards / 2, 30, 5)
        }),
    ];
    for &shards in &[1usize, 4, 8] {
        let (baseline_r, _) = run_rtbs(shards, RecoveryPolicy::Fail, None);
        let baseline_r = baseline_r.expect("fault-free run succeeds");
        let (baseline_t, _) = run_ttbs(shards, RecoveryPolicy::Fail, None);
        let baseline_t = baseline_t.expect("fault-free run succeeds");
        for (label, build) in plans {
            // kill_merger: a 1-shard engine still has a merger thread,
            // so every scenario applies at every K.
            let harmless = *label == "delay_push";

            let (got, health) =
                run_rtbs(shards, RecoveryPolicy::Fail, Some(Arc::new(build(shards))));
            check_fail_policy(label, harmless, shards, &baseline_r, got, health);

            let (got, health) = run_rtbs(
                shards,
                RecoveryPolicy::RespawnFromBarrier,
                Some(Arc::new(build(shards))),
            );
            check_respawn_policy(label, harmless, shards, &baseline_r, got, health);

            let (got, health) =
                run_ttbs(shards, RecoveryPolicy::Fail, Some(Arc::new(build(shards))));
            check_fail_policy(label, harmless, shards, &baseline_t, got, health);

            let (got, health) = run_ttbs(
                shards,
                RecoveryPolicy::RespawnFromBarrier,
                Some(Arc::new(build(shards))),
            );
            check_respawn_policy(label, harmless, shards, &baseline_t, got, health);
        }
    }
}

fn check_fail_policy<I: PartialEq + std::fmt::Debug>(
    label: &str,
    harmless: bool,
    shards: usize,
    baseline: &[I],
    got: Result<Vec<I>, EngineError>,
    health: EngineHealth,
) {
    if harmless {
        assert_eq!(
            got.as_deref().expect("delay is not a fault"),
            baseline,
            "{label}/K={shards}: a delayed push changed the sample"
        );
        assert_eq!(health, EngineHealth::Healthy);
        return;
    }
    let cause = got.expect_err(&format!(
        "{label}/K={shards}: fault must surface under Fail"
    ));
    assert_eq!(
        health,
        EngineHealth::Failed(cause.clone()),
        "{label}/K={shards}: health must record the typed cause"
    );
    match (label, &cause) {
        ("kill_worker", EngineError::ShardDead { .. })
        // A dying merger is seen either through its closed queue
        // (MergerDead), through the epoch cell it closes on the way out
        // (SnapshotLost), or — when its death interleaves with a barrier
        // protocol — as the shard-side push failure it provoked.
        | (
            "kill_merger",
            EngineError::MergerDead
            | EngineError::ShardDead { .. }
            | EngineError::SnapshotLost { .. },
        )
        | ("drop_push", EngineError::ChunkDropped { .. }) => {}
        other => panic!("{label}/K={shards}: unexpected cause {other:?}"),
    }
}

fn check_respawn_policy<I: PartialEq + std::fmt::Debug>(
    label: &str,
    harmless: bool,
    shards: usize,
    baseline: &[I],
    got: Result<Vec<I>, EngineError>,
    health: EngineHealth,
) {
    let got = got.unwrap_or_else(|e| {
        panic!("{label}/K={shards}: supervised engine must absorb the fault, got {e}")
    });
    assert_eq!(
        got, baseline,
        "{label}/K={shards}: recovery must be bit-identical to the fault-free stream"
    );
    if harmless {
        assert_eq!(health, EngineHealth::Healthy);
    } else {
        assert!(
            matches!(health, EngineHealth::Degraded { recoveries } if recoveries >= 1),
            "{label}/K={shards}: health must count the recovery, got {health:?}"
        );
    }
}

/// Recovery must also work *after* barriers have trimmed the replay log:
/// the shard restores from its newest fork record, not from stream start.
#[test]
fn recovery_after_barriers_uses_the_latest_fork() {
    silence_injected_panics();
    let spec = ShardSpec::rtbs(0.2, 64, 4);
    let cfg = EngineConfig::new(spec, 7).recovery(RecoveryPolicy::RespawnFromBarrier);

    let mut clean: ParallelIngestEngine<RTbs<u64>> = ParallelIngestEngine::new(cfg);
    let plan = FaultPlan::new().kill_worker(2, 40);
    let mut faulty: ParallelIngestEngine<RTbs<u64>> =
        ParallelIngestEngine::with_fault_plan(cfg, Arc::new(plan));

    for engine in [&mut clean, &mut faulty] {
        for t in 0..30 {
            engine.ingest(batch_at(t)).unwrap();
        }
        // A published barrier refreshes every shard's fork record and
        // trims the replay log behind it.
        let epoch = engine.request_snapshot().unwrap();
        assert!(engine
            .snapshot_cell()
            .wait_for_epoch_timeout(epoch, Duration::from_secs(30))
            .published()
            .is_some());
        for t in 30..70 {
            engine.ingest(batch_at(t)).unwrap();
        }
        // Force detection before reading the recovery counter: ingest can
        // outrun the injected death (queues are deep), but a quiesce
        // cannot — it must hear back from the killed shard.
        engine.quiesce().unwrap();
    }
    assert_eq!(faulty.recoveries(), 1);
    assert_eq!(
        clean.sample().unwrap(),
        faulty.sample().unwrap(),
        "post-barrier recovery diverged from the fault-free stream"
    );
}

/// Back-to-back faults: the supervisor must survive further kills after
/// already having recovered once, still bit-identically. Quiesce points
/// sit between the fault sites so every death is detected (and its
/// rebuild finished) *before* the stream advances past the next site —
/// a recovery's replay bypasses the injection hooks, so without the
/// fences a single rebuild could silently absorb a later fault.
#[test]
fn repeated_faults_accumulate_recoveries() {
    silence_injected_panics();
    let plan = Arc::new(
        FaultPlan::new()
            .kill_worker(0, 10)
            .kill_worker(3, 25)
            .kill_merger(5),
    );
    let run = |plan: Option<Arc<FaultPlan>>| {
        let cfg = EngineConfig::new(ShardSpec::rtbs(0.2, 64, 4), 42)
            .recovery(RecoveryPolicy::RespawnFromBarrier);
        let mut engine: ParallelIngestEngine<RTbs<u64>> = match plan {
            Some(p) => ParallelIngestEngine::with_fault_plan(cfg, p),
            None => ParallelIngestEngine::new(cfg),
        };
        // Segment 1 covers worker kill #1 (shard 0, batch 10)…
        for t in 0..15 {
            engine.ingest(batch_at(t)).unwrap();
        }
        engine.quiesce().unwrap();
        // …segment 2 covers worker kill #2 (shard 3, batch 25)…
        for t in 15..30 {
            engine.ingest(batch_at(t)).unwrap();
        }
        engine.quiesce().unwrap();
        // …and two barriers feed the post-recovery merger incarnation a
        // request + K forks each, so the second epoch's request is its
        // message at index 5, the kill site.
        engine.request_snapshot().unwrap();
        engine.quiesce().unwrap();
        engine.request_snapshot().unwrap();
        for t in 30..BATCHES {
            engine.ingest(batch_at(t)).unwrap();
        }
        // The final sample quiesces and rebuilds the merge pipeline, so
        // the merger kill is detected here at the latest.
        let sample = engine.sample().unwrap();
        (sample, engine.health())
    };
    let (clean, _) = run(None);
    let (got, health) = run(Some(Arc::clone(&plan)));
    assert_eq!(
        got, clean,
        "multi-fault recovery diverged from the fault-free stream"
    );
    assert_eq!(plan.fired_count(), 3, "every planned fault must fire");
    assert!(
        matches!(health, EngineHealth::Degraded { recoveries } if recoveries >= 3),
        "three fenced faults must mean three distinct recoveries, got {health:?}"
    );
}

/// A failed engine must answer every subsequent call with the recorded
/// cause immediately — no call may hang on the dead pipeline.
#[test]
fn failed_engine_answers_every_call_typed() {
    silence_injected_panics();
    let plan = FaultPlan::new().kill_worker(1, 5);
    let cfg = EngineConfig::new(ShardSpec::rtbs(0.2, 64, 4), 11);
    let mut engine: ParallelIngestEngine<RTbs<u64>> =
        ParallelIngestEngine::with_fault_plan(cfg, Arc::new(plan));
    let cause = drive(&mut engine)
        .map(|_| ())
        .expect_err("the kill must surface by the quiescing sample at the latest");
    assert_eq!(engine.health(), EngineHealth::Failed(cause.clone()));
    assert_eq!(engine.ingest(vec![1, 2, 3]).unwrap_err(), cause);
    assert_eq!(engine.quiesce().unwrap_err(), cause);
    assert_eq!(engine.sample().unwrap_err(), cause);
    assert_eq!(engine.save_parts().unwrap_err(), cause);
    assert_eq!(engine.request_snapshot().unwrap_err(), cause);
}

/// Readers blocked on an epoch that will never publish must be woken by
/// the dying pipeline, not left hanging.
#[test]
fn reader_waiting_on_dead_publisher_returns_promptly() {
    silence_injected_panics();
    let plan = FaultPlan::new().kill_merger(1);
    let cfg = EngineConfig::new(ShardSpec::rtbs(0.2, 64, 2), 5);
    let mut engine: ParallelIngestEngine<RTbs<u64>> =
        ParallelIngestEngine::with_fault_plan(cfg, Arc::new(plan));
    let cell = engine.snapshot_cell();
    let waiter =
        std::thread::spawn(move || cell.wait_for_epoch_timeout(1, Duration::from_secs(30)));
    // Request epochs until the merger has died and the driver noticed.
    let mut saw_error = false;
    for t in 0..BATCHES {
        engine.ingest(batch_at(t)).unwrap_or(());
        if engine.request_snapshot().is_err() {
            saw_error = true;
            break;
        }
    }
    assert!(saw_error, "the merger kill must surface to the driver");
    match waiter.join().unwrap() {
        EpochWait::Published(_) | EpochWait::PublisherGone => {}
        EpochWait::TimedOut => panic!("waiter hung until its deadline on a dead publisher"),
    }
}

/// Dropping an engine whose merger is already dead while a barrier is
/// still in flight must not deadlock (the drop path must not wait on the
/// merger to drain the task queue).
#[test]
fn drop_with_dead_merger_and_inflight_barrier_does_not_deadlock() {
    silence_injected_panics();
    let plan = FaultPlan::new().kill_merger(0);
    let cfg = EngineConfig::new(ShardSpec::rtbs(0.2, 64, 4), 13);
    let mut engine: ParallelIngestEngine<RTbs<u64>> =
        ParallelIngestEngine::with_fault_plan(cfg, Arc::new(plan));
    // The first merger message kills it; the barrier below may be
    // enqueued before the driver ever notices.
    for t in 0..4 {
        engine.ingest(batch_at(t)).unwrap();
    }
    let _ = engine.request_snapshot();
    drop(engine);
}

/// Same drop-order edge under the supervisor: a recovery triggered by a
/// late fault must not leave joins or queues behind when the engine is
/// dropped immediately afterwards.
#[test]
fn drop_right_after_recovery_is_clean() {
    silence_injected_panics();
    let plan = FaultPlan::new().kill_worker(0, 8);
    let cfg = EngineConfig::new(ShardSpec::rtbs(0.2, 64, 4), 17)
        .recovery(RecoveryPolicy::RespawnFromBarrier);
    let mut engine: ParallelIngestEngine<RTbs<u64>> =
        ParallelIngestEngine::with_fault_plan(cfg, Arc::new(plan));
    for t in 0..40 {
        engine.ingest(batch_at(t)).unwrap();
    }
    // Force detection: the quiesce runs into the closed response queue
    // and triggers the supervised respawn.
    engine.quiesce().unwrap();
    assert!(engine.recoveries() >= 1);
    drop(engine);
}

/// Where a fault's target batch sits relative to the driver's run
/// hand-offs when the fault is realized.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Placement {
    /// No read until the final sample: the target batch is still in the
    /// driver's open run (the stream stays below the run size target), so
    /// the fault surfaces at the sample's hand-off.
    Unflushed,
    /// A snapshot request a few batches after the target hands its run
    /// to the shard; ingest then continues while that run is queued.
    Queued,
}

/// The global batch number (1-based) every run-placement fault targets.
const TARGET: u64 = 23;

fn drive_placed<S>(
    engine: &mut ParallelIngestEngine<S>,
    placement: Placement,
) -> Result<Vec<S::Item>, EngineError>
where
    S: tbs_core::merge::MergeableSample<Item = u64> + Clone + Send + 'static,
{
    for t in 0..BATCHES {
        engine.ingest(batch_at(t))?;
        if placement == Placement::Queued && t + 1 == TARGET + 3 {
            engine.request_snapshot()?;
        }
    }
    engine.sample()
}

fn run_placed(
    ttbs: bool,
    shards: usize,
    recovery: RecoveryPolicy,
    placement: Placement,
    plan: Option<FaultPlan>,
) -> (Result<Vec<u64>, EngineError>, EngineHealth) {
    let spec = if ttbs {
        ShardSpec::ttbs(0.1, 50, 47.0, shards)
    } else {
        ShardSpec::rtbs(0.2, 64, shards)
    };
    let cfg = EngineConfig::new(spec, 42).recovery(recovery);
    if ttbs {
        let mut engine: ParallelIngestEngine<TTbs<u64>> = match plan {
            Some(p) => ParallelIngestEngine::with_fault_plan(cfg, Arc::new(p)),
            None => ParallelIngestEngine::new(cfg),
        };
        let got = drive_placed(&mut engine, placement);
        (got, engine.health())
    } else {
        let mut engine: ParallelIngestEngine<RTbs<u64>> = match plan {
            Some(p) => ParallelIngestEngine::with_fault_plan(cfg, Arc::new(p)),
            None => ParallelIngestEngine::new(cfg),
        };
        let got = drive_placed(&mut engine, placement);
        (got, engine.health())
    }
}

/// The push and worker faults, with the target batch inside a run the
/// driver still holds and inside a run already queued to the shard:
/// typed errors naming the exact shard and batch under `Fail`, the
/// bit-identical sample and `Degraded` health under `RespawnFromBarrier`.
#[test]
fn faults_inside_open_and_queued_runs() {
    silence_injected_panics();
    type PlanBuilder = fn(usize) -> FaultPlan;
    let plans: &[(&str, PlanBuilder)] = &[
        // Worker kills are keyed to the shard's 0-based batch index.
        ("kill_worker", |shards| {
            FaultPlan::new().kill_worker(shards - 1, TARGET - 1)
        }),
        ("drop_push", |shards| {
            FaultPlan::new().drop_push(shards / 2, TARGET)
        }),
        ("delay_push", |shards| {
            FaultPlan::new().delay_push(shards / 2, TARGET, 5)
        }),
        // The last shard stalls 50 ms inside the run, just before the
        // target batch, so the others have read the run and released
        // their share of its slot before that shard dies at that batch.
        ("kill_after_release", |shards| {
            FaultPlan::new()
                .delay_push(shards - 1, TARGET, 50)
                .kill_worker(shards - 1, TARGET - 1)
        }),
        // Shard 1's push alone is lost (shard 0 at K = 1); the others
        // get the run. The batch sits mid-run, so the reported number
        // must be the dropped batch's own.
        ("drop_push_shard1", |shards| {
            FaultPlan::new().drop_push(shards.min(2) - 1, TARGET + 1)
        }),
    ];
    for ttbs in [false, true] {
        for shards in [1usize, 4] {
            for placement in [Placement::Unflushed, Placement::Queued] {
                let (clean, _) = run_placed(ttbs, shards, RecoveryPolicy::Fail, placement, None);
                let clean = clean.expect("fault-free run succeeds");
                for (label, build) in plans {
                    let ctx = format!("{label}/ttbs={ttbs}/K={shards}/{placement:?}");

                    let (got, health) = run_placed(
                        ttbs,
                        shards,
                        RecoveryPolicy::Fail,
                        placement,
                        Some(build(shards)),
                    );
                    match *label {
                        "delay_push" => {
                            assert_eq!(got.as_deref(), Ok(&clean[..]), "{ctx}: delay moved it");
                            assert_eq!(health, EngineHealth::Healthy, "{ctx}");
                        }
                        _ => {
                            let cause = got.expect_err(&format!("{ctx}: must fail typed"));
                            assert_eq!(health, EngineHealth::Failed(cause.clone()), "{ctx}");
                            match (*label, &cause) {
                                ("kill_worker", EngineError::ShardDead { .. }) => {}
                                ("kill_after_release", EngineError::ShardDead { shard }) => {
                                    assert_eq!(*shard, shards - 1, "{ctx}");
                                }
                                ("drop_push", EngineError::ChunkDropped { shard, batch }) => {
                                    assert_eq!((*shard, *batch), (shards / 2, TARGET), "{ctx}");
                                }
                                (
                                    "drop_push_shard1",
                                    EngineError::ChunkDropped { shard, batch },
                                ) => {
                                    assert_eq!(
                                        (*shard, *batch),
                                        (shards.min(2) - 1, TARGET + 1),
                                        "{ctx}"
                                    );
                                }
                                other => panic!("{ctx}: unexpected cause {other:?}"),
                            }
                        }
                    }

                    let (got, health) = run_placed(
                        ttbs,
                        shards,
                        RecoveryPolicy::RespawnFromBarrier,
                        placement,
                        Some(build(shards)),
                    );
                    let got = got.unwrap_or_else(|e| panic!("{ctx}: respawn must absorb, got {e}"));
                    assert_eq!(got, clean, "{ctx}: recovery not bit-identical");
                    if *label == "delay_push" {
                        assert_eq!(health, EngineHealth::Healthy, "{ctx}");
                    } else {
                        assert!(
                            matches!(health, EngineHealth::Degraded { recoveries } if recoveries >= 1),
                            "{ctx}: health must count the recovery, got {health:?}"
                        );
                    }
                }
            }
        }
    }
}

/// A shard dies while the driver holds its open run, for two streams:
///
/// * small batches: the death is detected by a `save_parts` called while
///   the open run holds batches 13–20: its hand-off finds shard 1's queue
///   closed, or, if shard 1 is still reading, the snapshot reply does, and
///   the rebuilt shards get that run from the replay log;
/// * one large batch, then runs of three batches that each cost a shard
///   milliseconds: the driver normally fills both run slots and blocks
///   on the empty run pool while shard 1 is still reading the second
///   run, and shard 1 dies at that run's last batch, so its slot is
///   never released. The dying shard's guard closes the pool, and the
///   driver wakes with a typed error.
#[test]
fn shard_death_while_the_driver_holds_its_open_run() {
    silence_injected_panics();
    // One million items, then batches of 10 000: three to a run. The
    // first run leaves every shard an unsaturated sample of ~250 000
    // items, so each later batch costs its shard a downsample of that
    // sample: milliseconds the driver spends filling both slots.
    let big = |t: u64| {
        let b = if t == 0 { 1_000_000 } else { 10_000 };
        (0..b).map(|i| t * 1_000_000 + i).collect()
    };
    // (label, batch at step t, capacity, shard 1's fatal batch index)
    type Stream = (&'static str, fn(u64) -> Vec<u64>, usize, u64);
    let streams: [Stream; 2] = [
        ("open run", batch_at, 64, 9),
        ("empty pool", big, 2_000_000, 3),
    ];
    for (label, stream, capacity, kill_at) in streams {
        let run = |recovery: RecoveryPolicy, plan: Option<FaultPlan>| {
            let cfg = EngineConfig::new(ShardSpec::rtbs(0.2, capacity, 4), 3).recovery(recovery);
            let mut engine: ParallelIngestEngine<RTbs<u64>> = match plan {
                Some(p) => ParallelIngestEngine::with_fault_plan(cfg, Arc::new(p)),
                None => ParallelIngestEngine::new(cfg),
            };
            // Generated up front, so the driver outruns the shards.
            let mut batches: Vec<Vec<u64>> = (0..BATCHES).map(stream).collect();
            let mut next = |t: u64| std::mem::take(&mut batches[t as usize]);
            let result = (|| {
                for t in 0..12 {
                    engine.ingest(next(t))?;
                }
                // Hands batches 1..=12 off; in the small stream shard 1
                // dies at its 10th, before the barrier fork.
                engine.request_snapshot()?;
                for t in 12..20 {
                    engine.ingest(next(t))?;
                }
                engine.save_parts()?;
                for t in 20..BATCHES {
                    engine.ingest(next(t))?;
                }
                engine.sample()
            })();
            (result, engine.health())
        };
        let (clean, health) = run(RecoveryPolicy::RespawnFromBarrier, None);
        let clean = clean.expect("fault-free run succeeds");
        assert_eq!(health, EngineHealth::Healthy, "{label}");

        let (got, health) = run(
            RecoveryPolicy::Fail,
            Some(FaultPlan::new().kill_worker(1, kill_at)),
        );
        let cause = got.expect_err("the death must surface under Fail");
        assert!(matches!(cause, EngineError::ShardDead { .. }), "{cause:?}");
        assert_eq!(cause, EngineError::ShardDead { shard: 1 }, "{label}");
        assert_eq!(health, EngineHealth::Failed(cause));

        let (got, health) = run(
            RecoveryPolicy::RespawnFromBarrier,
            Some(FaultPlan::new().kill_worker(1, kill_at)),
        );
        assert_eq!(
            got.expect("respawn absorbs the death"),
            clean,
            "{label}: the open runs held across the rebuild were lost or replayed twice"
        );
        assert_eq!(health, EngineHealth::Degraded { recoveries: 1 }, "{label}");
    }
}

/// A delayed push stalls only its shard: the driver hands the run off at
/// once and keeps ingesting while shard 1 sleeps, and the sample comes
/// out bit-identical to a clean run.
#[test]
fn delay_push_stalls_the_shard_not_the_driver() {
    const DELAYED: u64 = 4;
    const STALL_MS: u64 = 300;
    // Above the run target (2 shards × 8192 items), so every batch travels
    // in a run of its own and each ingest hands the previous one off.
    let batch = |t: u64| -> Vec<u64> { (0..20_000).map(|i| t * 100_000 + i).collect() };
    let run = |plan: Option<FaultPlan>| {
        let cfg = EngineConfig::new(ShardSpec::rtbs(0.2, 500, 2), 9);
        let mut engine: ParallelIngestEngine<RTbs<u64>> = match plan {
            Some(p) => ParallelIngestEngine::with_fault_plan(cfg, Arc::new(p)),
            None => ParallelIngestEngine::new(cfg),
        };
        // Generated up front, so only ingest is timed.
        let batches: Vec<Vec<u64>> = (0..8).map(batch).collect();
        let mut around_delay = Duration::ZERO;
        for (batch_no, b) in (1u64..).zip(batches) {
            let start = Instant::now();
            engine.ingest(b).expect("ingest");
            // Batch DELAYED is appended, handed off by the next ingest and
            // followed by one more hand-off into the slot it did not take;
            // none of the three may wait on the stalled shard.
            if (DELAYED..DELAYED + 3).contains(&batch_no) {
                around_delay += start.elapsed();
            }
        }
        let sample = engine.sample().expect("sample");
        assert_eq!(engine.health(), EngineHealth::Healthy);
        (sample, around_delay)
    };
    let (clean, _) = run(None);
    let (delayed, around_delay) = run(Some(FaultPlan::new().delay_push(1, DELAYED, STALL_MS)));
    assert!(
        around_delay < Duration::from_millis(STALL_MS / 2),
        "the driver waited {around_delay:?} on a stall of shard 1"
    );
    assert_eq!(delayed, clean, "a delay must not move the sample");
}
