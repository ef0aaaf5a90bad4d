//! The parallel ingest engine must be a *deterministic* function of
//! `(seed, shard count, batch sequence)` — thread interleaving may change
//! which shard runs when, but never what any shard computes, because the
//! batch split is a pure function and every shard owns a jump-ahead RNG
//! substream consumed strictly in its own batch order. These tests drive
//! the real threaded pipeline (not the single-threaded shard simulation in
//! `tbs-core`) and also pin the engine's deterministic scalar state to the
//! single-node recursion.

use rand::SeedableRng;
use tbs_core::checkpoint::Writer;
use tbs_core::merge::{BalancedSplitter, MergeableSample, ShardSpec};
use tbs_core::{RTbs, TTbs};
use tbs_distributed::engine::{EngineConfig, ParallelIngestEngine};
use tbs_stats::rng::Xoshiro256PlusPlus;

/// An erratic schedule exercising all four R-TBS transitions.
fn schedule(t: u64) -> u64 {
    [40u64, 0, 7, 90, 3, 0, 250, 11, 0, 0, 64, 1][t as usize % 12]
}

fn run_engine(seed: u64, shards: usize, batches: u64) -> (f64, f64, Vec<u64>) {
    let spec = ShardSpec::rtbs(0.2, 64, shards);
    let mut engine: ParallelIngestEngine<RTbs<u64>> =
        ParallelIngestEngine::new(EngineConfig::new(spec, seed));
    for t in 0..batches {
        let b = schedule(t);
        engine
            .ingest((0..b).map(|i| t * 1000 + i).collect())
            .unwrap();
    }
    let merged = engine.snapshot_merged().unwrap();
    let sample = engine.sample().unwrap();
    (merged.total_weight(), merged.sample_weight(), sample)
}

#[test]
fn same_seed_same_shards_is_bit_identical_across_runs() {
    for shards in [1usize, 2, 4, 8, 32, 64] {
        let (w1, c1, s1) = run_engine(42, shards, 60);
        let (w2, c2, s2) = run_engine(42, shards, 60);
        assert_eq!(w1, w2, "K={shards}: total weight diverged");
        assert_eq!(c1, c2, "K={shards}: sample weight diverged");
        assert_eq!(s1, s2, "K={shards}: realized samples diverged");
    }
}

#[test]
fn different_seeds_differ() {
    let (_, _, s1) = run_engine(1, 4, 60);
    let (_, _, s2) = run_engine(2, 4, 60);
    assert_ne!(s1, s2, "different seeds produced identical samples");
}

#[test]
fn engine_weights_match_single_node_recursion() {
    // (W, C) are deterministic; the threaded engine must track a
    // single-node R-TBS exactly at every snapshot point.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
    for shards in [1usize, 2, 4, 8, 32, 64] {
        let spec = ShardSpec::rtbs(0.2, 64, shards);
        let mut engine: ParallelIngestEngine<RTbs<u64>> =
            ParallelIngestEngine::new(EngineConfig::new(spec, 33));
        let mut single: RTbs<u64> = RTbs::new(0.2, 64);
        for t in 0..48u64 {
            let b = schedule(t);
            let batch: Vec<u64> = (0..b).map(|i| t * 1000 + i).collect();
            single.observe(batch.clone(), &mut rng);
            engine.ingest(batch).unwrap();
            if t % 6 == 5 {
                let merged = engine.snapshot_merged().unwrap();
                assert!(
                    (merged.total_weight() - single.total_weight()).abs() < 1e-9,
                    "K={shards}, t={t}: W diverged"
                );
                assert!(
                    (merged.sample_weight() - single.sample_weight()).abs() < 1e-9,
                    "K={shards}, t={t}: C diverged"
                );
            }
        }
    }
}

#[test]
fn ttbs_engine_is_deterministic_too() {
    let run = |seed: u64| -> Vec<u64> {
        let spec = ShardSpec::ttbs(0.1, 100, 50.0, 4);
        let mut engine: ParallelIngestEngine<TTbs<u64>> =
            ParallelIngestEngine::new(EngineConfig::new(spec, seed));
        for t in 0..80u64 {
            engine
                .ingest((0..50).map(|i| t * 100 + i).collect())
                .unwrap();
        }
        engine.sample().unwrap()
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

#[test]
fn backpressure_does_not_change_the_result() {
    // A depth-1 queue forces constant producer blocking — maximally
    // different interleaving from the default depth — yet the merged
    // sample must be identical.
    let spec = ShardSpec::rtbs(0.2, 64, 4);
    let run = |depth: usize| -> Vec<u64> {
        let mut cfg = EngineConfig::new(spec, 21);
        cfg.queue_depth = depth;
        let mut engine: ParallelIngestEngine<RTbs<u64>> = ParallelIngestEngine::new(cfg);
        for t in 0..60u64 {
            let b = schedule(t);
            engine
                .ingest((0..b).map(|i| t * 1000 + i).collect())
                .unwrap();
        }
        engine.sample().unwrap()
    };
    assert_eq!(run(1), run(64));
}

/// How a run-boundary test drives the engine.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Cut {
    /// `quiesce()` after every batch: every run holds one batch.
    EveryBatch,
    /// No read until the final sample: runs are cut only at the driver's
    /// size target (and the final hand-off).
    SizeTarget,
    /// As `SizeTarget`, through a depth-1 work queue.
    DepthOne,
}

/// Drive 300 bursty batches (~67k items: several size-target cuts per
/// shard even at K = 4) under `cut` and return the realized sample.
fn drive_cut<S>(spec: ShardSpec, cut: Cut) -> Vec<u64>
where
    S: tbs_core::merge::MergeableSample<Item = u64> + Clone + Send + 'static,
{
    let bursty = |t: u64| [0u64, 1, 250, 7, 90, 1000][t as usize % 6];
    let mut cfg = EngineConfig::new(spec, 8);
    if cut == Cut::DepthOne {
        cfg.queue_depth = 1;
    }
    let mut engine: ParallelIngestEngine<S> = ParallelIngestEngine::new(cfg);
    for t in 0..300u64 {
        engine
            .ingest((0..bursty(t)).map(|i| t * 10_000 + i).collect())
            .unwrap();
        if cut == Cut::EveryBatch {
            engine.quiesce().unwrap();
        }
    }
    engine.sample().unwrap()
}

#[test]
fn run_boundaries_never_move_the_sample() {
    // Where the driver cuts its coalesced runs is a matter of timing and
    // reads, never of the stream: each shard still observes its
    // sub-batches one at a time, in order.
    for k in [1usize, 2, 4] {
        let rtbs = ShardSpec::rtbs(0.1, 500, k);
        let expect = drive_cut::<RTbs<u64>>(rtbs, Cut::EveryBatch);
        for cut in [Cut::SizeTarget, Cut::DepthOne] {
            assert_eq!(
                drive_cut::<RTbs<u64>>(rtbs, cut),
                expect,
                "R-TBS K={k}: {cut:?} moved the sample"
            );
        }
        let ttbs = ShardSpec::ttbs(0.1, 500, 225.0, k);
        let expect = drive_cut::<TTbs<u64>>(ttbs, Cut::EveryBatch);
        for cut in [Cut::SizeTarget, Cut::DepthOne] {
            assert_eq!(
                drive_cut::<TTbs<u64>>(ttbs, cut),
                expect,
                "T-TBS K={k}: {cut:?} moved the sample"
            );
        }
    }
}

/// Serialized sampler state, so shard states compare byte for byte.
trait StateBytes {
    fn state_bytes(&self) -> Vec<u8>;
}

impl StateBytes for RTbs<u64> {
    fn state_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.save_state(&mut w);
        w.finish().to_vec()
    }
}

impl StateBytes for TTbs<u64> {
    fn state_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.save_state(&mut w);
        w.finish().to_vec()
    }
}

/// The engine's shard states rebuilt without the engine: split each
/// batch with a fresh [`BalancedSplitter`] and feed shard `k` its chunk
/// on stream `k + 1` of the seed's substreams (stream 0 is the driver's).
fn reference_shards<S>(spec: ShardSpec, seed: u64, batches: &[Vec<u64>]) -> Vec<(Vec<u8>, [u64; 4])>
where
    S: MergeableSample<Item = u64> + StateBytes,
{
    let k = spec.shards;
    let mut rngs = Xoshiro256PlusPlus::seed_from_u64(seed).split_streams(k + 1);
    rngs.remove(0);
    let mut shards = S::make_shards(&spec);
    let mut splitter = BalancedSplitter::new(spec.lambda, k);
    let mut out = vec![Vec::new(); k];
    for batch in batches {
        splitter.split(&mut batch.clone(), &mut out);
        for ((shard, rng), chunk) in shards.iter_mut().zip(&mut rngs).zip(&mut out) {
            shard.observe_shard(chunk, rng);
        }
    }
    shards
        .iter()
        .zip(&rngs)
        .map(|(shard, rng)| (shard.state_bytes(), rng.state()))
        .collect()
}

/// The engine's shard states after the same batches, from `save_parts`.
fn engine_shards<S>(spec: ShardSpec, seed: u64, batches: &[Vec<u64>]) -> Vec<(Vec<u8>, [u64; 4])>
where
    S: MergeableSample<Item = u64> + StateBytes + Clone + Send + 'static,
{
    let mut engine: ParallelIngestEngine<S> =
        ParallelIngestEngine::new(EngineConfig::new(spec, seed));
    for batch in batches {
        engine.ingest(batch.clone()).unwrap();
    }
    engine
        .save_parts()
        .unwrap()
        .shard_states
        .iter()
        .map(|(shard, rng)| (shard.state_bytes(), *rng))
        .collect()
}

#[test]
fn engine_shards_equal_an_independent_split_reference() {
    // The bursty schedule with one batch larger than any run target
    // (8192 items per shard at K ≤ 4) in the middle, so a batch that
    // travels alone is covered too.
    let bursty = |t: u64| [0u64, 1, 250, 7, 90, 1000][t as usize % 6];
    let batches: Vec<Vec<u64>> = (0..240u64)
        .map(|t| {
            let b = if t == 120 { 40_000 } else { bursty(t) };
            (0..b).map(|i| t * 100_000 + i).collect()
        })
        .collect();
    for k in [1usize, 2, 3, 4] {
        let rtbs = ShardSpec::rtbs(0.1, 500, k);
        assert_eq!(
            engine_shards::<RTbs<u64>>(rtbs, 17, &batches),
            reference_shards::<RTbs<u64>>(rtbs, 17, &batches),
            "R-TBS K={k}: engine shards differ from the reference split"
        );
        let ttbs = ShardSpec::ttbs(0.1, 500, 225.0, k);
        assert_eq!(
            engine_shards::<TTbs<u64>>(ttbs, 17, &batches),
            reference_shards::<TTbs<u64>>(ttbs, 17, &batches),
            "T-TBS K={k}: engine shards differ from the reference split"
        );
    }
}
