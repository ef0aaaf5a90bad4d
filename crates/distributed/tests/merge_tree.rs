//! The hierarchical merge tree is a *replay*, not a re-randomization:
//! every node of the `⌈log₂K⌉`-depth pairwise tree draws from an RNG
//! substream derived purely from (driver RNG position, node id), so the
//! engine's merger thread, folding each epoch's barrier forks through
//! [`merge_replay`] from the driver position recorded at the request,
//! must publish exactly what a fold on the test thread over the same
//! shard states from the same position produces.
//!
//! These tests pin that property end-to-end: run the engine (barrier
//! forks racing ingest, backpressure forced by a shallow queue), capture
//! its durable state, replay the merge + realization sequentially on the
//! test thread, and require equality — for both mergeable algorithms, K
//! up to 64, saturated and unsaturated regimes.

use tbs_core::merge::{MergeableSample, ShardSpec};
use tbs_core::{RTbs, TTbs};
use tbs_distributed::engine::{
    EngineCheckpoint, EngineConfig, ParallelIngestEngine, RecoveryPolicy,
};
use tbs_stats::rng::Xoshiro256PlusPlus;

/// Sequential reference: clone the checkpointed shard states and fold
/// them with the canonical driver-side `merge_shards` replay from the
/// checkpointed driver RNG position, then realize on the post-merge
/// trajectory — exactly the contract `ParallelIngestEngine::sample`
/// promises to reproduce.
fn sequential_replay<S>(parts: &EngineCheckpoint<S>, spec: &ShardSpec) -> Vec<S::Item>
where
    S: MergeableSample + Clone,
    S::Item: Clone,
{
    let shards: Vec<S> = parts.shard_states.iter().map(|(s, _)| s.clone()).collect();
    let mut rng = Xoshiro256PlusPlus::from_state(parts.driver_rng);
    let merged = S::merge_shards(shards, spec, &mut rng);
    let mut out = Vec::new();
    merged.realize_into(&mut rng, &mut out);
    out
}

/// Drive `engine` with a bursty schedule (empty and size-1200 batches
/// in the mix), then compare the engine's parallel
/// tree sample against the sequential replay at three checkpoints.
fn check_tree_matches_sequential<S>(cfg: EngineConfig, label: &str)
where
    S: MergeableSample<Item = u64> + Clone + Send + Sync + 'static,
{
    let spec = cfg.spec;
    let mut engine: ParallelIngestEngine<S> = ParallelIngestEngine::new(cfg);
    let sizes = [97u64, 0, 331, 1200, 16, 250, 0, 40];
    let mut next = 0u64;
    for round in 0..3 {
        for step in 0..40usize {
            let b = sizes[(round * 7 + step) % sizes.len()];
            let batch: Vec<u64> = (next..next + b).collect();
            next += b;
            engine.ingest(batch).unwrap();
        }
        // save_parts consumes no randomness, so the subsequent sample()
        // runs from exactly the captured driver position.
        let parts = engine.save_parts().unwrap();
        let expected = sequential_replay(&parts, &spec);
        let got = engine.sample().unwrap();
        assert_eq!(
            got, expected,
            "{label}: parallel merge tree diverged from sequential replay \
             (K={}, round={round})",
            spec.shards
        );
    }
}

#[test]
fn rtbs_tree_is_bit_identical_to_sequential_replay() {
    for k in [2usize, 4, 8, 16, 32, 64] {
        // Saturated: λ=0.1, n=500, mean batch ≈ 280 ⇒ W* ≈ 2800 ≫ n.
        check_tree_matches_sequential::<RTbs<u64>>(
            EngineConfig {
                spec: ShardSpec::rtbs(0.1, 500, k),
                queue_depth: 2,
                seed: 11 + k as u64,
                recovery: RecoveryPolicy::Fail,
            },
            "R-TBS saturated",
        );
        // Unsaturated: λ=0.07, n=6000 ⇒ W* ≈ 4140 < n, C = W always.
        check_tree_matches_sequential::<RTbs<u64>>(
            EngineConfig {
                spec: ShardSpec::rtbs(0.07, 6000, k),
                queue_depth: 2,
                seed: 23 + k as u64,
                recovery: RecoveryPolicy::Fail,
            },
            "R-TBS unsaturated",
        );
    }
}

#[test]
fn ttbs_tree_is_bit_identical_to_sequential_replay() {
    for k in [2usize, 4, 8, 16, 32, 64] {
        // Arrival rate above the assumed mean: sample rides above target.
        check_tree_matches_sequential::<TTbs<u64>>(
            EngineConfig {
                spec: ShardSpec::ttbs(0.1, 1000, 280.0, k),
                queue_depth: 2,
                seed: 37 + k as u64,
                recovery: RecoveryPolicy::Fail,
            },
            "T-TBS over-fed",
        );
        // Arrival rate below the assumed mean: sample rides below target.
        check_tree_matches_sequential::<TTbs<u64>>(
            EngineConfig {
                spec: ShardSpec::ttbs(0.1, 4000, 900.0, k),
                queue_depth: 2,
                seed: 53 + k as u64,
                recovery: RecoveryPolicy::Fail,
            },
            "T-TBS under-fed",
        );
    }
}

#[test]
fn published_snapshot_equals_sample_at_high_shard_counts() {
    // The barrier-published FrozenSample and a driver sample() from the
    // same point must agree item-for-item even at K=16, where the tree
    // is 4 levels deep and several epochs can be in flight at once.
    let spec = ShardSpec::rtbs(0.1, 1000, 16);
    let mut a: ParallelIngestEngine<RTbs<u64>> = ParallelIngestEngine::new(EngineConfig {
        spec,
        queue_depth: 4,
        seed: 99,
        recovery: RecoveryPolicy::Fail,
    });
    let mut b: ParallelIngestEngine<RTbs<u64>> = ParallelIngestEngine::new(EngineConfig {
        spec,
        queue_depth: 4,
        seed: 99,
        recovery: RecoveryPolicy::Fail,
    });
    let cell = a.snapshot_cell();
    for t in 0..120u64 {
        let batch: Vec<u64> = (t * 500..t * 500 + 350).collect();
        a.ingest(batch.clone()).unwrap();
        b.ingest(batch).unwrap();
        if t % 17 == 0 {
            // Keep the pipeline busy with extra in-flight epochs on the
            // publishing engine; the sampled engine must still agree.
            a.request_snapshot().unwrap();
            b.request_snapshot().unwrap();
            a.quiesce().unwrap();
            b.quiesce().unwrap();
        }
    }
    let epoch = a.request_snapshot().unwrap();
    let frozen = cell.wait_for_epoch(epoch).expect("published");
    let sampled = b.sample().unwrap();
    assert_eq!(frozen.items(), &sampled[..]);
}
