// Parallel ingest: shard a temporally-biased sample across worker threads.
//
// ```sh
// cargo run --release --example parallel_ingest
// ```
//
// One core stopped being the bottleneck at ~265M items/s, so the engine
// shards the stream across K persistent worker threads, each running its
// own R-TBS with a jump-ahead RNG substream, and merges the shard states
// *exactly* (the paper's §5 weight algebra) in a log-depth pairwise tree
// only when a sample is asked for. Each shard is one thread that owns
// its reservoir, and per-shard capacity adapts to ⌈n/K⌉ + 1, so shards
// stay on the saturated fast path at high K — this example runs 16 (on
// a host with fewer cores they time-slice). The merged sample is
// statistically identical to a single-node R-TBS over the whole stream —
// and bit-identical across runs for a fixed (seed, shard count). Through
// the `api` builder, sharding is one knob: `.shards(16)` — and epoch
// publication self-paces via a `PublishPolicy`.

use temporal_sampling::api::{PublishPolicy, SamplerConfig};
use temporal_sampling::core::merge::ShardSpec;

fn main() {
    // 1. Single-node-equivalent config: λ = 0.1, hard bound n = 1000,
    //    16 shards. Each shard gets the adaptive capacity ⌈n/K⌉ + 1; the
    //    λ-headroom is amortized across the merge (each shard is
    //    downsampled to its exact weight share C·W_k/W before the union),
    //    so capacity no longer balloons as K grows.
    let spec = ShardSpec::rtbs(0.1, 1000, 16);
    println!(
        "16 shards, per-shard capacity {} (= ⌈1000/16⌉ + 1)",
        spec.shard_capacity()
    );

    // 2. Self-paced serving: publish a frozen epoch snapshot every 250
    //    batches instead of hand-calling `publish()`. `MaxLagBatches`
    //    is the alternative — re-publish only when the served sample
    //    trails ingest by more than S batches, the self-pacing knob for
    //    high-K engines where every barrier costs a 4-level merge tree.
    let config = SamplerConfig::rtbs(0.1, 1000)
        .shards(16)
        .seed(42)
        .publish_policy(PublishPolicy::EveryBatches(250));

    // 3. Build the handle: 16 long-lived shard threads behind bounded
    //    queues, spawned once. An invalid sharding (λ = 0, a zero publish
    //    threshold, or a non-mergeable algorithm) would be a TbsError
    //    here, not a panic.
    let mut sampler = config.build::<u64>().expect("valid sharded config");
    let mut reader = sampler.reader(); // Send + Sync + Clone

    // 4. Feed a bursty stream. Each batch is split near-evenly by the
    //    balanced splitter (deterministic — thread timing never changes
    //    which chunk lands in which shard's sample), and every 250th batch
    //    triggers a pipeline to publish a fresh epoch without stalling
    //    ingest.
    for t in 0..2_000u64 {
        let batch_size = match t % 10 {
            0 => 0,
            5 => 400,
            _ => 100,
        };
        let batch: Vec<u64> = (0..batch_size).map(|i| t * 1_000 + i).collect();
        sampler.observe(batch).expect("pipeline healthy");
    }

    // 5. Readers ride the policy: epochs appeared while we ingested, no
    //    manual publish() anywhere. The last barrier may still be in
    //    flight through the merge tree, so wait for it with a deadline
    //    instead of polling `latest()` — a dead publisher or a hung
    //    merge returns a typed verdict here rather than hanging.
    let frozen = reader
        .wait_for_epoch_timeout(2_000 / 250, std::time::Duration::from_secs(10))
        .published()
        .expect("EveryBatches(250) under-fired");
    println!(
        "policy published epoch {} ({} items) during ingest",
        frozen.epoch(),
        frozen.len()
    );

    // 6. Sample on demand still works: quiesce, then the merger thread
    //    folds the 16 shard states through the pairwise merge tree
    //    (`merge_replay`) and realizes the sample.
    let sample = sampler.sample().expect("merge succeeds");
    println!(
        "merged sample: {} items (bound 1000), expected size C = {:.1}",
        sample.len(),
        sampler.expected_size().expect("engine healthy")
    );
    assert!(sample.len() <= 1000);

    // 7. Durable state: the snapshot captures every shard's sampler, RNG
    //    substream position, and the splitter's deviation ledger, so a
    //    restored engine continues the stream bit-identically in a fresh
    //    process.
    let blob = sampler.snapshot().expect("serializable state");
    println!("engine checkpoint: {} bytes", blob.len());
    let mut restored =
        temporal_sampling::api::Sampler::restore(&config, blob).expect("restorable blob");
    sampler
        .observe((0..100).collect())
        .expect("pipeline healthy");
    restored
        .observe((0..100).collect())
        .expect("pipeline healthy");
    assert_eq!(sampler.sample().unwrap(), restored.sample().unwrap());
    println!("restored 16-shard engine continues bit-identically.");
}
