//! Snapshot / restore contract of the public `api::Sampler`.
//!
//! The headline property: **snapshot → restore → continue is
//! bit-identical to an uninterrupted run**, for every algorithm ×
//! {unsaturated, saturated} × {1, 4} shards, over arbitrary seeds and
//! cut points (proptest). Plus the rejection side: truncated, corrupt,
//! bad-magic, wrong-version, mismatched-config, and trailing-byte blobs
//! are all reported as `TbsError`s — never a panic, never a silently
//! wrong sampler.

use bytes::{BufMut, Bytes, BytesMut};
use proptest::prelude::*;
use temporal_sampling::api::{
    Algorithm, CheckpointError, Sampler, SamplerConfig, TbsError, TimeSemantics,
};

/// Batch at step `t` of the reference stream: bursty, with empty batches
/// and a mean near 50 items.
fn batch_at(t: u64) -> Vec<u64> {
    let size = [50u64, 0, 130, 7, 50, 25][t as usize % 6];
    (0..size).map(|i| t * 1_000 + i).collect()
}

/// Every (algorithm, regime, shards) combination under test. With mean
/// batch ~50 and λ = 0.1, the equilibrium weight is ≈ 525: capacity 200
/// pins the bounded schemes saturated, 800 keeps them unsaturated.
fn all_configs() -> Vec<SamplerConfig> {
    let mut configs = Vec::new();
    for n in [200usize, 800] {
        // T-TBS feasibility needs b ≥ n(1 − e^{−λ}); the *declared* mean
        // batch size just has to clear that floor.
        let b = if n == 200 { 50.0 } else { 80.0 };
        configs.push(SamplerConfig::rtbs(0.1, n));
        configs.push(SamplerConfig::rtbs(0.1, n).shards(4));
        configs.push(SamplerConfig::ttbs(0.1, n, b));
        configs.push(SamplerConfig::ttbs(0.1, n, b).shards(4));
        configs.push(SamplerConfig::uniform(n));
        configs.push(SamplerConfig::chao(0.1, n));
        configs.push(SamplerConfig::sliding_count(n));
        configs.push(SamplerConfig::ares(0.1, n));
    }
    configs.push(SamplerConfig::btbs(0.1));
    configs.push(SamplerConfig::sliding_time(7.5));
    configs
}

/// Feed `total` batches with a snapshot/restore cycle after `cut`, and
/// compare against the uninterrupted run.
fn assert_resume_bit_identical(config: SamplerConfig, seed: u64, total: u64, cut: u64) {
    let config = config.seed(seed);
    let mut uninterrupted = config.build::<u64>().expect("valid config");
    for t in 0..total {
        uninterrupted.observe(batch_at(t)).unwrap();
    }

    let mut first = config.build::<u64>().expect("valid config");
    for t in 0..cut {
        first.observe(batch_at(t)).unwrap();
    }
    let blob = first.snapshot().unwrap();
    drop(first);
    let mut resumed = Sampler::restore(&config, blob).expect("own snapshot must restore");
    for t in cut..total {
        resumed.observe(batch_at(t)).unwrap();
    }

    assert_eq!(resumed.batches_observed(), uninterrupted.batches_observed());
    assert_eq!(
        resumed.sample().unwrap(),
        uninterrupted.sample().unwrap(),
        "{} × {} shards: resumed run diverged (seed {seed}, cut {cut}/{total})",
        config.algorithm().label(),
        config.shard_count(),
    );
}

proptest! {
    // Each case sweeps all 18 configs; 24 cases keep the suite quick
    // while still exploring seeds and cut points broadly.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn resume_is_bit_identical_for_every_config(
        seed in 0u64..1_000_000,
        cut in 1u64..35,
    ) {
        for config in all_configs() {
            assert_resume_bit_identical(config, seed, 36, cut);
        }
    }

    #[test]
    fn snapshot_blob_is_deterministic(seed in 0u64..1_000_000) {
        // Two identically-built, identically-fed samplers must serialize
        // to identical bytes (snapshot consumes no randomness).
        for config in [SamplerConfig::rtbs(0.1, 100), SamplerConfig::rtbs(0.1, 100).shards(4)] {
            let config = config.seed(seed);
            let mut a = config.build::<u64>().unwrap();
            let mut b = config.build::<u64>().unwrap();
            for t in 0..12 {
                a.observe(batch_at(t)).unwrap();
                b.observe(batch_at(t)).unwrap();
            }
            prop_assert_eq!(a.snapshot().unwrap(), b.snapshot().unwrap());
        }
    }

    #[test]
    fn truncated_blobs_never_panic_and_never_restore(len_frac in 0.0f64..1.0) {
        // Any strict prefix of a valid blob must be rejected cleanly,
        // whatever the algorithm's payload layout.
        for config in hostile_blob_configs() {
            let blob = small_snapshot(&config);
            let len = ((blob.len() as f64) * len_frac) as usize; // < blob.len()
            let err = Sampler::<u64>::restore(&config, blob.slice(0..len))
                .expect_err("prefix must not restore");
            prop_assert!(matches!(err, TbsError::Checkpoint(_)), "{err}");
        }
    }

    #[test]
    fn corrupted_bytes_never_panic(pos in 8usize..200, flip in 1u8..=255) {
        // Flipping any byte after the magic/version header must either
        // restore (the flip hit a payload byte that still decodes — the
        // config cross-checks catch what they can) or error; it must
        // never panic or abort, even when the flip lands in a count or
        // capacity field that drives allocations.
        for config in hostile_blob_configs() {
            let mut bytes = small_snapshot(&config).to_vec();
            if pos < bytes.len() {
                bytes[pos] ^= flip;
            }
            let _ = Sampler::<u64>::restore(&config, Bytes::from(bytes));
        }
    }
}

/// One config per distinct payload layout, for the hostile-blob tests:
/// latent sample (R-TBS), plain item vecs (T-TBS), per-entry scalars
/// (A-Res keys, B-Chao overweight weights, time-window stamps), ring
/// buffer (SW), and the multi-shard engine framing.
fn hostile_blob_configs() -> Vec<SamplerConfig> {
    vec![
        SamplerConfig::rtbs(0.1, 20).seed(3),
        SamplerConfig::rtbs(0.1, 40).shards(2).seed(3),
        SamplerConfig::ttbs(0.1, 20, 50.0).seed(3),
        SamplerConfig::chao(0.1, 20).seed(3),
        SamplerConfig::sliding_count(20).seed(3),
        SamplerConfig::sliding_time(3.0).seed(3),
        SamplerConfig::ares(0.1, 20).seed(3),
    ]
}

#[test]
fn resume_covers_the_real_gap_path_too() {
    // Gap-capable algorithms driven through observe_after must also
    // resume bit-identically.
    for config in [
        SamplerConfig::rtbs(0.1, 200),
        SamplerConfig::btbs(0.1),
        SamplerConfig::chao(0.1, 200),
        SamplerConfig::sliding_time(4.0),
    ] {
        let config = config.seed(17).time(TimeSemantics::RealGaps);
        let gap = |t: u64| 0.25 + (t % 5) as f64;
        let mut uninterrupted = config.build::<u64>().unwrap();
        for t in 0..30 {
            uninterrupted.observe_after(batch_at(t), gap(t)).unwrap();
        }
        let mut first = config.build::<u64>().unwrap();
        for t in 0..15 {
            first.observe_after(batch_at(t), gap(t)).unwrap();
        }
        let blob = first.snapshot().unwrap();
        let mut resumed = Sampler::restore(&config, blob).unwrap();
        for t in 15..30 {
            resumed.observe_after(batch_at(t), gap(t)).unwrap();
        }
        assert_eq!(
            resumed.sample().unwrap(),
            uninterrupted.sample().unwrap(),
            "{}: gap-path resume diverged",
            config.algorithm().label()
        );
    }
}

fn small_snapshot(config: &SamplerConfig) -> Bytes {
    let mut s = config.build::<u64>().expect("valid config");
    for t in 0..8 {
        s.observe(batch_at(t)).unwrap();
    }
    s.snapshot().unwrap()
}

#[test]
fn low_q_ttbs_resume_is_bit_identical() {
    // Deterministic companion to the proptest sweep on a sparse T-TBS
    // (q ≈ 0.04 against batches of mean ~50): most batches accept a
    // handful of items or none, so the cuts land on every acceptance
    // outcome from empty to several items.
    let config = SamplerConfig::ttbs(0.1, 20, 50.0);
    for cut in [1, 2, 5, 9, 14, 23] {
        assert_resume_bit_identical(config, 0x5eed, 24, cut);
    }
}

#[test]
fn sharded_resume_round_trips_split_deviations_and_stolen_work() {
    // Bursty batch sizes that are never multiples of K leave the balanced
    // splitter's deviation ledger non-zero at the cut, and queue_depth 2
    // keeps backpressure on the shards on both sides of the restore. The
    // blob must carry the ledger (and each shard's adaptive-capacity
    // state) exactly, or the resumed split — and therefore the sample —
    // diverges.
    let config = SamplerConfig::rtbs(0.1, 500)
        .shards(4)
        .queue_depth(2)
        .seed(0xfeed);
    let burst = |t: u64| {
        let size = [331u64, 0, 97, 1203, 17, 50][t as usize % 6];
        (0..size).map(|i| t * 10_000 + i).collect::<Vec<u64>>()
    };
    let mut uninterrupted = config.build::<u64>().unwrap();
    for t in 0..40 {
        uninterrupted.observe(burst(t)).unwrap();
    }
    let mut first = config.build::<u64>().unwrap();
    for t in 0..23 {
        first.observe(burst(t)).unwrap();
    }
    let blob = first.snapshot().unwrap();
    drop(first);
    let mut resumed = Sampler::restore(&config, blob).unwrap();
    for t in 23..40 {
        resumed.observe(burst(t)).unwrap();
    }
    assert_eq!(resumed.sample().unwrap(), uninterrupted.sample().unwrap());
}

/// Byte offset of the first engine field (the split-deviation ledger)
/// in a sharded blob: magic + version + algorithm tag + shard count +
/// handle batch counter + handle RNG state.
const ENGINE_PAYLOAD_OFFSET: usize = 4 + 4 + 1 + 4 + 8 + 32;

#[test]
fn impossible_shard_capacity_is_rejected_as_corrupt() {
    // Restore cross-checks every shard's persisted capacity against the
    // spec's adaptive `⌈n/K⌉+1`; a blob claiming any other capacity was
    // not produced by this engine. Forge one: shard 0's capacity u64
    // lives right after the engine framing (K=2 deviations, batches,
    // driver RNG, shard count, shard-0 RNG) and the R-TBS λ field.
    let config = SamplerConfig::rtbs(0.1, 40).shards(2).seed(3);
    let shard0_capacity = ENGINE_PAYLOAD_OFFSET + 2 * 8 + 8 + 32 + 4 + 32 + 8;
    let mut b = small_snapshot(&config).to_vec();
    b[shard0_capacity..shard0_capacity + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(
        Sampler::<u64>::restore(&config, Bytes::from(b)).unwrap_err(),
        TbsError::Checkpoint(CheckpointError::Corrupt("shard capacity"))
    );
}

#[test]
fn out_of_range_split_deviations_are_rejected_as_corrupt() {
    // The balanced splitter maintains |deviation| ≤ 1 as a hard
    // invariant; a blob carrying NaN, ∞, or anything outside that band
    // is structurally impossible and must be rejected before it can
    // skew every future batch split.
    let config = SamplerConfig::rtbs(0.1, 40).shards(2).seed(3);
    let dev0 = ENGINE_PAYLOAD_OFFSET;
    for forged in [f64::NAN, f64::INFINITY, -7.5] {
        let mut b = small_snapshot(&config).to_vec();
        b[dev0..dev0 + 8].copy_from_slice(&forged.to_le_bytes());
        assert_eq!(
            Sampler::<u64>::restore(&config, Bytes::from(b)).unwrap_err(),
            TbsError::Checkpoint(CheckpointError::Corrupt("split deviation")),
            "deviation {forged} must be rejected"
        );
    }
}

#[test]
fn bad_magic_is_rejected() {
    let config = SamplerConfig::rtbs(0.1, 20).seed(5);
    let err = Sampler::<u64>::restore(&config, Bytes::from_static(&[0u8; 64])).unwrap_err();
    assert_eq!(err, TbsError::Checkpoint(CheckpointError::BadMagic));
}

#[test]
fn future_format_version_is_rejected() {
    // 99 is from the future; 4 is the last format that carried the
    // deferred-downsampling tail and the shard-group ledger, 5 the last
    // that carried the T-TBS jump cursor.
    let config = SamplerConfig::rtbs(0.1, 20).seed(5);
    for version in [99u32, 4, 5] {
        let mut b = BytesMut::new();
        b.put_u32_le(tbs_core::checkpoint::MAGIC);
        b.put_u32_le(version);
        b.put_u8(1);
        let err = Sampler::<u64>::restore(&config, b.freeze()).unwrap_err();
        assert_eq!(
            err,
            TbsError::Checkpoint(CheckpointError::UnsupportedVersion(version))
        );
    }
}

#[test]
fn algorithm_mismatch_is_rejected() {
    let rtbs = SamplerConfig::rtbs(0.1, 20).seed(5);
    let blob = small_snapshot(&rtbs);
    let chao = SamplerConfig::chao(0.1, 20).seed(5);
    assert_eq!(
        Sampler::<u64>::restore(&chao, blob).unwrap_err(),
        TbsError::AlgorithmMismatch {
            expected: "B-Chao",
            found: "R-TBS"
        }
    );
}

#[test]
fn shard_count_mismatch_is_rejected() {
    let four = SamplerConfig::rtbs(0.1, 100).shards(4).seed(5);
    let blob = small_snapshot(&four);
    let two = SamplerConfig::rtbs(0.1, 100).shards(2).seed(5);
    assert_eq!(
        Sampler::<u64>::restore(&two, blob).unwrap_err(),
        TbsError::ConfigMismatch {
            what: "shard count"
        }
    );
}

#[test]
fn parameter_mismatches_are_rejected() {
    let blob = small_snapshot(&SamplerConfig::rtbs(0.1, 20).seed(5));
    // Different λ.
    let err =
        Sampler::<u64>::restore(&SamplerConfig::rtbs(0.2, 20).seed(5), blob.clone()).unwrap_err();
    assert_eq!(err, TbsError::ConfigMismatch { what: "decay rate" });
    // Different capacity.
    let err =
        Sampler::<u64>::restore(&SamplerConfig::rtbs(0.1, 30).seed(5), blob.clone()).unwrap_err();
    assert_eq!(err, TbsError::ConfigMismatch { what: "capacity" });
    // Same parameters restore fine (seed differences are irrelevant: the
    // blob's RNG position wins).
    assert!(Sampler::<u64>::restore(&SamplerConfig::rtbs(0.1, 20).seed(99), blob).is_ok());
}

#[test]
fn trailing_bytes_are_rejected() {
    let config = SamplerConfig::rtbs(0.1, 20).seed(5);
    let blob = small_snapshot(&config);
    let mut extended = blob.to_vec();
    extended.push(0);
    assert_eq!(
        Sampler::<u64>::restore(&config, Bytes::from(extended)).unwrap_err(),
        TbsError::Checkpoint(CheckpointError::Corrupt("trailing bytes"))
    );
}

#[test]
fn restore_validates_the_config_itself_first() {
    let blob = small_snapshot(&SamplerConfig::rtbs(0.1, 20).seed(5));
    let invalid = SamplerConfig::rtbs(-1.0, 20);
    assert!(matches!(
        Sampler::<u64>::restore(&invalid, blob).unwrap_err(),
        TbsError::InvalidDecay { .. }
    ));
}

#[test]
fn snapshot_preserves_handle_metadata() {
    let config = SamplerConfig::ttbs(0.1, 100, 50.0).seed(6);
    let mut s = config.build::<u64>().unwrap();
    for t in 0..9 {
        s.observe(batch_at(t)).unwrap();
    }
    let restored = Sampler::<u64>::restore(&config, s.snapshot().unwrap()).unwrap();
    assert_eq!(restored.batches_observed(), 9);
    assert_eq!(restored.algorithm(), Algorithm::TTbs);
    assert_eq!(restored.name(), "T-TBS");
    assert_eq!(restored.shards(), 1);
}
