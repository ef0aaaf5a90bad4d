//! Cross-crate integration: the distributed samplers are statistically
//! equivalent to their single-node counterparts, and the simulated-cluster
//! costs reproduce the paper's Figure-7/8/9 shapes.

use rand::SeedableRng;
use temporal_sampling::core::verify::{max_ratio_violation, measure_inclusion};
use temporal_sampling::distributed::{CostModel, DRTbs, DTTbs, DrtbsConfig, DttbsConfig, Strategy};
use temporal_sampling::prelude::*;

#[test]
fn drtbs_weight_trajectory_matches_rtbs_for_every_strategy() {
    let schedule = [40u64, 40, 0, 0, 150, 0, 10, 10, 10, 0, 0, 0, 0, 80, 5];
    for strategy in Strategy::all() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut single: RTbs<u64> = RTbs::new(0.15, 80);
        let mut dist: DRTbs<u64> = DRTbs::new(DrtbsConfig::new(0.15, 80, 5, strategy), 2);
        for (t, &b) in schedule.iter().enumerate() {
            let batch: Vec<u64> = (0..b).map(|i| t as u64 * 1000 + i).collect();
            single.observe(batch.clone(), &mut rng);
            dist.observe_batch(batch).unwrap();
            assert!(
                (single.sample_weight() - dist.sample_weight()).abs() < 1e-9,
                "{strategy:?} diverged at t={t}"
            );
        }
    }
}

#[test]
fn drtbs_satisfies_relative_inclusion_property() {
    // Equation (1) holds for the distributed sampler end to end, measured
    // through the generic verification harness. Its randomness comes from
    // the instance's own master/worker streams; the harness RNG only
    // realizes the final sample.
    let lambda = 0.35;
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
    let schedule = [5u64, 5, 5, 5, 5];
    let mut seed = 0u64;
    let stats = measure_inclusion(
        || {
            seed += 1;
            DRTbs::new(
                DrtbsConfig::new(lambda, 7, 3, Strategy::DistCoPartitioned),
                seed,
            )
        },
        |d, batch, _| {
            d.observe_batch(batch).expect("payloads decode");
        },
        |d, rng| d.realize_sample(rng).expect("payloads decode"),
        &schedule,
        25_000,
        &mut rng,
    );
    let v = max_ratio_violation(&stats, lambda, 0.02);
    assert!(v < 0.06, "D-R-TBS ratio violation {v}");
}

#[test]
fn dttbs_matches_single_node_equilibrium() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
    let mut single: TTbs<u64> = TTbs::new(0.1, 500, 100.0);
    let mut dist: DTTbs<u64> = DTTbs::new(DttbsConfig::new(0.1, 500, 100.0, 4), 5);
    for t in 0..400u64 {
        let batch: Vec<u64> = (0..100).map(|i| t * 100 + i).collect();
        single.observe(batch.clone(), &mut rng);
        dist.observe_batch(batch);
    }
    let mut s_acc = 0.0;
    let mut d_acc = 0.0;
    let rounds = 300;
    for t in 0..rounds {
        let batch: Vec<u64> = (0..100).map(|i| t * 100 + i).collect();
        single.observe(batch.clone(), &mut rng);
        dist.observe_batch(batch);
        s_acc += single.len() as f64;
        d_acc += dist.len() as f64;
    }
    let s_mean = s_acc / rounds as f64;
    let d_mean = d_acc / rounds as f64;
    assert!(
        (s_mean - d_mean).abs() < 0.06 * s_mean,
        "single {s_mean:.0} vs distributed {d_mean:.0}"
    );
}

#[test]
fn figure7_shape_cost_ordering_and_ratios() {
    // RJ > CJ > CP > Dist > D-T-TBS, with meaningful gaps (≥ 15%).
    let (batch, capacity, workers) = (100_000usize, 200_000usize, 8usize);
    let mut elapsed: Vec<(String, f64)> = Vec::new();
    for strategy in Strategy::all() {
        let mut d: DRTbs<u64> = DRTbs::new(DrtbsConfig::new(0.07, capacity, workers, strategy), 6);
        d.observe_batch((0..(2 * capacity as u64)).collect())
            .unwrap();
        let mut total = 0.0;
        for r in 0..3u64 {
            total += d
                .observe_batch((r * batch as u64..(r + 1) * batch as u64).collect())
                .unwrap()
                .elapsed;
        }
        elapsed.push((strategy.label().to_string(), total / 3.0));
    }
    let mut t: DTTbs<u64> = DTTbs::new(DttbsConfig::new(0.07, capacity, batch as f64, workers), 7);
    t.observe_batch((0..(2 * capacity as u64)).collect());
    let mut total = 0.0;
    for r in 0..3u64 {
        total += t
            .observe_batch((r * batch as u64..(r + 1) * batch as u64).collect())
            .elapsed;
    }
    elapsed.push(("D-T-TBS".to_string(), total / 3.0));

    for pair in elapsed.windows(2) {
        assert!(
            pair[0].1 > pair[1].1 * 1.15,
            "{} ({:.4}s) should be ≥15% slower than {} ({:.4}s)",
            pair[0].0,
            pair[0].1,
            pair[1].0,
            pair[1].1
        );
    }
}

#[test]
fn figure8_shape_scale_out_diminishing_returns() {
    // More workers help, with diminishing returns (Figure 8's curve).
    let batch = 400_000usize;
    let time_for = |workers: usize| {
        let mut d: DRTbs<u64> = DRTbs::new(
            DrtbsConfig::new(0.07, batch * 2, workers, Strategy::DistCoPartitioned),
            8,
        );
        d.observe_batch((0..(4 * batch as u64)).collect()).unwrap();
        d.observe_batch((0..batch as u64).collect())
            .unwrap()
            .elapsed
    };
    let t1 = time_for(1);
    let t4 = time_for(4);
    let t16 = time_for(16);
    assert!(t1 > t4, "4 workers ({t4:.4}) should beat 1 ({t1:.4})");
    assert!(t4 > t16 * 0.99, "16 workers should not be slower than 4");
    // Diminishing returns: 1→4 gains more than 4→16.
    assert!(
        t1 - t4 > (t4 - t16) * 1.5,
        "speedup should flatten: 1→4 gained {:.4}, 4→16 gained {:.4}",
        t1 - t4,
        t4 - t16
    );
}

#[test]
fn figure9_shape_scale_up_flat_then_linear() {
    // Near-flat for small batches (overhead-dominated), then growing
    // roughly linearly once per-item work dominates (Figure 9).
    let time_for = |batch: usize| {
        let mut d: DRTbs<u64> = DRTbs::new(
            DrtbsConfig::new(0.07, 200_000, 10, Strategy::DistCoPartitioned),
            9,
        );
        d.observe_batch((0..400_000u64).collect()).unwrap();
        d.observe_batch((0..batch as u64).collect())
            .unwrap()
            .elapsed
    };
    let t1k = time_for(1_000);
    let t10k = time_for(10_000);
    let t1m = time_for(1_000_000);
    let t8m = time_for(8_000_000);
    assert!(
        t10k < t1k * 1.5,
        "small batches overhead-dominated: {t1k:.4} vs {t10k:.4}"
    );
    assert!(
        t8m > t1m * 2.0,
        "large batches should scale with size: {t1m:.4} vs {t8m:.4}"
    );
}

/// A fatter item (256-byte payload) that makes data-shipping costs visible:
/// realistic training records are feature vectors, not bare u64s.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Record([u64; 32]);

impl temporal_sampling::distributed::Wire for Record {
    fn encode_into(&self, out: &mut Vec<u8>) {
        for v in self.0 {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn try_decode(data: &[u8]) -> Option<Self> {
        if data.len() < 256 {
            return None;
        }
        let mut out = [0u64; 32];
        for (i, chunk) in data.chunks_exact(8).take(32).enumerate() {
            out[i] = u64::from_le_bytes(chunk.try_into().ok()?);
        }
        Some(Record(out))
    }
    fn wire_size(&self) -> usize {
        256
    }
}

#[test]
fn kv_store_pays_for_item_shipping_and_locking() {
    // The §5.2 criticism quantified: with realistic record sizes, per-batch
    // KV bytes dwarf CP bytes (which ships only 16-byte slot locations).
    let cfgs = [Strategy::CentKvCoLocatedJoin, Strategy::CentCoPartitioned];
    let mut bytes = Vec::new();
    for strategy in cfgs {
        let mut cfg = DrtbsConfig::new(0.07, 20_000, 4, strategy);
        cfg.cost_model = CostModel::default();
        let mut d: DRTbs<Record> = DRTbs::new(cfg, 10);
        let mk = |n: usize| (0..n).map(|i| Record([i as u64; 32])).collect::<Vec<_>>();
        d.observe_batch(mk(40_000)).unwrap();
        let c = d.observe_batch(mk(10_000)).unwrap();
        bytes.push(c.bytes_shipped);
    }
    assert!(
        bytes[0] > 5 * bytes[1],
        "KV bytes {} should dwarf CP bytes {}",
        bytes[0],
        bytes[1]
    );
}

#[test]
fn threaded_and_sequential_drtbs_agree() {
    let schedule = [100u64, 0, 300, 50, 0, 0, 200];
    let mut seq_cfg = DrtbsConfig::new(0.1, 150, 4, Strategy::DistCoPartitioned);
    let mut par_cfg = seq_cfg;
    seq_cfg.threaded = false;
    par_cfg.threaded = true;
    let mut seq: DRTbs<u64> = DRTbs::new(seq_cfg, 11);
    let mut par: DRTbs<u64> = DRTbs::new(par_cfg, 11);
    for (t, &b) in schedule.iter().enumerate() {
        let batch: Vec<u64> = (0..b).map(|i| t as u64 * 1000 + i).collect();
        seq.observe_batch(batch.clone()).unwrap();
        par.observe_batch(batch).unwrap();
        assert_eq!(seq.stored_full_items(), par.stored_full_items());
        assert!((seq.sample_weight() - par.sample_weight()).abs() < 1e-12);
    }
}

#[test]
fn sharded_expected_size_leaves_later_samples_unchanged() {
    // Like every single-node `expected_size`, the sharded one is a pure
    // read: a handle asked mid-stream ends with the same sample as one
    // that was never asked.
    for shards in [2usize, 4] {
        for config in [
            SamplerConfig::rtbs(0.1, 64),
            SamplerConfig::ttbs(0.1, 64, 40.0),
        ] {
            let config = config.shards(shards).seed(17);
            let run = |ask: bool| {
                let mut sampler = config.build::<u64>().expect("valid config");
                for t in 0..80u64 {
                    let b = [40u64, 0, 7, 90, 3, 60][t as usize % 6];
                    sampler
                        .observe((0..b).map(|i| t * 1000 + i).collect())
                        .unwrap();
                    if ask && t == 39 {
                        assert!(sampler.expected_size().unwrap() > 0.0);
                    }
                }
                sampler.sample().unwrap()
            };
            assert_eq!(
                run(true),
                run(false),
                "{} × {shards}: expected_size moved the sample",
                config.algorithm().label()
            );
        }
    }
}
