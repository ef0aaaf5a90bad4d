//! Statistical equivalence harness: per-item vs jump-ahead ingest.
//!
//! The jump-ahead ingest mode (`IngestMode::Jump`) replaces per-item
//! acceptance coin-flips with batch-level `Binomial` accept counts and
//! `Geometric` inter-acceptance gaps (see `tbs_core::jumps` for the
//! analytical equivalence argument). This harness is the *empirical* half
//! of the proof: over matched batch schedules it verifies that both modes
//! realize
//!
//! 1. the same Theorem 4.2 inclusion frequencies — for every arrival
//!    batch, the fraction of trials in which its items land in the final
//!    sample matches the closed-form `(C_t/W_t)·e^{−λ·age}` (R-TBS) or
//!    `q·e^{−λ·age}` (T-TBS), checked with a chi-square test per item-age
//!    bucket and per mode;
//! 2. the same realized sample-size *distribution* — a two-sample
//!    Kolmogorov–Smirnov test between the modes;
//! 3. the §6.3 unsaturated equilibrium — mean sample size ≈ 1479 for
//!    `n = 1600, b = 100, λ = 0.07`, with a TOST mean-equivalence check
//!    between the modes.
//!
//! The grid covers R-TBS and T-TBS × {unsaturated, saturated, bursty}
//! regimes × {1, 4} shards — plus K ∈ {16, 32} under
//! `TBS_STAT_THOROUGH=1`, exercising the adaptive `⌈n/K⌉+1` shard
//! capacity in the regimes the 8-shard cliff fix and the K=32
//! flattened-tail fix opened up (sharded runs drive the merge algebra
//! directly, proving jump mode composes with `MergeableSample`).
//!
//! # False-positive budget
//!
//! Every statistical check in this file shares one Bonferroni-corrected
//! family: with `FAMILY_ALPHA = 1e-2` split across all planned checks,
//! a fully-correct implementation fails this suite with probability
//! ≤ 1%. The seeds are fixed, so a pass is reproducible — rejections
//! indicate a real distributional defect, not noise. Set
//! `TBS_STAT_THOROUGH=1` to multiply the trial budget by 10 for local
//! deep runs (CI runs the fast fixed-seed budget).

use rand::SeedableRng;
use temporal_sampling::core::merge::{BalancedSplitter, MergeableSample, ShardSpec};
use temporal_sampling::core::{IngestMode, RTbs, TTbs};
use temporal_sampling::stats::gof;
use temporal_sampling::stats::rng::Xoshiro256PlusPlus;

/// Shared family-wise false-positive budget for this suite.
const FAMILY_ALPHA: f64 = 1e-2;

/// Whether the deep local/nightly budget is enabled.
fn thorough() -> bool {
    std::env::var("TBS_STAT_THOROUGH").is_ok_and(|v| v == "1")
}

/// Trials per (combo, mode) under the fast CI budget.
fn trial_budget() -> usize {
    let base = 20_000;
    if thorough() {
        base * 10
    } else {
        base
    }
}

/// Shard counts in the grid. K ∈ {16, 32} joins only under the thorough
/// budget: at high shard counts most sub-batches are empty or
/// single-item, so the fast budget's per-bucket counts would be too thin
/// to mean much, while the ×10 budget gives every check full power.
/// K = 32 covers the flattened-tail regime where every shard holds a
/// tiny `⌈n/K⌉+1` slice of the reservoir.
fn shard_grid() -> &'static [usize] {
    if thorough() {
        &[1, 4, 16, 32]
    } else {
        &[1, 4]
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Alg {
    RTbs,
    TTbs,
}

/// One cell of the verification grid: an algorithm in a regime, sharded
/// or not, over a fixed arrival schedule.
struct Combo {
    name: &'static str,
    alg: Alg,
    lambda: f64,
    /// R-TBS capacity / T-TBS target size.
    capacity: usize,
    /// T-TBS assumed mean batch size (ignored by R-TBS).
    mean_batch: f64,
    schedule: &'static [u64],
    shards: usize,
}

/// The regimes are miniatures of the paper's §6 settings, chosen so each
/// exercises a distinct code path:
///
/// * R-TBS unsaturated (`b/(1−e^{−λ}) < n`): the minority-side retention
///   sweep in `downsample`, which both modes share (they draw the same
///   numbers here, so this combo checks the sweep against theory);
/// * R-TBS saturated: the binomial accept count + windowed segment swap;
/// * R-TBS bursty: all four Algorithm 2 transitions, including batches
///   larger than `n` (which fall back to the per-item kernel);
/// * T-TBS high-q (≥ 0.5): binomial acceptance + minority-side sweep,
///   again shared by both modes;
/// * T-TBS low-q (< 0.5): geometric gaps with the cross-batch cursor;
/// * T-TBS bursty: the cursor carrying skips across varying batch sizes,
///   including empty batches.
fn combo_grid() -> Vec<Combo> {
    let mut grid = Vec::new();
    for &shards in shard_grid() {
        grid.push(Combo {
            name: "rtbs/unsaturated",
            alg: Alg::RTbs,
            lambda: 0.3,
            capacity: 16,
            mean_batch: 0.0,
            schedule: &[4, 4, 4, 4, 4, 4, 4, 4, 4, 4],
            shards,
        });
        grid.push(Combo {
            name: "rtbs/saturated",
            alg: Alg::RTbs,
            lambda: 0.3,
            capacity: 8,
            mean_batch: 0.0,
            schedule: &[4, 4, 4, 4, 4, 4, 4, 4, 4, 4],
            shards,
        });
        grid.push(Combo {
            name: "rtbs/bursty",
            alg: Alg::RTbs,
            lambda: 0.3,
            capacity: 10,
            mean_batch: 0.0,
            schedule: &[0, 1, 12, 3, 6, 20, 2, 9],
            shards,
        });
        grid.push(Combo {
            name: "ttbs/high-q",
            alg: Alg::TTbs,
            lambda: 0.3,
            capacity: 15,
            mean_batch: 4.0,
            schedule: &[4, 4, 4, 4, 4, 4, 4, 4, 4, 4],
            shards,
        });
        grid.push(Combo {
            name: "ttbs/low-q",
            alg: Alg::TTbs,
            lambda: 0.3,
            capacity: 7,
            mean_batch: 4.0,
            schedule: &[4, 4, 4, 4, 4, 4, 4, 4, 4, 4],
            shards,
        });
        grid.push(Combo {
            name: "ttbs/bursty",
            alg: Alg::TTbs,
            lambda: 0.3,
            capacity: 10,
            mean_batch: 7.5,
            schedule: &[0, 1, 12, 3, 6, 20, 2, 9],
            shards,
        });
    }
    grid
}

/// Items are tagged with their arrival batch so inclusion can be counted
/// per item-age bucket.
type Tagged = (u32, u32);

fn make_batch(bi: usize, size: u64) -> Vec<Tagged> {
    (0..size).map(|i| (bi as u32, i as u32)).collect()
}

/// Theoretical final inclusion probability for an item of batch `bi`
/// under the combo's closed-form law (Thm 4.2 for R-TBS, Algorithm 1's
/// acceptance/retention product for T-TBS).
fn theory_inclusion(combo: &Combo, bi: usize) -> f64 {
    let d = (-combo.lambda).exp();
    let age = (combo.schedule.len() - 1 - bi) as f64;
    match combo.alg {
        Alg::RTbs => {
            // Exact W recursion; C = min(n, W). Shard weights sum to the
            // same global W, so the law is shard-count-invariant.
            let mut w = 0.0f64;
            for &b in combo.schedule {
                w = w * d + b as f64;
            }
            let c = w.min(combo.capacity as f64);
            (c / w) * d.powf(age)
        }
        Alg::TTbs => {
            let q = (combo.capacity as f64 * (1.0 - d) / combo.mean_batch).min(1.0);
            q * d.powf(age)
        }
    }
}

/// Run one seeded trial of the combo's schedule in the given mode and
/// return the realized final sample. Sharded trials split every batch
/// round-robin across the shard-local samplers and fold them through the
/// merge algebra — the same path the parallel engine takes.
fn run_trial(combo: &Combo, mode: IngestMode, seed: u64) -> Vec<Tagged> {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    if combo.shards == 1 {
        match combo.alg {
            Alg::RTbs => {
                let mut s: RTbs<Tagged> = RTbs::new(combo.lambda, combo.capacity);
                s.set_ingest_mode(mode);
                for (bi, &b) in combo.schedule.iter().enumerate() {
                    s.observe(make_batch(bi, b), &mut rng);
                }
                s.sample(&mut rng)
            }
            Alg::TTbs => {
                let mut s: TTbs<Tagged> = TTbs::new(combo.lambda, combo.capacity, combo.mean_batch);
                s.set_ingest_mode(mode);
                for (bi, &b) in combo.schedule.iter().enumerate() {
                    s.observe(make_batch(bi, b), &mut rng);
                }
                s.sample(&mut rng)
            }
        }
    } else {
        let k = combo.shards;
        match combo.alg {
            Alg::RTbs => {
                let spec = ShardSpec::rtbs(combo.lambda, combo.capacity, k).with_ingest_mode(mode);
                let mut shards = RTbs::<Tagged>::make_shards(&spec);
                drive_shards(&mut shards, combo, &mut rng);
                let merged = RTbs::merge_shards(shards, &spec, &mut rng);
                merged.sample(&mut rng)
            }
            Alg::TTbs => {
                let spec = ShardSpec::ttbs(combo.lambda, combo.capacity, combo.mean_batch, k)
                    .with_ingest_mode(mode);
                let mut shards = TTbs::<Tagged>::make_shards(&spec);
                drive_shards(&mut shards, combo, &mut rng);
                let merged = TTbs::merge_shards(shards, &spec, &mut rng);
                merged.sample(&mut rng)
            }
        }
    }
}

/// Feed the schedule through K shard-local samplers with the engine's
/// balanced splitter (every shard sees every time step, possibly with an
/// empty sub-batch, so all shard clocks stay aligned, and every shard's
/// decayed intake stays within ±1 of the fair share — the invariant the
/// `⌈n/K⌉+1` adaptive shard capacity is sized against).
fn drive_shards<S>(shards: &mut [S], combo: &Combo, rng: &mut Xoshiro256PlusPlus)
where
    S: MergeableSample<Item = Tagged>,
{
    let k = shards.len();
    let mut splitter = BalancedSplitter::new(combo.lambda, k);
    let mut subs: Vec<Vec<Tagged>> = vec![Vec::new(); k];
    for (bi, &b) in combo.schedule.iter().enumerate() {
        let mut batch = make_batch(bi, b);
        splitter.split(&mut batch, &mut subs);
        for (shard, sub) in shards.iter_mut().zip(subs.iter_mut()) {
            shard.observe_shard(sub, rng);
        }
    }
}

/// Checks planned per combo: one inclusion chi-square per non-empty
/// batch per mode, plus one two-sample KS on the size distributions.
fn checks_per_combo(combo: &Combo) -> usize {
    combo.schedule.iter().filter(|&&b| b > 0).count() * 2 + 1
}

#[test]
fn per_item_and_jump_modes_are_statistically_equivalent() {
    let grid = combo_grid();
    let trials = trial_budget();
    let planned: usize = grid.iter().map(checks_per_combo).sum();
    let alpha = gof::bonferroni(FAMILY_ALPHA, planned);
    let mut failures: Vec<String> = Vec::new();
    let mut executed = 0usize;

    for (ci, combo) in grid.iter().enumerate() {
        // Per-mode appearance counts per batch bucket, and realized sizes.
        let mut appear = [
            vec![0u64; combo.schedule.len()],
            vec![0u64; combo.schedule.len()],
        ];
        let mut sizes = [Vec::with_capacity(trials), Vec::with_capacity(trials)];
        for (mi, &mode) in [IngestMode::PerItem, IngestMode::Jump].iter().enumerate() {
            for t in 0..trials {
                // Fixed, distinct seed per (combo, mode, trial).
                let seed =
                    0x5eed_0000_0000 + (ci as u64) * 1_000_000 + (mi as u64) * 500_000 + t as u64;
                let sample = run_trial(combo, mode, seed);
                sizes[mi].push(sample.len() as f64);
                for (bi, _) in sample {
                    appear[mi][bi as usize] += 1;
                }
            }
        }

        // (1) Inclusion frequencies vs the Thm 4.2 closed form, per mode.
        for (mi, mode_label) in [(0, "per-item"), (1, "jump")] {
            for (bi, &b) in combo.schedule.iter().enumerate() {
                if b == 0 {
                    continue;
                }
                let exposures = (trials as u64) * b;
                let p = theory_inclusion(combo, bi);
                let hits = appear[mi][bi];
                let observed = [hits, exposures - hits];
                let expected = [p * exposures as f64, (1.0 - p) * exposures as f64];
                executed += 1;
                if let Some(out) = gof::chi2_gof(&observed, &expected, alpha) {
                    if out.rejected {
                        failures.push(format!(
                            "{} K={} {}: batch {bi} inclusion {:.4} vs theory {:.4} \
                             (chi2 {:.2} > crit {:.2})",
                            combo.name,
                            combo.shards,
                            mode_label,
                            hits as f64 / exposures as f64,
                            p,
                            out.statistic,
                            out.critical,
                        ));
                    }
                }
            }
        }

        // (2) Sample-size distributions match across modes (two-sample KS).
        executed += 1;
        let ks = gof::ks_two_sample(&sizes[0], &sizes[1], alpha);
        if ks.rejected {
            failures.push(format!(
                "{} K={}: size distribution per-item vs jump diverges \
                 (KS {:.4} > crit {:.4})",
                combo.name, combo.shards, ks.statistic, ks.critical,
            ));
        }
    }

    assert_eq!(
        executed, planned,
        "check count drifted from the Bonferroni plan"
    );
    assert!(
        failures.is_empty(),
        "{} of {planned} checks rejected at per-test alpha {alpha:.2e} \
         (family {FAMILY_ALPHA}):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn unsaturated_equilibrium_matches_paper_in_both_modes() {
    // §6.3: n = 1600, b = 100, λ = 0.07 → the reservoir never fills and
    // the sample weight stabilizes at b/(1−e^{−λ}) ≈ 1479. Both modes
    // must sit on that equilibrium, and their mean realized sizes must be
    // TOST-equivalent within a 3-item margin.
    const EQUILIBRIUM: f64 = 1479.0;
    const RUNS: usize = 24;
    const BATCHES: u64 = 150;
    let mut means = [0.0f64; 2];
    let mut sizes = [Vec::new(), Vec::new()];
    for (mi, &mode) in [IngestMode::PerItem, IngestMode::Jump].iter().enumerate() {
        for run in 0..RUNS {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xe9_0000 + run as u64 * 7 + mi as u64);
            let mut s: RTbs<u64> = RTbs::new(0.07, 1600);
            s.set_ingest_mode(mode);
            for t in 0..BATCHES {
                s.observe((t * 100..(t + 1) * 100).collect(), &mut rng);
            }
            assert!(!s.is_saturated(), "regime must stay unsaturated");
            sizes[mi].push(s.sample(&mut rng).len() as f64);
        }
        means[mi] = sizes[mi].iter().sum::<f64>() / RUNS as f64;
        assert!(
            (means[mi] - EQUILIBRIUM).abs() < 3.0,
            "mode {mi}: mean size {} vs equilibrium {EQUILIBRIUM}",
            means[mi]
        );
    }
    assert!(
        gof::tost_mean_equivalent(&sizes[0], &sizes[1], 3.0, gof::TEST_ALPHA),
        "per-item mean {} and jump mean {} not TOST-equivalent within ±3",
        means[0],
        means[1]
    );
}
