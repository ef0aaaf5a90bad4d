//! Monte-Carlo verification of inclusion probabilities.
//!
//! The paper's central correctness claim is equation (1): the ratio of
//! appearance probabilities of items from different batches equals
//! `e^{−λ·Δt}`. This module estimates appearance probabilities empirically
//! by replaying a fixed batch-size schedule many times with tagged items —
//! used both by the statistical test-suites and by the `inclusion_check`
//! experiment binary that contrasts R-TBS (conforming) with B-Chao
//! (violating during fill-up / slow arrivals).

use rand::Rng;

/// A stream item tagged with its batch index, for tracking appearances.
pub type Tagged = (u32, u32);

/// Empirical appearance statistics for one batch of the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchInclusion {
    /// Index of the batch in the schedule (arrival time, 0-based).
    pub batch: usize,
    /// Number of items the batch contained.
    pub batch_size: u64,
    /// Empirical probability that a given item of this batch is in the final
    /// sample.
    pub probability: f64,
    /// Monte-Carlo standard error of `probability`.
    pub std_error: f64,
}

/// Replay `schedule` (batch sizes at times 0, 1, 2, …) `trials` times
/// through fresh samplers produced by `make_sampler`, and estimate each
/// batch's per-item appearance probability in the *final* sample.
///
/// `observe` feeds one batch and `sample` realizes the final sample —
/// usually a sampler's inherent methods, e.g.
/// `measure_inclusion(|| RTbs::new(0.3, 8), RTbs::observe, RTbs::sample, …)`.
pub fn measure_inclusion<S, R: Rng>(
    mut make_sampler: impl FnMut() -> S,
    mut observe: impl FnMut(&mut S, Vec<Tagged>, &mut R),
    mut sample: impl FnMut(&S, &mut R) -> Vec<Tagged>,
    schedule: &[u64],
    trials: usize,
    rng: &mut R,
) -> Vec<BatchInclusion> {
    assert!(trials > 0, "need at least one trial");
    let mut appearances = vec![0u64; schedule.len()];
    for _ in 0..trials {
        let mut sampler = make_sampler();
        for (bi, &size) in schedule.iter().enumerate() {
            let batch: Vec<Tagged> = (0..size as u32).map(|i| (bi as u32, i)).collect();
            observe(&mut sampler, batch, rng);
        }
        for (bi, _) in sample(&sampler, rng) {
            appearances[bi as usize] += 1;
        }
    }
    schedule
        .iter()
        .enumerate()
        .map(|(bi, &size)| {
            let denom = trials as f64 * size as f64;
            let p = if size == 0 {
                0.0
            } else {
                appearances[bi] as f64 / denom
            };
            let se = if size == 0 {
                0.0
            } else {
                (p * (1.0 - p) / denom).sqrt()
            };
            BatchInclusion {
                batch: bi,
                batch_size: size,
                probability: p,
                std_error: se,
            }
        })
        .collect()
}

/// Maximum absolute deviation between the measured adjacent-batch inclusion
/// ratios `p_{t}/p_{t+1}` and the decay-mandated `e^{−λ}`, over batch pairs
/// whose estimates are reliable (both probabilities above `min_prob`).
///
/// A correct sampler drives this to ~0 (up to Monte-Carlo noise); B-Chao
/// does not during fill-up.
pub fn max_ratio_violation(stats: &[BatchInclusion], lambda: f64, min_prob: f64) -> f64 {
    let target = (-lambda).exp();
    let mut worst = 0.0f64;
    for pair in stats.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if a.batch_size == 0 || b.batch_size == 0 {
            continue;
        }
        if a.probability < min_prob || b.probability < min_prob {
            continue;
        }
        let ratio = a.probability / b.probability;
        worst = worst.max((ratio - target).abs());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btbs::BTbs;
    use crate::chao::BChao;
    use crate::rtbs::RTbs;
    use rand::SeedableRng;
    use tbs_stats::rng::Xoshiro256PlusPlus;

    /// [`measure_inclusion`] over fresh B-TBS samplers.
    fn btbs_inclusion(
        lambda: f64,
        schedule: &[u64],
        trials: usize,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Vec<BatchInclusion> {
        measure_inclusion(
            || BTbs::new(lambda),
            BTbs::observe,
            BTbs::sample,
            schedule,
            trials,
            rng,
        )
    }

    #[test]
    fn btbs_satisfies_ratio_property() {
        let lambda = 0.4;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let schedule = [5u64, 5, 5, 5];
        let stats = btbs_inclusion(lambda, &schedule, 30_000, &mut rng);
        let v = max_ratio_violation(&stats, lambda, 0.05);
        assert!(v < 0.05, "B-TBS ratio violation {v}");
    }

    #[test]
    fn rtbs_satisfies_ratio_property_through_saturation() {
        let lambda = 0.3;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        // Saturates (capacity 8 < total arrivals) and keeps decaying.
        let schedule = [6u64, 6, 6, 6, 6];
        let stats = measure_inclusion(
            || RTbs::new(lambda, 8),
            RTbs::observe,
            RTbs::sample,
            &schedule,
            40_000,
            &mut rng,
        );
        let v = max_ratio_violation(&stats, lambda, 0.02);
        assert!(v < 0.05, "R-TBS ratio violation {v}");
    }

    #[test]
    fn chao_violates_ratio_during_fill_up() {
        let lambda = 0.3;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        // Capacity far above arrivals: the whole run is fill-up.
        let schedule = [6u64, 6, 6, 6];
        let stats = measure_inclusion(
            || BChao::new(lambda, 1000),
            BChao::observe,
            BChao::sample,
            &schedule,
            4_000,
            &mut rng,
        );
        // Every batch fully retained → all probabilities 1, ratio 1.
        let v = max_ratio_violation(&stats, lambda, 0.02);
        let expected_gap = 1.0 - (-lambda).exp();
        assert!(
            (v - expected_gap).abs() < 0.02,
            "expected fill-up violation ≈ {expected_gap}, measured {v}"
        );
    }

    #[test]
    fn empty_batches_are_skipped_in_ratio() {
        let lambda = 0.5;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let schedule = [4u64, 0, 4];
        let stats = btbs_inclusion(lambda, &schedule, 5_000, &mut rng);
        assert_eq!(stats[1].batch_size, 0);
        assert_eq!(stats[1].probability, 0.0);
        // Ratio check must not trip over the empty batch.
        let _ = max_ratio_violation(&stats, lambda, 0.01);
    }

    #[test]
    fn std_error_shrinks_with_trials() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let schedule = [10u64];
        let few = btbs_inclusion(0.1, &schedule, 100, &mut rng);
        let many = btbs_inclusion(0.1, &schedule, 10_000, &mut rng);
        // p = 1 for the most recent batch in B-TBS, so SE = 0 in both; use a
        // decayed batch instead.
        let schedule = [10u64, 0, 0];
        let few = [few, btbs_inclusion(0.3, &schedule, 100, &mut rng)];
        let many = [many, btbs_inclusion(0.3, &schedule, 10_000, &mut rng)];
        assert!(many[1][0].std_error < few[1][0].std_error);
    }
}
