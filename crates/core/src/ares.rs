//! A-Res weighted reservoir sampling with exponential time bias (§7).
//!
//! The Efraimidis–Spirakis A-Res scheme (the paper's reference \[16\],
//! adapted to time decay by Cormode et al. \[13\]) keeps the `n` items with
//! the largest keys `u_i^{1/w_i}`, `u_i ~ U(0,1)`, where here
//! `w_i = e^{λ·t_i}` grows with the arrival time so that *relative* weights
//! decay "forward" without per-item updates.
//!
//! The paper's §7 criticism, which this implementation exists to
//! demonstrate: A-Res constrains the *acceptance* mechanics, so the
//! resulting **appearance** probabilities are "both hard to compute and not
//! intuitive" and do **not** satisfy the relative-inclusion law (1) —
//! trivially during fill-up (everything is retained), and measurably in
//! steady state. See the statistical tests below and the
//! `inclusion_check` experiment binary.
//!
//! Numerics: keys are compared in log space, `ln(u_i)·e^{−λ·t_i}` (a
//! negative number increasing toward 0 with weight), which avoids overflow
//! of `e^{λ·t_i}` on long streams.

use crate::checkpoint::{check_non_negative, CheckpointError, Reader, Wire, Writer};
use rand::Rng;

/// One reservoir entry: log-space A-Res key plus the item.
#[derive(Debug, Clone)]
struct Entry<T> {
    /// `ln(u)·e^{−λ t}` — larger (closer to zero) is better.
    log_key: f64,
    item: T,
}

/// Batched A-Res sampler with exponentially growing arrival weights.
#[derive(Debug, Clone)]
pub struct BAres<T> {
    entries: Vec<Entry<T>>,
    lambda: f64,
    capacity: usize,
    steps: u64,
}

impl<T> BAres<T> {
    /// Create an empty A-Res sampler.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative/non-finite or `capacity` is zero.
    pub fn new(lambda: f64, capacity: usize) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "decay rate must be finite and non-negative, got {lambda}"
        );
        assert!(capacity > 0, "capacity must be positive");
        Self {
            entries: Vec::with_capacity(capacity + 1),
            lambda,
            capacity,
            steps: 0,
        }
    }

    /// Current number of stored items.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the reservoir is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn insert(&mut self, log_key: f64, item: T) {
        if self.entries.len() < self.capacity {
            self.entries.push(Entry { log_key, item });
            return;
        }
        // Replace the minimum-key entry if the newcomer beats it. A linear
        // scan keeps the structure simple; the capacity is the sample size,
        // and the scan is the same O(n) as the batched alternatives here.
        let (min_idx, min_entry) = self
            .entries
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.log_key.total_cmp(&b.1.log_key))
            .expect("reservoir non-empty at capacity");
        if log_key > min_entry.log_key {
            self.entries[min_idx] = Entry { log_key, item };
        }
    }

    /// Advance the clock by one time unit and absorb the arriving batch —
    /// the monomorphized fast path.
    #[inline]
    pub fn observe<R: Rng + ?Sized>(&mut self, batch: Vec<T>, rng: &mut R) {
        self.steps += 1;
        // Weight of this batch's items: w = e^{λ t}; key = u^{1/w};
        // log key = ln(u)/w = ln(u)·e^{−λ t}.
        let inv_w = (-self.lambda * self.steps as f64).exp();
        for item in batch {
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            self.insert(u.ln() * inv_w, item);
        }
    }

    /// Expected size of `S_t` (the current exact size).
    pub fn expected_size(&self) -> f64 {
        self.entries.len() as f64
    }

    /// Hard upper bound on the sample size: `Some(n)`.
    pub fn max_size(&self) -> Option<usize> {
        Some(self.capacity)
    }

    /// Exponential arrival-weight growth rate λ.
    pub fn decay_rate(&self) -> f64 {
        self.lambda
    }

    /// Number of batches observed so far.
    pub fn batches_observed(&self) -> u64 {
        self.steps
    }
}

impl<T: Clone> BAres<T> {
    /// Copy out the current sample (deterministic; `rng` is unused and
    /// accepted only for signature uniformity with the latent schemes).
    pub fn sample<R: Rng + ?Sized>(&self, _rng: &mut R) -> Vec<T> {
        self.entries.iter().map(|e| e.item.clone()).collect()
    }
}

impl<T: Wire> BAres<T> {
    /// Serialize the complete sampler state — including each entry's
    /// log-space A-Res key, which fully determines future evictions —
    /// into `w`; see [`crate::RTbs::save_state`] for the contract.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_f64(self.lambda);
        w.put_u64(self.capacity as u64);
        w.put_u64(self.steps);
        w.put_u32(self.entries.len() as u32);
        for e in &self.entries {
            w.put_f64(e.log_key);
            w.put_item(&e.item);
        }
    }

    /// Rebuild a sampler from a [`Self::save_state`] payload, validating
    /// every field (no panics on corrupt input).
    pub fn load_state(r: &mut Reader) -> Result<Self, CheckpointError> {
        let lambda = check_non_negative(r.get_f64()?, "A-Res lambda")?;
        let capacity = r.get_u64()? as usize;
        if capacity == 0 {
            return Err(CheckpointError::Corrupt("A-Res capacity"));
        }
        let steps = r.get_u64()?;
        let len = r.get_u32()? as usize;
        if len > capacity {
            return Err(CheckpointError::Corrupt("A-Res entry count"));
        }
        // Allocate from the (bounds-checked) entry count, never from the
        // blob's capacity field — a corrupt capacity must not drive an
        // allocation. Each entry costs ≥ 8 (key) + 4 (length prefix) bytes.
        r.check_count(len, 12)?;
        let mut entries = Vec::with_capacity(len + 1);
        for _ in 0..len {
            let log_key = r.get_f64()?;
            if log_key.is_nan() || log_key > 0.0 {
                return Err(CheckpointError::Corrupt("A-Res log key"));
            }
            entries.push(Entry {
                log_key,
                item: r.get_item()?,
            });
        }
        Ok(Self {
            entries,
            lambda,
            capacity,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{max_ratio_violation, measure_inclusion};
    use rand::SeedableRng;
    use tbs_stats::rng::Xoshiro256PlusPlus;

    #[test]
    fn respects_capacity_and_fill_up() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut s: BAres<u32> = BAres::new(0.2, 10);
        s.observe((0..4).collect(), &mut rng);
        assert_eq!(s.len(), 4);
        s.observe((0..100).collect(), &mut rng);
        assert_eq!(s.len(), 10);
        for _ in 0..20 {
            s.observe((0..50).collect(), &mut rng);
            assert_eq!(s.len(), 10);
        }
    }

    #[test]
    fn zero_lambda_is_plain_reservoir_uniformity() {
        // λ = 0: all weights equal; every item should appear with the same
        // frequency — classic uniform reservoir behaviour.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let trials = 20_000;
        let mut first_batch = 0u64;
        let mut last_batch = 0u64;
        for _ in 0..trials {
            let mut s: BAres<u8> = BAres::new(0.0, 4);
            s.observe(vec![1; 4], &mut rng);
            s.observe(vec![2; 4], &mut rng);
            for item in s.sample(&mut rng) {
                match item {
                    1 => first_batch += 1,
                    2 => last_batch += 1,
                    _ => {}
                }
            }
        }
        let ratio = first_batch as f64 / last_batch as f64;
        assert!((ratio - 1.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn recency_bias_is_present() {
        // With λ > 0, newer items must dominate the sample.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let mut s: BAres<u64> = BAres::new(0.5, 50);
        for t in 0..40u64 {
            s.observe(vec![t; 20], &mut rng);
        }
        let sample = s.sample(&mut rng);
        let mean_age: f64 =
            sample.iter().map(|&t| 39.0 - t as f64).sum::<f64>() / sample.len() as f64;
        assert!(mean_age < 6.0, "mean age {mean_age} too old for lambda=0.5");
    }

    #[test]
    fn violates_relative_inclusion_during_fill_up() {
        // The §7 / Appendix-D style failure: a large reservoir retains
        // everything, so all appearance probabilities are 1 regardless of
        // age — property (1) demands ratio e^{-λ}.
        let lambda = 0.4;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let schedule = [5u64, 5, 5];
        let stats = measure_inclusion(
            || BAres::new(lambda, 1000),
            BAres::observe,
            BAres::sample,
            &schedule,
            4_000,
            &mut rng,
        );
        let v = max_ratio_violation(&stats, lambda, 0.02);
        let expect = 1.0 - (-lambda).exp();
        assert!(
            (v - expect).abs() < 0.02,
            "fill-up violation {v}, expected ≈ {expect}"
        );
    }

    #[test]
    fn steady_state_inclusion_deviates_from_law_1() {
        // Even past fill-up, A-Res's appearance probabilities do not track
        // e^{-λΔ} the way R-TBS's do: compare worst-case ratio violations
        // head to head on the same schedule.
        let lambda = 0.6;
        let schedule = [4u64, 4, 4, 4, 4, 4, 4, 4];
        let trials = 60_000;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let ares_stats = measure_inclusion(
            || BAres::new(lambda, 6),
            BAres::observe,
            BAres::sample,
            &schedule,
            trials,
            &mut rng,
        );
        // min_prob 0.02 trims pairs whose ratio estimate is pure noise.
        let ares_violation = max_ratio_violation(&ares_stats, lambda, 0.02);
        let rtbs_stats = measure_inclusion(
            || crate::RTbs::new(lambda, 6),
            crate::RTbs::observe,
            crate::RTbs::sample,
            &schedule,
            trials,
            &mut rng,
        );
        let rtbs_violation = max_ratio_violation(&rtbs_stats, lambda, 0.02);
        assert!(
            ares_violation > 2.0 * rtbs_violation + 0.02,
            "A-Res violation {ares_violation} not clearly worse than R-TBS \
             {rtbs_violation}"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        BAres::<u8>::new(0.1, 0);
    }
}
