//! B-Chao — batched, time-decayed Chao sampling (Appendix D, Algorithms 6–7).
//!
//! Chao's 1982 general-purpose unequal-probability reservoir scheme,
//! specialized to exponential decay and batch arrivals. This is the closest
//! prior-art competitor to R-TBS (it is what MacroBase uses), and it is
//! implemented here as the paper's foil: it keeps the sample size pinned at
//! `n`, but **violates the relative-inclusion property (1)**
//!
//! * during the initial fill-up (all items are accepted with probability 1
//!   regardless of arrival time), and
//! * whenever data arrives slowly relative to the decay rate, which makes
//!   recent items *overweight*: their nominal inclusion probability
//!   `n·w_i/W` exceeds 1, so they are retained with probability 1 and the
//!   relation (1) is enforced only among the non-overweight remainder.
//!
//! The bookkeeping for overweight items (set `V`, Algorithm 7's
//! normalization) is reproduced faithfully — including the cost it adds,
//! which the benchmarks compare against R-TBS's lighter state.

use crate::checkpoint::{check_non_negative, CheckpointError, Reader, Wire, Writer};
use crate::util::{check_gap, DecayCache};
use rand::Rng;

/// Batched time-decayed Chao sampler with capacity `n` and decay rate λ.
///
/// The inherent `observe`/`observe_after` methods are generic over the
/// RNG: the monomorphized fast path. In the well-fed steady state (no
/// overweight items) per-batch processing allocates nothing; the
/// overweight bookkeeping of Algorithm 7 allocates scratch vectors when it
/// actually triggers — that cost is part of what the benchmarks compare
/// against R-TBS's lighter state.
#[derive(Debug, Clone)]
pub struct BChao<T> {
    /// Non-overweight items currently in the sample (weights not tracked —
    /// Chao's scheme only needs them for overweight items).
    sample: Vec<T>,
    /// Overweight items with their individual weights, `V` in Algorithm 6.
    overweight: Vec<(T, f64)>,
    /// Aggregate weight `W` of all *non-overweight* items seen so far
    /// (in or out of the sample).
    agg_weight: f64,
    decay: DecayCache,
    capacity: usize,
    steps: u64,
}

impl<T> BChao<T> {
    /// Create an empty B-Chao sampler.
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
            sample: Vec::with_capacity(capacity),
            overweight: Vec::new(),
            agg_weight: 0.0,
            decay: DecayCache::new(lambda),
            capacity,
            steps: 0,
        }
    }

    /// Current number of stored items (`|S| + |V|`).
    pub fn len(&self) -> usize {
        self.sample.len() + self.overweight.len()
    }

    /// Whether no items are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of currently overweight items (`|V|`).
    pub fn overweight_count(&self) -> usize {
        self.overweight.len()
    }

    /// Aggregate weight of non-overweight items.
    pub fn aggregate_weight(&self) -> f64 {
        self.agg_weight
    }

    /// Advance the clock by one time unit and absorb the arriving batch —
    /// the monomorphized fast path.
    #[inline]
    pub fn observe<R: Rng + ?Sized>(&mut self, batch: Vec<T>, rng: &mut R) {
        let decay = self.decay.unit();
        self.step(batch, decay, rng);
    }

    /// Absorb a batch arriving `gap` time units after the previous one.
    ///
    /// # Panics
    ///
    /// Panics if `gap` is negative or non-finite.
    pub fn observe_after<R: Rng + ?Sized>(&mut self, batch: Vec<T>, gap: f64, rng: &mut R) {
        check_gap(gap);
        let decay = self.decay.factor(gap);
        self.step(batch, decay, rng);
    }

    /// Expected size of `S_t` (the current exact size).
    pub fn expected_size(&self) -> f64 {
        self.len() as f64
    }

    /// Hard upper bound on the sample size: `Some(n)`.
    pub fn max_size(&self) -> Option<usize> {
        Some(self.capacity)
    }

    /// Exponential decay rate λ.
    pub fn decay_rate(&self) -> f64 {
        self.decay.lambda()
    }

    /// Number of batches observed so far.
    pub fn batches_observed(&self) -> u64 {
        self.steps
    }

    /// Process one arriving item against a full reservoir.
    fn accept_one<R: Rng + ?Sized>(&mut self, x: T, rng: &mut R) {
        // ——— Normalize (Algorithm 7). ———
        // Total weight including the new item and the overweight set.
        let total: f64 =
            self.agg_weight + 1.0 + self.overweight.iter().map(|(_, w)| w).sum::<f64>();
        let n = self.capacity as f64;

        // `newly_normal` is Algorithm 7's A: items leaving overweight status
        // this step (they carry their weights into victim selection).
        let mut newly_normal: Vec<(T, f64)> = Vec::new();
        let mut x_slot = Some(x);
        let pi_x: f64;
        let x_overweight: bool;

        if n / total <= 1.0 {
            // New item not overweight ⇒ nothing is (weights ≤ 1 = w_x).
            self.agg_weight = total;
            newly_normal.append(&mut self.overweight);
            pi_x = n / total;
            x_overweight = false;
        } else {
            // x is overweight: retained w.p. 1, tracked individually
            // (D ← {(x, 1)} in Algorithm 7).
            pi_x = 1.0;
            x_overweight = true;
            self.agg_weight = total - 1.0;
            let mut d_count = 1usize; // |D|, counting x itself
            let mut d: Vec<(T, f64)> = vec![(x_slot.take().expect("x present"), 1.0)];
            // Pull remaining overweight candidates in decreasing weight.
            while let Some(max_idx) = self
                .overweight
                .iter()
                .enumerate()
                .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
                .map(|(i, _)| i)
            {
                let (z, wz) = self.overweight.swap_remove(max_idx);
                if (n - d_count as f64) * wz / self.agg_weight > 1.0 {
                    // Still overweight relative to the shrinking pool.
                    self.agg_weight -= wz;
                    d.push((z, wz));
                    d_count += 1;
                } else {
                    // First non-overweight item ends the scan.
                    newly_normal.push((z, wz));
                    break;
                }
            }
            // Everything left in V has smaller weight ⇒ also normal now.
            newly_normal.append(&mut self.overweight);
            self.overweight = d;
        }

        // ——— Acceptance and victim selection (Algorithm 6 lines 13-20). ———
        if rng.gen::<f64>() <= pi_x {
            let n_normal_slots = (self.capacity - self.overweight.len()) as f64;
            let u: f64 = rng.gen();
            let mut alpha = 0.0;
            let mut victim_from_a: Option<usize> = None;
            for (i, (_, wz)) in newly_normal.iter().enumerate() {
                alpha += (1.0 - n_normal_slots * wz / self.agg_weight) / pi_x;
                if u <= alpha {
                    victim_from_a = Some(i);
                    break;
                }
            }
            match victim_from_a {
                Some(i) => {
                    newly_normal.remove(i);
                }
                None => {
                    if !self.sample.is_empty() {
                        let idx = rng.gen_range(0..self.sample.len());
                        self.sample.swap_remove(idx);
                    } else if let Some(min_idx) = self
                        .overweight
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
                        .map(|(i, _)| i)
                    {
                        // Degenerate corner (everything overweight): evict
                        // the lightest overweight item so |S|+|V| stays ≤ n.
                        self.overweight.swap_remove(min_idx);
                    }
                }
            }
            if !x_overweight {
                self.sample.push(x_slot.take().expect("x present"));
            }
        }
        // Items that ceased to be overweight rejoin the plain sample
        // (Algorithm 6 line 21) whether or not x was accepted.
        self.sample.extend(newly_normal.into_iter().map(|(z, _)| z));
    }

    fn step<R: Rng + ?Sized>(&mut self, batch: Vec<T>, decay: f64, rng: &mut R) {
        self.agg_weight *= decay;
        for entry in &mut self.overweight {
            entry.1 *= decay;
        }
        for x in batch {
            if self.len() < self.capacity {
                // Fill-up phase: accept unconditionally — this is exactly
                // where property (1) is violated.
                self.sample.push(x);
                self.agg_weight += 1.0;
            } else {
                self.accept_one(x, rng);
            }
        }
        self.steps += 1;
        debug_assert!(self.len() <= self.capacity);
    }
}

impl<T: Clone> BChao<T> {
    /// Copy out the current sample, overweight items included
    /// (deterministic; `rng` is unused and accepted only for signature
    /// uniformity with the latent schemes).
    pub fn sample<R: Rng + ?Sized>(&self, _rng: &mut R) -> Vec<T> {
        let mut out = self.sample.clone();
        out.extend(self.overweight.iter().map(|(z, _)| z.clone()));
        out
    }
}

impl<T: Wire> BChao<T> {
    /// Serialize the complete sampler state — including the overweight
    /// set `V` with its per-item weights — into `w`; see
    /// [`crate::RTbs::save_state`] for the contract.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_f64(self.decay.lambda());
        w.put_u64(self.capacity as u64);
        w.put_f64(self.agg_weight);
        w.put_u64(self.steps);
        w.put_items(self.sample.iter());
        w.put_u32(self.overweight.len() as u32);
        for (item, weight) in &self.overweight {
            w.put_item(item);
            w.put_f64(*weight);
        }
    }

    /// Rebuild a sampler from a [`Self::save_state`] payload, validating
    /// every field (no panics on corrupt input).
    pub fn load_state(r: &mut Reader) -> Result<Self, CheckpointError> {
        let lambda = check_non_negative(r.get_f64()?, "B-Chao lambda")?;
        let capacity = r.get_u64()? as usize;
        if capacity == 0 {
            return Err(CheckpointError::Corrupt("B-Chao capacity"));
        }
        let agg_weight = check_non_negative(r.get_f64()?, "B-Chao aggregate weight")?;
        let steps = r.get_u64()?;
        let sample: Vec<T> = r.get_items()?;
        let n_over = r.get_u32()? as usize;
        // Each overweight entry costs ≥ 4 (item length prefix) + 8
        // (weight) bytes; bound the allocation before it happens.
        r.check_count(n_over, 12)?;
        let mut overweight = Vec::with_capacity(n_over);
        for _ in 0..n_over {
            let item = r.get_item()?;
            let weight = check_non_negative(r.get_f64()?, "B-Chao overweight weight")?;
            overweight.push((item, weight));
        }
        if sample.len() + overweight.len() > capacity {
            return Err(CheckpointError::Corrupt("B-Chao item count"));
        }
        Ok(Self {
            sample,
            overweight,
            agg_weight,
            decay: DecayCache::new(lambda),
            capacity,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tbs_stats::rng::Xoshiro256PlusPlus;

    #[test]
    fn fills_to_capacity_and_stays() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut s = BChao::new(0.1, 50);
        for t in 0..40u64 {
            s.observe((0..10).map(|i| t * 10 + i).collect(), &mut rng);
            assert!(s.len() <= 50);
        }
        assert_eq!(s.len(), 50, "Chao's sample size is nondecreasing at n");
        // Unlike R-TBS, the size never shrinks even with no arrivals.
        for _ in 0..50 {
            s.observe(vec![], &mut rng);
            assert_eq!(s.len(), 50);
        }
    }

    #[test]
    fn fill_up_violates_relative_inclusion() {
        // During fill-up every item is accepted w.p. 1, so items from batches
        // 1 and 2 appear with the *same* probability even though (1) demands
        // a ratio of e^{-λ} — the paper's App. D criticism, reproduced.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let lambda = 0.5;
        let trials = 5_000;
        let mut hits = [0u64; 2];
        for _ in 0..trials {
            let mut s: BChao<u8> = BChao::new(lambda, 100);
            s.observe(vec![1; 10], &mut rng);
            s.observe(vec![2; 10], &mut rng);
            for item in s.sample(&mut rng) {
                hits[(item - 1) as usize] += 1;
            }
        }
        let ratio = hits[0] as f64 / hits[1] as f64;
        // Both batches fully retained → ratio 1, far from e^{-0.5} ≈ 0.61.
        assert!((ratio - 1.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn slow_arrivals_create_overweight_items() {
        // High decay + tiny batches after saturation ⇒ the aggregate weight
        // W collapses, so fresh items (weight 1) satisfy n·w/W > 1.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let mut s = BChao::new(1.0, 20);
        s.observe((0..20u64).collect(), &mut rng);
        for t in 0..10u64 {
            s.observe(vec![100 + t], &mut rng);
        }
        assert!(
            s.overweight_count() > 0,
            "expected overweight items under fast decay, got none"
        );
        assert_eq!(s.len(), 20);
    }

    #[test]
    fn fast_arrivals_keep_everything_normal() {
        // Plentiful data: W stays ≥ n, no item is overweight and Chao then
        // agrees with (1) in steady state.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let mut s = BChao::new(0.05, 100);
        for t in 0..100u64 {
            s.observe((0..200).map(|i| t * 200 + i).collect(), &mut rng);
        }
        assert_eq!(s.overweight_count(), 0);
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn steady_state_inclusion_ratio_approximates_decay() {
        // With abundant arrivals (no overweight items, past fill-up), Chao
        // enforces (1): adjacent-batch inclusion ratio ≈ e^{-λ}.
        let lambda = 0.2f64;
        let trials = 8_000;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let mut old_hits = 0u64;
        let mut new_hits = 0u64;
        for _ in 0..trials {
            let mut s: BChao<u32> = BChao::new(lambda, 40);
            // Warm well past fill-up.
            for t in 0..30u32 {
                s.observe((0..20).map(|i| t * 100 + i).collect(), &mut rng);
            }
            // Tag two adjacent batches, then one more ordinary batch.
            s.observe(vec![1_000_001; 20], &mut rng);
            s.observe(vec![1_000_002; 20], &mut rng);
            s.observe((0..20).map(|i| 5_000 + i).collect(), &mut rng);
            for item in s.sample(&mut rng) {
                if item == 1_000_001 {
                    old_hits += 1;
                }
                if item == 1_000_002 {
                    new_hits += 1;
                }
            }
        }
        let ratio = old_hits as f64 / new_hits as f64;
        let expect = (-lambda).exp();
        assert!(
            (ratio - expect).abs() < 0.05,
            "ratio {ratio} vs e^-lambda {expect}"
        );
    }

    #[test]
    fn weight_decays_each_step() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(6);
        let mut s = BChao::new(0.5, 10);
        s.observe((0..5u32).collect(), &mut rng);
        let w0 = s.aggregate_weight();
        s.observe(vec![], &mut rng);
        assert!((s.aggregate_weight() - w0 * (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        BChao::<u8>::new(0.1, 0);
    }
}
