//! T-TBS — Targeted-size time-biased sampling (§3, Algorithm 1).
//!
//! T-TBS augments B-TBS with *down-sampling of the incoming batch* at rate
//! `q = n(1 − e^{−λ})/b`, which makes the target `n` the equilibrium sample
//! size: at size `n`, the expected decay loss `n(1 − e^{−λ})` equals the
//! expected inflow `q·b`. The relative-inclusion property (1) holds exactly
//! — `Pr[x ∈ S_{t′}] = q·e^{−λ(t′−t)}` for `x ∈ B_t` — but the size is
//! controlled only *probabilistically* (Theorem 3.1): the mean converges to
//! `n`, deviations are exponentially rare, yet every size level is exceeded
//! infinitely often, and the scheme silently breaks when the true mean batch
//! size drifts away from the assumed `b` (Figure 1).

use crate::checkpoint::{check_non_negative, CheckpointError, Reader, Wire, Writer};
use crate::util::{check_gap, retain_random, DecayCache};
use rand::Rng;
use tbs_stats::binomial::{binomial, CachedBinomial};

/// Targeted-size time-biased sampler.
///
/// The inherent `observe`/`observe_after` methods are generic over the
/// RNG: the monomorphized, allocation-free fast path.
#[derive(Debug, Clone)]
pub struct TTbs<T> {
    items: Vec<T>,
    decay: DecayCache,
    target: usize,
    assumed_mean_batch: f64,
    /// Batch down-sampling rate `q = n(1 − e^{−λ})/b`.
    q: f64,
    steps: u64,
    /// Memoized BINV setup for the binomial acceptance count (`q` is
    /// constant, so constant-size batches reuse the setup; draw-for-draw
    /// identical to the one-shot `binomial`); pure acceleration state,
    /// never persisted.
    binom_accept: CachedBinomial,
}

impl<T> TTbs<T> {
    /// Create a T-TBS sampler targeting sample size `target`, with decay
    /// rate `lambda` and assumed mean batch size `assumed_mean_batch`.
    ///
    /// # Panics
    ///
    /// Panics unless `b ≥ n(1 − e^{−λ})` (the paper's feasibility condition:
    /// items must on average arrive at least as fast as they decay at the
    /// target size), `lambda ≥ 0`, and `target ≥ 1`.
    pub fn new(lambda: f64, target: usize, assumed_mean_batch: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "decay rate must be finite and non-negative, got {lambda}"
        );
        assert!(target >= 1, "target sample size must be positive");
        let min_b = target as f64 * (1.0 - (-lambda).exp());
        assert!(
            assumed_mean_batch >= min_b,
            "mean batch size {assumed_mean_batch} below feasibility bound \
             n(1-e^-lambda) = {min_b}"
        );
        let q = if assumed_mean_batch > 0.0 {
            (min_b / assumed_mean_batch).min(1.0)
        } else {
            1.0
        };
        Self {
            items: Vec::new(),
            decay: DecayCache::new(lambda),
            target,
            assumed_mean_batch,
            q,
            steps: 0,
            binom_accept: CachedBinomial::new(),
        }
    }

    /// Pre-load an initial sample `S₀`.
    pub fn with_initial(lambda: f64, target: usize, assumed_mean_batch: f64, s0: Vec<T>) -> Self {
        let mut s = Self::new(lambda, target, assumed_mean_batch);
        s.items = s0;
        s
    }

    /// Exact current sample size.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the sample is currently empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The batch acceptance probability `q`.
    pub fn batch_acceptance(&self) -> f64 {
        self.q
    }

    /// The configured target sample size `n`.
    pub fn target(&self) -> usize {
        self.target
    }

    /// The assumed mean batch size `b`.
    pub fn assumed_mean_batch(&self) -> f64 {
        self.assumed_mean_batch
    }

    /// Borrow the current sample.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Advance the clock by one time unit and absorb the arriving batch —
    /// the monomorphized fast path.
    #[inline]
    pub fn observe<R: Rng + ?Sized>(&mut self, mut batch: Vec<T>, rng: &mut R) {
        let p = self.decay.unit();
        self.step(&mut batch, p, rng);
    }

    /// [`Self::observe`] from a caller-owned buffer: accepted items are
    /// drained into the sample, the rest discarded, and the buffer's
    /// allocation survives for reuse (see `RTbs::observe_drain` for the
    /// rationale). Statistically and RNG-stream-wise identical to
    /// [`Self::observe`].
    #[inline]
    pub fn observe_drain<R: Rng + ?Sized>(&mut self, batch: &mut Vec<T>, rng: &mut R) {
        let p = self.decay.unit();
        self.step(batch, p, rng);
    }

    /// Absorb a batch arriving `gap` time units after the previous one.
    ///
    /// # Panics
    ///
    /// Panics if `gap` is negative or non-finite.
    pub fn observe_after<R: Rng + ?Sized>(&mut self, mut batch: Vec<T>, gap: f64, rng: &mut R) {
        check_gap(gap);
        let p = self.decay.factor(gap);
        self.step(&mut batch, p, rng);
    }

    /// Expected size of `S_t` (the current exact size).
    pub fn expected_size(&self) -> f64 {
        self.items.len() as f64
    }

    /// No hard bound: size is targeted, not bounded (Theorem 3.1(i)).
    pub fn max_size(&self) -> Option<usize> {
        None
    }

    /// Exponential decay rate λ.
    pub fn decay_rate(&self) -> f64 {
        self.decay.lambda()
    }

    /// Number of batches observed so far.
    pub fn batches_observed(&self) -> u64 {
        self.steps
    }

    /// Overwrite the batch counter — used by [`crate::merge`] so a merged
    /// sampler reports the stream position of its shards.
    pub(crate) fn set_steps(&mut self, steps: u64) {
        self.steps = steps;
    }

    fn step<R: Rng + ?Sized>(&mut self, batch: &mut Vec<T>, p: f64, rng: &mut R) {
        // Decay current sample: keep Binomial(|S|, p) random survivors.
        let keep = binomial(rng, self.items.len() as u64, p) as usize;
        retain_random(&mut self.items, keep, rng);
        // Down-sample the incoming batch at rate q, in place.
        let accept = self.binom_accept.draw(rng, batch.len() as u64, self.q) as usize;
        retain_random(batch, accept, rng);
        self.items.append(batch);
        self.steps += 1;
    }
}

impl<T: Clone> TTbs<T> {
    /// Copy out the current sample (deterministic; `rng` is unused and
    /// accepted only for signature uniformity with the latent schemes).
    pub fn sample<R: Rng + ?Sized>(&self, _rng: &mut R) -> Vec<T> {
        self.items.clone()
    }
}

impl<T: Wire> TTbs<T> {
    /// Serialize the complete sampler state into `w`; see
    /// [`crate::RTbs::save_state`] for the contract.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_f64(self.decay.lambda());
        w.put_u64(self.target as u64);
        w.put_f64(self.assumed_mean_batch);
        w.put_u64(self.steps);
        w.put_items(self.items.iter());
    }

    /// Rebuild a sampler from a [`Self::save_state`] payload, validating
    /// every field — including the feasibility bound `b ≥ n(1 − e^{−λ})`
    /// — without panicking on corrupt input.
    pub fn load_state(r: &mut Reader) -> Result<Self, CheckpointError> {
        let lambda = check_non_negative(r.get_f64()?, "T-TBS lambda")?;
        let target = r.get_u64()? as usize;
        if target == 0 {
            return Err(CheckpointError::Corrupt("T-TBS target"));
        }
        let assumed_mean_batch = check_non_negative(r.get_f64()?, "T-TBS mean batch")?;
        let min_b = target as f64 * (1.0 - (-lambda).exp());
        if assumed_mean_batch < min_b {
            return Err(CheckpointError::Corrupt("T-TBS infeasible mean batch"));
        }
        let steps = r.get_u64()?;
        let items = r.get_items()?;
        let mut s = Self::new(lambda, target, assumed_mean_batch);
        s.items = items;
        s.steps = steps;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tbs_stats::rng::Xoshiro256PlusPlus;

    fn feed_constant(s: &mut TTbs<u64>, batches: u64, b: u64, rng: &mut Xoshiro256PlusPlus) {
        for t in 0..batches {
            s.observe((0..b).map(|i| t * b + i).collect(), rng);
        }
    }

    #[test]
    fn equilibrium_mean_is_target() {
        // Theorem 3.1(ii)/(iii): time-average sample size converges to n.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut s = TTbs::new(0.1, 1000, 100.0);
        feed_constant(&mut s, 300, 100, &mut rng);
        let mut acc = 0.0;
        let rounds = 500;
        for t in 0..rounds {
            s.observe((0..100).map(|i| t * 100 + i).collect(), &mut rng);
            acc += s.len() as f64;
        }
        let mean = acc / rounds as f64;
        assert!((mean / 1000.0 - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn expected_size_transient_matches_theorem() {
        // Theorem 3.1(ii): E[C_t] = n + p^t (C0 − n). Start from C0 = 0 and
        // verify at a small t by Monte Carlo.
        let (lambda, n, b) = (0.2f64, 50usize, 20.0);
        let t = 5u64;
        let p = (-lambda).exp();
        let expect = n as f64 + p.powi(t as i32) * (0.0 - n as f64);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let trials = 3_000;
        let mut acc = 0.0;
        for _ in 0..trials {
            let mut s = TTbs::new(lambda, n, b);
            feed_constant(&mut s, t, 20, &mut rng);
            acc += s.len() as f64;
        }
        let mean = acc / trials as f64;
        assert!(
            (mean - expect).abs() < 1.0,
            "mean {mean} vs theory {expect}"
        );
    }

    #[test]
    fn inclusion_ratio_between_batches_is_exponential() {
        // Property (1): items one batch apart appear with ratio e^{-λ}.
        let lambda = 0.5;
        let trials = 30_000usize;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let mut count_old = 0u64; // item from batch 1 present at t=3
        let mut count_new = 0u64; // item from batch 2 present at t=3
        for _ in 0..trials {
            let mut s = TTbs::new(lambda, 10, 10.0);
            s.observe(vec![1u64], &mut rng); // batch 1: tagged item 1
            s.observe(vec![2u64], &mut rng); // batch 2: tagged item 2
            s.observe(vec![], &mut rng); // batch 3: empty
            if s.items().contains(&1) {
                count_old += 1;
            }
            if s.items().contains(&2) {
                count_new += 1;
            }
        }
        let ratio = count_old as f64 / count_new as f64;
        let expect = (-lambda).exp();
        assert!(
            (ratio - expect).abs() < 0.05,
            "ratio {ratio} vs e^-lambda {expect}"
        );
    }

    #[test]
    fn growing_batches_overflow_the_target() {
        // Figure 1(a): batch sizes growing 0.2% per step blow up the sample.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let mut s = TTbs::new(0.05, 1000, 100.0);
        let mut b = 100.0f64;
        feed_constant(&mut s, 200, 100, &mut rng);
        for _ in 0..800 {
            b *= 1.004;
            let size = b.round() as u64;
            s.observe((0..size).collect(), &mut rng);
        }
        assert!(
            s.len() as f64 > 1500.0,
            "sample failed to overflow: {}",
            s.len()
        );
    }

    #[test]
    fn q_equals_one_recovers_btbs_equilibrium() {
        // With b = n(1-e^-λ) exactly, q = 1 and T-TBS is B-TBS (Remark 1).
        let lambda = 0.1f64;
        let n = 1000usize;
        let b = n as f64 * (1.0 - (-lambda).exp());
        let s = TTbs::<u64>::new(lambda, n, b);
        assert!((s.batch_acceptance() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "feasibility")]
    fn rejects_infeasible_batch_size() {
        // b < n(1 − e^{-λ}) can never sustain the target.
        TTbs::<u8>::new(0.5, 1000, 10.0);
    }

    #[test]
    fn empty_stream_decays_to_zero() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let mut s = TTbs::with_initial(0.5, 100, 100.0, (0..100u64).collect());
        for _ in 0..60 {
            s.observe(vec![], &mut rng);
        }
        assert_eq!(s.len(), 0, "sample should decay away with no arrivals");
    }

    #[test]
    fn metadata() {
        let s = TTbs::<u8>::new(0.07, 20, 10.0);
        assert_eq!(s.max_size(), None);
        assert_eq!(s.target(), 20);
    }
}
