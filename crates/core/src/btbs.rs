//! B-TBS — Bernoulli time-biased sampling (Algorithm 4, Appendix A).
//!
//! The simplest decay-correct scheme: every arriving item is accepted with
//! probability 1; at each subsequent step every sample item survives an
//! independent coin flip with retention probability `p = e^{−λ}`. The
//! `|S|` coin flips are simulated with one binomial draw.
//!
//! B-TBS enforces the relative-inclusion property (1) exactly —
//! `Pr[x ∈ S_{t′}] = e^{−λ(t′−t)}` for `x ∈ B_t` — but offers **no control
//! over the sample size**: the stationary expected size is
//! `b/(1 − e^{−λ})` for mean batch size `b` (Remark 1), and growing batches
//! grow the sample without bound. This is the scheme of Xie et al. (ICDE
//! 2015) used for time-biased edge sampling in dynamic graphs.

use crate::checkpoint::{check_non_negative, CheckpointError, Reader, Wire, Writer};
use crate::util::{check_gap, retain_random, DecayCache};
use rand::Rng;
use tbs_stats::binomial::binomial;

/// Bernoulli time-biased sampler with decay rate λ.
///
/// The inherent `observe`/`observe_after` methods are generic over the
/// RNG: the monomorphized, allocation-free fast path.
#[derive(Debug, Clone)]
pub struct BTbs<T> {
    items: Vec<T>,
    decay: DecayCache,
    steps: u64,
}

impl<T> BTbs<T> {
    /// Create an empty sampler with decay rate `lambda ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or non-finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "decay rate must be finite and non-negative, got {lambda}"
        );
        Self {
            items: Vec::new(),
            decay: DecayCache::new(lambda),
            steps: 0,
        }
    }

    /// Create a sampler pre-loaded with an initial sample `S₀`.
    pub fn with_initial(lambda: f64, initial: Vec<T>) -> Self {
        let mut s = Self::new(lambda);
        s.items = initial;
        s
    }

    /// Current exact sample size.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the sample is currently empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Borrow the current sample without copying.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Advance the clock by one time unit and absorb the arriving batch —
    /// the monomorphized fast path.
    #[inline]
    pub fn observe<R: Rng + ?Sized>(&mut self, batch: Vec<T>, rng: &mut R) {
        let p = self.decay.unit();
        self.decay_and_insert(batch, p, rng);
    }

    /// Absorb a batch arriving `gap` time units after the previous one.
    ///
    /// # Panics
    ///
    /// Panics if `gap` is negative or non-finite.
    pub fn observe_after<R: Rng + ?Sized>(&mut self, batch: Vec<T>, gap: f64, rng: &mut R) {
        check_gap(gap);
        let p = self.decay.factor(gap);
        self.decay_and_insert(batch, p, rng);
    }

    /// Expected size of `S_t` (the current exact size).
    pub fn expected_size(&self) -> f64 {
        self.items.len() as f64
    }

    /// No hard bound: B-TBS has no size control at all.
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

    fn decay_and_insert<R: Rng + ?Sized>(&mut self, batch: Vec<T>, p: f64, rng: &mut R) {
        // Simulate |S| independent retention flips with one binomial draw,
        // then keep that many uniformly chosen survivors (Alg. 4, lines 4-5).
        let keep = binomial(rng, self.items.len() as u64, p) as usize;
        retain_random(&mut self.items, keep, rng);
        self.items.extend(batch);
        self.steps += 1;
    }
}

impl<T: Clone> BTbs<T> {
    /// Copy out the current sample (deterministic; `rng` is unused and
    /// accepted only for signature uniformity with the latent schemes).
    pub fn sample<R: Rng + ?Sized>(&self, _rng: &mut R) -> Vec<T> {
        self.items.clone()
    }
}

impl<T: Wire> BTbs<T> {
    /// Serialize the complete sampler state into `w`; see
    /// [`crate::RTbs::save_state`] for the contract.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_f64(self.decay.lambda());
        w.put_u64(self.steps);
        w.put_items(self.items.iter());
    }

    /// Rebuild a sampler from a [`Self::save_state`] payload, validating
    /// every field (no panics on corrupt input).
    pub fn load_state(r: &mut Reader) -> Result<Self, CheckpointError> {
        let lambda = check_non_negative(r.get_f64()?, "B-TBS lambda")?;
        let steps = r.get_u64()?;
        let items = r.get_items()?;
        Ok(Self {
            items,
            decay: DecayCache::new(lambda),
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
    fn zero_decay_keeps_everything() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut s = BTbs::new(0.0);
        for t in 0..10u64 {
            s.observe((0..5).map(|i| t * 5 + i).collect(), &mut rng);
        }
        assert_eq!(s.len(), 50);
    }

    #[test]
    fn inclusion_probability_decays_exponentially() {
        // Pr[x ∈ S_{t'}] = e^{-λ(t'-t)}: insert one tagged item, age it k
        // steps with empty batches, measure survival frequency.
        let lambda = 0.3;
        let k = 5u64;
        let trials = 40_000;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let mut survived = 0u64;
        for _ in 0..trials {
            let mut s = BTbs::new(lambda);
            s.observe(vec![0u32], &mut rng);
            for _ in 0..k {
                s.observe(vec![], &mut rng);
            }
            if !s.is_empty() {
                survived += 1;
            }
        }
        let phat = survived as f64 / trials as f64;
        let expect = (-lambda * k as f64).exp();
        let tol = 4.0 * (expect * (1.0 - expect) / trials as f64).sqrt();
        assert!((phat - expect).abs() < tol, "phat={phat}, expect={expect}");
    }

    #[test]
    fn stationary_size_matches_remark_1() {
        // E[|S|] → b/(1 − e^{-λ}).
        let (lambda, b) = (0.1, 100usize);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let mut s = BTbs::new(lambda);
        // Warm up past the transient.
        for t in 0..400u64 {
            s.observe((0..b as u64).map(|i| t * b as u64 + i).collect(), &mut rng);
        }
        let mut acc = 0.0;
        let rounds = 400;
        for t in 400..400 + rounds {
            s.observe((0..b as u64).map(|i| t * b as u64 + i).collect(), &mut rng);
            acc += s.len() as f64;
        }
        let mean = acc / rounds as f64;
        let expect = b as f64 / (1.0 - (-lambda).exp());
        assert!(
            (mean / expect - 1.0).abs() < 0.05,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn real_valued_gaps_compose() {
        // Two gaps of 0.5 must decay like one gap of 1.0 in distribution:
        // compare mean survivor counts.
        let lambda = 0.8;
        let trials = 20_000;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let mut survived_split = 0u64;
        let mut survived_whole = 0u64;
        for _ in 0..trials {
            let mut a = BTbs::new(lambda);
            a.observe(vec![1u8], &mut rng);
            a.observe_after(vec![], 0.5, &mut rng);
            a.observe_after(vec![], 0.5, &mut rng);
            survived_split += a.len() as u64;

            let mut b = BTbs::new(lambda);
            b.observe(vec![1u8], &mut rng);
            b.observe_after(vec![], 1.0, &mut rng);
            survived_whole += b.len() as u64;
        }
        let p1 = survived_split as f64 / trials as f64;
        let p2 = survived_whole as f64 / trials as f64;
        assert!((p1 - p2).abs() < 0.02, "split {p1} vs whole {p2}");
    }

    #[test]
    #[should_panic(expected = "decay rate")]
    fn rejects_negative_lambda() {
        BTbs::<u8>::new(-0.1);
    }

    #[test]
    #[should_panic(expected = "gap")]
    fn rejects_negative_gap() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let mut s = BTbs::new(0.1);
        s.observe_after(vec![1u8], -1.0, &mut rng);
    }

    #[test]
    fn with_initial_sample_counts() {
        let s = BTbs::with_initial(0.1, vec![1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.batches_observed(), 0);
    }

    #[test]
    fn metadata() {
        let s = BTbs::<u8>::new(0.25);
        assert_eq!(s.decay_rate(), 0.25);
        assert_eq!(s.max_size(), None);
    }
}
