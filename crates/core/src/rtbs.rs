//! R-TBS — reservoir-based time-biased sampling (§4, Algorithm 2).
//!
//! The paper's headline contribution: the first sampling scheme that
//! simultaneously
//!
//! 1. enforces the exponential relative-inclusion property (1) **at all
//!    times** — `Pr[i ∈ S_t] = (C_t/W_t)·w_t(i)` for every item (Thm 4.2);
//! 2. guarantees the hard bound `|S_t| ≤ n`;
//! 3. handles **unknown, arbitrarily varying** arrival rates, including
//!    real-valued inter-arrival gaps.
//!
//! Among all decay-correct schemes it *maximizes* the expected sample size
//! whenever the total weight is below `n` (Thm 4.3) and *minimizes*
//! sample-size variance (Thm 4.4, via stochastic rounding).
//!
//! The state is a latent fractional sample (see [`crate::latent`]) plus the
//! total weight `W_t = Σ_j |B_j|·e^{−λ(t−j)}`; the sample weight is always
//! `C_t = min(n, W_t)`. Four transitions arise per batch, depending on
//! whether the reservoir is *saturated* (`W ≥ n`) before and after.

use crate::checkpoint::{check_non_negative, CheckpointError, Reader, Wire, Writer};
use crate::downsample::downsample;
use crate::latent::LatentSample;
use crate::util::{check_gap, DecayCache};
use rand::Rng;
use tbs_stats::rounding::stochastic_round;

/// Reservoir-based time-biased sampler with decay rate λ and capacity `n`.
///
/// # Performance
///
/// The inherent `observe`/`observe_after`/`sample` methods are generic
/// over the RNG — call them with a concrete generator (e.g.
/// `Xoshiro256PlusPlus`) and the whole per-batch transition is
/// monomorphized with the RNG inlined into the inner loops. Steady-state
/// ingest performs **zero heap allocations** beyond the caller-provided
/// batch: victims are swept out and truncated in place, the unit-gap decay
/// factor is memoized, and the latent sample's buffers persist at their
/// high-water capacity.
#[derive(Debug, Clone)]
pub struct RTbs<T> {
    latent: LatentSample<T>,
    /// Total decayed weight `W_t` of all items seen so far.
    total_weight: f64,
    decay: DecayCache,
    capacity: usize,
    steps: u64,
}

impl<T> RTbs<T> {
    /// Create an empty R-TBS sampler.
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
            latent: LatentSample::empty(),
            total_weight: 0.0,
            decay: DecayCache::new(lambda),
            capacity,
            steps: 0,
        }
    }

    /// Create a sampler pre-loaded with an initial sample `A₀`
    /// (`|A₀| ≤ n` required); its items carry weight 1 each.
    pub fn with_initial(lambda: f64, capacity: usize, initial: Vec<T>) -> Self {
        assert!(initial.len() <= capacity, "initial sample exceeds capacity");
        let mut s = Self::new(lambda, capacity);
        s.total_weight = initial.len() as f64;
        s.latent = LatentSample::from_full(initial);
        s
    }

    /// Total decayed weight `W_t`.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Sample weight `C_t = min(n, W_t)` — the expected realized size.
    pub fn sample_weight(&self) -> f64 {
        self.latent.weight()
    }

    /// Whether the reservoir is saturated (`W_t ≥ n`, so `|S_t| = n`).
    pub fn is_saturated(&self) -> bool {
        self.total_weight >= self.capacity as f64
    }

    /// Access the underlying latent sample (full items + optional partial).
    pub fn latent(&self) -> &LatentSample<T> {
        &self.latent
    }

    /// Mutable access for the shard-merge algebra, which downsamples a
    /// shard's latent state to its merged target weight.
    pub(crate) fn latent_mut(&mut self) -> &mut LatentSample<T> {
        &mut self.latent
    }

    /// The capacity bound `n`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Advance the clock by one time unit and absorb the arriving batch —
    /// the monomorphized fast path (see the type-level docs).
    #[inline]
    pub fn observe<R: Rng + ?Sized>(&mut self, mut batch: Vec<T>, rng: &mut R) {
        let decay = self.decay.unit();
        self.step_with_decay(&mut batch, decay, rng);
    }

    /// [`Self::observe`] from a caller-owned buffer: the batch items are
    /// drained out of `batch` (accepted ones move into the sample; rejected
    /// ones are left behind for the caller to `clear`), and the buffer's
    /// allocation survives the call. This is the ingest entry point for
    /// pipelines that recycle batch buffers — e.g. the sharded parallel
    /// engine in `tbs-distributed` — where dropping a `Vec` per batch
    /// would force a fresh allocation per batch upstream.
    ///
    /// Statistically and RNG-stream-wise identical to [`Self::observe`].
    #[inline]
    pub fn observe_drain<R: Rng + ?Sized>(&mut self, batch: &mut Vec<T>, rng: &mut R) {
        let decay = self.decay.unit();
        self.step_with_decay(batch, decay, rng);
    }

    /// Absorb a batch arriving `gap` time units after the previous one.
    /// Repeated gaps reuse the memoized decay factor instead of calling
    /// `exp`.
    ///
    /// # Panics
    ///
    /// Panics if `gap` is negative or non-finite.
    pub fn observe_after<R: Rng + ?Sized>(&mut self, mut batch: Vec<T>, gap: f64, rng: &mut R) {
        check_gap(gap);
        let decay = self.decay.factor(gap);
        self.step_with_decay(&mut batch, decay, rng);
    }

    /// Advance one step with an explicit per-step decay factor in `(0, 1]`.
    ///
    /// This is the arbitrary-decay extension point the paper's §8 points
    /// toward: any decay law whose *relative* item weights shrink by a
    /// common per-step factor (e.g. forward decay with a monotone gauge
    /// `g`, see [`crate::forward`]) reduces to R-TBS with time-varying
    /// factors. The invariant `Pr[i ∈ S_t] = (C_t/W_t)·w_t(i)` is
    /// maintained for the induced weights.
    ///
    /// # Panics
    ///
    /// Panics if `decay` is outside `(0, 1]`.
    pub fn observe_with_decay<R: Rng + ?Sized>(
        &mut self,
        mut batch: Vec<T>,
        decay: f64,
        rng: &mut R,
    ) {
        assert!(
            decay > 0.0 && decay <= 1.0,
            "per-step decay factor must lie in (0, 1], got {decay}"
        );
        self.step_with_decay(&mut batch, decay, rng);
    }

    /// Expected size of `S_t` — the sample weight `C_t`.
    pub fn expected_size(&self) -> f64 {
        self.sample_weight()
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

    /// One batch transition. Items are *drained* out of `batch` (its
    /// allocation is never dropped here), so both the owned `observe` entry
    /// points and the buffer-recycling `observe_drain` share this body.
    fn step_with_decay<R: Rng + ?Sized>(&mut self, batch: &mut Vec<T>, decay: f64, rng: &mut R) {
        let n = self.capacity as f64;
        let batch_size = batch.len();

        if self.total_weight < n {
            // ——— Previously unsaturated: C = W. ———
            self.total_weight *= decay; // line 6: decay current items
            if self.total_weight > 0.0 && !self.latent.is_empty() {
                // line 8: downsample to the decayed weight
                downsample(&mut self.latent, self.total_weight, rng);
            } else if self.total_weight == 0.0 {
                self.latent.clear();
            }
            // line 9-10: accept all arriving items as full
            self.latent.push_full(batch.drain(..));
            self.total_weight += batch_size as f64;
            if self.total_weight > n {
                // line 12: overshoot — downsample to n; now saturated.
                downsample(&mut self.latent, n, rng);
            }
        } else {
            // ——— Previously saturated: C = n, no partial item. ———
            let new_weight = self.total_weight * decay + batch_size as f64; // line 14
            if new_weight >= n {
                // Accept each batch item w.p. n/W via a single
                // stochastically rounded count (lines 16-17), then drop
                // `m` uniformly chosen victims and append `m` uniformly
                // chosen batch items — no intermediate vectors. The
                // rejected items stay in `batch`, whose leftover contents
                // the caller discards.
                let m_exact = batch_size as f64 * n / new_weight;
                let m = (stochastic_round(rng, m_exact) as usize)
                    .min(batch_size)
                    .min(self.capacity);
                self.latent.replace_random_full_from(batch, m, rng);
            } else {
                // Undershoot: shrink the old sample to the decayed weight
                // W' = W_new − |B_t|, then accept the batch as full items
                // (lines 19-20); now unsaturated with C = W again.
                let decayed_old = new_weight - batch_size as f64;
                downsample(&mut self.latent, decayed_old, rng);
                self.latent.push_full(batch.drain(..));
            }
            self.total_weight = new_weight;
        }
        self.steps += 1;
        debug_assert!(self.latent.check_invariants().is_ok());
        debug_assert!(self.latent.weight() <= n + 1e-9);
    }

    /// Decompose into the merge-relevant parts `(λ, n, W, steps, latent)` —
    /// consumed by [`crate::merge`]'s shard-union algebra.
    pub(crate) fn into_merge_parts(self) -> (f64, usize, f64, u64, LatentSample<T>) {
        (
            self.decay.lambda(),
            self.capacity,
            self.total_weight,
            self.steps,
            self.latent,
        )
    }

    /// Reassemble a sampler from merged parts. The caller (the shard-merge
    /// algebra) must supply a latent sample whose weight equals
    /// `min(capacity, total_weight)` up to rounding.
    pub(crate) fn from_merge_parts(
        lambda: f64,
        capacity: usize,
        total_weight: f64,
        steps: u64,
        latent: LatentSample<T>,
    ) -> Self {
        let s = Self {
            latent,
            total_weight,
            decay: DecayCache::new(lambda),
            capacity,
            steps,
        };
        debug_assert!(s.latent.check_invariants().is_ok());
        s
    }
}

impl<T: Wire> RTbs<T> {
    /// Serialize the complete sampler state — configuration, weights, the
    /// latent sample — into `w`. [`Self::load_state`] rebuilds a sampler
    /// that continues the stream **bit-identically** to an uninterrupted
    /// run (given the caller also persists its RNG position).
    pub fn save_state(&self, w: &mut Writer) {
        w.put_f64(self.decay.lambda());
        w.put_u64(self.capacity as u64);
        w.put_f64(self.total_weight);
        w.put_u64(self.steps);
        w.put_f64(self.latent.weight());
        w.put_items(self.latent.full_items().iter());
        match self.latent.partial_item() {
            Some(p) => {
                w.put_u8(1);
                w.put_item(p);
            }
            None => w.put_u8(0),
        }
    }

    /// Rebuild a sampler from a [`Self::save_state`] payload, validating
    /// every field (no panics on corrupt input).
    pub fn load_state(r: &mut Reader) -> Result<Self, CheckpointError> {
        let lambda = check_non_negative(r.get_f64()?, "R-TBS lambda")?;
        let capacity = r.get_u64()? as usize;
        if capacity == 0 {
            return Err(CheckpointError::Corrupt("R-TBS capacity"));
        }
        let total_weight = check_non_negative(r.get_f64()?, "R-TBS total weight")?;
        let steps = r.get_u64()?;
        let weight = check_non_negative(r.get_f64()?, "R-TBS sample weight")?;
        if weight > capacity as f64 + 1e-6 {
            return Err(CheckpointError::Corrupt("R-TBS sample weight > capacity"));
        }
        let full = r.get_items()?;
        let partial = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_item()?),
            _ => return Err(CheckpointError::Corrupt("R-TBS partial tag")),
        };
        let latent = LatentSample::try_from_raw_parts(full, partial, weight)
            .map_err(|_| CheckpointError::Corrupt("R-TBS latent sample"))?;
        Ok(Self {
            latent,
            total_weight,
            decay: DecayCache::new(lambda),
            capacity,
            steps,
        })
    }
}

impl<T: Clone> RTbs<T> {
    /// Realize the current sample `S_t` — the monomorphized fast path.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<T> {
        self.latent.realize(rng)
    }

    /// Realize `S_t` into a caller-owned buffer; allocation-free once the
    /// buffer capacity covers the sample footprint.
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<T>) {
        self.latent.realize_into(rng, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tbs_stats::rng::Xoshiro256PlusPlus;

    fn feed_constant(s: &mut RTbs<u64>, batches: u64, b: u64, rng: &mut Xoshiro256PlusPlus) {
        for t in 0..batches {
            s.observe((0..b).map(|i| t * b + i).collect(), rng);
        }
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut s = RTbs::new(0.05, 100);
        for t in 0..200u64 {
            // Erratic batch sizes, including empty and huge.
            let b = [0u64, 1, 250, 7, 90, 1000][t as usize % 6];
            s.observe((0..b).collect(), &mut rng);
            let sample = s.sample(&mut rng);
            assert!(sample.len() <= 100, "overflow at t={t}: {}", sample.len());
            assert!(s.sample_weight() <= 100.0 + 1e-9);
        }
    }

    #[test]
    fn saturated_with_fast_stream_holds_exactly_n() {
        // Fig 1(b): constant b=100, λ=0.1 → W* = 100/(1−e^{-0.1}) ≈ 1051 > n
        // for n = 1000, so after fill-up the sample is pinned at n.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let mut s = RTbs::new(0.1, 1000);
        feed_constant(&mut s, 100, 100, &mut rng);
        for t in 0..100u64 {
            s.observe((0..100).map(|i| t * 100 + i).collect(), &mut rng);
            assert!(s.is_saturated());
            assert_eq!(s.sample(&mut rng).len(), 1000);
        }
    }

    #[test]
    fn unsaturated_equilibrium_matches_paper_1479() {
        // §6.3: n=1600, b=100, λ=0.07 → reservoir never fills, stabilizing
        // at b/(1−e^{-λ}) ≈ 1479 items.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let mut s = RTbs::new(0.07, 1600);
        feed_constant(&mut s, 400, 100, &mut rng);
        assert!(!s.is_saturated());
        let c = s.sample_weight();
        assert!(
            (c - 1479.0).abs() < 2.0,
            "equilibrium sample weight {c}, expected ≈1479"
        );
    }

    #[test]
    fn total_weight_recursion_is_exact() {
        // W_t = e^{-λ} W_{t-1} + |B_t| regardless of saturation state.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let lambda = 0.3;
        let mut s = RTbs::new(lambda, 50);
        let mut w = 0.0f64;
        for t in 0..100u64 {
            let b = [30u64, 0, 120, 5][t as usize % 4];
            w = w * (-lambda).exp() + b as f64;
            s.observe((0..b).collect(), &mut rng);
            assert!(
                (s.total_weight() - w).abs() < 1e-6 * w.max(1.0),
                "t={t}: tracked {} vs exact {w}",
                s.total_weight()
            );
        }
    }

    #[test]
    fn inclusion_probability_matches_theorem_4_2() {
        // Monte-Carlo check of Pr[i ∈ S_t] = (C_t/W_t)·w_t(i) on a stream
        // that exercises unsaturated → saturated → unsaturated transitions.
        let lambda = 0.4f64;
        let n = 6usize;
        let schedule: &[u64] = &[4, 4, 0, 8, 0, 0, 3];
        let trials = 120_000usize;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);

        // Count appearances keyed by (batch index, item) — all items of one
        // batch are exchangeable, so aggregate per batch.
        let mut appear: Vec<u64> = vec![0; schedule.len()];
        let mut w_final = 0.0;
        let mut c_final = 0.0;
        for _ in 0..trials {
            let mut s: RTbs<(usize, u64)> = RTbs::new(lambda, n);
            for (bi, &b) in schedule.iter().enumerate() {
                s.observe((0..b).map(|i| (bi, i)).collect(), &mut rng);
            }
            w_final = s.total_weight();
            c_final = s.sample_weight();
            for (bi, _) in s.sample(&mut rng) {
                appear[bi] += 1;
            }
        }
        let t_final = schedule.len() as f64 - 1.0;
        for (bi, &b) in schedule.iter().enumerate() {
            if b == 0 {
                continue;
            }
            // w_t(i) for an item of batch bi (arrival time bi, 0-indexed).
            let age = t_final - bi as f64;
            let w_item = (-lambda * age).exp();
            let expect = (c_final / w_final) * w_item;
            let phat = appear[bi] as f64 / (trials as f64 * b as f64);
            let tol = 4.5 * (expect * (1.0 - expect) / (trials as f64 * b as f64)).sqrt() + 0.003;
            assert!(
                (phat - expect).abs() < tol,
                "batch {bi}: phat {phat} vs expect {expect}"
            );
        }
    }

    #[test]
    fn relative_inclusion_property_eq_1() {
        // Items two batches apart must appear with probability ratio e^{-2λ}.
        let lambda = 0.35f64;
        let trials = 100_000usize;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(6);
        let mut old_hits = 0u64;
        let mut new_hits = 0u64;
        for _ in 0..trials {
            let mut s: RTbs<u8> = RTbs::new(lambda, 4);
            s.observe(vec![1, 1], &mut rng); // t=1 items tagged 1
            s.observe(vec![2, 2], &mut rng); // t=2
            s.observe(vec![3, 3], &mut rng); // t=3
            for item in s.sample(&mut rng) {
                match item {
                    1 => old_hits += 1,
                    3 => new_hits += 1,
                    _ => {}
                }
            }
        }
        let ratio = old_hits as f64 / new_hits as f64;
        let expect = (-2.0 * lambda).exp();
        assert!(
            (ratio - expect).abs() < 0.02,
            "ratio {ratio} vs e^(-2λ) {expect}"
        );
    }

    #[test]
    fn empty_stream_decays_weight_to_zero() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        let mut s = RTbs::with_initial(1.0, 10, (0..10u64).collect());
        for _ in 0..50 {
            s.observe(vec![], &mut rng);
        }
        assert!(s.total_weight() < 1e-6);
        assert!(s.sample(&mut rng).len() <= 1);
    }

    #[test]
    fn zero_decay_behaves_like_uniform_reservoir_size() {
        // λ = 0: weight equals item count; sample size = min(n, count).
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(8);
        let mut s = RTbs::new(0.0, 25);
        feed_constant(&mut s, 10, 10, &mut rng);
        assert_eq!(s.total_weight(), 100.0);
        assert_eq!(s.sample(&mut rng).len(), 25);
    }

    #[test]
    fn real_valued_gaps_decay_correctly() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
        let lambda = 0.5;
        let mut s = RTbs::new(lambda, 100);
        s.observe_after(vec![0u8; 10], 1.0, &mut rng);
        s.observe_after(vec![], 2.5, &mut rng);
        let expect = 10.0 * (-lambda * 2.5f64).exp();
        assert!((s.total_weight() - expect).abs() < 1e-9);
    }

    #[test]
    fn single_giant_batch_saturates_immediately() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(10);
        let mut s = RTbs::new(0.1, 10);
        s.observe((0..1000u64).collect(), &mut rng);
        assert!(s.is_saturated());
        assert_eq!(s.sample(&mut rng).len(), 10);
        assert_eq!(s.total_weight(), 1000.0);
    }

    #[test]
    fn saturation_boundary_exact_n() {
        // Arrivals summing exactly to n: saturated with full integral sample.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
        let mut s = RTbs::new(0.0, 20);
        s.observe((0..20u64).collect(), &mut rng);
        assert!(s.is_saturated());
        assert_eq!(s.sample(&mut rng).len(), 20);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        RTbs::<u8>::new(0.1, 0);
    }

    #[test]
    fn metadata() {
        let s = RTbs::<u8>::new(0.07, 11);
        assert_eq!(s.max_size(), Some(11));
        assert_eq!(s.decay_rate(), 0.07);
    }
}
