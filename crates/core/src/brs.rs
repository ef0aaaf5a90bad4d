//! B-RS — batched reservoir sampling (Algorithm 5, Appendix B).
//!
//! The classic bounded-size *uniform* scheme, extended to batch arrivals:
//! at each step the number of new-batch items entering the sample is drawn
//! from the appropriate hypergeometric distribution, which makes the batched
//! algorithm distributionally identical to running the sequential reservoir
//! algorithm item by item. Every item seen so far is equally likely to be in
//! the sample (decay rate λ = 0) — this is the `Unif` baseline of §6.

use crate::checkpoint::{CheckpointError, Reader, Wire, Writer};
use crate::util::retain_random;
use rand::Rng;
use tbs_stats::hypergeometric::hypergeometric;

/// Uniform bounded reservoir over a batch stream.
///
/// The inherent `observe` method is generic over the RNG: the
/// monomorphized, allocation-free fast path.
#[derive(Debug, Clone)]
pub struct BatchedReservoir<T> {
    items: Vec<T>,
    /// Number of items seen so far (the paper's `W`, which for λ = 0 is the
    /// total weight).
    seen: u64,
    capacity: usize,
    steps: u64,
}

impl<T> BatchedReservoir<T> {
    /// Create an empty reservoir holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Self {
            items: Vec::with_capacity(capacity),
            seen: 0,
            capacity,
            steps: 0,
        }
    }

    /// Create a reservoir pre-loaded with an initial sample `S₀`
    /// (`|S₀| ≤ capacity` required).
    pub fn with_initial(capacity: usize, initial: Vec<T>) -> Self {
        assert!(initial.len() <= capacity, "initial sample exceeds capacity");
        let mut r = Self::new(capacity);
        r.seen = initial.len() as u64;
        r.items = initial;
        r
    }

    /// Exact current sample size.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the reservoir holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total number of items observed.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Borrow the current sample.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Advance the clock by one time unit and absorb the arriving batch —
    /// the monomorphized fast path.
    #[inline]
    pub fn observe<R: Rng + ?Sized>(&mut self, mut batch: Vec<T>, rng: &mut R) {
        let b = batch.len() as u64;
        // New sample size C = min(n, W + |B_t|).
        let c = (self.capacity as u64).min(self.seen + b);
        // M = number of batch items in a uniform C-subset of the W + |B_t|
        // items seen so far: HyperGeo(C, |B_t|, W).
        let m = hypergeometric(rng, c, b, self.seen) as usize;
        // Keep min(n − M, |S|) old items, insert M new ones. Both subset
        // selections run in place on their own vectors — nothing is
        // allocated beyond the caller-provided batch.
        let keep = (self.capacity - m).min(self.items.len());
        retain_random(&mut self.items, keep, rng);
        retain_random(&mut batch, m, rng);
        self.items.append(&mut batch);
        self.seen += b;
        self.steps += 1;
    }

    /// Expected size of `S_t` (the current exact size).
    pub fn expected_size(&self) -> f64 {
        self.items.len() as f64
    }

    /// Hard upper bound on the sample size: `Some(n)`.
    pub fn max_size(&self) -> Option<usize> {
        Some(self.capacity)
    }

    /// Uniform scheme: decay rate 0.
    pub fn decay_rate(&self) -> f64 {
        0.0
    }

    /// Number of batches observed so far.
    pub fn batches_observed(&self) -> u64 {
        self.steps
    }
}

impl<T: Clone> BatchedReservoir<T> {
    /// Copy out the current sample (deterministic; `rng` is unused and
    /// accepted only for signature uniformity with the latent schemes).
    pub fn sample<R: Rng + ?Sized>(&self, _rng: &mut R) -> Vec<T> {
        self.items.clone()
    }
}

impl<T: Wire> BatchedReservoir<T> {
    /// Serialize the complete sampler state into `w`; see
    /// [`crate::RTbs::save_state`] for the contract.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_u64(self.capacity as u64);
        w.put_u64(self.seen);
        w.put_u64(self.steps);
        w.put_items(self.items.iter());
    }

    /// Rebuild a reservoir from a [`Self::save_state`] payload, validating
    /// every field (no panics on corrupt input).
    pub fn load_state(r: &mut Reader) -> Result<Self, CheckpointError> {
        let capacity = r.get_u64()? as usize;
        if capacity == 0 {
            return Err(CheckpointError::Corrupt("reservoir capacity"));
        }
        let seen = r.get_u64()?;
        let steps = r.get_u64()?;
        let items: Vec<T> = r.get_items()?;
        if items.len() > capacity || items.len() as u64 > seen {
            return Err(CheckpointError::Corrupt("reservoir item count"));
        }
        Ok(Self {
            items,
            seen,
            capacity,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tbs_stats::gof::chi2_rejects;
    use tbs_stats::rng::Xoshiro256PlusPlus;

    #[test]
    fn fills_up_then_stays_at_capacity() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut r = BatchedReservoir::new(50);
        r.observe((0..20u32).collect(), &mut rng);
        assert_eq!(r.len(), 20);
        r.observe((20..40u32).collect(), &mut rng);
        assert_eq!(r.len(), 40);
        r.observe((40..80u32).collect(), &mut rng);
        assert_eq!(r.len(), 50);
        for t in 0..20u32 {
            r.observe((100 * t..100 * t + 60).collect(), &mut rng);
            assert_eq!(r.len(), 50);
        }
    }

    #[test]
    fn all_items_equally_likely() {
        // After many batches, each of the N items seen should appear in the
        // sample with probability n/N — uniformity across *batches*.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let trials = 4_000;
        let batches = 10usize;
        let per_batch = 20usize;
        let cap = 30usize;
        let mut batch_counts = vec![0u64; batches];
        for _ in 0..trials {
            let mut r = BatchedReservoir::new(cap);
            for t in 0..batches {
                let items: Vec<usize> = (0..per_batch).map(|i| t * per_batch + i).collect();
                r.observe(items, &mut rng);
            }
            for &it in r.items() {
                batch_counts[it / per_batch] += 1;
            }
        }
        // Expected count per batch = trials * cap / batches.
        let expected = vec![(trials * cap / batches) as f64; batches];
        assert!(
            !chi2_rejects(&batch_counts, &expected),
            "reservoir not uniform across batches: {batch_counts:?}"
        );
    }

    #[test]
    fn empty_batches_change_nothing() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let mut r = BatchedReservoir::new(10);
        r.observe((0..10u32).collect(), &mut rng);
        let before: std::collections::HashSet<u32> = r.items().iter().copied().collect();
        for _ in 0..5 {
            r.observe(vec![], &mut rng);
        }
        let after: std::collections::HashSet<u32> = r.items().iter().copied().collect();
        assert_eq!(before, after);
    }

    #[test]
    fn giant_single_batch_is_uniform_subsample() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let mut r = BatchedReservoir::new(100);
        r.observe((0..10_000u32).collect(), &mut rng);
        assert_eq!(r.len(), 100);
        let distinct: std::collections::HashSet<u32> = r.items().iter().copied().collect();
        assert_eq!(distinct.len(), 100);
    }

    #[test]
    fn seen_counter_accumulates() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let mut r = BatchedReservoir::new(5);
        r.observe((0..7u32).collect(), &mut rng);
        r.observe((0..3u32).collect(), &mut rng);
        assert_eq!(r.seen(), 10);
        assert_eq!(r.batches_observed(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        BatchedReservoir::<u8>::new(0);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn rejects_oversized_initial() {
        BatchedReservoir::with_initial(2, vec![1, 2, 3]);
    }

    #[test]
    fn metadata() {
        let r = BatchedReservoir::<u8>::new(10);
        assert_eq!(r.decay_rate(), 0.0);
        assert_eq!(r.max_size(), Some(10));
    }
}
