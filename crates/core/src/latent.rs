//! Latent fractional samples (§4.1).
//!
//! R-TBS maintains a *latent sample* `L = (A, π, C)`: a set `A` of `⌊C⌋`
//! "full" items, an optional "partial" item `π`, and a real-valued sample
//! weight `C`. The actual sample `S` is *realized* from `L` by including
//! every full item and including the partial item with probability
//! `frac(C)`, so that `E[|S|] = C` exactly (equation (3)) and the footprint
//! never exceeds `⌊C⌋ + 1`.
//!
//! The structure's invariants (checked by [`LatentSample::check_invariants`]
//! and exercised by property tests):
//!
//! 1. `A.len() == ⌊C⌋`;
//! 2. the partial item is present iff `frac(C) > 0`;
//! 3. `C ≥ 0`.

use crate::util::uniform_index;
use rand::Rng;

/// A latent fractional sample `(A, π, C)`.
#[derive(Debug, Clone)]
pub struct LatentSample<T> {
    full: Vec<T>,
    partial: Option<T>,
    weight: f64,
}

impl<T> Default for LatentSample<T> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<T> LatentSample<T> {
    /// The empty latent sample (`C = 0`).
    pub fn empty() -> Self {
        Self {
            full: Vec::new(),
            partial: None,
            weight: 0.0,
        }
    }

    /// A latent sample consisting solely of full items (`C = |items|`).
    pub fn from_full(items: Vec<T>) -> Self {
        let weight = items.len() as f64;
        Self {
            full: items,
            partial: None,
            weight,
        }
    }

    /// Sample weight `C` — the expected size of a realized sample.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The full items `A`.
    pub fn full_items(&self) -> &[T] {
        &self.full
    }

    /// The partial item `π`, if any.
    pub fn partial_item(&self) -> Option<&T> {
        self.partial.as_ref()
    }

    /// Number of items physically stored (`⌊C⌋` or `⌊C⌋ + 1`).
    pub fn footprint(&self) -> usize {
        self.full.len() + usize::from(self.partial.is_some())
    }

    /// True when `C = 0` (no items at all).
    pub fn is_empty(&self) -> bool {
        self.full.is_empty() && self.partial.is_none()
    }

    /// Fractional part of the sample weight — the partial item's inclusion
    /// probability.
    pub fn frac(&self) -> f64 {
        self.weight - self.weight.floor()
    }

    /// Insert items that are accepted with probability 1 (they become full
    /// items and raise the weight by the item count). Used by R-TBS whenever
    /// the relation `C = W` licenses certain acceptance (Alg. 2 lines 9/20).
    pub fn push_full(&mut self, items: impl IntoIterator<Item = T>) {
        let before = self.full.len();
        self.full.extend(items);
        self.weight += (self.full.len() - before) as f64;
    }

    /// Replace `m` uniformly chosen full items with the given `m`
    /// replacements; the weight is unchanged (Alg. 2 line 17, the
    /// saturated→saturated transition).
    ///
    /// Victims are overwritten **in place** via a partial Fisher–Yates
    /// sweep — the item count never changes and no intermediate victim
    /// vector is allocated. At iteration `i` the slots `i..len` hold
    /// exactly the not-yet-replaced originals, so drawing `j` uniformly
    /// from that suffix and overwriting slot `i` (after a swap) evicts a
    /// uniform `m`-subset.
    ///
    /// # Panics
    ///
    /// Panics if `replacements.len()` exceeds the number of full items.
    pub fn replace_random_full<R: Rng + ?Sized>(&mut self, replacements: Vec<T>, rng: &mut R) {
        let m = replacements.len();
        assert!(
            m <= self.full.len(),
            "cannot replace {m} items in a sample of {}",
            self.full.len()
        );
        let len = self.full.len();
        for (i, rep) in replacements.into_iter().enumerate() {
            let j = i + uniform_index(rng, len - i);
            self.full.swap(i, j);
            self.full[i] = rep;
        }
    }

    /// [`Self::replace_random_full`] fed from a borrowed donor pool: moves
    /// a uniform `m`-subset of `donors` into the sample, replacing `m`
    /// uniformly chosen full items, which are swapped back into the
    /// vacated donor slots. The weight is unchanged and **nothing is
    /// allocated** — this is the R-TBS saturated→saturated hot path
    /// (Alg. 2 lines 16–17), where `donors` is the arriving batch.
    ///
    /// Both subsets are chosen by partial Fisher–Yates prefix sweeps
    /// (distributionally identical to drawing `m` distinct indices with
    /// Floyd's algorithm, but with no index buffer). Donor selection draws
    /// only `min(m, |donors| − m)` random numbers: when most of the batch
    /// is accepted — the common case right at saturation, where
    /// `m/|B| = n/W ≈ 1` — it is the uniform *complement* (the rejected
    /// items) that is swept into the prefix, and the accepted subset is
    /// the suffix.
    ///
    /// # Panics
    ///
    /// Panics if `m` exceeds `donors.len()` or the number of full items.
    pub fn replace_random_full_from<R: Rng + ?Sized>(
        &mut self,
        donors: &mut [T],
        m: usize,
        rng: &mut R,
    ) {
        assert!(
            m <= donors.len() && m <= self.full.len(),
            "cannot move {m} of {} donors into a sample of {}",
            donors.len(),
            self.full.len()
        );
        let d = donors.len();
        // Select the accepted donor subset by sweeping the *smaller* of the
        // subset and its complement into the prefix; a uniform subset's
        // complement is itself uniform, so both arrangements leave a
        // uniform m-subset at `start..start + m`.
        let start = if 2 * m <= d {
            for i in 0..m {
                let j = i + uniform_index(rng, d - i);
                donors.swap(i, j);
            }
            0
        } else {
            let excluded = d - m;
            for i in 0..excluded {
                let j = i + uniform_index(rng, d - i);
                donors.swap(i, j);
            }
            excluded
        };
        let full_len = self.full.len();
        for i in 0..m {
            // The next victim among the untouched full items.
            let k = i + uniform_index(rng, full_len - i);
            self.full.swap(i, k);
            std::mem::swap(&mut self.full[i], &mut donors[start + i]);
        }
    }

    /// `Swap1(A, π)`: move a uniformly chosen item from `A` to `π`, moving
    /// the current partial item (if any) back into `A`.
    ///
    /// # Panics
    ///
    /// Panics if `A` is empty.
    pub(crate) fn swap1<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        assert!(!self.full.is_empty(), "Swap1 requires a full item");
        let idx = uniform_index(rng, self.full.len());
        let chosen = self.full.swap_remove(idx);
        if let Some(old_partial) = self.partial.replace(chosen) {
            self.full.push(old_partial);
        }
    }

    /// `Move1(A, π)`: move a uniformly chosen item from `A` to `π`,
    /// discarding the current partial item (if any).
    ///
    /// # Panics
    ///
    /// Panics if `A` is empty.
    pub(crate) fn move1<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        assert!(!self.full.is_empty(), "Move1 requires a full item");
        let idx = uniform_index(rng, self.full.len());
        let chosen = self.full.swap_remove(idx);
        self.partial = Some(chosen);
    }

    pub(crate) fn set_weight(&mut self, weight: f64) {
        self.weight = weight;
    }

    /// Decompose into `(A, π, C)` — used by the shard-merge algebra in
    /// [`crate::merge`], which reassembles unions via
    /// [`Self::from_raw_parts`].
    pub(crate) fn into_parts(self) -> (Vec<T>, Option<T>, f64) {
        (self.full, self.partial, self.weight)
    }

    /// Rebuild a latent sample from raw parts. The caller must uphold the
    /// structural invariants (`|A| = ⌊C⌋`, partial present iff
    /// `frac(C) > 0`); they are re-checked in debug builds.
    pub(crate) fn from_raw_parts(full: Vec<T>, partial: Option<T>, weight: f64) -> Self {
        let l = Self {
            full,
            partial,
            weight,
        };
        debug_assert!(l.check_invariants().is_ok(), "invalid raw parts");
        l
    }

    /// [`Self::from_raw_parts`] for untrusted inputs (checkpoint restore):
    /// verifies the structural invariants and reports a violation instead
    /// of asserting.
    pub(crate) fn try_from_raw_parts(
        full: Vec<T>,
        partial: Option<T>,
        weight: f64,
    ) -> Result<Self, String> {
        let l = Self {
            full,
            partial,
            weight,
        };
        l.check_invariants()?;
        Ok(l)
    }

    pub(crate) fn full_mut(&mut self) -> &mut Vec<T> {
        &mut self.full
    }

    pub(crate) fn clear_partial(&mut self) {
        self.partial = None;
    }

    /// Reset to the empty latent sample (`C = 0`) **without** releasing the
    /// full-item buffer, so a sampler that momentarily decays to zero weight
    /// re-fills without reallocating.
    pub fn clear(&mut self) {
        self.full.clear();
        self.partial = None;
        self.weight = 0.0;
    }

    /// Verify the structural invariants; used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.weight < 0.0 || !self.weight.is_finite() {
            return Err(format!("invalid weight {}", self.weight));
        }
        let floor = self.weight.floor() as usize;
        if self.full.len() != floor {
            return Err(format!(
                "full item count {} != floor(weight) {}",
                self.full.len(),
                floor
            ));
        }
        let frac = self.frac();
        if (frac > 0.0) != self.partial.is_some() {
            return Err(format!(
                "partial item presence {} inconsistent with frac {}",
                self.partial.is_some(),
                frac
            ));
        }
        Ok(())
    }
}

impl<T: Clone> LatentSample<T> {
    /// Realize a sample `S` from the latent state per equation (2): all full
    /// items, plus the partial item with probability `frac(C)`.
    pub fn realize<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<T> {
        let mut out = Vec::with_capacity(self.footprint());
        self.realize_into(rng, &mut out);
        out
    }

    /// [`Self::realize`] into a caller-owned buffer: `out` is cleared and
    /// refilled. Once the buffer's capacity covers the footprint, repeated
    /// realizations allocate nothing — callers that materialize the sample
    /// every batch (model-retraining loops, the benchmark harness) should
    /// hold one buffer and reuse it.
    pub fn realize_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<T>) {
        out.clear();
        out.extend_from_slice(&self.full);
        if let Some(p) = &self.partial {
            if rng.gen::<f64>() < self.frac() {
                out.push(p.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tbs_stats::rng::Xoshiro256PlusPlus;

    #[test]
    fn empty_sample_invariants() {
        let l = LatentSample::<u32>::empty();
        assert!(l.is_empty());
        assert_eq!(l.weight(), 0.0);
        assert_eq!(l.footprint(), 0);
        l.check_invariants().unwrap();
    }

    #[test]
    fn from_full_has_integral_weight() {
        let l = LatentSample::from_full(vec![1, 2, 3]);
        assert_eq!(l.weight(), 3.0);
        assert_eq!(l.frac(), 0.0);
        assert_eq!(l.footprint(), 3);
        l.check_invariants().unwrap();
    }

    #[test]
    fn push_full_raises_weight_by_count() {
        let mut l = LatentSample::from_full(vec![1]);
        l.push_full(vec![2, 3]);
        assert_eq!(l.weight(), 3.0);
        assert_eq!(l.full_items().len(), 3);
        l.check_invariants().unwrap();
    }

    #[test]
    fn realize_with_integral_weight_is_exact() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let l = LatentSample::from_full(vec![1, 2, 3]);
        for _ in 0..20 {
            assert_eq!(l.realize(&mut rng).len(), 3);
        }
    }

    #[test]
    fn realize_size_distribution_matches_frac() {
        // A latent sample of weight 3.6 realizes to 4 items w.p. 0.6.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let mut l = LatentSample::from_full(vec![1, 2, 3, 4]);
        l.move1(&mut rng); // 3 full + 1 partial
        l.set_weight(3.6);
        l.check_invariants().unwrap();
        let trials = 100_000;
        let mut fours = 0u64;
        for _ in 0..trials {
            let s = l.realize(&mut rng);
            assert!(s.len() == 3 || s.len() == 4);
            if s.len() == 4 {
                fours += 1;
            }
        }
        let phat = fours as f64 / trials as f64;
        assert!((phat - 0.6).abs() < 0.01, "phat {phat}");
    }

    #[test]
    fn expected_realized_size_is_weight() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let mut l = LatentSample::from_full(vec![10, 20, 30]);
        l.move1(&mut rng);
        l.set_weight(2.25);
        let trials = 100_000;
        let total: usize = (0..trials).map(|_| l.realize(&mut rng).len()).sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 2.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn swap1_preserves_footprint_and_returns_old_partial() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let mut l = LatentSample::from_full(vec![1, 2, 3]);
        l.move1(&mut rng); // footprint 3: 2 full + 1 partial
        let before = l.footprint();
        l.swap1(&mut rng);
        assert_eq!(l.footprint(), before);
        assert_eq!(l.full_items().len(), 2);
        assert!(l.partial_item().is_some());
    }

    #[test]
    fn move1_discards_old_partial() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let mut l = LatentSample::from_full(vec![1, 2, 3]);
        l.move1(&mut rng);
        let first_partial = *l.partial_item().unwrap();
        l.move1(&mut rng);
        // Old partial is gone; footprint dropped by one.
        assert_eq!(l.footprint(), 2);
        assert!(!l.full_items().contains(&first_partial));
    }

    #[test]
    fn replace_random_full_keeps_weight() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(6);
        let mut l = LatentSample::from_full((0..10).collect::<Vec<u32>>());
        l.replace_random_full(vec![100, 101, 102], &mut rng);
        assert_eq!(l.weight(), 10.0);
        assert_eq!(l.full_items().len(), 10);
        let news = l.full_items().iter().filter(|&&x| x >= 100).count();
        assert_eq!(news, 3);
        l.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "cannot replace")]
    fn replace_rejects_overdraw() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        let mut l = LatentSample::from_full(vec![1]);
        l.replace_random_full(vec![2, 3], &mut rng);
    }

    #[test]
    fn replace_random_full_never_changes_length() {
        // The in-place overwrite must keep |A| and C fixed for every m,
        // including the m = 0 and m = |A| edges.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(20);
        for m in [0usize, 1, 5, 10] {
            let mut l = LatentSample::from_full((0..10u32).collect::<Vec<_>>());
            l.replace_random_full((100..100 + m as u32).collect(), &mut rng);
            assert_eq!(l.full_items().len(), 10, "length changed for m={m}");
            assert_eq!(l.weight(), 10.0);
            let news = l.full_items().iter().filter(|&&x| x >= 100).count();
            assert_eq!(news, m, "wrong replacement count for m={m}");
            l.check_invariants().unwrap();
        }
    }

    #[test]
    fn replace_random_full_victims_are_uniform() {
        // Chi² test: every original item must be evicted equally often.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(21);
        let trials = 60_000u64;
        let n = 10usize;
        let m = 3usize;
        let mut evicted = vec![0u64; n];
        for _ in 0..trials {
            let mut l = LatentSample::from_full((0..n as u32).collect::<Vec<_>>());
            l.replace_random_full(vec![999; m], &mut rng);
            let survivors: std::collections::HashSet<u32> =
                l.full_items().iter().copied().collect();
            for v in 0..n as u32 {
                if !survivors.contains(&v) {
                    evicted[v as usize] += 1;
                }
            }
        }
        let expected = vec![trials as f64 * m as f64 / n as f64; n];
        assert!(
            !tbs_stats::gof::chi2_rejects(&evicted, &expected),
            "victim choice not uniform: {evicted:?}"
        );
    }

    #[test]
    fn replace_random_full_from_swaps_victims_into_donors() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(22);
        let mut l = LatentSample::from_full((0..10u32).collect::<Vec<_>>());
        let mut donors: Vec<u32> = (100..108).collect();
        l.replace_random_full_from(&mut donors, 4, &mut rng);
        assert_eq!(l.full_items().len(), 10);
        assert_eq!(l.weight(), 10.0);
        assert_eq!(
            l.full_items().iter().filter(|&&x| x >= 100).count(),
            4,
            "exactly m donors must enter the sample"
        );
        // The pool still holds 8 items: 4 unused donors + 4 evicted originals.
        assert_eq!(donors.len(), 8);
        assert_eq!(donors.iter().filter(|&&x| x < 100).count(), 4);
        // Conservation: sample ∪ donors is a permutation of the inputs.
        let mut all: Vec<u32> = l
            .full_items()
            .iter()
            .chain(donors.iter())
            .copied()
            .collect();
        all.sort_unstable();
        let mut expect: Vec<u32> = (0..10).chain(100..108).collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
        l.check_invariants().unwrap();
    }

    #[test]
    fn replace_random_full_from_selects_uniform_donors_and_victims() {
        // Both marginals at once: donor inclusion and victim eviction must
        // each be uniform over their pools.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(23);
        let trials = 60_000u64;
        let (n, d, m) = (8usize, 6usize, 2usize);
        let mut evicted = vec![0u64; n];
        let mut inserted = vec![0u64; d];
        for _ in 0..trials {
            let mut l = LatentSample::from_full((0..n as u32).collect::<Vec<_>>());
            let mut donors: Vec<u32> = (100..100 + d as u32).collect();
            l.replace_random_full_from(&mut donors, m, &mut rng);
            let sample: std::collections::HashSet<u32> = l.full_items().iter().copied().collect();
            for v in 0..n as u32 {
                if !sample.contains(&v) {
                    evicted[v as usize] += 1;
                }
            }
            for v in 0..d as u32 {
                if sample.contains(&(100 + v)) {
                    inserted[v as usize] += 1;
                }
            }
        }
        let expect_evict = vec![trials as f64 * m as f64 / n as f64; n];
        let expect_insert = vec![trials as f64 * m as f64 / d as f64; d];
        assert!(
            !tbs_stats::gof::chi2_rejects(&evicted, &expect_evict),
            "victims not uniform: {evicted:?}"
        );
        assert!(
            !tbs_stats::gof::chi2_rejects(&inserted, &expect_insert),
            "donors not uniform: {inserted:?}"
        );
    }

    #[test]
    #[should_panic(expected = "cannot move")]
    fn replace_from_rejects_overdraw() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(24);
        let mut l = LatentSample::from_full(vec![1u8, 2]);
        let mut donors = vec![3u8];
        l.replace_random_full_from(&mut donors, 2, &mut rng);
    }

    #[test]
    fn realize_into_reuses_buffer() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(25);
        let mut l = LatentSample::from_full(vec![1, 2, 3, 4]);
        l.move1(&mut rng);
        l.set_weight(3.5);
        let mut out: Vec<i32> = Vec::with_capacity(8);
        for _ in 0..100 {
            l.realize_into(&mut rng, &mut out);
            assert!(out.len() == 3 || out.len() == 4);
            assert!(out.capacity() <= 8, "buffer grew unexpectedly");
        }
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut l = LatentSample::from_full((0..100u32).collect::<Vec<_>>());
        let cap_before = l.full_items().len();
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.weight(), 0.0);
        l.check_invariants().unwrap();
        // Refill: the retained buffer accepts items again.
        l.push_full(0..cap_before as u32);
        assert_eq!(l.weight(), cap_before as f64);
    }

    #[test]
    fn invariant_violations_are_reported() {
        let mut l = LatentSample::from_full(vec![1, 2]);
        l.set_weight(2.5); // frac > 0 but no partial item
        assert!(l.check_invariants().is_err());
        let mut l = LatentSample::from_full(vec![1, 2]);
        l.set_weight(3.0); // floor mismatch
        assert!(l.check_invariants().is_err());
    }
}
