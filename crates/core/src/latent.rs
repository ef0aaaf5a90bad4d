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

use crate::util::{sweep_to_tail, uniform_index};
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

    /// Replace `m` uniformly chosen full items with a uniform `m`-subset
    /// of `donors`; the weight is unchanged. This is the R-TBS
    /// saturated→saturated hot path (Alg. 2 lines 16–17), where `donors`
    /// is the arriving batch and `m` its stochastically rounded accepted
    /// count.
    ///
    /// [`sweep_to_tail`] moves a uniform `m`-subset of victims to the
    /// tail of the full items, which are truncated and dropped, then
    /// sweeps whichever donor side is smaller — the accepted subset or
    /// its rejected complement — so the accepted donors are one
    /// contiguous run, appended with a single `extend(drain(..))`. Each
    /// draw costs one swap, two draws share one 64-bit RNG word, and
    /// nothing is allocated: the full items' buffer keeps its capacity.
    /// The victim subset and the donor subset are independent and each
    /// exactly uniform, which is the joint law of Alg. 2 (a uniform
    /// subset's complement is uniform, so sweeping either donor side
    /// selects the same law). Afterwards `donors` holds exactly the
    /// rejected donors.
    ///
    /// # Panics
    ///
    /// Panics if `m` exceeds `donors.len()` or the number of full items.
    pub fn replace_random_full_from<R: Rng + ?Sized>(
        &mut self,
        donors: &mut Vec<T>,
        m: usize,
        rng: &mut R,
    ) {
        let (d, len) = (donors.len(), self.full.len());
        assert!(
            m <= d && m <= len,
            "cannot move {m} of {d} donors into a sample of {len}"
        );
        sweep_to_tail(&mut self.full, m, rng);
        self.full.truncate(len - m);
        if 2 * m <= d {
            sweep_to_tail(donors, m, rng);
            self.full.extend(donors.drain(d - m..));
        } else {
            sweep_to_tail(donors, d - m, rng);
            self.full.extend(donors.drain(..m));
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
    fn replace_random_full_from_drops_victims_and_keeps_rejected_donors() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(22);
        let mut l = LatentSample::from_full((0..10u32).collect::<Vec<_>>());
        let mut donors: Vec<u32> = (100..108).collect();
        l.replace_random_full_from(&mut donors, 4, &mut rng);
        assert_eq!(l.full_items().len(), 10);
        assert_eq!(l.weight(), 10.0);
        let accepted: Vec<u32> = l
            .full_items()
            .iter()
            .copied()
            .filter(|&x| x >= 100)
            .collect();
        assert_eq!(accepted.len(), 4, "exactly m donors must enter the sample");
        // The evicted originals are dropped: the batch keeps only the 4
        // rejected donors, which together with the accepted ones are the
        // 8 donors exactly once.
        assert_eq!(donors.len(), 4);
        assert!(
            donors.iter().all(|&x| x >= 100),
            "victims left in the batch"
        );
        let mut all: Vec<u32> = accepted.iter().chain(donors.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (100..108).collect::<Vec<_>>());
        // The 6 survivors are distinct originals.
        let mut survivors: Vec<u32> = l
            .full_items()
            .iter()
            .copied()
            .filter(|&x| x < 100)
            .collect();
        survivors.sort_unstable();
        survivors.dedup();
        assert_eq!(survivors.len(), 6);
        l.check_invariants().unwrap();
    }

    #[test]
    fn replace_random_full_from_never_changes_length() {
        // |A| and C stay fixed for every m, including the m = 0 and
        // m = |A| edges and both donor sides (d = 12, so m ≤ 6 sweeps the
        // accepted donors and m > 6 the rejected ones).
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(20);
        for m in [0usize, 1, 5, 6, 7, 10] {
            let mut l = LatentSample::from_full((0..10u32).collect::<Vec<_>>());
            let cap = l.full_items().len();
            let mut donors: Vec<u32> = (100..112).collect();
            l.replace_random_full_from(&mut donors, m, &mut rng);
            assert_eq!(l.full_items().len(), 10, "length changed for m={m}");
            assert_eq!(l.weight(), 10.0);
            assert_eq!(l.full.capacity(), cap, "buffer reallocated for m={m}");
            let news = l.full_items().iter().filter(|&&x| x >= 100).count();
            assert_eq!(news, m, "wrong replacement count for m={m}");
            assert_eq!(donors.len(), 12 - m);
            l.check_invariants().unwrap();
        }
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
    fn replace_random_full_from_pairs_are_co_evicted_and_co_inserted_uniformly() {
        // The joint law of Alg. 2 lines 16–17: a uniform m-subset of the
        // n originals is evicted and a uniform m-subset of the d donors
        // inserted, so every pair of originals is co-evicted with
        // probability m(m−1)/(n(n−1)) and every pair of donors co-inserted
        // with probability m(m−1)/(d(d−1)). Pair counts catch an exchange
        // whose singletons are uniform but whose subsets are not (a
        // contiguous window of victims or donors, say). d = 7 puts m = 2, 3
        // on the accepted-minority side and m = 4, 5 on the other.
        let (n, d) = (8usize, 7usize);
        let trials = 40_000u64;
        for (seed, m) in [(50u64, 2usize), (51, 3), (52, 4), (53, 5)] {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            let mut co_evicted = vec![0u64; n * (n - 1) / 2];
            let mut co_inserted = vec![0u64; d * (d - 1) / 2];
            for _ in 0..trials {
                let mut l = LatentSample::from_full((0..n as u32).collect::<Vec<_>>());
                let mut donors: Vec<u32> = (100..100 + d as u32).collect();
                l.replace_random_full_from(&mut donors, m, &mut rng);
                let mut present = [false; 8];
                let mut inserted = [false; 7];
                for &x in l.full_items() {
                    if x >= 100 {
                        inserted[(x - 100) as usize] = true;
                    } else {
                        present[x as usize] = true;
                    }
                }
                let mut cell = 0;
                for i in 0..n {
                    for j in i + 1..n {
                        co_evicted[cell] += u64::from(!present[i] && !present[j]);
                        cell += 1;
                    }
                }
                let mut cell = 0;
                for i in 0..d {
                    for j in i + 1..d {
                        co_inserted[cell] += u64::from(inserted[i] && inserted[j]);
                        cell += 1;
                    }
                }
            }
            let pairs = (m * (m - 1)) as f64;
            let expect_evict = vec![trials as f64 * pairs / (n * (n - 1)) as f64; co_evicted.len()];
            let expect_insert =
                vec![trials as f64 * pairs / (d * (d - 1)) as f64; co_inserted.len()];
            assert!(
                !tbs_stats::gof::chi2_rejects(&co_evicted, &expect_evict),
                "m = {m}: victim pairs not uniform: {co_evicted:?}"
            );
            assert!(
                !tbs_stats::gof::chi2_rejects(&co_inserted, &expect_insert),
                "m = {m}: donor pairs not uniform: {co_inserted:?}"
            );
        }
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
