//! Uniform sampling-without-replacement primitives.
//!
//! These implement the paper's `Sample(A, m)` subroutine: "a uniform random
//! sample, without replacement, containing `min(m, |A|)` elements of the set
//! `A`". All samplers treat their stored collections as *sets* — element
//! order inside the vectors carries no statistical meaning — so O(1)
//! `swap_remove` is used freely.
//!
//! The subset-selection hot paths ([`retain_random`] and R-TBS's saturated
//! exchange) run on [`sweep_to_tail`], a partial Fisher–Yates shuffle from
//! the back of a slice. It takes **two bounded indices from each 64-bit
//! RNG word** — one per 32-bit half, each reduced with its own exactly
//! uniform Lemire rejection — so a sweep of `count` slots costs
//! `⌈count/2⌉` generator steps plus the rare redraw. The halves of a
//! word are independent uniform 32-bit values, so every index is drawn
//! exactly as a lone `next_u32` would draw it and the subsets keep their
//! exact law; only the RNG stream position moves.

use rand::Rng;

/// Validate an inter-arrival gap; shared by every sampler's
/// `observe_after`.
pub(crate) fn check_gap(gap: f64) {
    assert!(
        gap.is_finite() && gap >= 0.0,
        "inter-arrival gap must be finite and non-negative, got {gap}"
    );
}

/// Exactly uniform index in `[0, n)` via 32-bit Lemire reduction
/// (widening multiply + rejection of the biased tail).
///
/// The hot subset-selection loops draw one bounded index per item; going
/// through `gen_range` costs a 64→128-bit widening multiply per draw.
/// Sample-vector lengths comfortably fit in `u32`, where the multiply is
/// 32→64-bit — measurably cheaper on the ingest path — so this helper
/// takes the narrow route when possible and falls back to `gen_range`
/// for astronomically large `n`. Rejection keeps it *exactly* uniform
/// (verified by the chi² tests on every consumer).
#[inline]
pub(crate) fn uniform_index<R: Rng + ?Sized>(rng: &mut R, n: usize) -> usize {
    debug_assert!(n > 0, "empty index range");
    if n <= u32::MAX as usize {
        let x = rng.next_u32();
        lemire_reduce(rng, x, n as u32)
    } else {
        rng.gen_range(0..n)
    }
}

/// Reduce the uniform 32-bit word `x` to an exactly uniform index in
/// `[0, n)`: the high half of `x·n` is the index unless the low half
/// falls in the biased tail (`< 2³² mod n`), in which case fresh words
/// are drawn with `next_u32` until one lands outside it.
#[inline]
fn lemire_reduce<R: Rng + ?Sized>(rng: &mut R, mut x: u32, n: u32) -> usize {
    loop {
        let m = x as u64 * n as u64;
        let low = m as u32;
        // `low ≥ n` implies `low ≥ 2³² mod n`, so the modulo is only
        // computed on the rare low draws.
        if low >= n || low >= n.wrapping_neg() % n {
            return (m >> 32) as usize;
        }
        x = rng.next_u32();
    }
}

/// Move a uniform random `count`-subset of `items` into its last `count`
/// slots, in uniformly random order; the prefix keeps the complement.
///
/// A partial Fisher–Yates shuffle from the back: the slot at `top − 1`
/// receives an item drawn uniformly from `items[..top]`, then `top`
/// shrinks by one. Each draw is one swap. Consecutive draws are paired
/// onto one `next_u64`, the low half bounding `[0, top)` and the high
/// half `[0, top − 1)`, each through its own Lemire rejection, so the
/// indices are independent and exactly uniform — the same law as
/// `count` separate bounded `next_u32` draws at half the generator steps.
/// An odd final draw takes one `next_u32`; slices longer than `u32::MAX`
/// fall back to single draws.
///
/// # Panics
///
/// Panics if `count > items.len()`.
pub fn sweep_to_tail<T, R: Rng + ?Sized>(items: &mut [T], count: usize, rng: &mut R) {
    let len = items.len();
    assert!(count <= len, "cannot sweep {count} of {len} items");
    let stop = len - count;
    let mut top = len;
    if len <= u32::MAX as usize {
        while top - stop >= 2 {
            let x = rng.next_u64();
            let i = lemire_reduce(rng, x as u32, top as u32);
            let j = lemire_reduce(rng, (x >> 32) as u32, (top - 1) as u32);
            items.swap(i, top - 1);
            items.swap(j, top - 2);
            top -= 2;
        }
    }
    while top > stop {
        items.swap(uniform_index(rng, top), top - 1);
        top -= 1;
    }
}

/// Remove and return `min(m, items.len())` uniformly chosen elements.
///
/// The removed elements are a uniform without-replacement sample; the
/// elements left behind are likewise a uniform sample of the complement.
pub fn draw_without_replacement<T, R: Rng + ?Sized>(
    items: &mut Vec<T>,
    m: usize,
    rng: &mut R,
) -> Vec<T> {
    let m = m.min(items.len());
    let mut out = Vec::with_capacity(m);
    for _ in 0..m {
        let idx = uniform_index(rng, items.len());
        out.push(items.swap_remove(idx));
    }
    out
}

/// Keep a uniform random subset of `min(m, items.len())` elements in place,
/// discarding the rest. This is the paper's `S ← Sample(S, m)` retention.
///
/// [`sweep_to_tail`] runs over whichever side is smaller, so a call draws
/// `min(m, len − m)` indices from about half as many 64-bit RNG words
/// (plus the rare 32-bit rejection redraw). When the kept subset is the
/// majority, the *discarded* complement is swept into the tail and
/// truncated, so nothing is moved; when it is the minority, it is swept
/// into the tail and the prefix drained, moving only the `m` kept items.
/// A uniform subset's complement is itself uniform, so both sides keep a
/// uniform `m`-subset. Every decay step keeps nearly everything (R-TBS's
/// downsample keeps `k ≈ e^{−λ}·len` of `len` items), so the sweep costs
/// ~`λ·len` draws and a truncate instead of ~`len` draws.
pub fn retain_random<T, R: Rng + ?Sized>(items: &mut Vec<T>, m: usize, rng: &mut R) {
    let len = items.len();
    let m = m.min(len);
    if 2 * m < len {
        sweep_to_tail(items, m, rng);
        items.drain(..len - m);
    } else {
        sweep_to_tail(items, len - m, rng);
        items.truncate(m);
    }
}

/// Return a uniform random sample of `min(m, items.len())` *cloned* elements,
/// leaving `items` untouched.
pub fn sample_clone<T: Clone, R: Rng + ?Sized>(items: &[T], m: usize, rng: &mut R) -> Vec<T> {
    let m = m.min(items.len());
    let idx = sample_indices(items.len(), m, rng);
    idx.into_iter().map(|i| items[i].clone()).collect()
}

/// Floyd's algorithm: `m` distinct uniform indices from `0..n`.
///
/// O(m) expected time and memory regardless of `n` (hash-set
/// deduplication), which matters when subsampling large incoming batches
/// (Algorithm 1 line 9); dense draws (`m·4 ≥ n`) switch to a partial
/// Fisher–Yates sweep. Allocates fresh storage every call; hot paths
/// that run every batch should hold a scratch buffer and call
/// [`sample_indices_into`] instead.
pub fn sample_indices<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Vec<usize> {
    assert!(m <= n, "cannot draw {m} distinct indices from 0..{n}");
    if m * 4 >= n {
        let mut out = Vec::with_capacity(n);
        sample_indices_into(n, m, rng, &mut out);
        return out;
    }
    let mut chosen = std::collections::HashSet::with_capacity(m);
    let mut out = Vec::with_capacity(m);
    for j in (n - m)..n {
        let t = uniform_index(rng, j + 1);
        if chosen.insert(t) {
            out.push(t);
        } else {
            chosen.insert(j);
            out.push(j);
        }
    }
    out
}

/// Largest draw count routed to the sorted-prefix Floyd path of
/// [`sample_indices_into`]; above this the ordered inserts' O(m²/2)
/// element moves outgrow the dense path's O(n) fill.
const SORTED_FLOYD_MAX: usize = 1024;

/// [`sample_indices`] into a caller-owned scratch buffer: `out` is cleared
/// and refilled with `m` distinct uniform indices from `0..n`, in
/// unspecified order. Once the buffer's capacity has reached its
/// high-water mark this performs **zero heap allocations**, which is what
/// the steady-state sampler hot paths need.
///
/// Strategy, justified by the `subset_sampling/indices_into_scratch`
/// micro-bench (`cargo bench -p tbs-bench --bench ablations`): for
/// *dense* draws (`m·4 ≥ n`) a partial Fisher–Yates over the scratch
/// buffer is cheapest — filling `0..n` costs O(n), but any duplicate
/// tracking pays more per draw at that density. For *sparse, small*
/// draws (`m ≤ 1024`) Floyd's algorithm runs O(m) RNG draws with the
/// sorted prefix of `out` itself serving as the duplicate set (binary
/// search + ordered insert, worst-case O(m²/2) element moves — bounded
/// by the cap), so no side table is ever allocated. Sparse draws with
/// large `m` fall back to the dense sweep: O(n) but allocation-free;
/// if you need `m ≫ 1024` indices out of an astronomically larger `n`,
/// use the allocating [`sample_indices`] instead, whose hash-based Floyd
/// path is O(m).
///
/// # Panics
///
/// Panics if `m > n`.
pub fn sample_indices_into<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R, out: &mut Vec<usize>) {
    assert!(m <= n, "cannot draw {m} distinct indices from 0..{n}");
    out.clear();
    if m * 4 >= n || m > SORTED_FLOYD_MAX {
        // Dense: partial Fisher–Yates sweep over the scratch buffer.
        out.extend(0..n);
        retain_random(out, m, rng);
    } else {
        // Sparse: Floyd's algorithm, deduplicating against the (kept
        // sorted) output prefix. All previously inserted values are < j,
        // so when the tentative draw `t` is taken, `j` itself is free.
        for j in (n - m)..n {
            let t = uniform_index(rng, j + 1);
            match out.binary_search(&t) {
                Err(pos) => out.insert(pos, t),
                Ok(_) => {
                    let pos = out.binary_search(&j).unwrap_err();
                    out.insert(pos, j);
                }
            }
        }
    }
}

/// Memoized exponential decay factors `e^{−λ·gap}`.
///
/// Streams overwhelmingly arrive with a constant inter-batch gap (the
/// paper's integer-time setting has `gap = 1` always), yet the naive hot
/// path pays a transcendental `exp` call per batch. This cache
/// precomputes the unit-gap factor at construction and remembers the last
/// non-unit gap, so steady-state `observe`/`observe_after` never call
/// `exp` at all; only a gap *change* does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecayCache {
    lambda: f64,
    unit: f64,
    last_gap: f64,
    last_factor: f64,
}

impl DecayCache {
    /// Build a cache for decay rate `lambda` (not validated here — the
    /// samplers validate λ in their constructors).
    pub fn new(lambda: f64) -> Self {
        let unit = (-lambda).exp();
        Self {
            lambda,
            unit,
            last_gap: 1.0,
            last_factor: unit,
        }
    }

    /// The decay rate λ this cache was built for.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The unit-gap factor `e^{−λ}`.
    #[inline]
    pub fn unit(&self) -> f64 {
        self.unit
    }

    /// `e^{−λ·gap}`, served from the cache when `gap` repeats.
    #[inline]
    pub fn factor(&mut self, gap: f64) -> f64 {
        if gap == 1.0 {
            self.unit
        } else if gap == self.last_gap {
            self.last_factor
        } else {
            let f = (-self.lambda * gap).exp();
            self.last_gap = gap;
            self.last_factor = f;
            f
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use tbs_stats::gof::chi2_rejects;
    use tbs_stats::rng::Xoshiro256PlusPlus;

    #[test]
    fn draw_returns_min_of_m_and_len() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut items: Vec<u32> = (0..10).collect();
        let drawn = draw_without_replacement(&mut items, 15, &mut rng);
        assert_eq!(drawn.len(), 10);
        assert!(items.is_empty());

        let mut items: Vec<u32> = (0..10).collect();
        let drawn = draw_without_replacement(&mut items, 3, &mut rng);
        assert_eq!(drawn.len(), 3);
        assert_eq!(items.len(), 7);
    }

    #[test]
    fn draw_partitions_the_set() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let mut items: Vec<u32> = (0..20).collect();
        let drawn = draw_without_replacement(&mut items, 8, &mut rng);
        let mut all: Vec<u32> = drawn.iter().chain(items.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn draw_zero_is_noop() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let mut items: Vec<u32> = (0..5).collect();
        let drawn = draw_without_replacement(&mut items, 0, &mut rng);
        assert!(drawn.is_empty());
        assert_eq!(items.len(), 5);
    }

    #[test]
    fn draw_from_empty_is_empty() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let mut items: Vec<u32> = Vec::new();
        assert!(draw_without_replacement(&mut items, 3, &mut rng).is_empty());
    }

    #[test]
    fn retain_keeps_subset() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let mut items: Vec<u32> = (0..100).collect();
        retain_random(&mut items, 30, &mut rng);
        assert_eq!(items.len(), 30);
        let set: std::collections::HashSet<_> = items.iter().collect();
        assert_eq!(set.len(), 30, "duplicates introduced");
        assert!(items.iter().all(|&x| x < 100));
    }

    #[test]
    fn retain_is_uniform() {
        // Each of 10 elements should be retained equally often.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(6);
        let trials = 60_000;
        let mut counts = [0u64; 10];
        for _ in 0..trials {
            let mut items: Vec<usize> = (0..10).collect();
            retain_random(&mut items, 4, &mut rng);
            for &i in &items {
                counts[i] += 1;
            }
        }
        let expected = vec![trials as f64 * 0.4; 10];
        assert!(!chi2_rejects(&counts, &expected));
    }

    #[test]
    fn retain_keeps_subset_on_both_sides() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(30);
        // m < len/2 sweeps the kept side, m > len/2 the discarded side;
        // plus the m = len/2 / m = 0 / m = len / m > len edges.
        for (len, m) in [
            (100usize, 30usize),
            (100, 70),
            (100, 50),
            (10, 0),
            (10, 10),
            (10, 99),
        ] {
            let mut items: Vec<u32> = (0..len as u32).collect();
            retain_random(&mut items, m, &mut rng);
            assert_eq!(items.len(), m.min(len));
            let set: std::collections::HashSet<_> = items.iter().collect();
            assert_eq!(set.len(), items.len(), "duplicates introduced");
            assert!(items.iter().all(|&x| x < len as u32));
        }
    }

    #[test]
    fn retain_keeps_every_pair_uniformly_on_both_sides() {
        // A uniform m-subset of len keeps each pair with probability
        // m(m−1)/(len(len−1)); pair counts catch a biased sweep that
        // singleton counts miss. m = 2, 3 sweep the kept side, m = 5, 6
        // the discarded side (len/2 = 3.5).
        let len = 8usize;
        let trials = 40_000u64;
        for (seed, m) in [(40u64, 2usize), (41, 3), (42, 5), (43, 6)] {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            let mut counts = vec![0u64; len * (len - 1) / 2];
            for _ in 0..trials {
                let mut items: Vec<usize> = (0..len).collect();
                retain_random(&mut items, m, &mut rng);
                let mut kept = [false; 8];
                for &i in &items {
                    kept[i] = true;
                }
                let mut cell = 0;
                for i in 0..len {
                    for j in i + 1..len {
                        counts[cell] += u64::from(kept[i] && kept[j]);
                        cell += 1;
                    }
                }
            }
            let p = (m * (m - 1)) as f64 / (len * (len - 1)) as f64;
            let expected = vec![trials as f64 * p; counts.len()];
            assert!(!chi2_rejects(&counts, &expected), "m = {m}: {counts:?}");
        }
    }

    /// Counts the 32-bit words drawn through it.
    struct CountingRng {
        inner: Xoshiro256PlusPlus,
        draws: u64,
    }

    impl RngCore for CountingRng {
        fn next_u32(&mut self) -> u32 {
            self.draws += 1;
            self.inner.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.draws += 1;
            self.inner.fill_bytes(dest)
        }
    }

    #[test]
    fn retain_draws_only_the_minority_side() {
        // Two indices per 64-bit word over the swept (minority) side, plus
        // whatever a Lemire reduction rejects: with len ≤ 1000 a 32-bit
        // draw is rejected with probability < 2.4e-7, so allow a couple
        // over the whole run.
        let mut rng = CountingRng {
            inner: Xoshiro256PlusPlus::seed_from_u64(44),
            draws: 0,
        };
        let mut words = 0u64;
        for (len, m) in [
            (100usize, 30usize),
            (100, 70),
            (100, 99),
            (1000, 930),
            (1000, 1000),
            (10, 99),
            (101, 50),
        ] {
            let before = rng.draws;
            let mut items: Vec<u32> = (0..len as u32).collect();
            retain_random(&mut items, m, &mut rng);
            let m = m.min(len);
            let bound = m.min(len - m).div_ceil(2) as u64;
            words += bound;
            assert!(
                rng.draws - before >= bound,
                "len {len}, m {m}: swept fewer positions than the minority side"
            );
        }
        assert!(
            rng.draws <= words + 2,
            "{} words drawn where the minority sides need {words}",
            rng.draws
        );
    }

    #[test]
    fn sweep_to_tail_leaves_uniform_ordered_tails() {
        // Every ordered `count`-tuple of distinct items must land in the
        // tail equally often: this checks the subset law and the paired
        // draws' independence at once. count = 2 uses one shared word,
        // count = 3 adds the odd single draw.
        let len = 6usize;
        let trials = 60_000u64;
        for (seed, count) in [(60u64, 2usize), (61, 3)] {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            let cells = len.pow(count as u32);
            let mut counts = vec![0u64; cells];
            for _ in 0..trials {
                let mut items: Vec<usize> = (0..len).collect();
                sweep_to_tail(&mut items, count, &mut rng);
                let mut sorted = items.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..len).collect::<Vec<_>>(), "not a permutation");
                let cell = items[len - count..].iter().fold(0, |acc, &x| acc * len + x);
                counts[cell] += 1;
            }
            // Keep only the tuples of distinct items; the rest must be 0.
            let mut observed = Vec::new();
            for (cell, &c) in counts.iter().enumerate() {
                let mut digits: Vec<usize> =
                    (0..count).map(|k| cell / len.pow(k as u32) % len).collect();
                digits.sort_unstable();
                digits.dedup();
                if digits.len() == count {
                    observed.push(c);
                } else {
                    assert_eq!(c, 0, "a tail repeated an item");
                }
            }
            let expected = vec![trials as f64 / observed.len() as f64; observed.len()];
            assert!(
                !chi2_rejects(&observed, &expected),
                "count = {count}: {observed:?}"
            );
        }
    }

    #[test]
    fn sweep_to_tail_edges() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(62);
        let mut empty: Vec<u8> = Vec::new();
        sweep_to_tail(&mut empty, 0, &mut rng);
        let mut items: Vec<u32> = (0..9).collect();
        sweep_to_tail(&mut items, 0, &mut rng);
        assert_eq!(
            items,
            (0..9).collect::<Vec<_>>(),
            "count 0 must not move items"
        );
        sweep_to_tail(&mut items, 9, &mut rng);
        items.sort_unstable();
        assert_eq!(items, (0..9).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot sweep")]
    fn sweep_to_tail_rejects_overdraw() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(63);
        sweep_to_tail(&mut [1u8, 2], 3, &mut rng);
    }

    #[test]
    fn draw_is_uniform() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        let trials = 60_000;
        let mut counts = [0u64; 8];
        for _ in 0..trials {
            let mut items: Vec<usize> = (0..8).collect();
            for i in draw_without_replacement(&mut items, 3, &mut rng) {
                counts[i] += 1;
            }
        }
        let expected = vec![trials as f64 * 3.0 / 8.0; 8];
        assert!(!chi2_rejects(&counts, &expected));
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(8);
        for (n, m) in [(100usize, 5usize), (100, 50), (100, 100), (10, 0), (1, 1)] {
            let idx = sample_indices(n, m, &mut rng);
            assert_eq!(idx.len(), m);
            let set: std::collections::HashSet<_> = idx.iter().collect();
            assert_eq!(set.len(), m, "duplicate indices for n={n}, m={m}");
            assert!(idx.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn sample_indices_sparse_path_uniform() {
        // m*4 < n forces the Floyd path.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
        let trials = 40_000;
        let mut counts = vec![0u64; 40];
        for _ in 0..trials {
            for i in sample_indices(40, 2, &mut rng) {
                counts[i] += 1;
            }
        }
        let expected = vec![trials as f64 * 2.0 / 40.0; 40];
        assert!(!chi2_rejects(&counts, &expected));
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn sample_indices_rejects_overdraw() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(10);
        sample_indices(3, 4, &mut rng);
    }

    #[test]
    fn sample_indices_full_draw_is_permutation_prefix() {
        // m == n edge: both paths must return every index exactly once.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(12);
        for n in [1usize, 2, 7, 64] {
            let mut idx = sample_indices(n, n, &mut rng);
            idx.sort_unstable();
            assert_eq!(idx, (0..n).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn sample_indices_zero_draw_is_empty() {
        // m == 0 edge, including the degenerate n == 0 case.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(13);
        assert!(sample_indices(0, 0, &mut rng).is_empty());
        assert!(sample_indices(50, 0, &mut rng).is_empty());
        let mut scratch = vec![9usize; 4];
        sample_indices_into(10, 0, &mut rng, &mut scratch);
        assert!(scratch.is_empty());
    }

    #[test]
    fn sample_indices_into_reuses_buffer_without_allocating() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(14);
        let mut scratch: Vec<usize> = Vec::with_capacity(100);
        for round in 0..50 {
            // Alternate sparse and dense draws through the same buffer.
            let (n, m) = if round % 2 == 0 { (100, 5) } else { (100, 80) };
            sample_indices_into(n, m, &mut rng, &mut scratch);
            assert_eq!(scratch.len(), m);
            let set: std::collections::HashSet<_> = scratch.iter().collect();
            assert_eq!(set.len(), m, "duplicates in round {round}");
            assert!(scratch.capacity() <= 128, "buffer grew past high-water");
        }
    }

    #[test]
    fn sample_indices_into_sparse_path_uniform() {
        // The Floyd-with-sorted-prefix dedup must stay uniform.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(15);
        let trials = 40_000;
        let mut counts = vec![0u64; 40];
        let mut scratch = Vec::new();
        for _ in 0..trials {
            sample_indices_into(40, 3, &mut rng, &mut scratch);
            for &i in &scratch {
                counts[i] += 1;
            }
        }
        let expected = vec![trials as f64 * 3.0 / 40.0; 40];
        assert!(!chi2_rejects(&counts, &expected));
    }

    #[test]
    fn decay_cache_matches_exp() {
        let mut c = DecayCache::new(0.35);
        assert_eq!(c.lambda(), 0.35);
        assert!((c.unit() - (-0.35f64).exp()).abs() < 1e-15);
        assert_eq!(c.factor(1.0), c.unit());
        for gap in [0.5f64, 2.25, 0.5, 0.5, 7.0, 1.0] {
            let expect = (-0.35 * gap).exp();
            assert!(
                (c.factor(gap) - expect).abs() < 1e-15,
                "gap {gap}: cache diverged from exp"
            );
        }
    }

    #[test]
    fn decay_cache_zero_lambda_is_identity() {
        let mut c = DecayCache::new(0.0);
        assert_eq!(c.factor(1.0), 1.0);
        assert_eq!(c.factor(123.0), 1.0);
    }

    #[test]
    fn sample_clone_leaves_source_intact() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
        let items: Vec<u32> = (0..10).collect();
        let s = sample_clone(&items, 4, &mut rng);
        assert_eq!(s.len(), 4);
        assert_eq!(items.len(), 10);
    }
}
