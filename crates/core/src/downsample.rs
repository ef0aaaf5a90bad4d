//! The downsampling operator (§4.2, Algorithm 3).
//!
//! Given a latent sample `L = (A, π, C)` and a target weight `C′ < C`,
//! downsampling produces `L′ = (A′, π′, C′)` such that **every** item's
//! realized-inclusion probability is scaled by exactly the same factor
//! (Theorem 4.1):
//!
//! ```text
//! Pr[i ∈ S′] = (C′/C) · Pr[i ∈ S]      for all i ∈ L.
//! ```
//!
//! This uniform scaling is forced by the R-TBS invariant
//! `Pr[i ∈ S_t] = (C_t/W_t)·w_t(i)`: exponential decay multiplies all item
//! weights by the same factor, so inclusion probabilities must shrink by the
//! same factor too. The algorithm distinguishes three cases by how the
//! integer part of the weight changes, handling the partial item exactly.
//!
//! Beyond per-step decay, this operator is the leaf step of the shard
//! merge (`tbs_core::merge`): each shard's latent sample is downsampled
//! to its share `C·W^k/W` of the merged capacity, which is what lets the
//! `⌈n/K⌉+1` adaptive shard capacity absorb split skew **at merge time**
//! instead of reserving `⌈1/(1−e^{−λ})⌉` slots per shard up front.

use crate::latent::LatentSample;
use crate::util::retain_random;
use rand::Rng;

/// Downsample `latent` in place from its current weight `C` to `target = C′`.
///
/// Requires `0 < C′ ≤ C`; `C′ = C` is a permitted no-op (it arises for decay
/// rate λ = 0). All randomness is drawn from `rng`. The full-item
/// retention is [`retain_random`], which sweeps whichever of the kept and
/// deleted sets is smaller: in R-TBS's per-step decay the survivor count
/// `k ≈ e^{−λ}·len` is nearly everything, so a step costs ~`λ·len` draws.
///
/// # Panics
///
/// Panics if `target` is not in `(0, C]`.
pub fn downsample<T, R: Rng + ?Sized>(latent: &mut LatentSample<T>, target: f64, rng: &mut R) {
    let c = latent.weight();
    let c_prime = target;
    assert!(
        c_prime > 0.0 && c_prime <= c,
        "downsample target must lie in (0, C]; target={c_prime}, C={c}"
    );
    debug_assert!(latent.check_invariants().is_ok());

    let frac_c = c - c.floor();
    let frac_c_prime = c_prime - c_prime.floor();
    let floor_c = c.floor() as usize;
    let floor_c_prime = c_prime.floor() as usize;

    let u: f64 = rng.gen();

    if floor_c_prime == 0 {
        // No full items retained: at most the (new) partial item survives.
        // With probability 1 − frac(C)/C the partial item is replaced by a
        // uniformly chosen full item before everything else is dropped.
        let keep_partial_prob = if c > 0.0 { frac_c / c } else { 0.0 };
        if u > keep_partial_prob {
            latent.swap1(rng);
        }
        latent.full_mut().clear();
    } else if floor_c_prime == floor_c {
        // No full items deleted; only the partial item's status may change.
        // With probability 1 − ρ the partial item is promoted to full (via
        // swap), where ρ is chosen so Pr[i* ∈ S′] = (C′/C)·frac(C).
        let rho = (1.0 - (c_prime / c) * frac_c) / (1.0 - frac_c_prime);
        if u > rho {
            latent.swap1(rng);
        }
    } else {
        // 0 < ⌊C′⌋ < ⌊C⌋: some full items are deleted.
        if u <= (c_prime / c) * frac_c {
            // Retain the partial item by promoting it to full: keep ⌊C′⌋
            // random full items, then swap the partial in.
            retain_random(latent.full_mut(), floor_c_prime, rng);
            latent.swap1(rng);
        } else {
            // Eject the partial item: keep ⌊C′⌋ + 1 random full items and
            // demote one of them to partial (overwriting π).
            retain_random(latent.full_mut(), floor_c_prime + 1, rng);
            latent.move1(rng);
        }
    }

    latent.set_weight(c_prime);
    if frac_c_prime == 0.0 {
        latent.clear_partial();
    }
    debug_assert!(latent.check_invariants().is_ok());
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tbs_stats::rng::Xoshiro256PlusPlus;

    /// Build a latent sample with the given number of full items and an
    /// optional partial item, with weight = full + frac.
    fn make_latent(full: usize, frac: f64, rng: &mut Xoshiro256PlusPlus) -> LatentSample<usize> {
        // Items 0..full are full; item `full` is the partial one (if any).
        if frac > 0.0 {
            let mut l = LatentSample::from_full((0..=full).collect());
            l.move1(rng);
            // move1 picks a random item as partial; relabel so that item ids
            // stay meaningful: we only need *a* valid structure here.
            l.set_weight(full as f64 + frac);
            l.check_invariants().unwrap();
            l
        } else {
            LatentSample::from_full((0..full).collect())
        }
    }

    /// Estimate Pr[item ∈ realized sample] before and after downsampling and
    /// assert the Theorem 4.1 scaling for every item.
    fn check_scaling(full: usize, frac: f64, target: f64, seed: u64) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let trials = 60_000usize;
        let c = full as f64 + frac;
        let n_items = full + usize::from(frac > 0.0);
        let mut appear = vec![0u64; n_items];
        for _ in 0..trials {
            let mut l = make_latent(full, frac, &mut rng);
            downsample(&mut l, target, &mut rng);
            for item in l.realize(&mut rng) {
                appear[item] += 1;
            }
        }
        // Pre-downsampling inclusion probability: full items 1, partial frac.
        // Which item is partial is randomized by make_latent, so average:
        // every item has the same pre probability p_pre = C / n_items.
        let p_pre = c / n_items as f64;
        let expect = (target / c) * p_pre;
        for (i, &cnt) in appear.iter().enumerate() {
            let phat = cnt as f64 / trials as f64;
            let tol = 4.5 * (expect * (1.0 - expect) / trials as f64).sqrt() + 0.004;
            assert!(
                (phat - expect).abs() < tol,
                "item {i}: phat {phat} vs expect {expect} \
                 (full={full}, frac={frac}, target={target})"
            );
        }
    }

    #[test]
    fn scaling_case_integral_to_fractional() {
        // Fig. 4(a): C = 3 → C′ = 1.5.
        check_scaling(3, 0.0, 1.5, 1);
    }

    #[test]
    fn scaling_case_fractional_items_deleted() {
        // Fig. 4(b): C = 3.2 → C′ = 1.6.
        check_scaling(3, 0.2, 1.6, 2);
    }

    #[test]
    fn scaling_case_no_full_retained() {
        // Fig. 4(c): C = 2.4 → C′ = 0.4.
        check_scaling(2, 0.4, 0.4, 3);
    }

    #[test]
    fn scaling_case_no_items_deleted() {
        // Fig. 4(d): C = 2.4 → C′ = 2.1.
        check_scaling(2, 0.4, 2.1, 4);
    }

    #[test]
    fn scaling_case_fractional_to_integral() {
        // C = 4.7 → C′ = 3.0 (line 19 clears the partial slot).
        check_scaling(4, 0.7, 3.0, 5);
    }

    #[test]
    fn scaling_case_sub_unit_weights() {
        // C = 0.9 → C′ = 0.3: only the partial item exists.
        check_scaling(0, 0.9, 0.3, 6);
    }

    #[test]
    fn noop_when_target_equals_weight() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        let mut l = LatentSample::from_full(vec![1, 2, 3]);
        downsample(&mut l, 3.0, &mut rng);
        assert_eq!(l.weight(), 3.0);
        assert_eq!(l.full_items().len(), 3);
    }

    #[test]
    fn footprint_never_exceeds_floor_plus_one() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(8);
        for trial in 0..500 {
            let full = 1 + (trial % 7);
            let frac = [0.0, 0.25, 0.5, 0.9][trial % 4];
            let c = full as f64 + frac;
            let target = c * (0.05 + 0.9 * ((trial * 37 % 100) as f64 / 100.0));
            let mut l = make_latent(full, frac, &mut rng);
            downsample(&mut l, target.max(0.01), &mut rng);
            assert!(l.footprint() <= target.floor() as usize + 1);
            l.check_invariants().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "downsample target")]
    fn rejects_target_above_weight() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
        let mut l = LatentSample::from_full(vec![1, 2]);
        downsample(&mut l, 2.5, &mut rng);
    }

    #[test]
    #[should_panic(expected = "downsample target")]
    fn rejects_zero_target() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(10);
        let mut l = LatentSample::from_full(vec![1, 2]);
        downsample(&mut l, 0.0, &mut rng);
    }
}
