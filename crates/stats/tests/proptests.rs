//! Property-based tests for the probability substrate: support bounds,
//! conservation laws, and monotonicity that must hold for *every*
//! parameter combination, not just the unit-test points.

use proptest::prelude::*;
use rand::SeedableRng;
use tbs_stats::binomial::{binomial, CachedBinomial};
use tbs_stats::hypergeometric::hypergeometric;
use tbs_stats::multivariate::multivariate_hypergeometric;
use tbs_stats::rng::Xoshiro256PlusPlus;
use tbs_stats::rounding::stochastic_round;
use tbs_stats::special::{ln_choose, ln_factorial};
use tbs_stats::summary::{expected_shortfall, quantile, OnlineMoments};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn binomial_stays_on_support(
        n in 0u64..10_000,
        p in 0.0f64..=1.0,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let x = binomial(&mut rng, n, p);
        prop_assert!(x <= n);
        if p == 0.0 {
            prop_assert_eq!(x, 0);
        }
        if p == 1.0 {
            prop_assert_eq!(x, n);
        }
    }

    #[test]
    fn hypergeometric_stays_on_support(
        a in 0u64..2_000,
        b in 0u64..2_000,
        k_frac in 0.0f64..=1.0,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let k = ((a + b) as f64 * k_frac) as u64;
        let x = hypergeometric(&mut rng, k, a, b);
        prop_assert!(x <= a.min(k));
        prop_assert!(x >= k.saturating_sub(b));
    }

    #[test]
    fn multivariate_counts_conserve_and_respect_sizes(
        sizes in prop::collection::vec(0u64..500, 1..12),
        k_frac in 0.0f64..=1.0,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let total: u64 = sizes.iter().sum();
        let k = (total as f64 * k_frac) as u64;
        let counts = multivariate_hypergeometric(&mut rng, &sizes, k);
        prop_assert_eq!(counts.len(), sizes.len());
        prop_assert_eq!(counts.iter().sum::<u64>(), k);
        for (c, s) in counts.iter().zip(&sizes) {
            prop_assert!(c <= s);
        }
    }

    #[test]
    fn stochastic_round_is_floor_or_ceil(
        x in 0.0f64..1e9,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let r = stochastic_round(&mut rng, x);
        prop_assert!(r == x.floor() as u64 || r == x.ceil() as u64);
    }

    #[test]
    fn ln_choose_is_symmetric_and_monotone_to_middle(
        n in 1u64..300,
        k in 0u64..300,
    ) {
        prop_assume!(k <= n);
        // Symmetry C(n,k) = C(n,n−k).
        prop_assert!((ln_choose(n, k) - ln_choose(n, n - k)).abs() < 1e-9);
        // Monotone toward the middle.
        if k < n / 2 {
            prop_assert!(ln_choose(n, k) <= ln_choose(n, k + 1) + 1e-12);
        }
    }

    #[test]
    fn ln_factorial_is_superadditive(a in 0u64..500, b in 0u64..500) {
        // ln((a+b)!) >= ln(a!) + ln(b!) since C(a+b, a) >= 1.
        prop_assert!(ln_factorial(a + b) + 1e-9 >= ln_factorial(a) + ln_factorial(b));
    }

    #[test]
    fn expected_shortfall_bounds_the_mean(
        values in prop::collection::vec(0.0f64..1e6, 1..100),
        z_pct in 1u32..=100,
    ) {
        let z = z_pct as f64 / 100.0;
        let es = expected_shortfall(&values, z);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        // ES of the worst z% is between the mean and the max.
        prop_assert!(es >= mean - 1e-9);
        prop_assert!(es <= max + 1e-9);
    }

    #[test]
    fn expected_shortfall_decreases_in_level(
        values in prop::collection::vec(0.0f64..1e6, 2..100),
    ) {
        // Wider tail → smaller (or equal) shortfall.
        let es10 = expected_shortfall(&values, 0.10);
        let es50 = expected_shortfall(&values, 0.50);
        let es100 = expected_shortfall(&values, 1.0);
        prop_assert!(es10 + 1e-9 >= es50);
        prop_assert!(es50 + 1e-9 >= es100);
    }

    #[test]
    fn quantile_is_monotone(
        values in prop::collection::vec(-1e6f64..1e6, 1..100),
        q1 in 0.0f64..=1.0,
        q2 in 0.0f64..=1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile(&values, lo) <= quantile(&values, hi) + 1e-9);
    }

    #[test]
    fn welford_merge_is_order_independent(
        xs in prop::collection::vec(-1e3f64..1e3, 1..50),
        ys in prop::collection::vec(-1e3f64..1e3, 1..50),
    ) {
        let fill = |data: &[f64]| {
            let mut m = OnlineMoments::new();
            for &x in data {
                m.push(x);
            }
            m
        };
        let mut ab = fill(&xs);
        ab.merge(&fill(&ys));
        let mut ba = fill(&ys);
        ba.merge(&fill(&xs));
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-6);
    }

    #[test]
    fn binomial_tiny_batches_are_exact(
        p in 0.0f64..=1.0,
        seed in 0u64..1_000_000,
    ) {
        // The n ∈ {0, 1} edges ingest hits on empty and single-item
        // batches: n = 0 is always 0, n = 1 is a Bernoulli.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        prop_assert_eq!(binomial(&mut rng, 0, p), 0);
        let b = binomial(&mut rng, 1, p);
        prop_assert!(b <= 1);
        // Degenerate probabilities are deterministic for every n.
        prop_assert_eq!(binomial(&mut rng, 17, 0.0), 0);
        prop_assert_eq!(binomial(&mut rng, 17, 1.0), 17);
    }

    #[test]
    fn cached_binomial_matches_one_shot_for_any_parameter_walk(
        params in prop::collection::vec(0u64..u64::MAX, 1..20),
        seed in 0u64..1_000_000,
    ) {
        // The memoizing sampler must be draw-for-draw identical to the
        // one-shot sampler under arbitrary (n, p) switching patterns.
        // Each walk step unpacks one u64 into an (n, p) pair.
        let mut rng_a = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut rng_b = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut cache = CachedBinomial::new();
        for &word in &params {
            let n = word % 500;
            let p = (word >> 32) as f64 / u32::MAX as f64;
            prop_assert_eq!(binomial(&mut rng_a, n, p), cache.draw(&mut rng_b, n, p));
        }
    }

    #[test]
    fn jump_streams_never_collide_on_prefix(
        seed in 0u64..1_000_000,
        streams in 2usize..6,
    ) {
        use rand::RngCore;
        let base = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut split = base.split_streams(streams);
        let prefixes: Vec<Vec<u64>> = split
            .iter_mut()
            .map(|s| (0..8).map(|_| s.next_u64()).collect())
            .collect();
        for i in 0..prefixes.len() {
            for j in i + 1..prefixes.len() {
                prop_assert_ne!(&prefixes[i], &prefixes[j]);
            }
        }
    }
}

// Empirical distributional properties: each case averages thousands of
// draws, so the case count is kept low and the tolerances at ~5 standard
// errors (false-alarm odds per case below 1e-6).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn binomial_mean_and_variance_obey_clt_bounds(
        n in 20u64..2_000,
        p_mil in 50u32..=950,
        seed in 0u64..1_000_000,
    ) {
        let p = p_mil as f64 / 1000.0;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        const TRIALS: usize = 2_000;
        let mut m = OnlineMoments::new();
        for _ in 0..TRIALS {
            m.push(binomial(&mut rng, n, p) as f64);
        }
        let mean = n as f64 * p;
        let var = mean * (1.0 - p);
        // Sample mean: 5 standard errors around np.
        prop_assert!(
            (m.mean() - mean).abs() < 5.0 * (var / TRIALS as f64).sqrt(),
            "mean {} vs np {}", m.mean(), mean
        );
        // Sample variance: kurtosis-based standard error for a binomial,
        // Var[s²] ≈ (μ4 − σ⁴)/T with μ4/σ⁴ ≤ 3 + 1/σ² here.
        let excess = (1.0 - 6.0 * p * (1.0 - p)) / var;
        let se_var = (var * var * (2.0 + excess.max(0.0)) / TRIALS as f64).sqrt();
        prop_assert!(
            (m.variance() - var).abs() < 5.0 * se_var,
            "variance {} vs npq {}", m.variance(), var
        );
    }
}
