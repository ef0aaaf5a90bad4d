//! Regression tests proving the optimized, monomorphized R-TBS hot path
//! still satisfies the paper's distributional guarantees: seeded
//! Monte-Carlo runs re-verify Theorem 4.2 inclusion probabilities and the
//! §6.3 equilibrium-size prediction, using the same tolerance machinery as
//! the `rtbs` unit tests (4.5σ binomial bands plus a small absolute
//! floor).

use rand::SeedableRng;
use tbs_core::RTbs;
use tbs_stats::rng::Xoshiro256PlusPlus;

/// Items tagged with (batch index, item index) for inclusion accounting.
type Tagged = (usize, u64);

/// Drive a fresh sampler through `schedule` and realize the final sample.
fn run_schedule(
    lambda: f64,
    capacity: usize,
    schedule: &[u64],
    rng: &mut Xoshiro256PlusPlus,
) -> (RTbs<Tagged>, Vec<Tagged>) {
    let mut s: RTbs<Tagged> = RTbs::new(lambda, capacity);
    for (bi, &b) in schedule.iter().enumerate() {
        s.observe((0..b).map(|i| (bi, i)).collect(), rng);
    }
    let sample = s.sample(rng);
    (s, sample)
}

/// Monte-Carlo Theorem 4.2 check: for every batch,
/// `Pr[i ∈ S_t] = (C_t/W_t)·w_t(i)` within a 4.5σ band.
fn check_theorem_4_2(seed: u64) {
    let lambda = 0.4f64;
    let n = 6usize;
    let schedule: &[u64] = &[4, 4, 0, 8, 0, 0, 3];
    let trials = 60_000usize;
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);

    let mut appear: Vec<u64> = vec![0; schedule.len()];
    let mut w_final = 0.0;
    let mut c_final = 0.0;
    for _ in 0..trials {
        let (s, sample) = run_schedule(lambda, n, schedule, &mut rng);
        w_final = s.total_weight();
        c_final = s.sample_weight();
        for (bi, _) in sample {
            appear[bi] += 1;
        }
    }
    let t_final = schedule.len() as f64 - 1.0;
    for (bi, &b) in schedule.iter().enumerate() {
        if b == 0 {
            continue;
        }
        let age = t_final - bi as f64;
        let w_item = (-lambda * age).exp();
        let expect = (c_final / w_final) * w_item;
        let phat = appear[bi] as f64 / (trials as f64 * b as f64);
        let tol = 4.5 * (expect * (1.0 - expect) / (trials as f64 * b as f64)).sqrt() + 0.004;
        assert!(
            (phat - expect).abs() < tol,
            "batch {bi}: phat {phat} vs expect {expect}"
        );
    }
}

#[test]
fn theorem_4_2_holds_on_fast_path() {
    check_theorem_4_2(42);
}

/// §6.3 equilibrium: n = 1600, b = 100, λ = 0.07 ⇒ C* = b/(1−e^{−λ}) ≈ 1479.
fn check_equilibrium(seed: u64) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut s: RTbs<u64> = RTbs::new(0.07, 1600);
    for t in 0..400u64 {
        let batch: Vec<u64> = (0..100).map(|i| t * 100 + i).collect();
        s.observe(batch, &mut rng);
    }
    assert!(!s.is_saturated());
    let c = s.sample_weight();
    assert!(
        (c - 1479.0).abs() < 2.0,
        "equilibrium sample weight {c}, expected ≈1479"
    );
}

#[test]
fn equilibrium_size_holds_on_fast_path() {
    check_equilibrium(7);
}
