//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * stochastic rounding vs independent coin flips (Theorem 4.4's foil);
//! * Floyd vs Fisher–Yates subset sampling (the `Sample(A, m)` primitive);
//! * B-Chao's overweight bookkeeping vs R-TBS's latent sample under slow,
//!   decaying streams (where Chao's `V` set is busiest).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use std::hint::black_box;
use tbs_core::util::{retain_random, sample_indices, sample_indices_into};
use tbs_core::{BChao, RTbs};
use tbs_stats::rng::Xoshiro256PlusPlus;
use tbs_stats::rounding::{bernoulli_total, stochastic_round};

fn bench_rounding_vs_binomial(c: &mut Criterion) {
    let mut group = c.benchmark_group("accept_count");
    group.sample_size(30);
    group.bench_function("stochastic_round", |b| {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        b.iter(|| stochastic_round(&mut rng, black_box(1352.4)));
    });
    group.bench_function("independent_coin_flips", |b| {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        b.iter(|| bernoulli_total(&mut rng, black_box(10_000), black_box(0.13524)));
    });
    group.finish();
}

fn bench_subset_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("subset_sampling");
    group.sample_size(20);
    for &(n, m) in &[(100_000usize, 100usize), (100_000, 50_000)] {
        group.bench_with_input(
            BenchmarkId::new("floyd_indices", format!("{n}/{m}")),
            &(n, m),
            |b, &(n, m)| {
                let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
                b.iter(|| black_box(sample_indices(n, m, &mut rng).len()));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("fisher_yates_retain", format!("{n}/{m}")),
            &(n, m),
            |b, &(n, m)| {
                let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
                b.iter_batched(
                    || (0..n as u64).collect::<Vec<_>>(),
                    |mut items| {
                        retain_random(&mut items, m, &mut rng);
                        black_box(items.len())
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    // The allocation-free scratch-buffer variant, covering both sides of
    // its documented routing rules (`m·4 ≥ n` or `m > 1024` ⇒ dense): this
    // is the micro-bench justifying the thresholds in the
    // `sample_indices_into` docs.
    for &(n, m) in &[
        (100_000usize, 100usize), // sparse + small: sorted-prefix Floyd
        (100_000, 1_000),         // sparse, at the sorted-Floyd cap
        (100_000, 25_000),        // dense crossover: Fisher–Yates sweep
        (100_000, 50_000),        // deep dense: Fisher–Yates sweep
    ] {
        group.bench_with_input(
            BenchmarkId::new("indices_into_scratch", format!("{n}/{m}")),
            &(n, m),
            |b, &(n, m)| {
                let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
                let mut scratch = Vec::new();
                b.iter(|| {
                    sample_indices_into(n, m, &mut rng, &mut scratch);
                    black_box(scratch.len())
                });
            },
        );
    }
    group.finish();
}

fn bench_chao_vs_rtbs_slow_stream(c: &mut Criterion) {
    // High decay + sparse arrivals: Chao tracks overweight items every
    // step; R-TBS just downsamples its latent state.
    let mut group = c.benchmark_group("slow_stream_step");
    group.sample_size(20);
    group.bench_function("B-Chao", |b| {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let mut s: BChao<u64> = BChao::new(1.0, 1_000);
        s.observe((0..2_000u64).collect(), &mut rng);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            s.observe(black_box(vec![t; 10]), &mut rng);
        });
    });
    group.bench_function("R-TBS", |b| {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(6);
        let mut s: RTbs<u64> = RTbs::new(1.0, 1_000);
        s.observe((0..2_000u64).collect(), &mut rng);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            s.observe(black_box(vec![t; 10]), &mut rng);
        });
    });
    group.finish();
}

criterion_group! {
    name = ablation_benches;
    // Short measurement windows keep the full-workspace bench run
    // in the minutes range; increase locally for tighter CIs.
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_rounding_vs_binomial,
    bench_subset_sampling,
    bench_chao_vs_rtbs_slow_stream
}

criterion_main!(ablation_benches);
