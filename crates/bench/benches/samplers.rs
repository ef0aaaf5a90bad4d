//! Per-batch maintenance cost of every sampling scheme (single node).
//!
//! Backs the paper's claim that R-TBS stays lightweight relative to
//! B-Chao's overweight-item bookkeeping, and quantifies the price of exact
//! decay control over plain reservoir sampling. Every scheme runs on its
//! inherent, RNG-monomorphized `observe`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::SeedableRng;
use std::hint::black_box;
use tbs_core::{BChao, BTbs, BatchedReservoir, CountWindow, RTbs, TTbs};
use tbs_stats::rng::Xoshiro256PlusPlus;

const LAMBDA: f64 = 0.07;
const CAPACITY: usize = 10_000;

fn bench_scheme<S>(
    c: &mut Criterion,
    name: &str,
    make: impl Fn() -> S,
    observe: impl Fn(&mut S, Vec<u64>, &mut Xoshiro256PlusPlus),
) {
    let mut group = c.benchmark_group("sampler_observe");
    group.sample_size(20);
    for &batch_size in &[100usize, 1_000, 10_000] {
        group.throughput(Throughput::Elements(batch_size as u64));
        group.bench_with_input(
            BenchmarkId::new(name, batch_size),
            &batch_size,
            |b, &size| {
                let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
                let mut sampler = make();
                // Warm to steady state.
                for t in 0..30u64 {
                    observe(
                        &mut sampler,
                        (0..size as u64).map(|i| t * 100_000 + i).collect(),
                        &mut rng,
                    );
                }
                let mut t = 30u64;
                b.iter(|| {
                    let batch: Vec<u64> = (0..size as u64).map(|i| t * 100_000 + i).collect();
                    t += 1;
                    observe(&mut sampler, black_box(batch), &mut rng);
                });
            },
        );
    }
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_scheme(c, "R-TBS", || RTbs::new(LAMBDA, CAPACITY), RTbs::observe);
    bench_scheme(
        c,
        "T-TBS",
        || TTbs::new(LAMBDA, CAPACITY, 10_000.0),
        TTbs::observe,
    );
    bench_scheme(c, "B-TBS", || BTbs::new(LAMBDA), BTbs::observe);
    bench_scheme(
        c,
        "B-RS(Unif)",
        || BatchedReservoir::new(CAPACITY),
        BatchedReservoir::observe,
    );
    bench_scheme(c, "B-Chao", || BChao::new(LAMBDA, CAPACITY), BChao::observe);
    bench_scheme(c, "SW", || CountWindow::new(CAPACITY), CountWindow::observe);
}

criterion_group! {
    name = sampler_benches;
    // Short measurement windows keep the full-workspace bench run
    // in the minutes range; increase locally for tighter CIs.
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = benches
}

criterion_main!(sampler_benches);
