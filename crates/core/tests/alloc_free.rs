//! Proof that steady-state `observe` performs **zero heap allocations**
//! beyond the caller-provided batch, and that the checkpoint item codec
//! allocates per blob, never per item.
//!
//! A counting global allocator tallies every `alloc`/`realloc`/
//! `alloc_zeroed` made on a thread that has switched counting on. Each
//! sampler is warmed past its steady state (so every
//! internal `Vec` reaches its high-water capacity), the measured batches
//! are pre-generated, and then the allocation counter must not move while
//! the batches are fed. Deallocation of the consumed batch vectors is
//! intentionally not counted — handing over the batch is the caller's
//! cost by contract.
//!
//! Only the test's own thread counts: the libtest harness's main thread
//! allocates at moments of its own choosing, and a process-wide tally
//! would charge those allocations to whichever sampler was being fed.
//! Everything still runs inside a single `#[test]`, so one thread holds
//! the whole measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::SeedableRng;
use tbs_core::checkpoint::{Reader, Writer};
use tbs_core::{BChao, BTbs, BatchedReservoir, CountWindow, RTbs, TTbs};
use tbs_stats::rng::Xoshiro256PlusPlus;

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set by the measuring test on its own thread; other threads'
    /// allocations are not counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Tally one allocation if the current thread has counting on.
fn count() {
    // `try_with` because the allocator also runs while thread-locals are
    // being torn down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System`; the counter is a relaxed
// atomic and the flag a const-initialized thread-local, neither of which
// allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Batch sizes at step `t` for the schedule used in one scenario.
fn gen(schedule: impl Fn(usize) -> usize, from: usize, count: usize) -> Vec<Vec<u64>> {
    (from..from + count)
        .map(|t| {
            (0..schedule(t) as u64)
                .map(|i| t as u64 * 10_000 + i)
                .collect()
        })
        .collect()
}

/// Warm `feed` with `warmup` batches, then assert that feeding `measured`
/// further pre-generated batches allocates nothing.
fn assert_steady_state_alloc_free(
    label: &str,
    schedule: impl Fn(usize) -> usize + Copy,
    warmup: usize,
    measured: usize,
    mut feed: impl FnMut(Vec<u64>, &mut Xoshiro256PlusPlus),
) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xA110C);
    for batch in gen(schedule, 0, warmup) {
        feed(batch, &mut rng);
    }
    let batches = gen(schedule, warmup, measured);
    let before = ALLOCS.load(Ordering::SeqCst);
    for batch in batches {
        feed(batch, &mut rng);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "{label}: {} heap allocations in {measured} steady-state observe calls",
        after - before
    );
}

#[test]
fn steady_state_observe_allocates_nothing() {
    COUNTING.with(|c| c.set(true));
    // ——— R-TBS across all three stream regimes. ———
    // Saturated: n = 1000, λ = 0.1, b = 100 ⇒ W* ≈ 1051 > n; every step is
    // the saturated→saturated in-place batch replacement.
    let mut rtbs_sat: RTbs<u64> = RTbs::new(0.1, 1000);
    assert_steady_state_alloc_free(
        "R-TBS saturated",
        |_| 100,
        500,
        500,
        |b, rng| rtbs_sat.observe(b, rng),
    );

    // Unsaturated: n = 1600, λ = 0.07 ⇒ C* ≈ 1479 < n; every step is
    // decay + in-place downsample + push into the retained buffer.
    let mut rtbs_unsat: RTbs<u64> = RTbs::new(0.07, 1600);
    assert_steady_state_alloc_free(
        "R-TBS unsaturated",
        |_| 100,
        500,
        500,
        |b, rng| rtbs_unsat.observe(b, rng),
    );

    // Bursty: erratic sizes exercise all four transitions. The warmup
    // covers a full cycle so every transition's buffers hit high water.
    let bursty = |t: usize| [0usize, 1, 250, 7, 90, 1000][t % 6];
    let mut rtbs_bursty: RTbs<u64> = RTbs::new(0.1, 1000);
    assert_steady_state_alloc_free("R-TBS bursty", bursty, 600, 600, |b, rng| {
        rtbs_bursty.observe(b, rng)
    });

    // Real-valued gaps through the memoized decay cache.
    let mut rtbs_gap: RTbs<u64> = RTbs::new(0.1, 1000);
    assert_steady_state_alloc_free(
        "R-TBS observe_after",
        |_| 100,
        500,
        500,
        |b, rng| rtbs_gap.observe_after(b, 0.5, rng),
    );

    // ——— The other bounded/targeted samplers. ———
    let mut ttbs: TTbs<u64> = TTbs::new(0.1, 1000, 100.0);
    assert_steady_state_alloc_free("T-TBS", |_| 100, 2000, 300, |b, rng| ttbs.observe(b, rng));

    let mut btbs: BTbs<u64> = BTbs::new(0.1);
    assert_steady_state_alloc_free("B-TBS", |_| 100, 2000, 300, |b, rng| btbs.observe(b, rng));

    let mut unif: BatchedReservoir<u64> = BatchedReservoir::new(1000);
    assert_steady_state_alloc_free("Unif", |_| 100, 500, 500, |b, rng| unif.observe(b, rng));

    // B-Chao in the well-fed regime (no overweight bookkeeping).
    let mut chao: BChao<u64> = BChao::new(0.05, 500);
    assert_steady_state_alloc_free("B-Chao", |_| 200, 300, 300, |b, rng| chao.observe(b, rng));

    let mut sw: CountWindow<u64> = CountWindow::new(1000);
    assert_steady_state_alloc_free("SW", |_| 100, 200, 500, |b, rng| sw.observe(b, rng));

    // ——— sample_into with a warm caller buffer. ———
    // Same thread as the checks above, so it is counted the same way.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xB0FFE2);
    let mut s: RTbs<u64> = RTbs::new(0.1, 1000);
    for batch in gen(|_| 100, 0, 500) {
        s.observe(batch, &mut rng);
    }
    // Capacity n + 1 covers the worst-case latent footprint ⌊C⌋ + 1.
    let mut out: Vec<u64> = Vec::with_capacity(1001);
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..200 {
        s.sample_into(&mut rng, &mut out);
        assert!(out.len() <= 1000);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "sample_into allocated despite warm buffer"
    );

    // ——— The checkpoint item codec. ———
    // Items are encoded into the writer's buffer and decoded from slices
    // borrowed from the blob, so a round trip allocates per blob (buffer
    // growth, the frozen blob, the decoded Vec) and never per item.
    const CODEC_ALLOC_BOUND: u64 = 64;
    let points: Vec<[f64; 2]> = (0..10_000).map(|i| [i as f64, -0.5 * i as f64]).collect();
    let before = ALLOCS.load(Ordering::SeqCst);
    let mut w = Writer::new();
    w.put_items(points.iter());
    let mut r = Reader::new(w.finish()).unwrap();
    let back = r.get_items::<[f64; 2]>().unwrap();
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(back, points);
    assert!(
        after - before < CODEC_ALLOC_BOUND,
        "put_items + get_items of 10 000 items made {} heap allocations",
        after - before
    );

    // R-TBS save_state + load_state at n = 10 000 (saturated, so the
    // latent sample holds ~10 000 full items).
    let mut s: RTbs<u64> = RTbs::new(0.1, 10_000);
    for batch in gen(|_| 2_000, 0, 100) {
        s.observe(batch, &mut rng);
    }
    assert!(s.sample(&mut rng).len() > 9_000);
    let before = ALLOCS.load(Ordering::SeqCst);
    let mut w = Writer::new();
    s.save_state(&mut w);
    let mut r = Reader::new(w.finish()).unwrap();
    let restored = RTbs::<u64>::load_state(&mut r).unwrap();
    let after = ALLOCS.load(Ordering::SeqCst);
    assert!(r.is_exhausted());
    assert_eq!(restored.sample_weight(), s.sample_weight());
    assert!(
        after - before < CODEC_ALLOC_BOUND,
        "R-TBS save_state + load_state at n = 10 000 made {} heap allocations",
        after - before
    );
}
