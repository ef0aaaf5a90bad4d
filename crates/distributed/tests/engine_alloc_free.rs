//! Proof that the parallel ingest engine's steady-state per-batch path
//! performs **zero heap allocations** beyond the caller-provided batch —
//! the multi-threaded extension of `tbs-core`'s `alloc_free` test.
//!
//! The same counting global allocator tallies every `alloc` / `realloc` /
//! `alloc_zeroed` across *all* threads, so a clean count proves the whole
//! pipeline allocation-free at once: the driver moving each batch whole
//! into a shared run from the slot pool, the bounded queues (VecDeques at
//! high-water), every shard copying its own range of the run into its
//! scratch buffer, and every shard's sampler (`observe_drain` on warm
//! buffers). The
//! engine is warmed up, measured batches are pre-generated, and the
//! counter must not move while they are fed.
//! Deallocation of the consumed caller batches is intentionally not
//! counted — handing over the batch is the caller's cost by contract.
//!
//! Everything runs inside a single `#[test]` because the counter is
//! process-global and the libtest harness runs tests concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tbs_core::merge::ShardSpec;
use tbs_core::{RTbs, TTbs};
use tbs_distributed::engine::{EngineConfig, ParallelIngestEngine};

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counter is a relaxed
// atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Pre-generate `count` batches of the schedule starting at step `from`.
fn gen(schedule: impl Fn(usize) -> usize, from: usize, count: usize) -> Vec<Vec<u64>> {
    (from..from + count)
        .map(|t| {
            (0..schedule(t) as u64)
                .map(|i| t as u64 * 10_000 + i)
                .collect()
        })
        .collect()
}

/// Warm `engine`-style feeding with `warmup` batches, quiesce, then assert
/// that feeding `measured` pre-generated batches (plus a final quiesce so
/// every shard has fully absorbed them) allocates nothing.
fn assert_engine_alloc_free<S>(
    label: &str,
    engine: &mut ParallelIngestEngine<S>,
    schedule: impl Fn(usize) -> usize + Copy,
    warmup: usize,
    measured: usize,
) where
    S: tbs_core::merge::MergeableSample<Item = u64> + Clone + Send + 'static,
{
    for batch in gen(schedule, 0, warmup) {
        engine.ingest(batch).unwrap();
    }
    engine.quiesce().unwrap();
    let batches = gen(schedule, warmup, measured);
    let before = ALLOCS.load(Ordering::SeqCst);
    for batch in batches {
        engine.ingest(batch).unwrap();
    }
    engine.quiesce().unwrap();
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "{label}: {} heap allocations across {measured} steady-state engine \
         ingest calls (driver + all shard threads)",
        after - before
    );
}

#[test]
fn steady_state_engine_ingest_allocates_nothing() {
    // R-TBS, 4 shards, saturated regime: every shard runs the in-place
    // saturated→saturated replacement (n = 1000, λ = 0.1, b = 100 ⇒
    // per-shard W* ≈ 263 > per-shard capacity ⌈1000/4⌉ + 1 = 251).
    let mut rtbs_sat: ParallelIngestEngine<RTbs<u64>> =
        ParallelIngestEngine::new(EngineConfig::new(ShardSpec::rtbs(0.1, 1000, 4), 1));
    assert_engine_alloc_free("R-TBS 4-shard saturated", &mut rtbs_sat, |_| 100, 600, 600);

    // R-TBS, 4 shards, bursty: erratic batch sizes (incl. empty and
    // capacity-sized) exercise all four transitions on every shard; the
    // warmup covers many cycles so every buffer hits high water.
    let bursty = |t: usize| [0usize, 1, 250, 7, 90, 1000][t % 6];
    let mut rtbs_bursty: ParallelIngestEngine<RTbs<u64>> =
        ParallelIngestEngine::new(EngineConfig::new(ShardSpec::rtbs(0.1, 1000, 4), 2));
    assert_engine_alloc_free("R-TBS 4-shard bursty", &mut rtbs_bursty, bursty, 600, 600);

    // Single shard: the batch moves whole into a shared run and the one
    // shard copies its full range into its scratch buffer, the same path
    // every K takes.
    let mut rtbs_single: ParallelIngestEngine<RTbs<u64>> =
        ParallelIngestEngine::new(EngineConfig::new(ShardSpec::rtbs(0.1, 1000, 1), 3));
    assert_engine_alloc_free("R-TBS 1-shard", &mut rtbs_single, |_| 100, 500, 500);

    // T-TBS, 2 shards: the append-based sampler through the same pipeline.
    let mut ttbs: ParallelIngestEngine<TTbs<u64>> =
        ParallelIngestEngine::new(EngineConfig::new(ShardSpec::ttbs(0.1, 1000, 100.0, 2), 4));
    assert_engine_alloc_free("T-TBS 2-shard", &mut ttbs, |_| 100, 2000, 300);

    // Long window, no fence: R-TBS at K = 2 on the bursty schedule with
    // no quiesce between warm-up and measurement, so runs are handed off
    // at the size target while the driver outruns the shards. A run
    // buffer population that crept (a fresh buffer whenever a hand-off
    // found the pool empty) would show up here as allocations.
    let mut long: ParallelIngestEngine<RTbs<u64>> =
        ParallelIngestEngine::new(EngineConfig::new(ShardSpec::rtbs(0.1, 1000, 2), 5));
    for batch in gen(bursty, 0, 2000) {
        long.ingest(batch).unwrap();
    }
    let batches = gen(bursty, 2000, 20_000);
    let before = ALLOCS.load(Ordering::SeqCst);
    for batch in batches {
        long.ingest(batch).unwrap();
    }
    long.quiesce().unwrap();
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "R-TBS 2-shard bursty long window: {} heap allocations across \
         20000 unfenced ingest calls",
        after - before
    );
}
