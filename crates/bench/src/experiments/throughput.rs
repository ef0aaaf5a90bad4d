//! Ingest-throughput benchmark — the perf baseline every PR is judged
//! against.
//!
//! §6.4 of the paper argues the samplers are cheap enough to run inline
//! with model retraining; this experiment makes that claim continuously
//! measurable. Every sampler is driven through three stream regimes and
//! timed end-to-end over `observe` calls only (batch generation is excluded
//! from the timed region):
//!
//! * **unsaturated** — capacity above the equilibrium size (§6.3's
//!   n = 1600, b = 100, λ = 0.07 → C* ≈ 1479), so R-TBS runs its
//!   decay-and-downsample transition every step;
//! * **saturated** — capacity below the total-weight equilibrium (Fig 1(b)'s
//!   n = 1000, b = 100, λ = 0.1 → W* ≈ 1051), so R-TBS runs its
//!   saturated→saturated batch-replacement transition every step;
//! * **bursty** — erratic batch sizes (0 to 1000 items, including empty
//!   batches) over a capacity of 1000, exercising all four R-TBS
//!   transitions plus B-Chao's overweight bookkeeping.
//!
//! Each sampler is measured twice: on the **fast** path (concrete sampler
//! type + concrete RNG — fully monomorphized, no virtual dispatch) and on
//! the **dyn** path (`Box<dyn BatchSampler<u64>>` + `&mut dyn RngCore`,
//! the heterogeneous-harness adapter). The spread between the two is the
//! price of object safety.
//!
//! Results go to `results/bench_throughput.csv` and to a machine-readable
//! `BENCH_throughput.json` (see [`rows_to_json`]) whose schema downstream
//! tooling can diff across commits.

use crate::json::Json;
use crate::output::{f, print_table, write_csv};
use std::time::Instant;
use tbs_core::{
    BAres, BChao, BTbs, BatchSampler, BatchedReservoir, CountWindow, RTbs, TTbs, TimeWindow,
};
use tbs_stats::rng::Xoshiro256PlusPlus;
use temporal_sampling::api::SamplerConfig;

use rand::SeedableRng;

/// Tuning knobs for one throughput run.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputConfig {
    /// Batches fed inside the timed region, per repeat.
    pub measured_batches: usize,
    /// Untimed batches fed first so every sampler reaches steady state
    /// (reservoirs saturate, `Vec` capacities hit their high-water marks).
    pub warmup_batches: usize,
    /// Timed repeats; the fastest is reported (minimum-time estimator,
    /// standard for throughput: slower runs measure interference, not the
    /// code).
    pub repeats: usize,
    /// Base RNG seed; each (sampler, path, regime) combination derives its
    /// own stream from it.
    pub seed: u64,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        Self {
            measured_batches: 20_000,
            warmup_batches: 2_000,
            repeats: 3,
            seed: 0x7B5_2018,
        }
    }
}

impl ThroughputConfig {
    /// Long-form counts for low-noise baseline refreshes: more measured
    /// batches and repeats push the minimum-time estimator closer to the
    /// true floor at the cost of a several-fold longer run.
    pub fn thorough() -> Self {
        Self {
            measured_batches: 60_000,
            warmup_batches: 5_000,
            repeats: 7,
            ..Self::default()
        }
    }

    /// Tiny iteration counts for CI smoke runs: verifies the harness end to
    /// end in milliseconds without producing meaningful numbers.
    pub fn smoke() -> Self {
        Self {
            measured_batches: 40,
            warmup_batches: 20,
            repeats: 1,
            seed: 7,
        }
    }
}

/// The bursty regime's repeating batch-size cycle — the single source for
/// both the per-step schedule and the derived mean.
const BURSTY_SCHEDULE: [usize; 6] = [0, 1, 250, 7, 90, 1000];

/// The three stream regimes described in the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Capacity above equilibrium: the reservoir never fills.
    Unsaturated,
    /// Capacity below the weight equilibrium: pinned at `n`.
    Saturated,
    /// Erratic batch sizes, including empty and capacity-sized bursts.
    Bursty,
}

impl Regime {
    /// All regimes, in report order.
    pub fn all() -> [Regime; 3] {
        [Regime::Unsaturated, Regime::Saturated, Regime::Bursty]
    }

    /// Label used in CSV/JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Regime::Unsaturated => "unsaturated",
            Regime::Saturated => "saturated",
            Regime::Bursty => "bursty",
        }
    }

    /// Reservoir capacity / window size used for every bounded sampler.
    pub fn capacity(self) -> usize {
        match self {
            Regime::Unsaturated => 1600,
            Regime::Saturated | Regime::Bursty => 1000,
        }
    }

    /// Decay rate λ.
    pub fn lambda(self) -> f64 {
        match self {
            Regime::Unsaturated => 0.07,
            Regime::Saturated | Regime::Bursty => 0.1,
        }
    }

    /// Batch size at (0-based) step `t`.
    pub fn batch_size(self, t: usize) -> usize {
        match self {
            Regime::Unsaturated | Regime::Saturated => 100,
            Regime::Bursty => BURSTY_SCHEDULE[t % BURSTY_SCHEDULE.len()],
        }
    }

    /// Mean batch size of the schedule (T-TBS's assumed `b`).
    pub fn mean_batch(self) -> f64 {
        match self {
            Regime::Unsaturated | Regime::Saturated => 100.0,
            Regime::Bursty => {
                BURSTY_SCHEDULE.iter().sum::<usize>() as f64 / BURSTY_SCHEDULE.len() as f64
            }
        }
    }

    /// T-TBS target size: the largest feasible target within the capacity
    /// bound, backed off 10% from the exact feasibility frontier
    /// `b = n(1 − e^{−λ})` so `q < 1` and the down-sampling path is
    /// actually exercised.
    pub fn ttbs_target(self) -> usize {
        let frontier = self.mean_batch() / (1.0 - (-self.lambda()).exp());
        ((0.9 * frontier) as usize).min(self.capacity()).max(1)
    }
}

/// Which API the sampler was driven through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiPath {
    /// Concrete sampler + concrete RNG: monomorphized hot path.
    Fast,
    /// `Box<dyn BatchSampler<u64>>` + `&mut dyn RngCore`: object-safe
    /// adapter, as used by heterogeneous harnesses.
    Dyn,
    /// The public `temporal_sampling::api::Sampler` handle: enum
    /// dispatch onto the same monomorphized fast path, with the handle
    /// owning its RNG. Must keep at least 90% of `fast`'s throughput (the
    /// enum match is a jump table, not a vtable); faster is fine.
    Facade,
    /// The facade handle **plus** an automatic durable checkpoint every
    /// [`CHECKPOINT_EVERY`] batches (`CheckpointPolicy::EveryBatches`
    /// into a `CheckpointStore` ring on local disk, written behind the
    /// ingest thread). Measures what durability costs a saturated ingest
    /// loop; the saturated R-TBS row must keep at least half of the
    /// `facade` row measured in the same run (see
    /// [`check_checkpoint_overhead`]).
    Checkpoint,
}

impl ApiPath {
    /// All paths, in report order.
    pub fn all() -> [ApiPath; 4] {
        [
            ApiPath::Fast,
            ApiPath::Dyn,
            ApiPath::Facade,
            ApiPath::Checkpoint,
        ]
    }

    /// Label used in CSV/JSON output.
    pub fn label(self) -> &'static str {
        match self {
            ApiPath::Fast => "fast",
            ApiPath::Dyn => "dyn",
            ApiPath::Facade => "facade",
            ApiPath::Checkpoint => "checkpoint",
        }
    }

    /// Whether `kind` implements this path (`checkpoint` rows exist
    /// only for the two mergeable TBS samplers).
    pub fn supports(self, kind: SamplerKind) -> bool {
        match self {
            ApiPath::Checkpoint => matches!(kind, SamplerKind::RTbs | SamplerKind::TTbs),
            _ => true,
        }
    }
}

/// Batch interval of the `checkpoint` path's automatic policy. At the
/// saturated regime's 100-item batches this is one durable generation
/// per 500k items — hundreds of times a second at saturated ingest speed, far
/// more aggressive than production cadences (typically seconds to
/// minutes apart) while still firing several times inside the measured
/// window so the row reflects steady-state cost, not a lucky miss.
pub const CHECKPOINT_EVERY: u64 = 5000;

/// The samplers under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerKind {
    /// R-TBS (Algorithm 2).
    RTbs,
    /// T-TBS (Algorithm 1).
    TTbs,
    /// B-TBS, the Bernoulli scheme (Algorithm 4).
    BTbs,
    /// Uniform batched reservoir (Algorithm 5).
    Unif,
    /// B-Chao (Algorithms 6–7).
    Chao,
    /// Count-based sliding window.
    SlidingCount,
    /// Time-based sliding window.
    SlidingTime,
    /// A-Res weighted reservoir (§7).
    ARes,
}

impl SamplerKind {
    /// All samplers, in report order.
    pub fn all() -> [SamplerKind; 8] {
        [
            SamplerKind::RTbs,
            SamplerKind::TTbs,
            SamplerKind::BTbs,
            SamplerKind::Unif,
            SamplerKind::Chao,
            SamplerKind::SlidingCount,
            SamplerKind::SlidingTime,
            SamplerKind::ARes,
        ]
    }

    /// Label used in CSV/JSON output (matches `BatchSampler::name`).
    pub fn label(self) -> &'static str {
        match self {
            SamplerKind::RTbs => "R-TBS",
            SamplerKind::TTbs => "T-TBS",
            SamplerKind::BTbs => "B-TBS",
            SamplerKind::Unif => "Unif",
            SamplerKind::Chao => "B-Chao",
            SamplerKind::SlidingCount => "SW",
            SamplerKind::SlidingTime => "SW-time",
            SamplerKind::ARes => "A-Res",
        }
    }
}

/// One measured (sampler, path, regime) combination.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Sampler label (`R-TBS`, `T-TBS`, …).
    pub sampler: &'static str,
    /// API path label (`fast` or `dyn`).
    pub path: &'static str,
    /// Regime label (`unsaturated`, `saturated`, `bursty`).
    pub regime: &'static str,
    /// Batches fed inside the timed region.
    pub batches: usize,
    /// Items fed inside the timed region.
    pub items: u64,
    /// Wall-clock nanoseconds of the fastest repeat.
    pub elapsed_ns: u64,
    /// Ingest throughput, items per second.
    pub items_per_sec: f64,
    /// Mean cost per item in nanoseconds.
    pub ns_per_item: f64,
}

/// Generate `count` batches of the regime's schedule starting at step `t0`;
/// returns the batches and the total item count.
fn gen_batches(regime: Regime, count: usize, t0: usize) -> (Vec<Vec<u64>>, u64) {
    let mut items = 0u64;
    let mut out = Vec::with_capacity(count);
    for t in t0..t0 + count {
        let b = regime.batch_size(t);
        let base = t as u64 * 1_000_000;
        out.push((0..b as u64).map(|i| base + i).collect());
        items += b as u64;
    }
    (out, items)
}

/// A warmed-up row: each call times one repeat of the row's measured
/// window and returns `(items, elapsed_ns)`.
type Repeat = Box<dyn FnMut() -> (u64, u64)>;

/// Warm `feed` up on its own seeded RNG and return the row's [`Repeat`].
/// The timed loop inside stays generic over `feed`, so the fast rows keep
/// their monomorphized `observe`; the box is called once per repeat,
/// outside the timed region.
fn drive<F>(cfg: &ThroughputConfig, regime: Regime, seed: u64, mut feed: F) -> Repeat
where
    F: FnMut(Vec<u64>, &mut Xoshiro256PlusPlus) + 'static,
{
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let (warm, _) = gen_batches(regime, cfg.warmup_batches, 0);
    for batch in warm {
        feed(batch, &mut rng);
    }
    let (measured, t0) = (cfg.measured_batches, cfg.warmup_batches);
    Box::new(move || {
        // Every repeat replays the identical schedule window (same t0, so
        // the same phase of cyclic regimes): equal work per repeat, which
        // is what makes the minimum-time estimator and the single item
        // count per row valid together.
        let (batches, items) = gen_batches(regime, measured, t0);
        let start = Instant::now();
        for batch in batches {
            feed(batch, &mut rng);
        }
        (items, start.elapsed().as_nanos() as u64)
    })
}

/// The checkpoint row's facade handle and scratch store directory: both
/// outlive every repeat, and dropping the row flushes the store and
/// removes the directory.
struct CheckpointRow {
    sampler: Option<temporal_sampling::api::Sampler<u64>>,
    dir: std::path::PathBuf,
}

impl Drop for CheckpointRow {
    fn drop(&mut self) {
        // Drop the handle (and its store) before removing the directory.
        if let Some(mut s) = self.sampler.take() {
            s.flush_checkpoints().expect("bench checkpoints flush");
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn combo_seed(cfg: &ThroughputConfig, kind: SamplerKind, path: ApiPath, regime: Regime) -> u64 {
    cfg.seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((kind as u64) << 16 | (path as u64) << 8 | regime as u64)
}

/// Construct the `api::SamplerConfig` matching `kind` under `regime`'s
/// parameters, for the facade path.
fn facade_config(kind: SamplerKind, regime: Regime) -> SamplerConfig {
    let (n, lambda) = (regime.capacity(), regime.lambda());
    match kind {
        SamplerKind::RTbs => SamplerConfig::rtbs(lambda, n),
        SamplerKind::TTbs => SamplerConfig::ttbs(lambda, regime.ttbs_target(), regime.mean_batch()),
        SamplerKind::BTbs => SamplerConfig::btbs(lambda),
        SamplerKind::Unif => SamplerConfig::uniform(n),
        SamplerKind::Chao => SamplerConfig::chao(lambda, n),
        SamplerKind::SlidingCount => SamplerConfig::sliding_count(n),
        SamplerKind::SlidingTime => SamplerConfig::sliding_time(5.0),
        SamplerKind::ARes => SamplerConfig::ares(lambda, n),
    }
}

/// Construct the boxed, type-erased variant of `kind` for the dyn path.
fn boxed_sampler(kind: SamplerKind, regime: Regime) -> Box<dyn BatchSampler<u64>> {
    let (n, lambda) = (regime.capacity(), regime.lambda());
    match kind {
        SamplerKind::RTbs => Box::new(RTbs::new(lambda, n)),
        SamplerKind::TTbs => Box::new(TTbs::new(lambda, regime.ttbs_target(), regime.mean_batch())),
        SamplerKind::BTbs => Box::new(BTbs::new(lambda)),
        SamplerKind::Unif => Box::new(BatchedReservoir::new(n)),
        SamplerKind::Chao => Box::new(BChao::new(lambda, n)),
        SamplerKind::SlidingCount => Box::new(CountWindow::new(n)),
        SamplerKind::SlidingTime => Box::new(TimeWindow::new(5.0)),
        SamplerKind::ARes => Box::new(BAres::new(lambda, n)),
    }
}

/// Build one (sampler, path, regime) combination, warm it up, and return
/// its repeat timer.
fn prepare_one(cfg: &ThroughputConfig, kind: SamplerKind, path: ApiPath, regime: Regime) -> Repeat {
    let seed = combo_seed(cfg, kind, path, regime);
    let (n, lambda) = (regime.capacity(), regime.lambda());
    match path {
        ApiPath::Dyn => {
            let mut s = boxed_sampler(kind, regime);
            drive(cfg, regime, seed, move |batch, rng| s.observe(batch, rng))
        }
        // The facade handle owns its RNG (seeded from the same combo
        // seed), so the driver-side rng is unused here — what is timed
        // is exactly what an `api` caller pays per `observe`.
        ApiPath::Facade => {
            let mut s = facade_config(kind, regime)
                .seed(seed)
                .build::<u64>()
                .expect("benchmark configs are valid");
            drive(cfg, regime, seed, move |batch, _rng| {
                s.observe(batch).expect("bench ingest never fails")
            })
        }
        // The facade's default ingest with an automatic durable
        // checkpoint ring on local disk — the durability-cost row. The
        // store writes (frame + fsync + rename) land inside the timed
        // region exactly as a production ingest loop would pay them.
        ApiPath::Checkpoint => {
            let dir = std::env::temp_dir().join(format!(
                "tbs-bench-ckpt-{}-{}-{}",
                std::process::id(),
                kind.label(),
                regime.label()
            ));
            let mut s = facade_config(kind, regime)
                .seed(seed)
                .checkpoint_policy(temporal_sampling::api::CheckpointPolicy::EveryBatches(
                    CHECKPOINT_EVERY,
                ))
                .build::<u64>()
                .expect("benchmark configs are valid");
            s.set_checkpoint_store(
                temporal_sampling::api::CheckpointStore::open(&dir, 4)
                    .expect("bench scratch dir is writable"),
            );
            let mut row = CheckpointRow {
                sampler: Some(s),
                dir,
            };
            drive(cfg, regime, seed, move |batch, _rng| {
                row.sampler
                    .as_mut()
                    .expect("sampler lives until the row drops")
                    .observe(batch)
                    .expect("bench ingest never fails")
            })
        }
        // Each arm below monomorphizes `observe` over the concrete sampler
        // type and the concrete xoshiro256++ RNG — no virtual dispatch
        // anywhere inside the timed loop.
        ApiPath::Fast => match kind {
            SamplerKind::RTbs => {
                let mut s: RTbs<u64> = RTbs::new(lambda, n);
                drive(cfg, regime, seed, move |batch, rng| s.observe(batch, rng))
            }
            SamplerKind::TTbs => {
                let mut s: TTbs<u64> = TTbs::new(lambda, regime.ttbs_target(), regime.mean_batch());
                drive(cfg, regime, seed, move |batch, rng| s.observe(batch, rng))
            }
            SamplerKind::BTbs => {
                let mut s: BTbs<u64> = BTbs::new(lambda);
                drive(cfg, regime, seed, move |batch, rng| s.observe(batch, rng))
            }
            SamplerKind::Unif => {
                let mut s: BatchedReservoir<u64> = BatchedReservoir::new(n);
                drive(cfg, regime, seed, move |batch, rng| s.observe(batch, rng))
            }
            SamplerKind::Chao => {
                let mut s: BChao<u64> = BChao::new(lambda, n);
                drive(cfg, regime, seed, move |batch, rng| s.observe(batch, rng))
            }
            SamplerKind::SlidingCount => {
                let mut s: CountWindow<u64> = CountWindow::new(n);
                drive(cfg, regime, seed, move |batch, rng| s.observe(batch, rng))
            }
            SamplerKind::SlidingTime => {
                let mut s: TimeWindow<u64> = TimeWindow::new(5.0);
                drive(cfg, regime, seed, move |batch, rng| s.observe(batch, rng))
            }
            SamplerKind::ARes => {
                let mut s: BAres<u64> = BAres::new(lambda, n);
                drive(cfg, regime, seed, move |batch, rng| s.observe(batch, rng))
            }
        },
    }
}

/// Measure the given combinations, interleaving their repeats: every
/// row is built and warmed up first, then repeat `r` of every row runs
/// before repeat `r + 1` of any row, so a slow phase of the host lands on
/// one repeat of many rows instead of on every repeat of a few. Each row
/// keeps its fastest repeat.
fn measure_interleaved(
    cfg: &ThroughputConfig,
    combos: &[(SamplerKind, ApiPath, Regime)],
) -> Vec<ThroughputRow> {
    let mut runs: Vec<(Repeat, u64, u64)> = combos
        .iter()
        .map(|&(kind, path, regime)| (prepare_one(cfg, kind, path, regime), 0, u64::MAX))
        .collect();
    for _rep in 0..cfg.repeats.max(1) {
        for (repeat, items, best_ns) in &mut runs {
            let (n_items, ns) = repeat();
            *items = n_items;
            *best_ns = (*best_ns).min(ns);
        }
    }
    combos
        .iter()
        .zip(runs)
        .map(|(&(kind, path, regime), (_, items, best_ns))| {
            let elapsed_ns = best_ns.max(1);
            ThroughputRow {
                sampler: kind.label(),
                path: path.label(),
                regime: regime.label(),
                batches: cfg.measured_batches,
                items,
                elapsed_ns,
                items_per_sec: items as f64 * 1e9 / elapsed_ns as f64,
                ns_per_item: elapsed_ns as f64 / items.max(1) as f64,
            }
        })
        .collect()
}

/// Measure one (sampler, path, regime) combination.
pub fn measure_one(
    cfg: &ThroughputConfig,
    kind: SamplerKind,
    path: ApiPath,
    regime: Regime,
) -> ThroughputRow {
    measure_interleaved(cfg, &[(kind, path, regime)])
        .pop()
        .expect("one combination yields one row")
}

/// Run the full sampler × path × regime grid.
pub fn run_throughput(cfg: &ThroughputConfig) -> Vec<ThroughputRow> {
    run_throughput_filtered(cfg, |_, _, _| true)
}

/// [`run_throughput`] restricted to the combinations `keep` accepts —
/// used by the binary's `--filter` flag to iterate on one sampler quickly.
/// Every selected row is warmed up first; then repeat `r` of every row
/// runs before repeat `r + 1` of any row, and each row keeps its fastest.
pub fn run_throughput_filtered(
    cfg: &ThroughputConfig,
    keep: impl Fn(SamplerKind, ApiPath, Regime) -> bool,
) -> Vec<ThroughputRow> {
    let mut combos = Vec::new();
    for kind in SamplerKind::all() {
        for path in ApiPath::all() {
            for regime in Regime::all() {
                if path.supports(kind) && keep(kind, path, regime) {
                    combos.push((kind, path, regime));
                }
            }
        }
    }
    measure_interleaved(cfg, &combos)
}

/// Print the aligned console table and write `results/bench_throughput.csv`.
pub fn report(rows: &[ThroughputRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.sampler.to_string(),
                r.path.to_string(),
                r.regime.to_string(),
                r.items.to_string(),
                f(r.items_per_sec / 1e6, 2),
                f(r.ns_per_item, 1),
            ]
        })
        .collect();
    write_csv(
        "bench_throughput.csv",
        &[
            "sampler",
            "path",
            "regime",
            "items",
            "items_per_sec_millions",
            "ns_per_item",
        ],
        &table,
    );
    print_table(
        "Ingest throughput (fastest of repeats; observe() only)",
        &["sampler", "path", "regime", "items", "M items/s", "ns/item"],
        &table,
    );
}

/// Assemble the `BENCH_throughput.json` document.
pub fn rows_to_json(cfg: &ThroughputConfig, rows: &[ThroughputRow]) -> Json {
    let regimes = Regime::all()
        .iter()
        .map(|r| {
            Json::obj([
                ("name", Json::str(r.label())),
                ("capacity", Json::Int(r.capacity() as i64)),
                ("lambda", Json::Num(r.lambda())),
                ("mean_batch", Json::Num(r.mean_batch())),
            ])
        })
        .collect();
    let row_values = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("sampler", Json::str(r.sampler)),
                ("path", Json::str(r.path)),
                ("regime", Json::str(r.regime)),
                ("batches", Json::Int(r.batches as i64)),
                ("items", Json::UInt(r.items)),
                ("elapsed_ns", Json::UInt(r.elapsed_ns)),
                ("items_per_sec", Json::Num(r.items_per_sec)),
                ("ns_per_item", Json::Num(r.ns_per_item)),
            ])
        })
        .collect();
    Json::obj([
        ("bench", Json::str("throughput")),
        ("schema_version", Json::Int(1)),
        (
            "config",
            Json::obj([
                ("measured_batches", Json::Int(cfg.measured_batches as i64)),
                ("warmup_batches", Json::Int(cfg.warmup_batches as i64)),
                ("repeats", Json::Int(cfg.repeats as i64)),
                ("seed", Json::UInt(cfg.seed)),
                ("item_type", Json::str("u64")),
                ("regimes", Json::Arr(regimes)),
            ]),
        ),
        ("rows", Json::Arr(row_values)),
        ("summary", summary(rows)),
    ])
}

/// Gate verdicts recorded alongside the rows so
/// `tests/bench_artifacts.rs` can re-check the committed baseline
/// without re-running the bench. Tolerances here mirror the ones the
/// bin enforces; a failed (or inapplicable, e.g. filtered-run) gate is
/// recorded with `pass: false` and the reason rather than omitted.
fn summary(rows: &[ThroughputRow]) -> Json {
    fn gate(res: Result<f64, String>) -> Json {
        match res {
            Ok(ratio) => Json::obj([("ratio", Json::Num(ratio)), ("pass", Json::Bool(true))]),
            Err(msg) => Json::obj([("pass", Json::Bool(false)), ("error", Json::str(msg))]),
        }
    }
    Json::obj([(
        "gates",
        Json::obj([
            ("facade_overhead", gate(check_facade_overhead(rows, 0.10))),
            (
                "checkpoint_overhead",
                gate(check_checkpoint_overhead(rows, 0.5)),
            ),
        ]),
    )])
}

/// Row keys (beyond the shared core in
/// [`crate::json::BENCH_CORE_ROW_KEYS`]) every throughput row carries.
pub const THROUGHPUT_ROW_KEYS: &[&str] = &["path", "elapsed_ns", "items_per_sec", "ns_per_item"];

/// Check that the `facade` path's flagship row (saturated R-TBS — the
/// committed-baseline headline) is no more than `tolerance` (fractional)
/// slower than the `fast` path measured in the same run. Comparing
/// within one run makes the gate robust to machine-to-machine absolute
/// differences; the committed `BENCH_throughput.json` preserves the
/// absolute numbers. The gate is a one-sided floor: a facade row faster
/// than `fast` passes. Returns the facade/fast throughput ratio.
pub fn check_facade_overhead(rows: &[ThroughputRow], tolerance: f64) -> Result<f64, String> {
    let find = |path: &str| {
        rows.iter()
            .find(|r| r.sampler == "R-TBS" && r.regime == "saturated" && r.path == path)
            .ok_or_else(|| format!("no R-TBS/saturated/{path} row in this run"))
    };
    let fast = find("fast")?;
    let facade = find("facade")?;
    let ratio = facade.items_per_sec / fast.items_per_sec;
    if ratio < 1.0 - tolerance {
        return Err(format!(
            "api facade dropped R-TBS saturated ingest to {:.1}M items/s \
             ({:.1}% of the fast path's {:.1}M — the floor is {:.0}%)",
            facade.items_per_sec / 1e6,
            ratio * 100.0,
            fast.items_per_sec / 1e6,
            (1.0 - tolerance) * 100.0
        ));
    }
    Ok(ratio)
}

/// Check that the `checkpoint` path's flagship row (saturated R-TBS) is
/// no more than `tolerance` (fractional) slower than the plain `facade`
/// path measured in the same run. The write-behind store keeps the
/// ingest-thread cost to serialization (~40µs per generation), but the
/// fsync's *kernel CPU* cannot overlap ingest on a single-core runner —
/// so the floor is a catastrophic-regression tripwire, not a precision
/// bound: against a row ~2.7× faster than `facade`, healthy single-core
/// runs measured ~0.6 and losing write-behind dropped the ratio under
/// 0.2; against `facade`, a full 2-vCPU run measured 1.15. Comparing within one run keeps it machine-independent; the
/// committed `BENCH_throughput.json` preserves the absolute numbers.
/// Returns the checkpoint/facade ratio.
pub fn check_checkpoint_overhead(rows: &[ThroughputRow], tolerance: f64) -> Result<f64, String> {
    let find = |path: &str| {
        rows.iter()
            .find(|r| r.sampler == "R-TBS" && r.regime == "saturated" && r.path == path)
            .ok_or_else(|| format!("no R-TBS/saturated/{path} row in this run"))
    };
    let facade = find("facade")?;
    let ckpt = find("checkpoint")?;
    let ratio = ckpt.items_per_sec / facade.items_per_sec;
    if ratio < 1.0 - tolerance {
        return Err(format!(
            "automatic checkpointing dropped R-TBS saturated facade ingest to \
             {:.1}M items/s ({:.1}% of the facade path's {:.1}M — floor is {:.0}%)",
            ckpt.items_per_sec / 1e6,
            ratio * 100.0,
            facade.items_per_sec / 1e6,
            (1.0 - tolerance) * 100.0
        ));
    }
    Ok(ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_produces_sane_rows() {
        let cfg = ThroughputConfig::smoke();
        let rows = run_throughput(&cfg);
        // 8 samplers × 3 paths × 3 regimes, plus checkpoint rows for
        // the two mergeable samplers.
        assert_eq!(rows.len(), 8 * 3 * 3 + 2 * 3);
        assert_eq!(rows.iter().filter(|r| r.path == "checkpoint").count(), 6);
        for r in &rows {
            assert!(
                r.items > 0,
                "{}/{}/{} fed no items",
                r.sampler,
                r.path,
                r.regime
            );
            assert!(r.items_per_sec > 0.0);
            assert!(r.ns_per_item > 0.0);
        }
    }

    fn synthetic_row(path: &'static str, items_per_sec: f64) -> ThroughputRow {
        ThroughputRow {
            sampler: "R-TBS",
            path,
            regime: "saturated",
            batches: 1,
            items: 1,
            elapsed_ns: 1,
            items_per_sec,
            ns_per_item: 1.0,
        }
    }

    #[test]
    fn facade_overhead_gate_is_a_one_sided_floor() {
        let fast = synthetic_row("fast", 100e6);
        let faster = [fast.clone(), synthetic_row("facade", 120e6)];
        let ratio = check_facade_overhead(&faster, 0.10).unwrap();
        assert!((ratio - 1.2).abs() < 1e-9);
        let slower = [fast, synthetic_row("facade", 85e6)];
        let err = check_facade_overhead(&slower, 0.10).unwrap_err();
        assert!(err.contains("the floor is 90%"), "{err}");
    }

    #[test]
    fn checkpoint_overhead_gate_compares_within_run() {
        let rows = [
            synthetic_row("facade", 700e6),
            synthetic_row("checkpoint", 420e6),
        ];
        let ratio = check_checkpoint_overhead(&rows, 0.5).unwrap();
        assert!((ratio - 0.6).abs() < 1e-9);
        let bad = [
            synthetic_row("facade", 700e6),
            synthetic_row("checkpoint", 120e6),
        ];
        assert!(check_checkpoint_overhead(&bad, 0.5).is_err());
    }

    #[test]
    fn emitted_summary_carries_both_gate_verdicts() {
        let cfg = ThroughputConfig::smoke();
        let rows = run_throughput(&cfg);
        let doc = rows_to_json(&cfg, &rows);
        let gates = doc.get("summary").unwrap().get("gates").unwrap();
        for name in ["facade_overhead", "checkpoint_overhead"] {
            let gate = gates.get(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!(
                matches!(gate.get("pass"), Some(Json::Bool(_))),
                "{name} lacks a pass flag"
            );
        }
    }

    #[test]
    fn schedules_are_deterministic_and_nonempty() {
        for regime in Regime::all() {
            let (batches, items) = gen_batches(regime, 12, 0);
            let (batches2, items2) = gen_batches(regime, 12, 0);
            assert_eq!(items, items2);
            assert_eq!(batches.len(), 12);
            assert_eq!(batches2.len(), 12);
            assert!(items > 0);
        }
    }

    #[test]
    fn ttbs_targets_are_feasible() {
        for regime in Regime::all() {
            // Constructing T-TBS panics on infeasible targets; this must not.
            let s: TTbs<u64> =
                TTbs::new(regime.lambda(), regime.ttbs_target(), regime.mean_batch());
            assert!(s.batch_acceptance() <= 1.0);
        }
    }

    #[test]
    fn json_document_has_rows_and_config() {
        let cfg = ThroughputConfig::smoke();
        let rows = vec![measure_one(
            &cfg,
            SamplerKind::BTbs,
            ApiPath::Fast,
            Regime::Saturated,
        )];
        let doc = rows_to_json(&cfg, &rows);
        crate::json::validate_bench_doc(&doc, "throughput", THROUGHPUT_ROW_KEYS).unwrap();
        let doc = doc.to_string();
        assert!(doc.contains("\"bench\":\"throughput\""));
        assert!(doc.contains("\"sampler\":\"B-TBS\""));
        assert!(doc.contains("\"items_per_sec\""));
    }
}
