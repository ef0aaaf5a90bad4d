//! kNN classification experiments — Figures 10, 11, 14 and Table 1.
//!
//! Shared machinery: a Gaussian-mixture stream with a mode schedule, the
//! standard contender set (R-TBS at one or more λ values, a count-based
//! sliding window, a uniform reservoir), repeated over independent runs.

use crate::output::{f, print_table, write_csv};
use crate::pipeline::{mean_error_series, run_stream, Contender, RunOutput};
use rand::Rng;
use rand::SeedableRng;
use tbs_datagen::gmm::GmmGenerator;
use tbs_datagen::modes::ModeSchedule;
use tbs_datagen::stream::StreamPlan;
use tbs_datagen::BatchSizeProcess;
use tbs_ml::metrics::{average_summaries, summarize_series, SeriesSummary};
use tbs_ml::KnnClassifier;
use tbs_stats::rng::Xoshiro256PlusPlus;
use temporal_sampling::api::SamplerConfig;

/// Paper defaults for the kNN experiments (§6.2).
#[derive(Debug, Clone)]
pub struct KnnConfig {
    /// Mode schedule for the measured phase.
    pub schedule: ModeSchedule,
    /// Measured batches after warm-up.
    pub measured: u64,
    /// Batch-size process.
    pub batch: BatchSizeProcess,
    /// R-TBS decay rates to include (one contender each).
    pub lambdas: Vec<f64>,
    /// Sample size bound for every scheme.
    pub n: usize,
    /// Neighbourhood size.
    pub k: usize,
    /// Independent runs to average.
    pub runs: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl KnnConfig {
    /// §6.2 defaults: b = 100, n = 1000, k = 7, λ = 0.07.
    pub fn paper(schedule: ModeSchedule, measured: u64, runs: usize) -> Self {
        Self {
            schedule,
            measured,
            batch: BatchSizeProcess::Deterministic(100),
            lambdas: vec![0.07],
            n: 1000,
            k: 7,
            runs,
            seed: 424_242,
        }
    }
}

/// Build the standard contender set for one run.
fn contenders(cfg: &KnnConfig) -> Vec<Contender<KnnClassifier>> {
    let mut list: Vec<Contender<KnnClassifier>> = cfg
        .lambdas
        .iter()
        .map(|&lambda| {
            let name = if cfg.lambdas.len() == 1 {
                "R-TBS".to_string()
            } else {
                format!("R-TBS(l={lambda})")
            };
            Contender::new(
                name,
                SamplerConfig::rtbs(lambda, cfg.n),
                KnnClassifier::new(cfg.k),
            )
        })
        .collect();
    list.push(Contender::new(
        "SW",
        SamplerConfig::sliding_count(cfg.n),
        KnnClassifier::new(cfg.k),
    ));
    list.push(Contender::new(
        "Unif",
        SamplerConfig::uniform(cfg.n),
        KnnClassifier::new(cfg.k),
    ));
    list
}

/// Result of a multi-run kNN experiment.
pub struct KnnResult {
    /// Mean error series per contender (averaged over runs).
    pub mean_series: Vec<RunOutput>,
    /// Per-contender averaged accuracy/ES summaries (ES from t = 20).
    pub summaries: Vec<(String, SeriesSummary)>,
}

/// Run the experiment: `runs` independent streams, each scored by every
/// contender.
pub fn run_knn(cfg: &KnnConfig) -> KnnResult {
    let plan = StreamPlan {
        warmup_batches: 100,
        measured_batches: cfg.measured,
        batch_sizes: cfg.batch,
        schedule: cfg.schedule,
    };
    let mut all_runs: Vec<Vec<RunOutput>> = Vec::with_capacity(cfg.runs);
    for run in 0..cfg.runs {
        let seed = cfg.seed.wrapping_add(run as u64);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let gmm = GmmGenerator::paper(&mut rng);
        let outputs = run_stream(
            &plan,
            |mode, size, rng| gmm.sample_batch(mode, size, rng),
            contenders(cfg),
            seed,
            &mut rng,
        );
        all_runs.push(outputs);
    }
    let mean_series = mean_error_series(&all_runs);
    let n_contenders = mean_series.len();
    let summaries = (0..n_contenders)
        .map(|ci| {
            let per_run: Vec<SeriesSummary> = all_runs
                .iter()
                .map(|run| summarize_series(&run[ci].errors, 20, 0.10))
                .collect();
            (all_runs[0][ci].name.clone(), average_summaries(&per_run))
        })
        .collect();
    KnnResult {
        mean_series,
        summaries,
    }
}

/// Write a figure's error-series CSV and print its summary.
pub fn report(title: &str, csv_name: &str, result: &KnnResult) {
    let names: Vec<&str> = result.mean_series.iter().map(|o| o.name.as_str()).collect();
    let mut header = vec!["t"];
    header.extend(names.iter().copied());
    let len = result.mean_series[0].errors.len();
    let rows: Vec<Vec<String>> = (0..len)
        .map(|t| {
            let mut row = vec![t.to_string()];
            row.extend(result.mean_series.iter().map(|o| f(o.errors[t], 2)));
            row
        })
        .collect();
    write_csv(csv_name, &header, &rows);

    let srows: Vec<Vec<String>> = result
        .summaries
        .iter()
        .map(|(name, s)| vec![name.clone(), f(s.mean_error, 1), f(s.expected_shortfall, 1)])
        .collect();
    print_table(title, &["scheme", "Miss%", "10% ES"], &srows);
}

/// Figure 10: single event + Periodic(10,10).
pub fn run_fig10(runs: usize) {
    let single = run_knn(&KnnConfig::paper(ModeSchedule::single_event(), 30, runs));
    report(
        "Figure 10(a) — kNN misclassification, single event",
        "fig10a_knn_single_event.csv",
        &single,
    );
    let periodic = run_knn(&KnnConfig::paper(ModeSchedule::periodic(10, 10), 50, runs));
    report(
        "Figure 10(b) — kNN misclassification, Periodic(10,10)",
        "fig10b_knn_periodic_10_10.csv",
        &periodic,
    );
}

/// Figure 11: varying batch sizes under Periodic(10,10).
pub fn run_fig11(runs: usize) {
    let mut uniform = KnnConfig::paper(ModeSchedule::periodic(10, 10), 50, runs);
    uniform.batch = BatchSizeProcess::UniformRandom { lo: 0, hi: 200 };
    report(
        "Figure 11(a) — kNN, Uniform(0,200) batch sizes",
        "fig11a_knn_uniform_batches.csv",
        &run_knn(&uniform),
    );

    let mut growing = KnnConfig::paper(ModeSchedule::periodic(10, 10), 50, runs);
    // Batches grow 2% per batch after warm-up (warm-up is 100 batches).
    growing.batch = BatchSizeProcess::growing(100, 1.02, 100);
    report(
        "Figure 11(b) — kNN, batch sizes growing 2%/batch",
        "fig11b_knn_growing_batches.csv",
        &run_knn(&growing),
    );
}

/// Figure 14 (Appendix F): Periodic(20,10) and Periodic(30,10).
pub fn run_fig14(runs: usize) {
    report(
        "Figure 14(a) — kNN, Periodic(20,10)",
        "fig14a_knn_periodic_20_10.csv",
        &run_knn(&KnnConfig::paper(ModeSchedule::periodic(20, 10), 60, runs)),
    );
    report(
        "Figure 14(b) — kNN, Periodic(30,10)",
        "fig14b_knn_periodic_30_10.csv",
        &run_knn(&KnnConfig::paper(ModeSchedule::periodic(30, 10), 70, runs)),
    );
}

/// Table 1 — accuracy and robustness across temporal patterns and λ.
pub fn run_table1(runs: usize) {
    let patterns: Vec<(&str, ModeSchedule, u64)> = vec![
        ("Single Event", ModeSchedule::single_event(), 30),
        ("P(10,10)", ModeSchedule::periodic(10, 10), 50),
        ("P(20,10)", ModeSchedule::periodic(20, 10), 60),
        ("P(30,10)", ModeSchedule::periodic(30, 10), 70),
    ];
    // Rows: R-TBS λ ∈ {0.05, 0.07, 0.10}, SW, Unif. Columns: per pattern
    // Miss% and ES.
    let mut cfg0 = KnnConfig::paper(ModeSchedule::single_event(), 30, runs);
    cfg0.lambdas = vec![0.05, 0.07, 0.10];

    let mut table: Vec<Vec<String>> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut columns: Vec<Vec<(f64, f64)>> = Vec::new(); // per pattern, per scheme
    for (_, schedule, measured) in &patterns {
        let mut cfg = cfg0.clone();
        cfg.schedule = *schedule;
        cfg.measured = *measured;
        let result = run_knn(&cfg);
        if names.is_empty() {
            names = result.summaries.iter().map(|(n, _)| n.clone()).collect();
        }
        columns.push(
            result
                .summaries
                .iter()
                .map(|(_, s)| (s.mean_error, s.expected_shortfall))
                .collect(),
        );
    }
    for (si, name) in names.iter().enumerate() {
        let mut row = vec![name.clone()];
        for col in &columns {
            row.push(f(col[si].0, 1));
            row.push(f(col[si].1, 1));
        }
        table.push(row);
    }
    let header: Vec<String> = std::iter::once("scheme".to_string())
        .chain(
            patterns
                .iter()
                .flat_map(|(name, _, _)| [format!("{name} Miss%"), format!("{name} ES")]),
        )
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    write_csv("table1_knn_accuracy_robustness.csv", &header_refs, &table);
    print_table(
        &format!("Table 1 — kNN accuracy & robustness ({runs} runs, ES from t=20)"),
        &header_refs,
        &table,
    );
}

/// Sanity helper used by integration tests: one quick single-event run.
pub fn smoke_run() -> KnnResult {
    let mut cfg = KnnConfig::paper(ModeSchedule::single_event(), 25, 2);
    cfg.n = 300;
    cfg.seed = 7;
    run_knn(&cfg)
}

/// Ablation: misclassification of R-TBS vs B-Chao under slow, bursty
/// streams where Chao's overweight items distort inclusion probabilities.
pub fn run_chao_ablation(runs: usize) {
    let schedule = ModeSchedule::periodic(10, 10);
    let plan = StreamPlan {
        warmup_batches: 100,
        measured_batches: 50,
        batch_sizes: BatchSizeProcess::Deterministic(100),
        schedule,
    };
    let mut summaries: Vec<Vec<SeriesSummary>> = vec![Vec::new(), Vec::new()];
    for run in 0..runs {
        let seed = 99_000 + run as u64;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let gmm = GmmGenerator::paper(&mut rng);
        let cs = vec![
            Contender::new(
                "R-TBS",
                SamplerConfig::rtbs(0.07, 1000),
                KnnClassifier::new(7),
            ),
            Contender::new(
                "B-Chao",
                SamplerConfig::chao(0.07, 1000),
                KnnClassifier::new(7),
            ),
        ];
        let outputs = run_stream(
            &plan,
            |mode, size, rng| gmm.sample_batch(mode, size, rng),
            cs,
            seed,
            &mut rng,
        );
        for (i, o) in outputs.iter().enumerate() {
            summaries[i].push(summarize_series(&o.errors, 20, 0.10));
        }
    }
    let rows: Vec<Vec<String>> = ["R-TBS", "B-Chao"]
        .iter()
        .zip(&summaries)
        .map(|(name, s)| {
            let avg = average_summaries(s);
            vec![
                name.to_string(),
                f(avg.mean_error, 1),
                f(avg.expected_shortfall, 1),
            ]
        })
        .collect();
    print_table(
        "Ablation — R-TBS vs B-Chao under P(10,10)",
        &["scheme", "Miss%", "10% ES"],
        &rows,
    );
    write_csv(
        "ablation_chao_vs_rtbs.csv",
        &["scheme", "miss_pct", "es10"],
        &rows,
    );
}

/// Quick deterministic check used in tests: kNN on a mixture learns.
pub fn quick_accuracy_check(seed: u64) -> f64 {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let gmm = GmmGenerator::paper(&mut rng);
    let mut knn = KnnClassifier::new(7);
    let train = gmm.sample_batch(tbs_datagen::Mode::Normal, 1000, &mut rng);
    knn.train(&train);
    let test = gmm.sample_batch(tbs_datagen::Mode::Normal, 500, &mut rng);
    let _ = rng.gen::<f64>();
    knn.misclassification_pct(&test)
}
