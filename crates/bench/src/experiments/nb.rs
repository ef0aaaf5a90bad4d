//! Figure 13 — naive Bayes on the synthetic Usenet2 stream (§6.4).
//!
//! 1500 messages in batches of 50, user interest flipping every 300
//! messages (recurring contexts). Paper parameters: sample bound n = 300,
//! λ = 0.3, no warm-up (the stream is too short), 20% ES over all 30
//! batches.

use crate::output::{f, print_table, write_csv};
use crate::pipeline::{mean_error_series, run_stream, Contender};
use rand::SeedableRng;
use tbs_datagen::modes::ModeSchedule;
use tbs_datagen::stream::StreamPlan;
use tbs_datagen::text::UsenetGenerator;
use tbs_datagen::BatchSizeProcess;
use tbs_ml::metrics::{average_summaries, summarize_series, SeriesSummary};
use tbs_ml::NaiveBayes;
use tbs_stats::rng::Xoshiro256PlusPlus;
use temporal_sampling::api::SamplerConfig;

/// Result of the NB experiment.
pub struct NbResult {
    /// Mean error series per contender (R-TBS, SW, Unif).
    pub mean_series: Vec<(String, Vec<f64>)>,
    /// Averaged summaries (misclassification %, 20% ES over all batches).
    pub summaries: Vec<(String, SeriesSummary)>,
}

/// Run the experiment over `runs` independently generated streams.
pub fn run_nb(runs: usize, lambda: f64, seed: u64) -> NbResult {
    let generator = UsenetGenerator::paper();
    let vocab = generator.vocab_size() as usize;
    let (messages, batch) = (1500u64, 50usize);
    // Every batch is measured: no warm-up. The generator itself encodes
    // the recurring interest flips, so the plan's mode is unused.
    let plan = StreamPlan {
        warmup_batches: 0,
        measured_batches: messages / batch as u64,
        batch_sizes: BatchSizeProcess::Deterministic(batch as u64),
        schedule: ModeSchedule::AlwaysNormal,
    };
    let mut all_runs = Vec::with_capacity(runs);
    for run in 0..runs {
        let seed = seed.wrapping_add(run as u64);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut stream = generator.stream(messages, batch, &mut rng).into_iter();
        let contenders = vec![
            Contender::new(
                "R-TBS",
                SamplerConfig::rtbs(lambda, 300),
                NaiveBayes::new(vocab),
            ),
            Contender::new(
                "SW",
                SamplerConfig::sliding_count(300),
                NaiveBayes::new(vocab),
            ),
            Contender::new("Unif", SamplerConfig::uniform(300), NaiveBayes::new(vocab)),
        ];
        all_runs.push(run_stream(
            &plan,
            |_, _, _| stream.next().expect("the stream covers the plan"),
            contenders,
            seed,
            &mut rng,
        ));
    }
    let summaries = (0..all_runs[0].len())
        .map(|ci| {
            // 20% ES over ALL batches (es_start = 0) — the stream is short.
            let per_run: Vec<SeriesSummary> = all_runs
                .iter()
                .map(|run| summarize_series(&run[ci].errors, 0, 0.20))
                .collect();
            (all_runs[0][ci].name.clone(), average_summaries(&per_run))
        })
        .collect();
    NbResult {
        mean_series: mean_error_series(&all_runs)
            .into_iter()
            .map(|o| (o.name, o.errors))
            .collect(),
        summaries,
    }
}

/// Run, write the CSV, print the summary table.
pub fn run_fig13(runs: usize) -> NbResult {
    let result = run_nb(runs, 0.3, 130_000);
    let mut header = vec!["t".to_string()];
    header.extend(result.mean_series.iter().map(|(n, _)| n.clone()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let len = result.mean_series[0].1.len();
    let rows: Vec<Vec<String>> = (0..len)
        .map(|t| {
            let mut row = vec![t.to_string()];
            row.extend(result.mean_series.iter().map(|(_, s)| f(s[t], 2)));
            row
        })
        .collect();
    write_csv("fig13_naive_bayes_usenet.csv", &header_refs, &rows);
    let srows: Vec<Vec<String>> = result
        .summaries
        .iter()
        .map(|(name, s)| vec![name.clone(), f(s.mean_error, 1), f(s.expected_shortfall, 1)])
        .collect();
    print_table(
        &format!(
            "Figure 13 — naive Bayes on synthetic Usenet2 (n=300, b=50, lambda=0.3, {runs} runs)"
        ),
        &["scheme", "Miss%", "20% ES"],
        &srows,
    );
    result
}

/// λ-sensitivity sweep backing the §6.4 claim that R-TBS beats SW for all
/// λ ∈ [0.1, 0.5].
pub fn run_lambda_sweep(runs: usize) {
    let lambdas = [0.1, 0.2, 0.3, 0.4, 0.5];
    let mut rows = Vec::new();
    for &lambda in &lambdas {
        let r = run_nb(runs, lambda, 131_000);
        let rtbs = &r.summaries[0].1;
        let sw = &r.summaries[1].1;
        rows.push(vec![
            f(lambda, 2),
            f(rtbs.mean_error, 1),
            f(sw.mean_error, 1),
        ]);
    }
    write_csv(
        "fig13_lambda_sweep.csv",
        &["lambda", "rtbs_miss_pct", "sw_miss_pct"],
        &rows,
    );
    print_table(
        "Figure 13 sensitivity — NB misclassification vs lambda",
        &["lambda", "R-TBS Miss%", "SW Miss%"],
        &rows,
    );
}
