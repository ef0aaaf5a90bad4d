//! Figure 12 — linear-regression MSE under saturated and unsaturated
//! sample regimes (§6.3).
//!
//! Panel (a): n = 1000, Periodic(10,10) — R-TBS saturated.
//! Panel (b): n = 1600, Periodic(10,10) — R-TBS *unsaturated*, stabilizing
//!            at ≈1479 items while SW/Unif hold 1600: the "more data is not
//!            always better" result.
//! Panel (c): n = 1600, Periodic(16,16) — SW's window is now too short to
//!            retain the previous context, and its error fluctuates wildly.

use crate::output::{f, print_table, write_csv};
use crate::pipeline::{mean_error_series, run_stream, Contender, RunOutput};
use rand::SeedableRng;
use tbs_datagen::modes::ModeSchedule;
use tbs_datagen::regression::RegressionGenerator;
use tbs_datagen::stream::StreamPlan;
use tbs_datagen::BatchSizeProcess;
use tbs_ml::metrics::{average_summaries, summarize_series, SeriesSummary};
use tbs_ml::LinearRegression;
use tbs_stats::rng::Xoshiro256PlusPlus;
use temporal_sampling::api::SamplerConfig;

/// One panel configuration.
#[derive(Debug, Clone, Copy)]
pub struct LinregPanel {
    /// Panel tag ("a", "b", "c").
    pub tag: &'static str,
    /// Sample-size bound for every scheme.
    pub n: usize,
    /// Mode schedule.
    pub schedule: ModeSchedule,
    /// Measured batches.
    pub measured: u64,
}

/// The three §6.3 panels.
pub fn panels() -> [LinregPanel; 3] {
    [
        LinregPanel {
            tag: "a",
            n: 1000,
            schedule: ModeSchedule::periodic(10, 10),
            measured: 50,
        },
        LinregPanel {
            tag: "b",
            n: 1600,
            schedule: ModeSchedule::periodic(10, 10),
            measured: 50,
        },
        LinregPanel {
            tag: "c",
            n: 1600,
            schedule: ModeSchedule::periodic(16, 16),
            measured: 80,
        },
    ]
}

/// Multi-run result for one panel.
pub struct LinregResult {
    /// Mean error series per contender.
    pub mean_series: Vec<RunOutput>,
    /// Averaged summaries (MSE over all points, 10% ES from t = 20).
    pub summaries: Vec<(String, SeriesSummary)>,
    /// Mean R-TBS sample size over the measured phase (to witness the
    /// unsaturated 1479-item equilibrium).
    pub rtbs_mean_sample_size: f64,
}

fn contenders(n: usize, lambda: f64) -> Vec<Contender<LinearRegression>> {
    vec![
        Contender::new(
            "R-TBS",
            SamplerConfig::rtbs(lambda, n),
            LinearRegression::new(true),
        ),
        Contender::new(
            "SW",
            SamplerConfig::sliding_count(n),
            LinearRegression::new(true),
        ),
        Contender::new(
            "Unif",
            SamplerConfig::uniform(n),
            LinearRegression::new(true),
        ),
    ]
}

/// Run one panel with the paper's λ = 0.07, b = 100.
pub fn run_panel(panel: &LinregPanel, runs: usize, seed: u64) -> LinregResult {
    let plan = StreamPlan {
        warmup_batches: 100,
        measured_batches: panel.measured,
        batch_sizes: BatchSizeProcess::Deterministic(100),
        schedule: panel.schedule,
    };
    let generator = RegressionGenerator::paper();
    let mut all_runs = Vec::with_capacity(runs);
    for run in 0..runs {
        let seed = seed.wrapping_add(run as u64);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let outputs = run_stream(
            &plan,
            |mode, size, rng| generator.sample_batch(mode, size, rng),
            contenders(panel.n, 0.07),
            seed,
            &mut rng,
        );
        all_runs.push(outputs);
    }
    let mean_series = mean_error_series(&all_runs);
    let summaries = (0..mean_series.len())
        .map(|ci| {
            let per_run: Vec<SeriesSummary> = all_runs
                .iter()
                .map(|run| summarize_series(&run[ci].errors, 20, 0.10))
                .collect();
            (all_runs[0][ci].name.clone(), average_summaries(&per_run))
        })
        .collect();
    let rtbs_sizes = &mean_series[0].sample_sizes;
    let rtbs_mean_sample_size = rtbs_sizes.iter().sum::<f64>() / rtbs_sizes.len().max(1) as f64;
    LinregResult {
        mean_series,
        summaries,
        rtbs_mean_sample_size,
    }
}

/// Run all three panels, write CSVs, print summaries.
pub fn run_fig12(runs: usize) -> Vec<LinregResult> {
    let mut results = Vec::new();
    for panel in panels() {
        let res = run_panel(&panel, runs, 120_000 + panel.n as u64);
        let names: Vec<&str> = res.mean_series.iter().map(|o| o.name.as_str()).collect();
        let mut header = vec!["t"];
        header.extend(names.iter().copied());
        let len = res.mean_series[0].errors.len();
        let rows: Vec<Vec<String>> = (0..len)
            .map(|t| {
                let mut row = vec![t.to_string()];
                row.extend(res.mean_series.iter().map(|o| f(o.errors[t], 3)));
                row
            })
            .collect();
        write_csv(
            &format!("fig12{}_linreg_mse.csv", panel.tag),
            &header,
            &rows,
        );
        let srows: Vec<Vec<String>> = res
            .summaries
            .iter()
            .map(|(name, s)| vec![name.clone(), f(s.mean_error, 2), f(s.expected_shortfall, 2)])
            .collect();
        print_table(
            &format!(
                "Figure 12({}) — linreg n={}, {} ({} runs)",
                panel.tag,
                panel.n,
                panel.schedule.label(),
                runs
            ),
            &["scheme", "MSE", "10% ES"],
            &srows,
        );
        println!(
            "R-TBS mean sample size: {:.0} (bound n={}; unsaturated equilibrium = {:.0})",
            res.rtbs_mean_sample_size,
            panel.n,
            tbs_core::theory::equilibrium_weight(100.0, 0.07)
        );
        results.push(res);
    }
    results
}
