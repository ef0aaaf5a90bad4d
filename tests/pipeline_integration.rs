//! Cross-crate integration: datagen → samplers → models, end to end. Every
//! contender runs as an `api::ModelManager` over the shared stream.
//!
//! These replicate the paper's headline qualitative findings on small
//! configurations: time-biased samples beat uniform ones on accuracy, beat
//! sliding windows on robustness, and keep their size bounds throughout.

use rand::SeedableRng;
use tbs_bench::pipeline::{run_stream, Contender};
use temporal_sampling::datagen::gmm::GmmGenerator;
use temporal_sampling::datagen::modes::ModeSchedule;
use temporal_sampling::datagen::regression::RegressionGenerator;
use temporal_sampling::datagen::stream::StreamPlan;
use temporal_sampling::datagen::BatchSizeProcess;
use temporal_sampling::ml::metrics::{average_summaries, summarize_series, SeriesSummary};
use temporal_sampling::ml::{KnnClassifier, LinearRegression};
use temporal_sampling::prelude::*;

fn knn_contenders(n: usize) -> Vec<Contender<KnnClassifier>> {
    vec![
        Contender::new("R-TBS", SamplerConfig::rtbs(0.07, n), KnnClassifier::new(7)),
        Contender::new("SW", SamplerConfig::sliding_count(n), KnnClassifier::new(7)),
        Contender::new("Unif", SamplerConfig::uniform(n), KnnClassifier::new(7)),
    ]
}

/// Average summaries over several runs of the P(10,10) kNN experiment.
fn knn_periodic_summaries(runs: usize) -> Vec<(String, SeriesSummary)> {
    let plan = StreamPlan {
        warmup_batches: 60,
        measured_batches: 50,
        batch_sizes: BatchSizeProcess::Deterministic(100),
        schedule: ModeSchedule::periodic(10, 10),
    };
    let mut per_contender: Vec<Vec<SeriesSummary>> = vec![Vec::new(); 3];
    let mut names = Vec::new();
    for run in 0..runs {
        let seed = 5000 + run as u64;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let gmm = GmmGenerator::paper(&mut rng);
        let outputs = run_stream(
            &plan,
            |mode, size, rng| gmm.sample_batch(mode, size, rng),
            knn_contenders(600),
            seed,
            &mut rng,
        );
        if names.is_empty() {
            names = outputs.iter().map(|o| o.name.clone()).collect();
        }
        for (i, o) in outputs.iter().enumerate() {
            per_contender[i].push(summarize_series(&o.errors, 20, 0.10));
        }
    }
    names
        .into_iter()
        .zip(per_contender.iter().map(|s| average_summaries(s)))
        .collect()
}

#[test]
fn knn_unif_is_least_accurate_and_sw_least_robust() {
    // The paper's Table-1 ordering: Unif worst accuracy by a margin; SW
    // worst ES by a margin.
    let summaries = knn_periodic_summaries(6);
    let by_name = |n: &str| {
        summaries
            .iter()
            .find(|(name, _)| name == n)
            .map(|(_, s)| *s)
            .expect("contender present")
    };
    let rtbs = by_name("R-TBS");
    let sw = by_name("SW");
    let unif = by_name("Unif");

    assert!(
        unif.mean_error > rtbs.mean_error + 2.0,
        "Unif ({:.1}%) should be clearly less accurate than R-TBS ({:.1}%)",
        unif.mean_error,
        rtbs.mean_error
    );
    assert!(
        sw.expected_shortfall > 1.3 * rtbs.expected_shortfall,
        "SW ES ({:.1}) should far exceed R-TBS ES ({:.1})",
        sw.expected_shortfall,
        rtbs.expected_shortfall
    );
    assert!(
        unif.expected_shortfall > rtbs.expected_shortfall,
        "Unif ES ({:.1}) should exceed R-TBS ES ({:.1})",
        unif.expected_shortfall,
        rtbs.expected_shortfall
    );
}

#[test]
fn regression_unsaturated_rtbs_beats_sw_with_less_data() {
    // §6.3 panel (b): R-TBS floats at ~1479 < 1600 items yet has lower MSE
    // than the full 1600-item sliding window under P(10,10).
    let plan = StreamPlan {
        warmup_batches: 100,
        measured_batches: 50,
        batch_sizes: BatchSizeProcess::Deterministic(100),
        schedule: ModeSchedule::periodic(10, 10),
    };
    let generator = RegressionGenerator::paper();
    let mut rtbs_mse = 0.0;
    let mut sw_mse = 0.0;
    let mut rtbs_size = 0.0;
    let runs = 5;
    for run in 0..runs {
        let seed = 9_100 + run as u64;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let cs = vec![
            Contender::new(
                "R-TBS",
                SamplerConfig::rtbs(0.07, 1600),
                LinearRegression::new(true),
            ),
            Contender::new(
                "SW",
                SamplerConfig::sliding_count(1600),
                LinearRegression::new(true),
            ),
        ];
        let outputs = run_stream(
            &plan,
            |mode, size, rng| generator.sample_batch(mode, size, rng),
            cs,
            seed,
            &mut rng,
        );
        rtbs_mse += outputs[0].errors.iter().sum::<f64>() / outputs[0].errors.len() as f64;
        sw_mse += outputs[1].errors.iter().sum::<f64>() / outputs[1].errors.len() as f64;
        rtbs_size +=
            outputs[0].sample_sizes.iter().sum::<f64>() / outputs[0].sample_sizes.len() as f64;
    }
    rtbs_mse /= runs as f64;
    sw_mse /= runs as f64;
    rtbs_size /= runs as f64;

    assert!(
        (rtbs_size - 1479.0).abs() < 15.0,
        "unsaturated equilibrium size {rtbs_size:.0}, expected ≈ 1479"
    );
    assert!(
        rtbs_mse < sw_mse,
        "R-TBS MSE {rtbs_mse:.2} should beat SW {sw_mse:.2} despite the smaller sample"
    );
}

#[test]
fn all_samplers_keep_their_bounds_through_the_pipeline() {
    let plan = StreamPlan {
        warmup_batches: 30,
        measured_batches: 20,
        batch_sizes: BatchSizeProcess::UniformRandom { lo: 0, hi: 200 },
        schedule: ModeSchedule::periodic(5, 5),
    };
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(777);
    let gmm = GmmGenerator::paper(&mut rng);
    let outputs = run_stream(
        &plan,
        |mode, size, rng| gmm.sample_batch(mode, size, rng),
        knn_contenders(200),
        777,
        &mut rng,
    );
    for o in &outputs {
        assert!(
            o.sample_sizes.iter().all(|&s| s <= 200.0 + 1e-9),
            "{} exceeded its bound",
            o.name
        );
        assert!(o.errors.iter().all(|&e| (0.0..=100.0).contains(&e)));
    }
}

#[test]
fn chao_pipeline_runs_but_rtbs_is_more_robust() {
    // Ablation: B-Chao is usable end-to-end; R-TBS should be at least as
    // robust (the gap is mild at the paper's λ = 0.07 with steady batches —
    // the pathology needs slow/bursty streams, tested in tbs-core).
    let plan = StreamPlan {
        warmup_batches: 40,
        measured_batches: 30,
        batch_sizes: BatchSizeProcess::Deterministic(60),
        schedule: ModeSchedule::periodic(10, 10),
    };
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(3131);
    let gmm = GmmGenerator::paper(&mut rng);
    let cs = vec![
        Contender::new(
            "B-Chao",
            SamplerConfig::chao(0.07, 400),
            KnnClassifier::new(7),
        ),
        Contender::new(
            "R-TBS",
            SamplerConfig::rtbs(0.07, 400),
            KnnClassifier::new(7),
        ),
    ];
    let outputs = run_stream(
        &plan,
        |mode, size, rng| gmm.sample_batch(mode, size, rng),
        cs,
        3131,
        &mut rng,
    );
    for o in &outputs {
        let mean = o.errors.iter().sum::<f64>() / o.errors.len() as f64;
        assert!(
            mean < 70.0,
            "{} failed to learn at all ({mean:.0}%)",
            o.name
        );
    }
}
