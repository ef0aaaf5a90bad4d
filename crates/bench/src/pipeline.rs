//! The §6 evaluation loop over contending sampling schemes.
//!
//! Protocol per batch (the paper's evaluation discipline):
//!
//! 1. **Predict** — score the arriving batch with the model trained on the
//!    *current* sample (test-then-train, so every item is out-of-sample);
//! 2. **Update** — feed the batch to the sampling scheme;
//! 3. **Retrain** — refit the model on the scheme's current sample.
//!
//! That loop is [`ModelManager::ingest`] under
//! [`RetrainPolicy::EveryBatch`]; [`run_stream`] drives one manager per
//! [`Contender`] over the *same* generated stream, so per-batch error
//! series are directly comparable.

use tbs_datagen::modes::Mode;
use tbs_datagen::stream::StreamPlan;
use tbs_ml::pipeline::OnlineModel;
use tbs_stats::rng::SplitMix64;
use temporal_sampling::api::{ModelManager, RetrainPolicy, SamplerConfig};

/// One sampling scheme + model under evaluation.
pub struct Contender<M> {
    /// Display name ("R-TBS", "SW", "Unif", …).
    pub name: String,
    /// The sampling scheme maintaining the training sample (its seed is
    /// replaced by one [`run_stream`] derives).
    pub config: SamplerConfig,
    /// The model retrained on that sample.
    pub model: M,
}

impl<M> Contender<M> {
    /// Bundle a named sampler config/model pair.
    pub fn new(name: impl Into<String>, config: SamplerConfig, model: M) -> Self {
        Self {
            name: name.into(),
            config,
            model,
        }
    }
}

/// Per-contender result of one streamed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// Contender name.
    pub name: String,
    /// Per-measured-batch error (index = batches after warm-up).
    pub errors: Vec<f64>,
    /// Expected sample size at each measured batch.
    pub sample_sizes: Vec<f64>,
}

/// Sampler seed of contender `index` in a run seeded with `seed`: its own
/// SplitMix64 output, so a contender's draws depend on neither the stream
/// nor which other contenders run.
fn contender_seed(seed: u64, index: usize) -> u64 {
    SplitMix64::new(seed ^ ((index as u64 + 1) << 32)).next_u64()
}

/// Execute one run of the plan: every contender sees the same stream.
///
/// The batch layout and `generate` (which produces the items for a
/// `(mode, size)` request) draw only from `rng`; contender `i` runs as a
/// [`ModelManager`] whose sampler is seeded from `seed` and `i`.
///
/// # Panics
///
/// Panics if a contender's config does not validate.
pub fn run_stream<T, M, R>(
    plan: &StreamPlan,
    mut generate: impl FnMut(Mode, usize, &mut R) -> Vec<T>,
    contenders: Vec<Contender<M>>,
    seed: u64,
    rng: &mut R,
) -> Vec<RunOutput>
where
    T: Clone + Send + Sync + 'static,
    M: OnlineModel<T>,
    R: rand::Rng,
{
    let measured = plan.measured_batches as usize;
    let (mut managers, mut outputs): (Vec<_>, Vec<_>) = contenders
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let sampler = c
                .config
                .seed(contender_seed(seed, i))
                .build::<T>()
                .unwrap_or_else(|e| panic!("contender {}: {e}", c.name));
            let output = RunOutput {
                name: c.name,
                errors: Vec::with_capacity(measured),
                sample_sizes: Vec::with_capacity(measured),
            };
            (
                ModelManager::new(sampler, c.model, RetrainPolicy::EveryBatch),
                output,
            )
        })
        .unzip();

    for planned in plan.layout(rng) {
        let batch = generate(planned.mode, planned.size as usize, rng);
        for (manager, out) in managers.iter_mut().zip(&mut outputs) {
            // INVARIANT: contenders are single-node samplers, whose ingest
            // and size queries cannot fail.
            let report = manager
                .ingest(batch.clone())
                .expect("single-node ingest is infallible");
            if planned.measured_time.is_some() {
                out.errors.push(report.batch_error);
                out.sample_sizes.push(
                    manager
                        .sampler_mut()
                        .expected_size()
                        .expect("single-node size query is infallible"),
                );
            }
        }
    }
    outputs
}

/// Element-wise mean of several runs' error series (for plotting stable
/// figure curves). All runs must have equal length and contender order.
pub fn mean_error_series(runs: &[Vec<RunOutput>]) -> Vec<RunOutput> {
    assert!(!runs.is_empty(), "need at least one run");
    let n_contenders = runs[0].len();
    (0..n_contenders)
        .map(|ci| {
            let name = runs[0][ci].name.clone();
            let len = runs[0][ci].errors.len();
            let mut errors = vec![0.0; len];
            let mut sizes = vec![0.0; len];
            for run in runs {
                assert_eq!(run[ci].errors.len(), len, "ragged runs");
                for (i, &e) in run[ci].errors.iter().enumerate() {
                    errors[i] += e;
                }
                for (i, &s) in run[ci].sample_sizes.iter().enumerate() {
                    sizes[i] += s;
                }
            }
            let scale = 1.0 / runs.len() as f64;
            errors.iter_mut().for_each(|e| *e *= scale);
            sizes.iter_mut().for_each(|s| *s *= scale);
            RunOutput {
                name,
                errors,
                sample_sizes: sizes,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tbs_datagen::gmm::GmmGenerator;
    use tbs_datagen::modes::ModeSchedule;
    use tbs_datagen::BatchSizeProcess;
    use tbs_ml::KnnClassifier;
    use tbs_stats::rng::Xoshiro256PlusPlus;

    fn small_plan(measured: u64, schedule: ModeSchedule) -> StreamPlan {
        StreamPlan {
            warmup_batches: 20,
            measured_batches: measured,
            batch_sizes: BatchSizeProcess::Deterministic(60),
            schedule,
        }
    }

    fn knn_contenders(lambda: f64, n: usize, k: usize) -> Vec<Contender<KnnClassifier>> {
        vec![
            Contender::new(
                "R-TBS",
                SamplerConfig::rtbs(lambda, n),
                KnnClassifier::new(k),
            ),
            Contender::new("SW", SamplerConfig::sliding_count(n), KnnClassifier::new(k)),
            Contender::new("Unif", SamplerConfig::uniform(n), KnnClassifier::new(k)),
        ]
    }

    /// One GMM run of `plan` over `contenders`, stream and samplers seeded
    /// from `seed`.
    fn gmm_run(
        seed: u64,
        plan: &StreamPlan,
        contenders: Vec<Contender<KnnClassifier>>,
    ) -> Vec<RunOutput> {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let gmm = GmmGenerator::paper(&mut rng);
        run_stream(
            plan,
            |mode, size, rng| gmm.sample_batch(mode, size, rng),
            contenders,
            seed,
            &mut rng,
        )
    }

    #[test]
    fn run_produces_aligned_series() {
        let plan = small_plan(15, ModeSchedule::single_event());
        let outputs = gmm_run(1, &plan, knn_contenders(0.1, 300, 7));
        assert_eq!(outputs.len(), 3);
        for o in &outputs {
            assert_eq!(o.errors.len(), 15);
            assert_eq!(o.sample_sizes.len(), 15);
            assert!(o.errors.iter().all(|&e| (0.0..=100.0).contains(&e)));
        }
    }

    #[test]
    fn warmed_up_models_beat_chance() {
        // With 100 classes, chance accuracy is ~1%; trained kNN on the
        // normal mode must be far better (error well below 90%).
        let plan = small_plan(10, ModeSchedule::AlwaysNormal);
        let outputs = gmm_run(2, &plan, knn_contenders(0.1, 300, 7));
        for o in &outputs {
            let avg: f64 = o.errors.iter().sum::<f64>() / o.errors.len() as f64;
            assert!(avg < 60.0, "{} error {avg}% — not learning", o.name);
        }
    }

    #[test]
    fn mode_change_spikes_error_then_adaptive_schemes_recover() {
        let plan = small_plan(30, ModeSchedule::single_event());
        let outputs = gmm_run(3, &plan, knn_contenders(0.1, 300, 7));
        let rtbs = &outputs[0];
        // Error right after the change (t=10) exceeds error before (t=9)...
        assert!(rtbs.errors[10] > rtbs.errors[9]);
        // ...and R-TBS recovers by the end of the abnormal stretch.
        assert!(rtbs.errors[19] < rtbs.errors[10]);
    }

    #[test]
    fn sample_sizes_respect_bounds() {
        let plan = small_plan(10, ModeSchedule::AlwaysNormal);
        let outputs = gmm_run(4, &plan, knn_contenders(0.1, 150, 7));
        for o in &outputs {
            assert!(o.sample_sizes.iter().all(|&s| s <= 150.0 + 1e-9));
        }
    }

    #[test]
    fn other_contenders_do_not_perturb_a_contenders_series() {
        // Each contender draws from its own seeded sampler and the stream
        // from its own RNG, so R-TBS scores the same batches with the
        // same samples whether or not SW and Unif run beside it.
        let plan = small_plan(20, ModeSchedule::single_event());
        let alone = gmm_run(
            5,
            &plan,
            vec![Contender::new(
                "R-TBS",
                SamplerConfig::rtbs(0.1, 300),
                KnnClassifier::new(7),
            )],
        );
        let beside = gmm_run(5, &plan, knn_contenders(0.1, 300, 7));
        assert_eq!(alone[0], beside[0]);
    }

    #[test]
    fn mean_series_averages_runs() {
        let run1 = vec![RunOutput {
            name: "X".into(),
            errors: vec![10.0, 20.0],
            sample_sizes: vec![5.0, 5.0],
        }];
        let run2 = vec![RunOutput {
            name: "X".into(),
            errors: vec![30.0, 40.0],
            sample_sizes: vec![7.0, 7.0],
        }];
        let mean = mean_error_series(&[run1, run2]);
        assert_eq!(mean[0].errors, vec![20.0, 30.0]);
        assert_eq!(mean[0].sample_sizes, vec![6.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn mean_series_rejects_empty() {
        mean_error_series(&[]);
    }
}
