//! `manage-rtbs`: the paper's §6 loop on one thread. A `ModelManager`
//! over single-node R-TBS scores each arriving 100-item batch, adds it
//! to the sample, and refits the line every `RETRAIN_EVERY` batches on a
//! freshly published epoch.

use std::time::Instant;

use tbs_server::service::Predictor;
use temporal_sampling::api::{ModelManager, RetrainPolicy, SampleReader, SamplerConfig};
use temporal_sampling::datagen::modes::ModeSchedule;

use crate::data::Pool;
use crate::model::TimedLineFit;
use crate::trace::{self, Name};
use crate::workload::{check_epoch, ns, Tally, Workload, CAPACITY, LAMBDA};

const BATCH: usize = 100;
/// 200 batches (20 000 items, 320 KB): two periods of the 100/100 mode
/// schedule. Pool and membership grid stay in a core's L2 cache, so
/// neighbours on the shared L3 do not decide the timings.
const POOL_BATCHES: usize = 200;
const MODE_PHASE: u64 = 100;
/// Refit period k. Retraining calls are 2% of all calls, well away from
/// the 10% that would put the p90 ingest latency on their boundary.
const RETRAIN_EVERY: u64 = 50;
/// A fixed amount of warm-up work, far past saturation (about 20
/// batches) and the first refit.
const WARMUP_BATCHES: u64 = 20_000;
/// x at which a refit's prediction is checked against the line.
const PROBE_X: f64 = 7.5;

pub struct ManageRtbs {
    pool: Pool,
    mgr: ModelManager<[f64; 2], TimedLineFit>,
    reader: SampleReader<[f64; 2]>,
    /// Next batch of the stream.
    t: u64,
    last_epoch: u64,
}

impl Workload for ManageRtbs {
    const HOST_SCALED: &'static [&'static str] = &[
        "ingest_items_per_s",
        "cpu_ns_per_item",
        "cpu_us_per_req",
        "ingest_ack_p50_us",
        "predict_p50_us",
        "setup_s",
    ];

    fn pool(&self) -> &Pool {
        &self.pool
    }

    fn setup(seed: u64) -> Result<Self, String> {
        let pool = Pool::generate(
            seed,
            &[BATCH],
            POOL_BATCHES,
            ModeSchedule::periodic(MODE_PHASE, MODE_PHASE),
        );
        let sampler = SamplerConfig::rtbs(LAMBDA, CAPACITY)
            .seed(seed)
            .build::<[f64; 2]>()
            .map_err(|e| e.to_string())?;
        let mut mgr = ModelManager::new(
            sampler,
            TimedLineFit::default(),
            RetrainPolicy::Periodic(RETRAIN_EVERY),
        );
        let reader = mgr.reader();
        for t in 0..WARMUP_BATCHES {
            mgr.ingest(pool.batch(t).to_vec())
                .map_err(|e| e.to_string())?;
        }
        let size = mgr
            .sampler_mut()
            .expected_size()
            .map_err(|e| e.to_string())?;
        if size < CAPACITY as f64 - 1e-6 || mgr.retrain_count() == 0 {
            return Err(format!(
                "warm-up ended unsaturated (C = {size}) or without a refit"
            ));
        }
        mgr.current_model().reset();
        let last_epoch = reader.published_epoch();
        Ok(Self {
            pool,
            mgr,
            reader,
            t: WARMUP_BATCHES,
            last_epoch,
        })
    }

    fn run(&mut self, deadline: Instant, tally: &mut Tally) {
        loop {
            let t = self.t;
            self.t += 1;
            trace::set_request(t);
            let batch = self.pool.batch(t).to_vec();
            let items = batch.len() as u64;
            let start = Instant::now();
            let result = trace::span(Name::ManagerIngest, || self.mgr.ingest(batch));
            let end = Instant::now();
            match result {
                Ok(report) => {
                    tally.attempted += 1;
                    tally.requests += 1;
                    tally.items += items;
                    tally.ack.record(ns(start, end));
                    if report.retrained {
                        tally.cycle();
                        tally.retrain.record(ns(start, end));
                        match self.mgr.current_model().stats().last_retrain_at {
                            Some(at) => tally.visible.record(ns(start, at)),
                            None => tally.visible.record_miss(),
                        }
                        self.check_refit(t, tally);
                    }
                }
                Err(e) => {
                    tally.fail(format!("ModelManager::ingest: {e}"));
                    tally.ack.record_miss();
                }
            }
            if end >= deadline {
                break;
            }
        }
    }

    fn finish(mut self, tally: &mut Tally) {
        tally.predict = self.mgr.current_model().stats().scoring.clone();
        let metrics = *self.mgr.metrics();
        tally.check(if metrics.retrains == metrics.batches / RETRAIN_EVERY {
            Ok(())
        } else {
            Err(format!(
                "{} refits over {} batches with k = {RETRAIN_EVERY}",
                metrics.retrains, metrics.batches
            ))
        });
        let result = self.mgr.sampler_mut().sample();
        tally.check(
            result
                .map_err(|e| e.to_string())
                .and_then(|items| self.pool.check_sample(&items, CAPACITY)),
        );
    }
}

impl ManageRtbs {
    /// Checks on the epoch a policy-fired refit just trained on.
    fn check_refit(&mut self, t: u64, tally: &mut Tally) {
        let Some(frozen) = self.reader.latest() else {
            tally.fail("refit reported but no epoch published");
            return;
        };
        tally.epochs += 1;
        tally.check(check_epoch(&mut self.last_epoch, frozen.epoch()));
        tally.check(self.pool.check_sample(frozen.items(), CAPACITY));
        let y = self.mgr.current_model().predict(PROBE_X);
        tally.check(match y {
            Some(y) => self.pool.check_prediction(t, PROBE_X, y),
            None => Err("no fit after a refit".into()),
        });
    }
}
