//! `ingest-sharded-bursty`: a 2-shard R-TBS engine fed the bursty
//! batch-size cycle. Every `PUBLISH_EVERY` batches the bench thread
//! publishes, waits for the epoch on a reader and refits the line on
//! it, as a retraining manager does.

use std::time::Instant;

use tbs_server::service::Predictor;
use temporal_sampling::api::{SampleReader, Sampler, SamplerConfig};
use temporal_sampling::datagen::modes::ModeSchedule;
use temporal_sampling::ml::pipeline::OnlineModel;

use crate::data::Pool;
use crate::model::TimedLineFit;
use crate::trace::{self, Name};
use crate::workload::{check_epoch, ns, Tally, Workload, CAPACITY, LAMBDA};

/// K = nproc on the 2-vCPU reference host.
const SHARDS: usize = 2;
/// Empty, single-item, mid-size and over-capacity batches drive R-TBS
/// through its unsaturated and deferred-downsample transitions.
const SIZES: [usize; 6] = [0, 1, 250, 7, 90, 1000];
/// 30 cycles = 180 batches (40 440 items, 650 KB) = one period of the
/// 90/90 schedule; small enough to stay in a core's L2 cache.
const POOL_CYCLES: usize = 30;
const MODE_PHASE: u64 = 90;
/// Publication period m: 20 whole size cycles (26 960 items), so every
/// ingest window between two publications holds the same batches.
const PUBLISH_EVERY: u64 = 20 * SIZES.len() as u64;
/// A fixed amount of warm-up ingest (about a million items), followed
/// by one publication and refit. Publishing only once keeps set-up time
/// about CPU work rather than about cross-thread wake-ups, which track
/// the host.
const WARMUP_BATCHES: u64 = 4_440;
const PROBE_X: f64 = 2.5;

pub struct ShardedBursty {
    pool: Pool,
    sampler: Sampler<[f64; 2]>,
    reader: SampleReader<[f64; 2]>,
    model: TimedLineFit,
    /// The 1000 items the refit model scores after each refit: enough
    /// work that the cache misses of a just-woken thread do not decide
    /// the timing.
    probe: Vec<[f64; 2]>,
    t: u64,
    last_epoch: u64,
}

impl Workload for ShardedBursty {
    /// Measured as is: with the shard threads busy beside the bench
    /// thread, even the bench-thread probe scoring stayed steady.
    const HOST_SCALED: &'static [&'static str] = &[];

    fn pool(&self) -> &Pool {
        &self.pool
    }

    fn setup(seed: u64) -> Result<Self, String> {
        let pool = Pool::generate(
            seed,
            &SIZES,
            POOL_CYCLES,
            ModeSchedule::periodic(MODE_PHASE, MODE_PHASE),
        );
        let sampler = SamplerConfig::rtbs(LAMBDA, CAPACITY)
            .shards(SHARDS)
            .seed(seed)
            .build::<[f64; 2]>()
            .map_err(|e| e.to_string())?;
        let probe = pool.batch(5).to_vec();
        let reader = sampler.reader();
        let mut w = Self {
            pool,
            sampler,
            reader,
            model: TimedLineFit::default(),
            probe,
            t: 0,
            last_epoch: 0,
        };
        let mut warmup = Tally::default();
        for t in 0..WARMUP_BATCHES {
            if let Err(e) = w.sampler.observe(w.pool.batch(t).to_vec()) {
                warmup.fail(e);
            }
        }
        w.t = WARMUP_BATCHES;
        w.publish_and_refit(WARMUP_BATCHES - 1, &mut warmup);
        if warmup.failed > 0 {
            return Err(format!("warm-up failed: {:?}", warmup.errors));
        }
        let size = w.sampler.expected_size().map_err(|e| e.to_string())?;
        if size < CAPACITY as f64 - 1e-6 || w.model.stats().retrains == 0 {
            return Err(format!(
                "warm-up ended unsaturated (C = {size}) or without a refit"
            ));
        }
        w.model.reset();
        Ok(w)
    }

    /// Stops only right after a publication, when the pipeline is
    /// drained and the shard threads idle.
    fn run(&mut self, deadline: Instant, tally: &mut Tally) {
        let mut window_ns = 0;
        loop {
            if self.step(tally, &mut window_ns) && Instant::now() >= deadline {
                break;
            }
        }
    }

    fn finish(mut self, tally: &mut Tally) {
        tally.predict = self.model.stats().scoring.clone();
        tally.check(
            self.sampler
                .quiesce()
                .map_err(|e| e.to_string())
                .and_then(|()| {
                    let seen = self.sampler.batches_observed();
                    if seen == self.t {
                        Ok(())
                    } else {
                        Err(format!("engine saw {seen} batches, {} sent", self.t))
                    }
                }),
        );
        let result = self.sampler.sample();
        tally.check(
            result
                .map_err(|e| e.to_string())
                .and_then(|items| self.pool.check_sample(&items, CAPACITY)),
        );
    }
}

impl ShardedBursty {
    /// Observe one batch; after every `PUBLISH_EVERY`-th, publish, wait,
    /// refit and check. `window_ns` sums the observe time since the last
    /// publication. Returns whether this step published.
    fn step(&mut self, tally: &mut Tally, window_ns: &mut u64) -> bool {
        let t = self.t;
        self.t += 1;
        trace::set_request(t);
        let batch = self.pool.batch(t).to_vec();
        let items = batch.len() as u64;
        let start = Instant::now();
        let result = trace::span(Name::Observe, || self.sampler.observe(batch));
        *window_ns += ns(start, Instant::now());
        match result {
            Ok(()) => {
                tally.attempted += 1;
                tally.requests += 1;
                tally.items += items;
            }
            Err(e) => tally.fail(format!("Sampler::observe: {e}")),
        }
        if !self.t.is_multiple_of(PUBLISH_EVERY) {
            return false;
        }
        tally.ack.record(std::mem::take(window_ns));
        self.publish_and_refit(t, tally);
        true
    }

    fn publish_and_refit(&mut self, t: u64, tally: &mut Tally) {
        let start = Instant::now();
        let epoch = match trace::span(Name::Publish, || self.sampler.publish()) {
            Ok(epoch) => epoch,
            Err(e) => {
                tally.fail(format!("Sampler::publish: {e}"));
                tally.visible.record_miss();
                tally.retrain.record_miss();
                return;
            }
        };
        tally.attempted += 1;
        tally.requests += 1;
        let Some(frozen) = trace::span(Name::ReaderWait, || self.reader.wait_for_epoch(epoch))
        else {
            tally.fail("SampleReader::wait_for_epoch: publisher gone");
            tally.visible.record_miss();
            tally.retrain.record_miss();
            return;
        };
        tally.attempted += 1;
        tally.requests += 1;
        let held = Instant::now();
        tally.visible.record(ns(start, held));
        self.model.retrain(frozen.items());
        tally.retrain.record(ns(held, Instant::now()));
        self.model.batch_error(&self.probe);
        tally.epochs += 1;
        tally.cycle();

        tally.check(if frozen.epoch() >= epoch {
            check_epoch(&mut self.last_epoch, frozen.epoch())
        } else {
            Err(format!("waited for epoch {epoch}, got {}", frozen.epoch()))
        });
        tally.check(self.pool.check_sample(frozen.items(), CAPACITY));
        tally.check(match self.model.predict(PROBE_X) {
            Some(y) => self.pool.check_prediction(t, PROBE_X, y),
            None => Err("no fit after a refit".into()),
        });
    }
}
