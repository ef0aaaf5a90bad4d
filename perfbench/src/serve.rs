//! `serve-tcp`: the framed-TCP tier in-process. One `BlockingClient`
//! runs a closed loop against `serve_on`: each iteration sends `INGEST`
//! (100 items), `SUBSCRIBE_EPOCH` for the acked epoch and `PREDICT`;
//! every `RETRAIN_EVERY`-th iteration adds `RETRAIN` and every
//! `PULL_EVERY`-th adds `CHECKPOINT_PULL`.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use bytes::Bytes;
use tbs_server::client::BlockingClient;
use tbs_server::proto::EpochOutcome;
use tbs_server::server::{serve_on, ServerHandle};
use tbs_server::service::SamplerService;
use temporal_sampling::api::{RetrainPolicy, Sampler, SamplerConfig};
use temporal_sampling::datagen::modes::ModeSchedule;

use crate::data::Pool;
use crate::model::TimedLineFit;
use crate::trace::{self, Name};
use crate::workload::{check_epoch, ns, Tally, Workload, CAPACITY, LAMBDA};

const BATCH: usize = 100;
/// 200 batches: two periods of the 100/100 mode schedule, small enough
/// to stay in a core's L2 cache.
const POOL_BATCHES: usize = 200;
const MODE_PHASE: u64 = 100;
/// The server's own refit period k (2% of `INGEST`s refit).
const SERVER_RETRAIN_EVERY: u64 = 50;
/// Every j-th iteration sends `RETRAIN` before its `PREDICT`.
const RETRAIN_EVERY: u64 = 10;
/// Every k-th iteration sends `CHECKPOINT_PULL`.
const PULL_EVERY: u64 = 100;
/// Fixed warm-up: 300 iterations, far past saturation and several
/// refits.
const WARMUP_ITERS: u64 = 300;
const SUBSCRIBE_TIMEOUT: Duration = Duration::from_secs(1);

pub struct ServeTcp {
    pool: Pool,
    config: SamplerConfig,
    server: ServerHandle,
    client: BlockingClient<[f64; 2]>,
    /// Iterations run (warm-up included).
    iter: u64,
    /// Batches acked by the server.
    t: u64,
    last_epoch: u64,
    /// Last pulled checkpoint and the batch count it was pulled at.
    last_blob: Option<(Bytes, u64)>,
}

impl Workload for ServeTcp {
    /// Round trips wait on the server thread and the socket, so only the
    /// CPU cost is scaled.
    const HOST_SCALED: &'static [&'static str] = &["cpu_ns_per_item", "cpu_us_per_req"];

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
        let config = SamplerConfig::rtbs(LAMBDA, CAPACITY).seed(seed);
        let service: SamplerService<[f64; 2], TimedLineFit> = SamplerService::new(
            config,
            TimedLineFit::default(),
            RetrainPolicy::Periodic(SERVER_RETRAIN_EVERY),
        )
        .map_err(|e| e.to_string())?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let server = serve_on(listener, service, None).map_err(|e| e.to_string())?;
        let client = BlockingClient::connect(server.addr()).map_err(|e| e.to_string())?;
        let mut w = Self {
            pool,
            config,
            server,
            client,
            iter: 0,
            t: 0,
            last_epoch: 0,
            last_blob: None,
        };
        let mut warmup = Tally::default();
        while w.iter < WARMUP_ITERS {
            w.iteration(&mut warmup);
        }
        if warmup.failed > 0 {
            return Err(format!("warm-up failed: {:?}", warmup.errors));
        }
        Ok(w)
    }

    fn run(&mut self, deadline: Instant, tally: &mut Tally) {
        loop {
            self.iteration(tally);
            if Instant::now() >= deadline {
                break;
            }
        }
    }

    fn finish(mut self, tally: &mut Tally) {
        match self.client.get_sample() {
            Ok((epoch, _, items)) => {
                tally.attempted += 1;
                // A refit publishes too, so the served epoch may be past
                // the last acked one, never behind it.
                tally.check(if epoch >= self.last_epoch {
                    Ok(())
                } else {
                    Err(format!(
                        "served epoch {epoch}, last acked {}",
                        self.last_epoch
                    ))
                });
                tally.check(self.pool.check_sample(&items, CAPACITY));
            }
            Err(e) => tally.fail(format!("GET_SAMPLE: {e}")),
        }
        // The last pulled checkpoint must restore to a sampler at the
        // same stream position.
        match self.last_blob.take() {
            Some((blob, batches)) => match Sampler::<[f64; 2]>::restore(&self.config, blob) {
                Ok(mut restored) => {
                    tally.check(if restored.batches_observed() == batches {
                        Ok(())
                    } else {
                        Err(format!(
                            "restored {} batches, pulled at {batches}",
                            restored.batches_observed()
                        ))
                    });
                    tally.check(
                        restored
                            .sample()
                            .map_err(|e| e.to_string())
                            .and_then(|items| self.pool.check_sample(&items, CAPACITY)),
                    );
                }
                Err(e) => tally.fail(format!("Sampler::restore of the pulled blob: {e}")),
            },
            None => tally.fail("no CHECKPOINT_PULL completed"),
        }
        drop(self.client);
        if let Err(e) = self.server.join() {
            tally.fail(format!("server exit: {e}"));
        }
    }
}

impl ServeTcp {
    fn iteration(&mut self, tally: &mut Tally) {
        let i = self.iter;
        self.iter += 1;
        trace::set_request(i);
        // A retrain cycle starts with each iteration that sends RETRAIN.
        let refit_now = i.is_multiple_of(RETRAIN_EVERY);
        if refit_now {
            tally.cycle();
        }
        self.ingest_and_subscribe(tally);
        let retrained = refit_now && self.retrain(tally);
        if i.is_multiple_of(PULL_EVERY) {
            match trace::span(Name::WireCheckpointPull, || self.client.checkpoint_pull()) {
                Ok(blob) => {
                    tally.attempted += 1;
                    tally.requests += 1;
                    tally.blob_bytes = blob.len() as u64;
                    self.last_blob = Some((blob, self.t));
                }
                Err(e) => tally.fail(format!("CHECKPOINT_PULL: {e}")),
            }
        }
        let x = 0.5 + (i % 10) as f64;
        let start = Instant::now();
        match trace::span(Name::WirePredict, || self.client.predict(x)) {
            Ok(y) => {
                tally.attempted += 1;
                tally.requests += 1;
                tally.predict.record(ns(start, Instant::now()));
                if retrained {
                    tally.check(self.pool.check_prediction(self.t.saturating_sub(1), x, y));
                }
            }
            Err(e) => {
                tally.fail(format!("PREDICT: {e}"));
                tally.predict.record_miss();
            }
        }
    }

    fn ingest_and_subscribe(&mut self, tally: &mut Tally) {
        let batch = self.pool.batch(self.t).to_vec();
        let items = batch.len() as u64;
        let start = Instant::now();
        let (batches, epoch) = match trace::span(Name::WireIngest, || self.client.ingest(batch)) {
            Ok(ack) => ack,
            Err(e) => {
                tally.fail(format!("INGEST: {e}"));
                tally.ack.record_miss();
                tally.visible.record_miss();
                return;
            }
        };
        tally.ack.record(ns(start, Instant::now()));
        tally.attempted += 1;
        tally.requests += 1;
        tally.items += items;
        self.t += 1;
        tally.check(if batches == self.t {
            check_epoch(&mut self.last_epoch, epoch)
        } else {
            Err(format!("server acked {batches} batches, {} sent", self.t))
        });

        tally.subscribes += 1;
        let reply = trace::span(Name::WireSubscribe, || {
            self.client.subscribe_epoch(epoch, Some(SUBSCRIBE_TIMEOUT))
        });
        match reply {
            Ok((EpochOutcome::Published, got, _)) if got >= epoch => {
                tally.visible.record(ns(start, Instant::now()));
                tally.attempted += 1;
                tally.requests += 1;
                tally.subscribes_published += 1;
                tally.epochs += 1;
            }
            Ok((outcome, got, _)) => {
                tally.fail(format!(
                    "SUBSCRIBE_EPOCH {epoch}: {outcome:?} at epoch {got}"
                ));
                tally.visible.record_miss();
            }
            Err(e) => {
                tally.fail(format!("SUBSCRIBE_EPOCH: {e}"));
                tally.visible.record_miss();
            }
        }
    }

    /// Send `RETRAIN`; true when the model was refit on the latest epoch.
    fn retrain(&mut self, tally: &mut Tally) -> bool {
        let start = Instant::now();
        match trace::span(Name::WireRetrain, || self.client.retrain()) {
            Ok(Some(epoch)) => {
                tally.retrain.record(ns(start, Instant::now()));
                tally.attempted += 1;
                tally.requests += 1;
                let fresh = epoch >= self.last_epoch;
                tally.check(if fresh {
                    Ok(())
                } else {
                    Err(format!("refit on epoch {epoch}, {} acked", self.last_epoch))
                });
                fresh
            }
            Ok(None) => {
                tally.fail("RETRAIN: no sample to train on");
                tally.retrain.record_miss();
                false
            }
            Err(e) => {
                tally.fail(format!("RETRAIN: {e}"));
                tally.retrain.record_miss();
                false
            }
        }
    }
}
