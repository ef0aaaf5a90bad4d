//! What the server serves: a [`WireService`] adapts an engine to the
//! wire verbs, so the connection loop never touches sampler internals.
//!
//! Two implementations ship:
//!
//! * [`SamplerService`] — the full engine: a facade
//!   [`Sampler`] wrapped in a
//!   [`ModelManager`], built from a [`SamplerConfig`]. Supports every
//!   verb, including `CHECKPOINT_PUSH` (state replacement) and
//!   `PREDICT`/`RETRAIN` through the managed model.
//! * [`CellService`] — a read-only view over a shared
//!   [`EpochCell`]: `GET_SAMPLE` and `SUBSCRIBE_EPOCH` only, for
//!   fan-out replicas that mirror a publisher owned elsewhere in the
//!   process.

use std::sync::Arc;

use bytes::Bytes;
use tbs_core::checkpoint::Wire;
use tbs_core::frozen::FrozenSample;
use tbs_distributed::snapshot::EpochCell;
use temporal_sampling::api::{
    ModelManager, RetrainPolicy, SampleReader, Sampler, SamplerConfig, TbsError,
};
use temporal_sampling::ml::pipeline::OnlineModel;

use crate::proto::ErrorCode;

/// Typed failure from a service method; the server turns it into a
/// [`Reply::Error`](crate::proto::Reply::Error) frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The resource exists but has nothing to give yet (no published
    /// sample, no configured model, …).
    Unavailable(&'static str),
    /// The request carried bytes the engine rejected as undecodable.
    Corrupt(String),
    /// The engine returned a typed error.
    Engine(String),
    /// This service does not implement the verb.
    Unsupported(&'static str),
}

impl ServiceError {
    /// Wire error category plus human-readable detail.
    pub fn to_wire(&self) -> (ErrorCode, String) {
        match self {
            ServiceError::Unavailable(what) => (ErrorCode::Unavailable, (*what).to_string()),
            ServiceError::Corrupt(detail) => (ErrorCode::Corrupt, detail.clone()),
            ServiceError::Engine(detail) => (ErrorCode::Engine, detail.clone()),
            ServiceError::Unsupported(what) => (ErrorCode::Unsupported, (*what).to_string()),
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (code, detail) = self.to_wire();
        write!(f, "{code:?}: {detail}")
    }
}

impl std::error::Error for ServiceError {}

fn engine_err(e: TbsError) -> ServiceError {
    ServiceError::Engine(e.to_string())
}

/// A realized publication: epoch, batches it reflects, and the items.
pub type SampleView<T> = (u64, u64, Vec<T>);

/// Engine surface the connection loop programs against.
///
/// The server holds the service behind one lock and calls every method
/// under it. `SUBSCRIBE_EPOCH` is the exception: the connection thread
/// takes a [`WireService::epoch_reader`] handle under the lock, then
/// blocks on the handle with the lock released, so a long poll never
/// stalls the other connections.
pub trait WireService<T: Wire + Clone + Send + Sync + 'static>: Send + 'static {
    /// Latest published sample.
    fn latest(&mut self) -> Result<SampleView<T>, ServiceError>;

    /// A handle on the publisher `SUBSCRIBE_EPOCH` waits on. A service
    /// that replaces its publisher (`restore`) must hand out a reader on
    /// the new one from then on: a subscriber whose wait ends in
    /// `PublisherGone` asks again and follows the replacement.
    fn epoch_reader(&self) -> SampleReader<T>;

    /// Feed one batch; returns (batches observed, published epoch).
    fn ingest(&mut self, items: Vec<T>) -> Result<(u64, u64), ServiceError>;

    /// Serialize full engine state.
    fn checkpoint(&mut self) -> Result<Bytes, ServiceError>;

    /// Replace engine state from a checkpoint blob.
    fn restore(&mut self, blob: Bytes) -> Result<(), ServiceError>;

    /// Evaluate the served model.
    fn predict(&mut self, x: f64) -> Result<f64, ServiceError>;

    /// Refit the model on the current sample; returns the epoch it
    /// trained on, if a sample was available.
    fn retrain(&mut self) -> Result<Option<u64>, ServiceError>;
}

/// Scalar prediction surface for the `PREDICT` verb: the
/// [`OnlineModel`] trait deliberately has no inference method (the
/// paper's pipeline only scores batches), so serving adds one.
pub trait Predictor {
    /// Model output at `x`, or `None` when no fit exists yet.
    fn predict(&self, x: f64) -> Option<f64>;
}

/// One-dimensional least-squares fit `y = slope·x + intercept`,
/// refit from scratch on each sample of `[x, y]` pairs — the serving
/// binary's default model (closed form, no iteration, deterministic).
#[derive(Debug, Clone, Copy, Default)]
pub struct LineFit {
    fit: Option<(f64, f64)>,
}

impl LineFit {
    /// An unfit line; [`Predictor::predict`] returns `None` until the
    /// first retrain.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(slope, intercept)` of the current fit, if any.
    pub fn coefficients(&self) -> Option<(f64, f64)> {
        self.fit
    }
}

impl OnlineModel<[f64; 2]> for LineFit {
    fn retrain(&mut self, sample: &[[f64; 2]]) {
        if sample.is_empty() {
            return;
        }
        let n = sample.len() as f64;
        let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
        for [x, y] in sample {
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
        let denom = n * sxx - sx * sx;
        let slope = if denom.abs() < f64::EPSILON {
            0.0
        } else {
            (n * sxy - sx * sy) / denom
        };
        let intercept = (sy - slope * sx) / n;
        self.fit = Some((slope, intercept));
    }

    fn batch_error(&self, batch: &[[f64; 2]]) -> f64 {
        let Some((slope, intercept)) = self.fit else {
            return f64::INFINITY;
        };
        if batch.is_empty() {
            return 0.0;
        }
        let sq_err = |[x, y]: &[f64; 2]| {
            let err = y - (slope * x + intercept);
            err * err
        };
        // Four independent add chains instead of one serial chain, so
        // the adds pipeline; the remainder folds in serially.
        let mut lanes = [0.0f64; 4];
        let quads = batch.chunks_exact(4);
        let rest = quads.remainder();
        for quad in quads {
            for (lane, point) in lanes.iter_mut().zip(quad) {
                *lane += sq_err(point);
            }
        }
        let sse = rest
            .iter()
            .fold((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]), |acc, p| {
                acc + sq_err(p)
            });
        sse / batch.len() as f64
    }
}

impl Predictor for LineFit {
    fn predict(&self, x: f64) -> Option<f64> {
        self.fit.map(|(slope, intercept)| slope * x + intercept)
    }
}

/// A model that serves nothing: `PREDICT` returns unavailable, retrains
/// are no-ops. Lets a [`SamplerService`] expose pure sampling verbs for
/// item types with no model attached (tests, ingestion-only tiers).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoModel;

impl<T> OnlineModel<T> for NoModel {
    fn retrain(&mut self, _sample: &[T]) {}
    fn batch_error(&self, _batch: &[T]) -> f64 {
        0.0
    }
}

impl Predictor for NoModel {
    fn predict(&self, _x: f64) -> Option<f64> {
        None
    }
}

/// Full-engine service: a [`ModelManager`] over a facade sampler.
///
/// Each accepted ingest is followed by a `publish`, so every batch
/// advances the epoch that `SUBSCRIBE_EPOCH` clients observe — the
/// wire contract is "one ingest, one epoch", independent of the
/// engine's internal publish policy.
pub struct SamplerService<T, M>
where
    T: Wire + Clone + Send + Sync + 'static,
    M: OnlineModel<T> + Predictor + Send + 'static,
{
    // `Option` only so `restore` can move the manager out, swap the
    // sampler, and put it back; it is never `None` between calls.
    manager: Option<ModelManager<T, M>>,
    reader: SampleReader<T>,
    config: SamplerConfig,
    policy: RetrainPolicy,
}

impl<T, M> SamplerService<T, M>
where
    T: Wire + Clone + Send + Sync + 'static,
    M: OnlineModel<T> + Predictor + Send + 'static,
{
    /// Build the engine from `config` and wrap it with `model`.
    pub fn new(config: SamplerConfig, model: M, policy: RetrainPolicy) -> Result<Self, TbsError> {
        let sampler = config.build::<T>()?;
        Ok(Self::from_sampler(sampler, model, policy))
    }

    /// Wrap an already-built sampler (e.g. one recovered from a
    /// checkpoint store).
    pub fn from_sampler(sampler: Sampler<T>, model: M, policy: RetrainPolicy) -> Self {
        let reader = sampler.reader();
        let config = *sampler.config();
        Self {
            manager: Some(ModelManager::new(sampler, model, policy)),
            reader,
            config,
            policy,
        }
    }

    fn manager(&mut self) -> &mut ModelManager<T, M> {
        self.manager.as_mut().expect("manager always present")
    }

    /// Borrow the managed sampler (diagnostics, tests).
    pub fn sampler(&self) -> &Sampler<T> {
        self.manager
            .as_ref()
            .expect("manager always present")
            .sampler()
    }
}

impl<T, M> WireService<T> for SamplerService<T, M>
where
    T: Wire + Clone + Send + Sync + 'static,
    M: OnlineModel<T> + Predictor + Send + 'static,
{
    fn latest(&mut self) -> Result<SampleView<T>, ServiceError> {
        match self.reader.latest() {
            Some(frozen) => Ok(view(&frozen)),
            None => Err(ServiceError::Unavailable("no sample published yet")),
        }
    }

    fn epoch_reader(&self) -> SampleReader<T> {
        self.reader.clone()
    }

    fn ingest(&mut self, items: Vec<T>) -> Result<(u64, u64), ServiceError> {
        let mgr = self.manager();
        let report = mgr.ingest(items).map_err(engine_err)?;
        // A policy-fired refit has just published this very state; a
        // second publish would only announce a duplicate epoch.
        let epoch = if report.retrained {
            mgr.sampler().requested_epoch()
        } else {
            mgr.sampler_mut().publish().map_err(engine_err)?
        };
        Ok((mgr.sampler().batches_observed(), epoch))
    }

    fn checkpoint(&mut self) -> Result<Bytes, ServiceError> {
        self.manager().sampler_mut().snapshot().map_err(engine_err)
    }

    fn restore(&mut self, blob: Bytes) -> Result<(), ServiceError> {
        // Validate the blob into a fresh sampler *before* touching the
        // live engine: a corrupt push must leave state untouched.
        let mut sampler = Sampler::restore(&self.config, blob).map_err(|e| match e {
            TbsError::Checkpoint(inner) => ServiceError::Corrupt(inner.to_string()),
            other => ServiceError::Engine(other.to_string()),
        })?;
        // Publish the restored state so GET_SAMPLE and epoch
        // subscribers see it immediately — a pushed replica must serve
        // without waiting for its first ingest.
        if sampler.batches_observed() > 0 {
            sampler.publish().map_err(engine_err)?;
        }
        let (_old, model) = self
            .manager
            .take()
            .expect("manager always present")
            .into_parts();
        self.reader = sampler.reader();
        self.manager = Some(ModelManager::new(sampler, model, self.policy));
        Ok(())
    }

    fn predict(&mut self, x: f64) -> Result<f64, ServiceError> {
        self.manager()
            .current_model()
            .predict(x)
            .ok_or(ServiceError::Unavailable("model has no fit yet"))
    }

    fn retrain(&mut self) -> Result<Option<u64>, ServiceError> {
        Ok(self.manager().retrain_now().map(|frozen| frozen.epoch()))
    }
}

/// Read-only service over a shared [`EpochCell`]: serves `GET_SAMPLE`
/// and `SUBSCRIBE_EPOCH` from whatever publisher owns the cell; every
/// mutating verb answers `Unsupported`.
pub struct CellService<T> {
    reader: SampleReader<T>,
}

impl<T> CellService<T> {
    /// Serve the given cell.
    pub fn new(cell: Arc<EpochCell<T>>) -> Self {
        Self {
            reader: SampleReader::from(cell),
        }
    }
}

impl<T> WireService<T> for CellService<T>
where
    T: Wire + Clone + Send + Sync + 'static,
{
    fn latest(&mut self) -> Result<SampleView<T>, ServiceError> {
        match self.reader.latest() {
            Some(frozen) => Ok(view(&frozen)),
            None => Err(ServiceError::Unavailable("no sample published yet")),
        }
    }

    fn epoch_reader(&self) -> SampleReader<T> {
        self.reader.clone()
    }

    fn ingest(&mut self, _items: Vec<T>) -> Result<(u64, u64), ServiceError> {
        Err(ServiceError::Unsupported("read-only replica: INGEST"))
    }

    fn checkpoint(&mut self) -> Result<Bytes, ServiceError> {
        Err(ServiceError::Unsupported(
            "read-only replica: CHECKPOINT_PULL",
        ))
    }

    fn restore(&mut self, _blob: Bytes) -> Result<(), ServiceError> {
        Err(ServiceError::Unsupported(
            "read-only replica: CHECKPOINT_PUSH",
        ))
    }

    fn predict(&mut self, _x: f64) -> Result<f64, ServiceError> {
        Err(ServiceError::Unsupported("read-only replica: PREDICT"))
    }

    fn retrain(&mut self) -> Result<Option<u64>, ServiceError> {
        Err(ServiceError::Unsupported("read-only replica: RETRAIN"))
    }
}

fn view<T: Clone>(frozen: &Arc<FrozenSample<T>>) -> SampleView<T> {
    (
        frozen.epoch(),
        frozen.batches_observed(),
        frozen.items().to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_fit_recovers_a_noiseless_line() {
        let mut fit = LineFit::new();
        let sample: Vec<[f64; 2]> = (0..50).map(|i| [i as f64, 3.0 * i as f64 - 2.0]).collect();
        fit.retrain(&sample);
        let (slope, intercept) = fit.coefficients().unwrap();
        assert!((slope - 3.0).abs() < 1e-9, "slope {slope}");
        assert!((intercept + 2.0).abs() < 1e-9, "intercept {intercept}");
        assert!((fit.predict(10.0).unwrap() - 28.0).abs() < 1e-9);
        assert!(fit.batch_error(&sample) < 1e-18);
    }

    #[test]
    fn line_fit_batch_error_matches_a_serial_sum() {
        let mut fit = LineFit::new();
        let train: Vec<[f64; 2]> = (0..40)
            .map(|i| [i as f64, 0.5 * i as f64 + (i % 7) as f64])
            .collect();
        fit.retrain(&train);
        let (slope, intercept) = fit.coefficients().unwrap();
        let batch: Vec<[f64; 2]> = (0..1000)
            .map(|i| {
                let x = i as f64 * 0.37 - 90.0;
                [x, 1.3 * x - 4.0 + ((i * 13) % 11) as f64 * 0.25]
            })
            .collect();
        for len in (0..=9).chain([1000]) {
            let batch = &batch[..len];
            let mut serial = 0.0;
            for [x, y] in batch {
                let err = y - (slope * x + intercept);
                serial += err * err;
            }
            let serial = if len == 0 { 0.0 } else { serial / len as f64 };
            let lanes = fit.batch_error(batch);
            assert!(
                (lanes - serial).abs() <= 1e-12 * serial.abs(),
                "len {len}: lanes {lanes} vs serial {serial}"
            );
        }
        assert_eq!(LineFit::new().batch_error(&batch), f64::INFINITY);
    }

    #[test]
    fn sampler_service_ingest_publishes_and_serves() {
        let config = SamplerConfig::rtbs(0.05, 200).seed(11);
        let mut svc: SamplerService<u64, NoModel> =
            SamplerService::new(config, NoModel, RetrainPolicy::EveryBatch).unwrap();
        assert!(matches!(svc.latest(), Err(ServiceError::Unavailable(_))));
        let (batches, epoch) = svc.ingest((0..500).collect()).unwrap();
        assert_eq!(batches, 1);
        assert!(epoch >= 1);
        let (got_epoch, got_batches, items) = svc.latest().unwrap();
        assert_eq!(got_epoch, epoch);
        assert_eq!(got_batches, 1);
        assert!(!items.is_empty() && items.len() <= 200);
    }

    #[test]
    fn sampler_service_ingest_publishes_one_epoch_per_batch() {
        // Whether or not the policy refits after a batch, each ingest
        // publishes exactly once and acks the epoch it published.
        for policy in [RetrainPolicy::EveryBatch, RetrainPolicy::Periodic(2)] {
            let config = SamplerConfig::rtbs(0.05, 200).seed(11);
            let mut svc: SamplerService<u64, NoModel> =
                SamplerService::new(config, NoModel, policy).unwrap();
            for k in 1..=4u64 {
                let (batches, epoch) = svc.ingest((0..50).collect()).unwrap();
                assert_eq!((batches, epoch), (k, k), "{policy:?}");
                assert_eq!(svc.epoch_reader().published_epoch(), k, "{policy:?}");
            }
        }
    }

    #[test]
    fn sampler_service_checkpoint_roundtrips_and_rejects_garbage() {
        let config = SamplerConfig::rtbs(0.05, 100).seed(5);
        let mut svc: SamplerService<u64, NoModel> =
            SamplerService::new(config, NoModel, RetrainPolicy::EveryBatch).unwrap();
        svc.ingest((0..300).collect()).unwrap();
        let blob = svc.checkpoint().unwrap();

        // Garbage must fail without disturbing live state.
        let err = svc.restore(Bytes::from_static(b"not a checkpoint"));
        assert!(matches!(err, Err(ServiceError::Corrupt(_))));
        let (epoch_before, ..) = svc.latest().unwrap();
        assert!(epoch_before >= 1);

        // A real blob replaces state and the next epoch continues.
        svc.restore(blob).unwrap();
        let (batches, _) = svc.ingest((300..600).collect()).unwrap();
        assert_eq!(batches, 2, "restored sampler kept its batch count");
    }

    #[test]
    fn cell_service_rejects_mutating_verbs() {
        let cell: Arc<EpochCell<u64>> = Arc::new(EpochCell::new());
        let mut svc = CellService::new(Arc::clone(&cell));
        assert!(matches!(
            svc.ingest(vec![1]),
            Err(ServiceError::Unsupported(_))
        ));
        assert!(matches!(
            svc.checkpoint(),
            Err(ServiceError::Unsupported(_))
        ));
    }
}
