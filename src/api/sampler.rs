//! The unified sampler handle.
//!
//! [`Sampler`] wraps all eight core sampling algorithms *and* the K-shard
//! [`ParallelIngestEngine`] behind one type with four verbs — `observe`,
//! `sample`, `snapshot`, `restore` — plus the metadata accessors the
//! evaluation harness relies on. Dispatch is a **match on an enum**, not a
//! vtable: every arm calls the sampler's inherent generic method with the
//! handle's concrete xoshiro256++ RNG, so the monomorphized, zero-
//! steady-state-allocation fast path of PR 2 survives intact (the
//! `bench_throughput` `facade` rows measure the residual cost of the
//! branch, which must keep at least 90% of the raw fast path's throughput).
//!
//! The handle **owns its RNG** (seeded by
//! [`crate::api::SamplerConfig::seed`]). That is what makes
//! [`Sampler::snapshot`] self-contained: the blob carries the RNG
//! position alongside the sampler state, so a snapshot restored into a
//! fresh process continues the stream **bit-identically** to an
//! uninterrupted run — for the sharded engine too, whose per-shard RNG
//! substream positions and balanced-split deviation ledger ride along.

use bytes::Bytes;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tbs_core::checkpoint::{CheckpointError, Reader, Wire, Writer};
use tbs_core::frozen::FrozenSample;
use tbs_core::merge::{MergeableSample, ShardSpec};
use tbs_core::{BAres, BChao, BTbs, BatchedReservoir, CountWindow, RTbs, TTbs, TimeWindow};
use tbs_distributed::engine::{EngineCheckpoint, EngineConfig, EngineHealth, ParallelIngestEngine};
use tbs_distributed::fault::FaultPlan;
use tbs_distributed::snapshot::EpochCell;
use tbs_stats::rng::Xoshiro256PlusPlus;

use crate::api::config::{
    Algorithm, CheckpointPolicy, PublishPolicy, SamplerConfig, TimeSemantics,
};
use crate::api::error::TbsError;
use crate::api::reader::SampleReader;
use crate::api::store::CheckpointStore;

/// The algorithm-specific state behind a [`Sampler`] handle. Engines are
/// boxed so the enum's footprint stays at the size of the largest
/// single-node sampler.
enum Inner<T: Clone + Send + Sync + 'static> {
    RTbs(RTbs<T>),
    TTbs(TTbs<T>),
    BTbs(BTbs<T>),
    Uniform(BatchedReservoir<T>),
    Chao(BChao<T>),
    SlidingCount(CountWindow<T>),
    SlidingTime(TimeWindow<T>),
    ARes(BAres<T>),
    ParallelRTbs(Box<ParallelIngestEngine<RTbs<T>>>),
    ParallelTTbs(Box<ParallelIngestEngine<TTbs<T>>>),
}

/// The automatic-checkpoint driver: a monomorphized fn pointer over
/// the handle (see [`Sampler::set_checkpoint_store`]).
type CkptTick<T> = fn(&mut Sampler<T>) -> Result<(), TbsError>;

/// A builder-configured sampler over items of type `T`; see the
/// [`crate::api`] module docs and [`crate::api::SamplerConfig`].
///
/// `T: Sync` because published snapshots ([`Sampler::publish`]) are
/// `Arc`-shared with concurrent [`SampleReader`]s on other threads.
pub struct Sampler<T: Clone + Send + Sync + 'static> {
    inner: Inner<T>,
    /// Drives every random draw of the single-node samplers and the
    /// realization coin of `sample`; sharded engines keep their own
    /// jump-ahead substreams and leave this untouched.
    rng: Xoshiro256PlusPlus,
    config: SamplerConfig,
    /// Batches observed through this handle (survives snapshot/restore).
    batches: u64,
    /// Epoch-publication cell shared with every [`SampleReader`]. For
    /// sharded engines this *is* the engine's cell (the background merger
    /// publishes into it); single-node samplers publish synchronously.
    cell: Arc<EpochCell<T>>,
    /// Highest epoch requested through this handle (single-node publishes
    /// are synchronous, so requested == published for them).
    requested_epoch: u64,
    /// Batch count at the most recent publication request — what the
    /// [`PublishPolicy::MaxLagBatches`] lag is measured against.
    last_publish_batches: u64,
    /// Durable checkpoint destination, when attached
    /// ([`Sampler::set_checkpoint_store`]).
    store: Option<CheckpointStore>,
    /// The automatic-checkpoint driver, captured as a monomorphized fn
    /// pointer when the store is attached (attachment requires
    /// `T: Wire`, but `observe` does not — the pointer carries the
    /// serialization capability across that bound).
    ckpt_tick: Option<CkptTick<T>>,
    /// Async checkpoint generations requested from a sharded engine but
    /// not yet persisted: `(engine generation, engine recovery count at
    /// request)`. A pending generation whose recovery count is stale
    /// died with the old pipeline and is dropped, never half-written.
    pending_ckpts: Vec<(u64, u64)>,
}

impl<T: Clone + Send + Sync + 'static> std::fmt::Debug for Sampler<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("algorithm", &self.config.algorithm().label())
            .field("shards", &self.config.shard_count())
            .field("batches", &self.batches)
            .finish_non_exhaustive()
    }
}

/// The engine configuration a *validated* sharded config describes — the
/// single source for both `build` (fresh engine) and `restore`
/// (checkpointed engine), so the two can never disagree on the sharding.
fn engine_config(config: &SamplerConfig) -> EngineConfig {
    let lambda = config.decay_rate();
    let spec = match config.algorithm {
        Algorithm::RTbs => {
            ShardSpec::rtbs(lambda, config.capacity.expect("validated"), config.shards)
        }
        Algorithm::TTbs => ShardSpec::ttbs(
            lambda,
            config.capacity.expect("validated"),
            config.mean_batch.expect("validated"),
            config.shards,
        ),
        _ => unreachable!("validate rejects sharded non-mergeable algorithms"),
    };
    EngineConfig {
        spec,
        queue_depth: config.queue_depth,
        seed: config.seed,
        recovery: config.recovery,
    }
}

impl<T: Clone + Send + Sync + 'static> Sampler<T> {
    /// Construct from a config [`SamplerConfig::validate`] has already
    /// accepted (the only caller is [`SamplerConfig::build`]).
    pub(crate) fn from_valid_config(config: &SamplerConfig) -> Self {
        Self::from_valid_config_faults(config, None)
    }

    /// Like [`Sampler::from_valid_config`], but with an optional injected
    /// fault schedule threaded into the sharded engine — the plumbing
    /// behind [`SamplerConfig::build_with_fault_plan`]. Single-node
    /// configs ignore the plan (the caller rejects them first).
    pub(crate) fn from_valid_config_faults(
        config: &SamplerConfig,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let config = *config;
        let lambda = config.decay_rate();
        let inner = if config.shards > 1 {
            let engine_cfg = engine_config(&config);
            match (config.algorithm, faults) {
                (Algorithm::RTbs, None) => {
                    Inner::ParallelRTbs(Box::new(ParallelIngestEngine::new(engine_cfg)))
                }
                (Algorithm::RTbs, Some(plan)) => Inner::ParallelRTbs(Box::new(
                    ParallelIngestEngine::with_fault_plan(engine_cfg, plan),
                )),
                (Algorithm::TTbs, None) => {
                    Inner::ParallelTTbs(Box::new(ParallelIngestEngine::new(engine_cfg)))
                }
                (Algorithm::TTbs, Some(plan)) => Inner::ParallelTTbs(Box::new(
                    ParallelIngestEngine::with_fault_plan(engine_cfg, plan),
                )),
                _ => unreachable!(),
            }
        } else {
            match config.algorithm {
                Algorithm::RTbs => {
                    Inner::RTbs(RTbs::new(lambda, config.capacity.expect("validated")))
                }
                Algorithm::TTbs => Inner::TTbs(TTbs::new(
                    lambda,
                    config.capacity.expect("validated"),
                    config.mean_batch.expect("validated"),
                )),
                Algorithm::BTbs => Inner::BTbs(BTbs::new(lambda)),
                Algorithm::Uniform => {
                    Inner::Uniform(BatchedReservoir::new(config.capacity.expect("validated")))
                }
                Algorithm::Chao => {
                    Inner::Chao(BChao::new(lambda, config.capacity.expect("validated")))
                }
                Algorithm::SlidingCount => {
                    Inner::SlidingCount(CountWindow::new(config.capacity.expect("validated")))
                }
                Algorithm::SlidingTime => {
                    Inner::SlidingTime(TimeWindow::new(config.window_width.expect("validated")))
                }
                Algorithm::ARes => {
                    Inner::ARes(BAres::new(lambda, config.capacity.expect("validated")))
                }
            }
        };
        let cell = match &inner {
            Inner::ParallelRTbs(e) => e.snapshot_cell(),
            Inner::ParallelTTbs(e) => e.snapshot_cell(),
            _ => Arc::new(EpochCell::new()),
        };
        Self {
            inner,
            rng: Xoshiro256PlusPlus::seed_from_u64(config.seed),
            config,
            batches: 0,
            cell,
            requested_epoch: 0,
            last_publish_batches: 0,
            store: None,
            ckpt_tick: None,
            pending_ckpts: Vec::new(),
        }
    }

    /// Advance the clock by one time unit and absorb the arriving batch
    /// (which may be empty). Enum-dispatched onto each sampler's
    /// monomorphized inherent fast path — no `dyn` anywhere inside.
    ///
    /// Errors only for sharded engines whose pipeline has terminally
    /// failed ([`TbsError::Engine`]); single-node ingest is infallible
    /// (automatic checkpoint-store writes are the one exception).
    #[inline]
    pub fn observe(&mut self, batch: Vec<T>) -> Result<(), TbsError> {
        match &mut self.inner {
            Inner::RTbs(s) => s.observe(batch, &mut self.rng),
            Inner::TTbs(s) => s.observe(batch, &mut self.rng),
            Inner::BTbs(s) => s.observe(batch, &mut self.rng),
            Inner::Uniform(s) => s.observe(batch, &mut self.rng),
            Inner::Chao(s) => s.observe(batch, &mut self.rng),
            Inner::SlidingCount(s) => s.observe(batch, &mut self.rng),
            Inner::SlidingTime(s) => s.observe(batch, &mut self.rng),
            Inner::ARes(s) => s.observe(batch, &mut self.rng),
            Inner::ParallelRTbs(e) => e.ingest(batch)?,
            Inner::ParallelTTbs(e) => e.ingest(batch)?,
        }
        self.batches += 1;
        self.maybe_publish()?;
        self.maybe_checkpoint()
    }

    /// Absorb a batch arriving `gap` time units after the previous one.
    /// Requires the config to have declared
    /// [`TimeSemantics::RealGaps`]; integer-step streams should call
    /// [`Sampler::observe`].
    ///
    /// Errors (never panics) when gaps were not declared, when the
    /// algorithm is integer-clocked, or when `gap` is negative/non-finite.
    pub fn observe_after(&mut self, batch: Vec<T>, gap: f64) -> Result<(), TbsError> {
        let label = self.config.algorithm.label();
        if self.config.time != TimeSemantics::RealGaps {
            return Err(TbsError::UnsupportedGap {
                algorithm: label,
                reason: "config declares integer time steps; build with \
                         .time(TimeSemantics::RealGaps)",
            });
        }
        if !(gap.is_finite() && gap >= 0.0) {
            return Err(TbsError::UnsupportedGap {
                algorithm: label,
                reason: "gap must be finite and non-negative",
            });
        }
        match &mut self.inner {
            Inner::RTbs(s) => s.observe_after(batch, gap, &mut self.rng),
            Inner::TTbs(s) => s.observe_after(batch, gap, &mut self.rng),
            Inner::BTbs(s) => s.observe_after(batch, gap, &mut self.rng),
            Inner::Chao(s) => s.observe_after(batch, gap, &mut self.rng),
            Inner::SlidingTime(s) => s.observe_after(batch, gap, &mut self.rng),
            _ => unreachable!("validate rejects RealGaps for gap-free algorithms"),
        }
        self.batches += 1;
        self.maybe_publish()?;
        self.maybe_checkpoint()
    }

    /// Materialize the current sample `S_t`.
    ///
    /// Latent schemes (R-TBS) realize the fractional item with a coin from
    /// the handle RNG; sharded engines serve through the snapshot barrier —
    /// the driver enqueues one epoch marker and the engine's merger thread
    /// folds the shard forks through `merge_replay` off the driver thread —
    /// then hand back the published merged sample (so the call also
    /// advances the epoch counters).
    pub fn sample(&mut self) -> Result<Vec<T>, TbsError> {
        let out = match &mut self.inner {
            Inner::RTbs(s) => s.sample(&mut self.rng),
            Inner::TTbs(s) => s.sample(&mut self.rng),
            Inner::BTbs(s) => s.sample(&mut self.rng),
            Inner::Uniform(s) => s.sample(&mut self.rng),
            Inner::Chao(s) => s.sample(&mut self.rng),
            Inner::SlidingCount(s) => s.sample(&mut self.rng),
            Inner::SlidingTime(s) => s.sample(&mut self.rng),
            Inner::ARes(s) => s.sample(&mut self.rng),
            Inner::ParallelRTbs(e) => e.sample()?,
            Inner::ParallelTTbs(e) => e.sample()?,
        };
        self.sync_engine_epoch();
        Ok(out)
    }

    /// [`Sampler::sample`] into a caller-owned buffer — allocation-free
    /// for the single-node samplers once the buffer capacity covers the
    /// sample footprint (retraining loops should hold one buffer and
    /// reuse it). Sharded engines assemble the merged sample in a fresh
    /// vector and move it into `out`.
    pub fn sample_into(&mut self, out: &mut Vec<T>) -> Result<(), TbsError> {
        match &mut self.inner {
            Inner::RTbs(s) => s.sample_into(&mut self.rng, out),
            Inner::TTbs(s) => {
                out.clear();
                out.extend_from_slice(s.items());
            }
            Inner::BTbs(s) => {
                out.clear();
                out.extend_from_slice(s.items());
            }
            Inner::Uniform(s) => {
                out.clear();
                out.extend_from_slice(s.items());
            }
            Inner::SlidingCount(s) => {
                out.clear();
                out.extend(s.iter().cloned());
            }
            Inner::SlidingTime(s) => *out = s.sample(&mut self.rng),
            Inner::Chao(s) => *out = s.sample(&mut self.rng),
            Inner::ARes(s) => *out = s.sample(&mut self.rng),
            Inner::ParallelRTbs(e) => *out = e.sample()?,
            Inner::ParallelTTbs(e) => *out = e.sample()?,
        }
        self.sync_engine_epoch();
        Ok(())
    }

    /// Expected size of `S_t` — the sample weight `C_t` for R-TBS, the
    /// exact current size elsewhere. Sharded engines quiesce and merge to
    /// answer, which is why this takes `&mut self`.
    pub fn expected_size(&mut self) -> Result<f64, TbsError> {
        Ok(match &mut self.inner {
            Inner::RTbs(s) => s.expected_size(),
            Inner::TTbs(s) => s.expected_size(),
            Inner::BTbs(s) => s.expected_size(),
            Inner::Uniform(s) => s.expected_size(),
            Inner::Chao(s) => s.expected_size(),
            Inner::SlidingCount(s) => s.expected_size(),
            Inner::SlidingTime(s) => s.expected_size(),
            Inner::ARes(s) => s.expected_size(),
            Inner::ParallelRTbs(e) => e.snapshot_merged()?.sample_weight(),
            Inner::ParallelTTbs(e) => e.snapshot_merged()?.len() as f64,
        })
    }

    /// Hard upper bound on the realized sample size, if the algorithm
    /// guarantees one.
    pub fn max_size(&self) -> Option<usize> {
        if self.config.algorithm.is_bounded() {
            self.config.capacity
        } else {
            None
        }
    }

    /// The exponential decay rate λ (0 for unbiased schemes).
    pub fn decay_rate(&self) -> f64 {
        self.config.decay_rate()
    }

    /// Batches observed through this handle (including before a
    /// snapshot/restore cycle).
    pub fn batches_observed(&self) -> u64 {
        self.batches
    }

    /// The algorithm behind this handle.
    pub fn algorithm(&self) -> Algorithm {
        self.config.algorithm()
    }

    /// Short display name ("R-TBS", "SW", …).
    pub fn name(&self) -> &'static str {
        self.config.algorithm.label()
    }

    /// The config this handle was built from.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// Number of ingest shards (1 for the single-node samplers).
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// Block until every sharded ingest queue has drained (no-op for
    /// single-node samplers). Useful before reading shard statistics or
    /// timing a quiescent point.
    pub fn quiesce(&mut self) -> Result<(), TbsError> {
        match &mut self.inner {
            Inner::ParallelRTbs(e) => e.quiesce()?,
            Inner::ParallelTTbs(e) => e.quiesce()?,
            _ => {}
        }
        Ok(())
    }

    /// Supervision state of the underlying pipeline: always
    /// [`EngineHealth::Healthy`] for single-node samplers; sharded
    /// engines report `Degraded` after supervised recoveries and
    /// `Failed` with the typed cause after an unrecovered fault.
    pub fn health(&self) -> EngineHealth {
        match &self.inner {
            Inner::ParallelRTbs(e) => e.health(),
            Inner::ParallelTTbs(e) => e.health(),
            _ => EngineHealth::Healthy,
        }
    }

    /// Supervised pipeline recoveries performed so far (0 for
    /// single-node samplers and for [`RecoveryPolicy::Fail`] engines).
    ///
    /// [`RecoveryPolicy::Fail`]: tbs_distributed::engine::RecoveryPolicy::Fail
    pub fn recoveries(&self) -> u64 {
        match &self.inner {
            Inner::ParallelRTbs(e) => e.recoveries(),
            Inner::ParallelTTbs(e) => e.recoveries(),
            _ => 0,
        }
    }

    /// A clonable, `Send + Sync` handle for reading epoch-published
    /// snapshots concurrently with ingest; hand one to every consumer
    /// thread. See [`SampleReader`] for the polling contract and
    /// [`Sampler::publish`] for how snapshots get there.
    ///
    /// Prefer `reader()` + [`Sampler::publish`] whenever consumers live on
    /// other threads or reads must not stall ingest; prefer the exact
    /// synchronous [`Sampler::sample`] when you hold `&mut self` anyway
    /// and want the freshest possible sample with no epoch machinery.
    pub fn reader(&self) -> SampleReader<T> {
        SampleReader::from(Arc::clone(&self.cell))
    }

    /// Publish a snapshot of the current sample to every reader and
    /// return its epoch number.
    ///
    /// For **sharded engines** this is the non-blocking barrier protocol:
    /// the call only enqueues markers (backpressure aside) and returns
    /// immediately; shards fork their state at the barrier and keep
    /// ingesting while the background merger folds and publishes the
    /// result. It consumes no randomness from the handle, and the
    /// published sample is bit-identical to what [`Sampler::sample`]
    /// would have returned at this exact point. Use
    /// [`SampleReader::wait_for_epoch`] with the returned epoch to block
    /// until it lands.
    ///
    /// For **single-node samplers** the handle owns the state, so the
    /// snapshot is realized synchronously (consuming the same realization
    /// randomness `sample()` would) and is already published when the
    /// call returns.
    pub fn publish(&mut self) -> Result<u64, TbsError> {
        self.last_publish_batches = self.batches;
        match &mut self.inner {
            Inner::ParallelRTbs(e) => {
                self.requested_epoch = e.request_snapshot()?;
                return Ok(self.requested_epoch);
            }
            Inner::ParallelTTbs(e) => {
                self.requested_epoch = e.request_snapshot()?;
                return Ok(self.requested_epoch);
            }
            _ => {}
        }
        let items = self.sample()?;
        let (total_weight, expected_size) = match &self.inner {
            Inner::RTbs(s) => (Some(s.total_weight()), s.expected_size()),
            Inner::TTbs(s) => (None, s.expected_size()),
            Inner::BTbs(s) => (None, s.expected_size()),
            Inner::Uniform(s) => (None, s.expected_size()),
            Inner::Chao(s) => (None, s.expected_size()),
            Inner::SlidingCount(s) => (None, s.expected_size()),
            Inner::SlidingTime(s) => (None, s.expected_size()),
            Inner::ARes(s) => (None, s.expected_size()),
            Inner::ParallelRTbs(_) | Inner::ParallelTTbs(_) => unreachable!("handled above"),
        };
        self.requested_epoch += 1;
        let epoch = self.requested_epoch;
        self.cell.publish(Arc::new(FrozenSample::new(
            epoch,
            self.batches,
            total_weight,
            expected_size,
            items,
        )));
        Ok(epoch)
    }

    /// Highest epoch published to readers so far (0 before the first
    /// [`Sampler::publish`] completes).
    pub fn published_epoch(&self) -> u64 {
        self.cell.published_epoch()
    }

    /// Highest epoch requested so far. `requested_epoch() -
    /// published_epoch()` is the number of snapshots still in flight
    /// (always 0 for single-node samplers).
    pub fn requested_epoch(&self) -> u64 {
        self.requested_epoch
    }

    /// Mirror the engine's epoch counter after any engine call that may
    /// have consumed epochs internally (`ParallelIngestEngine::sample`
    /// serves through the snapshot pipeline, so each call requests —
    /// and waits out — one epoch).
    fn sync_engine_epoch(&mut self) {
        match &self.inner {
            Inner::ParallelRTbs(e) => self.requested_epoch = e.requested_epoch(),
            Inner::ParallelTTbs(e) => self.requested_epoch = e.requested_epoch(),
            _ => {}
        }
    }

    /// Apply the configured [`PublishPolicy`] after a batch lands.
    ///
    /// `MaxLagBatches` additionally requires the previous snapshot to
    /// have published (`requested == published`) before starting another,
    /// so a slow merge stretches the cadence instead of stacking
    /// barriers behind it.
    fn maybe_publish(&mut self) -> Result<(), TbsError> {
        match self.config.publish {
            PublishPolicy::Manual => {}
            PublishPolicy::EveryBatches(n) => {
                if self.batches.is_multiple_of(n) {
                    self.publish()?;
                }
            }
            PublishPolicy::MaxLagBatches(s) => {
                if self.batches - self.last_publish_batches > s
                    && self.requested_epoch == self.cell.published_epoch()
                {
                    self.publish()?;
                }
            }
        }
        Ok(())
    }

    /// Apply the configured [`CheckpointPolicy`] after a batch lands.
    /// Inert until [`Sampler::set_checkpoint_store`] installs the tick
    /// (which requires `T: Wire`; the stored fn pointer carries that
    /// capability into this non-`Wire` method).
    fn maybe_checkpoint(&mut self) -> Result<(), TbsError> {
        match self.ckpt_tick {
            Some(tick) if self.store.is_some() => tick(self),
            _ => Ok(()),
        }
    }
}

impl<T: Clone + Send + Sync + 'static> Drop for Sampler<T> {
    fn drop(&mut self) {
        match &self.inner {
            // The engine's merger drains in-flight barriers and then
            // closes the shared cell itself (engine drop joins it).
            Inner::ParallelRTbs(_) | Inner::ParallelTTbs(_) => {}
            // Single-node: no more publications can ever arrive — wake
            // any reader blocked in wait_for_epoch.
            _ => self.cell.close(),
        }
    }
}

impl<T: Wire + Send + Sync + 'static> Sampler<T> {
    /// Serialize the handle's complete durable state — config echo,
    /// handle RNG position, batch counter, and the algorithm payload
    /// (for sharded engines: every shard's sampler + RNG substream
    /// position, the driver RNG, and the balanced-split deviation
    /// ledger) — into a self-contained, versioned blob.
    ///
    /// Checkpointing consumes **no randomness**: a mid-stream snapshot
    /// leaves the trajectory untouched, and [`Sampler::restore`] resumes
    /// it bit-identically. Sharded engines quiesce first (`&mut self`);
    /// they are also the only fallible case ([`TbsError::Engine`] when
    /// the pipeline has terminally failed).
    pub fn snapshot(&mut self) -> Result<Bytes, TbsError> {
        let mut w = Writer::new();
        w.put_u8(self.config.algorithm.tag());
        w.put_u32(self.config.shards as u32);
        w.put_u64(self.batches);
        w.put_rng_state(self.rng.state());
        match &mut self.inner {
            Inner::RTbs(s) => s.save_state(&mut w),
            Inner::TTbs(s) => s.save_state(&mut w),
            Inner::BTbs(s) => s.save_state(&mut w),
            Inner::Uniform(s) => s.save_state(&mut w),
            Inner::Chao(s) => s.save_state(&mut w),
            Inner::SlidingCount(s) => s.save_state(&mut w),
            Inner::SlidingTime(s) => s.save_state(&mut w),
            Inner::ARes(s) => s.save_state(&mut w),
            Inner::ParallelRTbs(e) => save_engine(&mut w, e.save_parts()?),
            Inner::ParallelTTbs(e) => save_engine(&mut w, e.save_parts()?),
        }
        Ok(w.finish())
    }

    /// Rebuild a sampler from a [`Sampler::snapshot`] blob.
    ///
    /// The blob must have been taken from a sampler built with an
    /// equivalent config: algorithm, shard count, decay rate, and
    /// capacity/target parameters are all cross-checked, and any
    /// disagreement — as well as a truncated, corrupt, or
    /// future-format-version blob — is reported as a [`TbsError`], never
    /// a panic.
    pub fn restore(config: &SamplerConfig, blob: Bytes) -> Result<Self, TbsError> {
        config.validate()?;
        let mut r = Reader::new(blob)?;
        let tag = r.get_u8()?;
        let found = Algorithm::from_tag(tag).ok_or(CheckpointError::Corrupt("algorithm tag"))?;
        if found != config.algorithm {
            return Err(TbsError::AlgorithmMismatch {
                expected: config.algorithm.label(),
                found: found.label(),
            });
        }
        let shards = r.get_u32()? as usize;
        if shards != config.shards {
            return Err(TbsError::ConfigMismatch {
                what: "shard count",
            });
        }
        let batches = r.get_u64()?;
        let rng = Xoshiro256PlusPlus::from_state(r.get_rng_state()?);
        let lambda = config.decay_rate();

        let inner = if config.shards > 1 {
            let engine_cfg = engine_config(config);
            let spec = engine_cfg.spec;
            match config.algorithm {
                Algorithm::RTbs => {
                    let parts = load_engine::<RTbs<T>>(&mut r, spec.shards, |r| {
                        let s = RTbs::load_state(r)?;
                        if s.decay_rate() != lambda {
                            return Err(CheckpointError::Corrupt("shard decay rate"));
                        }
                        if s.capacity() != spec.shard_capacity() {
                            return Err(CheckpointError::Corrupt("shard capacity"));
                        }
                        Ok(s)
                    })?;
                    // The facade and engine batch counters advance in
                    // lockstep through `observe`; a blob where they
                    // disagree was not produced by this code.
                    check(parts.batches == batches, "engine batch count")?;
                    Inner::ParallelRTbs(Box::new(ParallelIngestEngine::from_parts(
                        engine_cfg, parts,
                    )))
                }
                Algorithm::TTbs => {
                    let parts = load_engine::<TTbs<T>>(&mut r, spec.shards, |r| {
                        let s = TTbs::load_state(r)?;
                        if s.decay_rate() != lambda
                            || s.target() != spec.capacity
                            || s.assumed_mean_batch() != spec.mean_batch
                        {
                            return Err(CheckpointError::Corrupt("shard configuration"));
                        }
                        Ok(s)
                    })?;
                    check(parts.batches == batches, "engine batch count")?;
                    Inner::ParallelTTbs(Box::new(ParallelIngestEngine::from_parts(
                        engine_cfg, parts,
                    )))
                }
                _ => unreachable!(),
            }
        } else {
            match config.algorithm {
                Algorithm::RTbs => {
                    let s = RTbs::load_state(&mut r)?;
                    check(s.decay_rate() == lambda, "decay rate")?;
                    check(Some(s.capacity()) == config.capacity, "capacity")?;
                    Inner::RTbs(s)
                }
                Algorithm::TTbs => {
                    let s = TTbs::load_state(&mut r)?;
                    check(s.decay_rate() == lambda, "decay rate")?;
                    check(Some(s.target()) == config.capacity, "target size")?;
                    check(
                        Some(s.assumed_mean_batch()) == config.mean_batch,
                        "mean batch",
                    )?;
                    Inner::TTbs(s)
                }
                Algorithm::BTbs => {
                    let s = BTbs::load_state(&mut r)?;
                    check(s.decay_rate() == lambda, "decay rate")?;
                    Inner::BTbs(s)
                }
                Algorithm::Uniform => {
                    let s = BatchedReservoir::load_state(&mut r)?;
                    check(s.max_size() == config.capacity, "capacity")?;
                    Inner::Uniform(s)
                }
                Algorithm::Chao => {
                    let s = BChao::load_state(&mut r)?;
                    check(s.decay_rate() == lambda, "decay rate")?;
                    check(s.max_size() == config.capacity, "capacity")?;
                    Inner::Chao(s)
                }
                Algorithm::SlidingCount => {
                    let s = CountWindow::load_state(&mut r)?;
                    check(s.max_size() == config.capacity, "capacity")?;
                    Inner::SlidingCount(s)
                }
                Algorithm::SlidingTime => {
                    let s = TimeWindow::load_state(&mut r)?;
                    check(Some(s.width()) == config.window_width, "window width")?;
                    Inner::SlidingTime(s)
                }
                Algorithm::ARes => {
                    let s = BAres::load_state(&mut r)?;
                    check(s.decay_rate() == lambda, "decay rate")?;
                    check(s.max_size() == config.capacity, "capacity")?;
                    Inner::ARes(s)
                }
            }
        };
        if !r.is_exhausted() {
            return Err(CheckpointError::Corrupt("trailing bytes").into());
        }
        let cell = match &inner {
            Inner::ParallelRTbs(e) => e.snapshot_cell(),
            Inner::ParallelTTbs(e) => e.snapshot_cell(),
            _ => Arc::new(EpochCell::new()),
        };
        Ok(Self {
            inner,
            rng,
            config: *config,
            batches,
            cell,
            // Serving epochs are ephemeral: a restored sampler starts a
            // fresh publication sequence (snapshots are not persisted),
            // and the lag clock starts at the restore point.
            requested_epoch: 0,
            last_publish_batches: batches,
            store: None,
            ckpt_tick: None,
            pending_ckpts: Vec::new(),
        })
    }

    /// Rebuild a sampler from the **newest stored checkpoint generation
    /// that validates**, returning it with the generation's sequence
    /// number.
    ///
    /// Walks the store's ring newest→oldest: a generation whose CRC
    /// frame fails ([`tbs_core::checkpoint::frame`] detects bit flips
    /// and torn writes), whose blob is unreadable, or whose parameters
    /// disagree with `config` is *skipped*, not restored — a corrupted
    /// latest checkpoint silently falls back to the one before it. Only
    /// when every stored generation fails does this return
    /// [`TbsError::NoValidCheckpoint`].
    pub fn recover(
        config: &SamplerConfig,
        store: &CheckpointStore,
    ) -> Result<(Self, u64), TbsError> {
        config.validate()?;
        let seqs = store.stored_generations()?;
        let mut attempted = 0;
        for &seq in seqs.iter().rev() {
            attempted += 1;
            let blob = match store.load(seq) {
                Ok(blob) => blob,
                Err(_) => continue,
            };
            if let Ok(sampler) = Self::restore(config, blob) {
                return Ok((sampler, seq));
            }
        }
        Err(TbsError::NoValidCheckpoint { attempted })
    }

    /// Attach a durable checkpoint destination. From here on,
    /// [`Sampler::checkpoint_now`] writes to it and a configured
    /// [`CheckpointPolicy::EveryBatches`] fires automatically during
    /// [`Sampler::observe`] — asynchronously for sharded engines (the
    /// generation rides the barrier machinery and lands a moment later;
    /// [`Sampler::flush_checkpoints`] forces completion), synchronously
    /// for single-node samplers.
    pub fn set_checkpoint_store(&mut self, store: CheckpointStore) {
        self.store = Some(store);
        self.ckpt_tick = Some(Self::checkpoint_tick);
    }

    /// Detach and return the checkpoint store (automatic checkpointing
    /// stops).
    pub fn take_checkpoint_store(&mut self) -> Option<CheckpointStore> {
        self.ckpt_tick = None;
        self.pending_ckpts.clear();
        self.store.take()
    }

    /// Serialize the complete current state and write it to the attached
    /// store as a new generation, returning its sequence number.
    /// Synchronous (sharded engines quiesce, exactly like
    /// [`Sampler::snapshot`]); consumes no randomness.
    pub fn checkpoint_now(&mut self) -> Result<u64, TbsError> {
        if self.store.is_none() {
            return Err(TbsError::InvalidCheckpointPolicy {
                reason: "no checkpoint store attached; call \
                         set_checkpoint_store first",
            });
        }
        let blob = self.snapshot()?;
        let store = self.store.as_mut().expect("checked above");
        store.save(&blob)
    }

    /// Persist every async checkpoint generation still in flight (or
    /// drop the ones a pipeline recovery invalidated), returning how
    /// many generations were written. For single-node samplers this
    /// drains the store's write-behind queue instead (automatic policy
    /// checkpoints defer their disk work to the store's writer thread);
    /// their count is reported at queue time, not here.
    pub fn flush_checkpoints(&mut self) -> Result<usize, TbsError> {
        let mut persisted = self.drain_completed_checkpoints()?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while !self.pending_ckpts.is_empty() && Instant::now() < deadline {
            let store = match self.store.as_mut() {
                Some(store) => store,
                None => break,
            };
            let wait = Duration::from_millis(50);
            persisted += match &mut self.inner {
                Inner::ParallelRTbs(e) => wait_engine_checkpoint(
                    e,
                    store,
                    &self.config,
                    &self.rng,
                    &mut self.pending_ckpts,
                    wait,
                )?,
                Inner::ParallelTTbs(e) => wait_engine_checkpoint(
                    e,
                    store,
                    &self.config,
                    &self.rng,
                    &mut self.pending_ckpts,
                    wait,
                )?,
                _ => break,
            };
        }
        // Single-node write-behind generations: wait for the store's
        // writer to drain, surfacing any background I/O failure here.
        if let Some(store) = self.store.as_mut() {
            store.flush()?;
        }
        Ok(persisted)
    }

    /// One automatic-checkpoint turn, run after each observed batch once
    /// a store is attached: drain async generations that finished
    /// assembling, then fire the policy at its interval boundary.
    fn checkpoint_tick(&mut self) -> Result<(), TbsError> {
        self.drain_completed_checkpoints()?;
        if let CheckpointPolicy::EveryBatches(n) = self.config.checkpoint {
            if self.batches.is_multiple_of(n) {
                self.request_checkpoint_generation()?;
            }
        }
        Ok(())
    }

    /// Start one checkpoint generation: non-blocking barrier request for
    /// sharded engines, immediate serialize-and-write for single-node.
    fn request_checkpoint_generation(&mut self) -> Result<(), TbsError> {
        match &mut self.inner {
            Inner::ParallelRTbs(e) => {
                let gen = e.request_checkpoint()?;
                let recoveries = e.recoveries();
                self.pending_ckpts.push((gen, recoveries));
            }
            Inner::ParallelTTbs(e) => {
                let gen = e.request_checkpoint()?;
                let recoveries = e.recoveries();
                self.pending_ckpts.push((gen, recoveries));
            }
            _ => {
                // Single-node: serialize here (the state must be captured
                // at this batch boundary) but leave the disk work —
                // framing, fsync, rename — to the store's write-behind
                // thread, so the policy costs the ingest loop only the
                // serialization. `flush_checkpoints` (or store drop)
                // makes the queued generations durable.
                let blob = self.snapshot()?;
                if let Some(store) = self.store.as_mut() {
                    store.save_behind(&blob)?;
                }
            }
        }
        Ok(())
    }

    /// Persist every async generation the engine has finished
    /// assembling, and drop pendings that died with a recovered
    /// pipeline. Returns how many generations were written.
    fn drain_completed_checkpoints(&mut self) -> Result<usize, TbsError> {
        let store = match self.store.as_mut() {
            Some(store) => store,
            None => return Ok(0),
        };
        match &mut self.inner {
            Inner::ParallelRTbs(e) => {
                drain_engine_checkpoints(e, store, &self.config, &self.rng, &mut self.pending_ckpts)
            }
            Inner::ParallelTTbs(e) => {
                drain_engine_checkpoints(e, store, &self.config, &self.rng, &mut self.pending_ckpts)
            }
            _ => Ok(0),
        }
    }
}

/// Map a failed cross-check of blob vs config to [`TbsError::ConfigMismatch`].
fn check(ok: bool, what: &'static str) -> Result<(), TbsError> {
    if ok {
        Ok(())
    } else {
        Err(TbsError::ConfigMismatch { what })
    }
}

/// Serialize an async-assembled [`EngineCheckpoint`] into the same
/// blob layout [`Sampler::snapshot`] produces, and write it to the
/// store. The header batch count comes from the checkpoint (the barrier
/// boundary it captured), and the handle RNG is recorded as-is —
/// sharded ingest never touches it, so the blob is byte-identical to a
/// synchronous snapshot taken at that boundary.
fn persist_engine_parts<S>(
    store: &mut CheckpointStore,
    config: &SamplerConfig,
    rng: &Xoshiro256PlusPlus,
    parts: EngineCheckpoint<S>,
) -> Result<u64, TbsError>
where
    S: SaveState,
{
    let mut w = Writer::new();
    w.put_u8(config.algorithm.tag());
    w.put_u32(config.shards as u32);
    w.put_u64(parts.batches);
    w.put_rng_state(rng.state());
    save_engine(&mut w, parts);
    store.save(&w.finish())
}

/// Drop pending async generations that were requested against a
/// pipeline incarnation older than the engine's current one: their fork
/// messages died with it, so they will never assemble.
fn prune_stale_pendings(pending: &mut Vec<(u64, u64)>, current_recoveries: u64) {
    pending.retain(|&(_, requested_at)| requested_at >= current_recoveries);
}

/// Non-blocking drain of every checkpoint generation the engine's
/// merger has finished assembling.
fn drain_engine_checkpoints<S>(
    engine: &mut ParallelIngestEngine<S>,
    store: &mut CheckpointStore,
    config: &SamplerConfig,
    rng: &Xoshiro256PlusPlus,
    pending: &mut Vec<(u64, u64)>,
) -> Result<usize, TbsError>
where
    S: MergeableSample + SaveState + Clone + Send + 'static,
    S::Item: Clone + Send + Sync + 'static,
{
    let mut persisted = 0;
    while let Some((generation, parts)) = engine.try_take_checkpoint() {
        persist_engine_parts(store, config, rng, parts)?;
        pending.retain(|&(g, _)| g != generation);
        persisted += 1;
    }
    prune_stale_pendings(pending, engine.recoveries());
    Ok(persisted)
}

/// One bounded wait for an async generation to assemble; persists it if
/// one lands within `wait`.
fn wait_engine_checkpoint<S>(
    engine: &mut ParallelIngestEngine<S>,
    store: &mut CheckpointStore,
    config: &SamplerConfig,
    rng: &Xoshiro256PlusPlus,
    pending: &mut Vec<(u64, u64)>,
    wait: Duration,
) -> Result<usize, TbsError>
where
    S: MergeableSample + SaveState + Clone + Send + 'static,
    S::Item: Clone + Send + Sync + 'static,
{
    match engine.wait_checkpoint(wait)? {
        Some((generation, parts)) => {
            persist_engine_parts(store, config, rng, parts)?;
            pending.retain(|&(g, _)| g != generation);
            Ok(1)
        }
        None => {
            prune_stale_pendings(pending, engine.recoveries());
            Ok(0)
        }
    }
}

/// Serialize a quiesced engine checkpoint: the balanced-split deviation
/// ledger (one f64 per shard — the splitter's memory of how far each
/// shard's decayed intake sits from the fair share), driver RNG, then
/// each shard's RNG substream position and sampler payload.
fn save_engine<S>(w: &mut Writer, parts: EngineCheckpoint<S>)
where
    S: SaveState,
{
    for d in &parts.split_deviations {
        w.put_f64(*d);
    }
    w.put_u64(parts.batches);
    w.put_rng_state(parts.driver_rng);
    w.put_u32(parts.shard_states.len() as u32);
    for (sampler, rng_state) in &parts.shard_states {
        w.put_rng_state(*rng_state);
        sampler.save_state_dyn(w);
    }
}

/// Deserialize [`save_engine`]'s layout, validating each shard with
/// `load_shard`. The blob header's shard count has already been checked
/// against `expect_shards`.
fn load_engine<S>(
    r: &mut Reader,
    expect_shards: usize,
    mut load_shard: impl FnMut(&mut Reader) -> Result<S, CheckpointError>,
) -> Result<EngineCheckpoint<S>, CheckpointError> {
    let mut split_deviations = Vec::with_capacity(expect_shards);
    for _ in 0..expect_shards {
        let d = r.get_f64()?;
        // The balanced splitter keeps every deviation in [-1, 1]; anything
        // outside (or non-finite) cannot have come from a real run.
        if !d.is_finite() || d.abs() > 1.0 + 1e-9 {
            return Err(CheckpointError::Corrupt("split deviation"));
        }
        split_deviations.push(d);
    }
    let batches = r.get_u64()?;
    let driver_rng = r.get_rng_state()?;
    let n = r.get_u32()? as usize;
    if n != expect_shards {
        return Err(CheckpointError::Corrupt("engine shard count"));
    }
    let mut shard_states = Vec::with_capacity(n);
    for _ in 0..n {
        let rng_state = r.get_rng_state()?;
        shard_states.push((load_shard(r)?, rng_state));
    }
    Ok(EngineCheckpoint {
        shard_states,
        driver_rng,
        split_deviations,
        batches,
    })
}

/// Object-safe shim over the samplers' inherent `save_state`, so
/// [`save_engine`] can be generic without a public trait.
trait SaveState {
    fn save_state_dyn(&self, w: &mut Writer);
}

impl<T: Wire> SaveState for RTbs<T> {
    fn save_state_dyn(&self, w: &mut Writer) {
        self.save_state(w);
    }
}

impl<T: Wire> SaveState for TTbs<T> {
    fn save_state_dyn(&self, w: &mut Writer) {
        self.save_state(w);
    }
}
