//! Validating builder for every sampler the system offers.
//!
//! [`SamplerConfig`] is the single entry point into the sampling layer:
//! one builder covers all eight core algorithms *and* the K-shard
//! parallel ingest engine, and `build` returns a [`TbsError`] instead of
//! panicking, so service code can assemble configurations from user input
//! safely. The expert layer underneath (raw `RTbs::new` etc.) remains
//! available for code that statically knows its parameters are valid.

use crate::api::error::TbsError;
use crate::api::sampler::Sampler;
use tbs_distributed::engine::RecoveryPolicy;

/// The sampling scheme to run. Capability accessors (bounded size, exact
/// decay law, mergeable, gap support) drive config validation and the
/// README's capability matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// R-TBS (Algorithm 2): exact decay, hard size bound, any arrival
    /// rate — the paper's headline scheme.
    RTbs,
    /// T-TBS (Algorithm 1): exact decay, probabilistic size target,
    /// requires a known constant mean batch size.
    TTbs,
    /// B-TBS (Algorithm 4): exact decay, no size control.
    BTbs,
    /// Batched uniform reservoir (Algorithm 5): no decay, hard bound.
    Uniform,
    /// B-Chao (Algorithms 6–7): hard bound; decay law violated during
    /// fill-up and slow arrivals.
    Chao,
    /// Count-based sliding window: the last `n` items.
    SlidingCount,
    /// Time-based sliding window: everything younger than `width`.
    SlidingTime,
    /// A-Res weighted reservoir (§7): hard bound, non-intuitive
    /// appearance probabilities.
    ARes,
}

impl Algorithm {
    /// All algorithms, in presentation order.
    pub fn all() -> [Algorithm; 8] {
        [
            Algorithm::RTbs,
            Algorithm::TTbs,
            Algorithm::BTbs,
            Algorithm::Uniform,
            Algorithm::Chao,
            Algorithm::SlidingCount,
            Algorithm::SlidingTime,
            Algorithm::ARes,
        ]
    }

    /// Display label, matching the experiment harness
    /// (`"R-TBS"`, `"SW"`, …).
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::RTbs => "R-TBS",
            Algorithm::TTbs => "T-TBS",
            Algorithm::BTbs => "B-TBS",
            Algorithm::Uniform => "Unif",
            Algorithm::Chao => "B-Chao",
            Algorithm::SlidingCount => "SW",
            Algorithm::SlidingTime => "SW-time",
            Algorithm::ARes => "A-Res",
        }
    }

    /// Whether the realized sample size has a hard upper bound.
    pub fn is_bounded(self) -> bool {
        !matches!(
            self,
            Algorithm::TTbs | Algorithm::BTbs | Algorithm::SlidingTime
        )
    }

    /// Whether the scheme enforces the exponential relative-inclusion
    /// law (1) exactly at all times.
    pub fn has_exact_decay(self) -> bool {
        matches!(self, Algorithm::RTbs | Algorithm::TTbs | Algorithm::BTbs)
    }

    /// Whether the scheme uses a decay rate λ at all.
    pub fn uses_decay(self) -> bool {
        !matches!(
            self,
            Algorithm::Uniform | Algorithm::SlidingCount | Algorithm::SlidingTime
        )
    }

    /// Whether shard-local states can be merged exactly
    /// (`tbs_core::merge`) — the prerequisite for `shards > 1`.
    pub fn is_mergeable(self) -> bool {
        matches!(self, Algorithm::RTbs | Algorithm::TTbs)
    }

    /// Whether the scheme honors real-valued inter-arrival gaps
    /// (`observe_after`).
    pub fn supports_gaps(self) -> bool {
        matches!(
            self,
            Algorithm::RTbs
                | Algorithm::TTbs
                | Algorithm::BTbs
                | Algorithm::Chao
                | Algorithm::SlidingTime
        )
    }

    /// The checkpoint-blob tag byte for this algorithm.
    pub(crate) fn tag(self) -> u8 {
        match self {
            Algorithm::RTbs => 1,
            Algorithm::TTbs => 2,
            Algorithm::BTbs => 3,
            Algorithm::Uniform => 4,
            Algorithm::Chao => 5,
            Algorithm::SlidingCount => 6,
            Algorithm::SlidingTime => 7,
            Algorithm::ARes => 8,
        }
    }

    /// Inverse of [`Algorithm::tag`].
    pub(crate) fn from_tag(tag: u8) -> Option<Algorithm> {
        Algorithm::all().into_iter().find(|a| a.tag() == tag)
    }
}

/// How the stream's clock advances between batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeSemantics {
    /// Batches arrive at integer times; every `observe` advances the
    /// clock by exactly one unit (the paper's §2 base setting).
    #[default]
    IntegerSteps,
    /// Batches carry real-valued inter-arrival gaps fed through
    /// [`Sampler::observe_after`]. Requires a gap-capable algorithm and a
    /// single shard.
    RealGaps,
}

/// When the handle pushes epoch snapshots to its [`SampleReader`]s
/// (see [`Sampler::publish`] and [`Sampler::reader`]).
///
/// Publication is what hands a frozen sample to concurrent reader
/// threads; ingest itself never blocks on it. The automatic policies
/// piggyback on [`Sampler::observe`] / [`Sampler::observe_after`], so a
/// retraining service can consume fresh snapshots without sprinkling
/// `publish()` calls through its ingest loop.
///
/// [`Sampler::publish`]: crate::api::Sampler::publish
/// [`Sampler::reader`]: crate::api::Sampler::reader
/// [`Sampler::observe`]: crate::api::Sampler::observe
/// [`Sampler::observe_after`]: crate::api::Sampler::observe_after
/// [`SampleReader`]: crate::api::SampleReader
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PublishPolicy {
    /// Publish only when [`crate::api::Sampler::publish`] is called — the
    /// default, preserving the explicit-barrier behavior of earlier
    /// releases.
    #[default]
    Manual,
    /// Publish a snapshot every `n` observed batches (`n ≥ 1`; at batch
    /// counts `n, 2n, 3n, …`). Steady cadence, simplest to reason about;
    /// with sharded engines each publication is a non-blocking barrier,
    /// so several may be in flight at once under bursty ingest.
    EveryBatches(u64),
    /// Publish whenever the batches ingested since the last publication
    /// exceed `s` **and** no snapshot is still in flight (`s ≥ 1`).
    /// Bounds reader staleness without ever stacking barriers: a slow
    /// merge simply stretches the interval instead of queueing work.
    MaxLagBatches(u64),
}

/// When the handle writes durable checkpoint generations to its attached
/// [`CheckpointStore`] (see [`Sampler::set_checkpoint_store`] and
/// [`Sampler::recover`]).
///
/// Checkpointing is the durability counterpart of [`PublishPolicy`]:
/// publication hands frozen samples to in-process readers, checkpointing
/// writes CRC-framed state blobs to disk so a crashed process can
/// [`Sampler::recover`] and resume **bit-identically**. Every algorithm,
/// sharded or not, checkpoints the same way: the handle takes a
/// [`Sampler::snapshot`] at the boundary (sharded engines quiesce for
/// it) and the store's write-behind thread frames, fsyncs and renames
/// the generation off the ingest thread.
///
/// A non-`Manual` policy is **inert without a store**: configure it and
/// attach one with [`Sampler::set_checkpoint_store`]; nothing is written
/// until the store arrives.
///
/// [`CheckpointStore`]: crate::api::CheckpointStore
/// [`Sampler::set_checkpoint_store`]: crate::api::Sampler::set_checkpoint_store
/// [`Sampler::recover`]: crate::api::Sampler::recover
/// [`Sampler::snapshot`]: crate::api::Sampler::snapshot
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CheckpointPolicy {
    /// Checkpoint only when [`crate::api::Sampler::checkpoint_now`] is
    /// called — the default.
    #[default]
    Manual,
    /// Write a checkpoint generation every `n` observed batches
    /// (`n ≥ 1`; at batch counts `n, 2n, 3n, …`). The state is captured
    /// at that boundary; the write lands on the store's write-behind
    /// thread, and [`crate::api::Sampler::flush_checkpoints`] waits for
    /// it.
    EveryBatches(u64),
}

/// Builder for every sampler in the system; see the [`crate::api`] module docs.
///
/// ```
/// use temporal_sampling::api::{Algorithm, SamplerConfig};
///
/// let mut sampler = SamplerConfig::new(Algorithm::RTbs)
///     .decay(0.07)
///     .capacity(1000)
///     .seed(42)
///     .build::<u64>()
///     .expect("valid config");
/// sampler.observe((0..100).collect()).unwrap();
/// assert!(sampler.sample().unwrap().len() <= 1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerConfig {
    pub(crate) algorithm: Algorithm,
    pub(crate) decay: Option<f64>,
    pub(crate) capacity: Option<usize>,
    pub(crate) mean_batch: Option<f64>,
    pub(crate) window_width: Option<f64>,
    pub(crate) shards: usize,
    pub(crate) queue_depth: usize,
    pub(crate) seed: u64,
    pub(crate) time: TimeSemantics,
    pub(crate) publish: PublishPolicy,
    pub(crate) checkpoint: CheckpointPolicy,
    pub(crate) recovery: RecoveryPolicy,
}

impl SamplerConfig {
    /// Start a config for `algorithm` with nothing else decided.
    pub fn new(algorithm: Algorithm) -> Self {
        Self {
            algorithm,
            decay: None,
            capacity: None,
            mean_batch: None,
            window_width: None,
            shards: 1,
            queue_depth: 64,
            seed: 0,
            time: TimeSemantics::default(),
            publish: PublishPolicy::default(),
            checkpoint: CheckpointPolicy::default(),
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Shorthand: R-TBS with decay rate λ and hard sample-size bound `n`.
    pub fn rtbs(lambda: f64, capacity: usize) -> Self {
        Self::new(Algorithm::RTbs).decay(lambda).capacity(capacity)
    }

    /// Shorthand: T-TBS with decay rate λ, target size `n`, and assumed
    /// mean batch size `b`.
    pub fn ttbs(lambda: f64, target: usize, mean_batch: f64) -> Self {
        Self::new(Algorithm::TTbs)
            .decay(lambda)
            .capacity(target)
            .mean_batch(mean_batch)
    }

    /// Shorthand: B-TBS with decay rate λ (unbounded size).
    pub fn btbs(lambda: f64) -> Self {
        Self::new(Algorithm::BTbs).decay(lambda)
    }

    /// Shorthand: uniform bounded reservoir of `capacity` items.
    pub fn uniform(capacity: usize) -> Self {
        Self::new(Algorithm::Uniform).capacity(capacity)
    }

    /// Shorthand: B-Chao with decay rate λ and capacity `n`.
    pub fn chao(lambda: f64, capacity: usize) -> Self {
        Self::new(Algorithm::Chao).decay(lambda).capacity(capacity)
    }

    /// Shorthand: count-based sliding window over the last `n` items.
    pub fn sliding_count(capacity: usize) -> Self {
        Self::new(Algorithm::SlidingCount).capacity(capacity)
    }

    /// Shorthand: time-based sliding window of the given width.
    pub fn sliding_time(width: f64) -> Self {
        Self::new(Algorithm::SlidingTime).window_width(width)
    }

    /// Shorthand: A-Res weighted reservoir with rate λ and capacity `n`.
    pub fn ares(lambda: f64, capacity: usize) -> Self {
        Self::new(Algorithm::ARes).decay(lambda).capacity(capacity)
    }

    /// Set the exponential decay rate λ.
    pub fn decay(mut self, lambda: f64) -> Self {
        self.decay = Some(lambda);
        self
    }

    /// Set the capacity: R-TBS/Unif/Chao/A-Res hard bound, T-TBS target,
    /// count-window size.
    pub fn capacity(mut self, n: usize) -> Self {
        self.capacity = Some(n);
        self
    }

    /// Set T-TBS's assumed mean batch size `b`.
    pub fn mean_batch(mut self, b: f64) -> Self {
        self.mean_batch = Some(b);
        self
    }

    /// Set the time-window width.
    pub fn window_width(mut self, w: f64) -> Self {
        self.window_width = Some(w);
        self
    }

    /// Run K shard-local samplers on K threads behind the parallel ingest
    /// engine (K > 1 requires a mergeable algorithm and λ > 0). Each shard
    /// is one thread, and the thread calling `observe` is one more, so
    /// keep K + 1 at or below `std::thread::available_parallelism()`: at
    /// K equal to the core count one shard already time-slices the
    /// producer's core. On a 2-vCPU host K = 2 runs continuous ingest at
    /// 0.78–0.93× the K = 1 wall rate (README "Choosing a shard count").
    pub fn shards(mut self, k: usize) -> Self {
        self.shards = k;
        self
    }

    /// Bounded depth of each shard's work queue, in messages (only
    /// meaningful with `shards > 1`). A message is a shared run of
    /// batches or a control request (publish barrier, snapshot, sync),
    /// so the depth bounds how many requests can queue up ahead of a
    /// shard. In-flight *items* are bounded independently of the depth,
    /// by the engine's fixed set of shared run slots times its run size
    /// target (see `tbs_distributed::engine`).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Seed for the sampler's RNG (and, sharded, for the jump-ahead
    /// substream family). Same config + same seed + same stream ⇒
    /// bit-identical samples.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Declare the stream's time semantics (integer steps vs real gaps).
    pub fn time(mut self, semantics: TimeSemantics) -> Self {
        self.time = semantics;
        self
    }

    /// Choose when snapshots are pushed to readers (see
    /// [`PublishPolicy`]). The default `Manual` publishes only on
    /// explicit `publish()` calls. Batch thresholds of zero are a
    /// validation error.
    pub fn publish_policy(mut self, policy: PublishPolicy) -> Self {
        self.publish = policy;
        self
    }

    /// Choose when durable checkpoint generations are written (see
    /// [`CheckpointPolicy`]). The default `Manual` checkpoints only on
    /// explicit `checkpoint_now()` calls; batch intervals of zero are a
    /// validation error. Inert until a store is attached with
    /// [`crate::api::Sampler::set_checkpoint_store`].
    pub fn checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = policy;
        self
    }

    /// Choose what a sharded engine does when part of its pipeline dies
    /// (see [`RecoveryPolicy`]): fail typed (default) or respawn the
    /// dead shard from its last barrier fork and replay, restoring
    /// bit-identical state. Requires `shards > 1` — the single-node
    /// samplers have no pipeline to supervise, so configuring recovery
    /// for them is rejected rather than silently ignored.
    pub fn recovery_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// The configured algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The effective decay rate λ (0 when never set).
    pub fn decay_rate(&self) -> f64 {
        self.decay.unwrap_or(0.0)
    }

    /// The configured shard count.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The configured RNG seed.
    pub fn rng_seed(&self) -> u64 {
        self.seed
    }

    /// The declared time semantics.
    pub fn time_semantics(&self) -> TimeSemantics {
        self.time
    }

    /// The configured snapshot-publication policy.
    pub fn publish_policy_config(&self) -> PublishPolicy {
        self.publish
    }

    /// The configured checkpoint policy.
    pub fn checkpoint_policy_config(&self) -> CheckpointPolicy {
        self.checkpoint
    }

    /// The configured pipeline recovery policy.
    pub fn recovery_policy_config(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// Check every constraint without constructing anything. `build`
    /// calls this first; exposed so configs can be validated where they
    /// are assembled (e.g. at service-config load time) rather than where
    /// the sampler is spawned.
    pub fn validate(&self) -> Result<(), TbsError> {
        let alg = self.algorithm;
        let label = alg.label();

        // λ: required semantics per algorithm.
        if let Some(lambda) = self.decay {
            if !(lambda.is_finite() && lambda >= 0.0) {
                return Err(TbsError::InvalidDecay { lambda });
            }
            if !alg.uses_decay() && lambda != 0.0 {
                return Err(TbsError::UnusedParameter {
                    what: "decay",
                    algorithm: label,
                });
            }
        }

        // Capacity: required by the bounded schemes, meaningless for the
        // time window; B-TBS takes none.
        match alg {
            Algorithm::RTbs
            | Algorithm::TTbs
            | Algorithm::Uniform
            | Algorithm::Chao
            | Algorithm::SlidingCount
            | Algorithm::ARes => match self.capacity {
                None => {
                    return Err(TbsError::MissingParameter {
                        what: "capacity",
                        algorithm: label,
                    })
                }
                Some(0) => return Err(TbsError::InvalidCapacity),
                Some(_) => {}
            },
            Algorithm::BTbs | Algorithm::SlidingTime => {
                if self.capacity.is_some() {
                    return Err(TbsError::UnusedParameter {
                        what: "capacity",
                        algorithm: label,
                    });
                }
            }
        }

        // Mean batch size: T-TBS only, and it gates feasibility.
        if alg == Algorithm::TTbs {
            let target = self.capacity.expect("checked above");
            let mean_batch = self.mean_batch.ok_or(TbsError::MissingParameter {
                what: "mean_batch",
                algorithm: label,
            })?;
            if !(mean_batch.is_finite() && mean_batch > 0.0) {
                return Err(TbsError::InfeasibleTarget {
                    target,
                    mean_batch,
                    min_mean_batch: 0.0,
                });
            }
            let min_mean_batch = target as f64 * (1.0 - (-self.decay_rate()).exp());
            if mean_batch < min_mean_batch {
                return Err(TbsError::InfeasibleTarget {
                    target,
                    mean_batch,
                    min_mean_batch,
                });
            }
        } else if self.mean_batch.is_some() {
            return Err(TbsError::UnusedParameter {
                what: "mean_batch",
                algorithm: label,
            });
        }

        // Window width: the time window only.
        if alg == Algorithm::SlidingTime {
            let width = self.window_width.ok_or(TbsError::MissingParameter {
                what: "window_width",
                algorithm: label,
            })?;
            if !(width.is_finite() && width > 0.0) {
                return Err(TbsError::InvalidWindowWidth { width });
            }
        } else if self.window_width.is_some() {
            return Err(TbsError::UnusedParameter {
                what: "window_width",
                algorithm: label,
            });
        }

        // Sharding: mergeable algorithms, λ > 0, integer clocks only.
        if self.shards == 0 {
            return Err(TbsError::InvalidShardCount {
                shards: 0,
                reason: "need at least one shard",
            });
        }
        if self.shards > 1 {
            if !alg.is_mergeable() {
                return Err(TbsError::UnshardableAlgorithm { algorithm: label });
            }
            if self.decay_rate() <= 0.0 {
                return Err(TbsError::InvalidShardCount {
                    shards: self.shards,
                    reason: "sharded sampling requires lambda > 0 (the merge \
                             algebra's skew headroom 1/(1-e^-lambda) diverges)",
                });
            }
            if self.time == TimeSemantics::RealGaps {
                return Err(TbsError::InvalidShardCount {
                    shards: self.shards,
                    reason: "shard workers advance integer clocks; real-valued \
                             gaps need a single shard",
                });
            }
            if self.queue_depth == 0 {
                return Err(TbsError::InvalidShardCount {
                    shards: self.shards,
                    reason: "queue depth must be positive",
                });
            }
        }

        // Real gaps need a gap-capable algorithm.
        if self.time == TimeSemantics::RealGaps && !alg.supports_gaps() {
            return Err(TbsError::UnsupportedGap {
                algorithm: label,
                reason: "the scheme is integer-clocked by construction",
            });
        }

        // Automatic publication thresholds must be positive.
        match self.publish {
            PublishPolicy::EveryBatches(0) => {
                return Err(TbsError::InvalidPublishPolicy {
                    reason: "EveryBatches(0) would publish before any batch \
                             arrives; the interval must be at least 1",
                });
            }
            PublishPolicy::MaxLagBatches(0) => {
                return Err(TbsError::InvalidPublishPolicy {
                    reason: "MaxLagBatches(0) is every batch — use \
                             EveryBatches(1); the lag bound must be at least 1",
                });
            }
            _ => {}
        }

        // Automatic checkpoint intervals must be positive.
        if self.checkpoint == CheckpointPolicy::EveryBatches(0) {
            return Err(TbsError::InvalidCheckpointPolicy {
                reason: "EveryBatches(0) would checkpoint before any batch \
                         arrives; the interval must be at least 1",
            });
        }

        // Supervised recovery exists only in the sharded engine; a
        // single-node config carrying it is mis-assembled.
        if self.recovery == RecoveryPolicy::RespawnFromBarrier && self.shards <= 1 {
            return Err(TbsError::InvalidShardCount {
                shards: self.shards,
                reason: "RespawnFromBarrier supervises the sharded pipeline; \
                         single-node samplers have no workers to respawn",
            });
        }

        Ok(())
    }

    /// Validate and construct the unified [`Sampler`] handle. (`T: Sync`
    /// because published snapshots are `Arc`-shared with concurrent
    /// readers; see [`Sampler::reader`].)
    pub fn build<T: Clone + Send + Sync + 'static>(&self) -> Result<Sampler<T>, TbsError> {
        self.validate()?;
        Ok(Sampler::from_valid_config(self))
    }

    /// Validate and construct a **sharded** [`Sampler`] whose engine runs
    /// under a deterministic injected-fault schedule — the facade entry
    /// point of the fault-injection harness (see
    /// `tbs_distributed::fault`). Production code never installs a plan;
    /// this exists so the fault-matrix suite can exercise worker death,
    /// merger death, and dropped deliveries through the exact same public
    /// surface applications use, rather than a test-only side door.
    ///
    /// Single-node configs are rejected: there is no pipeline to injure.
    pub fn build_with_fault_plan<T: Clone + Send + Sync + 'static>(
        &self,
        plan: std::sync::Arc<tbs_distributed::fault::FaultPlan>,
    ) -> Result<Sampler<T>, TbsError> {
        self.validate()?;
        if self.shards <= 1 {
            return Err(TbsError::InvalidShardCount {
                shards: self.shards,
                reason: "fault injection targets the sharded pipeline; \
                         single-node samplers have no workers to kill",
            });
        }
        Ok(Sampler::from_valid_config_faults(self, Some(plan)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_algorithm_builds_from_its_shorthand() {
        let configs = [
            SamplerConfig::rtbs(0.1, 100),
            SamplerConfig::ttbs(0.1, 100, 50.0),
            SamplerConfig::btbs(0.1),
            SamplerConfig::uniform(100),
            SamplerConfig::chao(0.1, 100),
            SamplerConfig::sliding_count(100),
            SamplerConfig::sliding_time(5.0),
            SamplerConfig::ares(0.1, 100),
        ];
        for cfg in configs {
            cfg.build::<u64>()
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.algorithm.label()));
        }
    }

    #[test]
    fn invalid_decay_is_an_error_not_a_panic() {
        for lambda in [-0.1, f64::NAN, f64::INFINITY] {
            let err = SamplerConfig::rtbs(lambda, 10).build::<u64>().unwrap_err();
            assert!(matches!(err, TbsError::InvalidDecay { .. }), "{err}");
        }
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert_eq!(
            SamplerConfig::rtbs(0.1, 0).build::<u64>().unwrap_err(),
            TbsError::InvalidCapacity
        );
    }

    #[test]
    fn missing_parameters_are_named() {
        let err = SamplerConfig::new(Algorithm::RTbs)
            .decay(0.1)
            .build::<u64>()
            .unwrap_err();
        assert_eq!(
            err,
            TbsError::MissingParameter {
                what: "capacity",
                algorithm: "R-TBS"
            }
        );
        let err = SamplerConfig::new(Algorithm::TTbs)
            .decay(0.1)
            .capacity(50)
            .build::<u64>()
            .unwrap_err();
        assert_eq!(
            err,
            TbsError::MissingParameter {
                what: "mean_batch",
                algorithm: "T-TBS"
            }
        );
        let err = SamplerConfig::new(Algorithm::SlidingTime)
            .build::<u64>()
            .unwrap_err();
        assert_eq!(
            err,
            TbsError::MissingParameter {
                what: "window_width",
                algorithm: "SW-time"
            }
        );
    }

    #[test]
    fn unused_parameters_are_rejected() {
        let err = SamplerConfig::uniform(10)
            .decay(0.5)
            .build::<u64>()
            .unwrap_err();
        assert!(matches!(
            err,
            TbsError::UnusedParameter { what: "decay", .. }
        ));
        let err = SamplerConfig::btbs(0.1)
            .capacity(10)
            .build::<u64>()
            .unwrap_err();
        assert!(matches!(
            err,
            TbsError::UnusedParameter {
                what: "capacity",
                ..
            }
        ));
        let err = SamplerConfig::rtbs(0.1, 10)
            .mean_batch(5.0)
            .build::<u64>()
            .unwrap_err();
        assert!(matches!(
            err,
            TbsError::UnusedParameter {
                what: "mean_batch",
                ..
            }
        ));
    }

    #[test]
    fn ttbs_feasibility_is_checked() {
        // n = 1000, λ = 0.1 ⇒ floor ≈ 95.2; b = 50 is infeasible.
        let err = SamplerConfig::ttbs(0.1, 1000, 50.0)
            .build::<u64>()
            .unwrap_err();
        match err {
            TbsError::InfeasibleTarget {
                target,
                mean_batch,
                min_mean_batch,
            } => {
                assert_eq!(target, 1000);
                assert_eq!(mean_batch, 50.0);
                assert!((min_mean_batch - 95.16).abs() < 0.01);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn sharding_rules_are_enforced() {
        // K = 0 never makes sense.
        assert!(matches!(
            SamplerConfig::rtbs(0.1, 100).shards(0).build::<u64>(),
            Err(TbsError::InvalidShardCount { shards: 0, .. })
        ));
        // Undecayed sharding diverges.
        assert!(matches!(
            SamplerConfig::rtbs(0.0, 100).shards(4).build::<u64>(),
            Err(TbsError::InvalidShardCount { shards: 4, .. })
        ));
        // Non-mergeable algorithms cannot shard.
        assert!(matches!(
            SamplerConfig::chao(0.1, 100).shards(2).build::<u64>(),
            Err(TbsError::UnshardableAlgorithm { .. })
        ));
        // Real gaps and shards are mutually exclusive.
        assert!(matches!(
            SamplerConfig::rtbs(0.1, 100)
                .shards(2)
                .time(TimeSemantics::RealGaps)
                .build::<u64>(),
            Err(TbsError::InvalidShardCount { .. })
        ));
        // And the happy path works.
        assert!(SamplerConfig::rtbs(0.1, 100)
            .shards(4)
            .build::<u64>()
            .is_ok());
        assert!(SamplerConfig::ttbs(0.1, 100, 50.0)
            .shards(2)
            .build::<u64>()
            .is_ok());
    }

    #[test]
    fn real_gaps_need_a_gap_capable_algorithm() {
        for cfg in [
            SamplerConfig::uniform(10),
            SamplerConfig::sliding_count(10),
            SamplerConfig::ares(0.1, 10),
        ] {
            assert!(matches!(
                cfg.time(TimeSemantics::RealGaps).build::<u64>(),
                Err(TbsError::UnsupportedGap { .. })
            ));
        }
        assert!(SamplerConfig::rtbs(0.1, 10)
            .time(TimeSemantics::RealGaps)
            .build::<u64>()
            .is_ok());
    }

    #[test]
    fn publish_policy_thresholds_must_be_positive() {
        for policy in [
            PublishPolicy::EveryBatches(0),
            PublishPolicy::MaxLagBatches(0),
        ] {
            let err = SamplerConfig::rtbs(0.1, 100)
                .publish_policy(policy)
                .build::<u64>()
                .unwrap_err();
            assert!(
                matches!(err, TbsError::InvalidPublishPolicy { .. }),
                "{policy:?}: {err}"
            );
        }
        // Positive thresholds build, sharded or not, and the default is
        // Manual.
        assert_eq!(
            SamplerConfig::rtbs(0.1, 100).publish_policy_config(),
            PublishPolicy::Manual
        );
        assert!(SamplerConfig::rtbs(0.1, 100)
            .publish_policy(PublishPolicy::EveryBatches(8))
            .build::<u64>()
            .is_ok());
        assert!(SamplerConfig::rtbs(0.1, 100)
            .shards(4)
            .publish_policy(PublishPolicy::MaxLagBatches(16))
            .build::<u64>()
            .is_ok());
    }

    #[test]
    fn algorithm_tags_roundtrip() {
        for alg in Algorithm::all() {
            assert_eq!(Algorithm::from_tag(alg.tag()), Some(alg));
        }
        assert_eq!(Algorithm::from_tag(0), None);
        assert_eq!(Algorithm::from_tag(99), None);
    }

    #[test]
    fn capability_matrix_matches_the_paper_table() {
        use Algorithm::*;
        // §1 Table 1 / §2: bounded size.
        assert!(RTbs.is_bounded() && Uniform.is_bounded() && Chao.is_bounded());
        assert!(!BTbs.is_bounded() && !TTbs.is_bounded() && !SlidingTime.is_bounded());
        // Exact decay law.
        assert!(RTbs.has_exact_decay() && TTbs.has_exact_decay() && BTbs.has_exact_decay());
        assert!(!Chao.has_exact_decay() && !ARes.has_exact_decay());
        // Merge algebra.
        assert!(RTbs.is_mergeable() && TTbs.is_mergeable());
        assert!(!BTbs.is_mergeable() && !Chao.is_mergeable());
    }
}
