//! The production-shaped public API: builder-configured sampler handles,
//! versioned checkpoint/restore, and the model-management loop.
//!
//! Everything in this module is a facade over the expert layer in
//! `tbs_core` / `tbs_distributed` / `tbs_ml` — the raw constructors and
//! inherent methods remain available and unchanged underneath. The facade
//! adds the properties a service needs that the expert layer
//! deliberately does not provide:
//!
//! 1. **Validated construction.** [`SamplerConfig`] is one builder for
//!    all eight sampling algorithms *and* the K-shard parallel ingest
//!    engine; `build` returns a [`TbsError`] instead of panicking on an
//!    invalid λ, capacity, feasibility bound, or shard count.
//! 2. **Durable state.** [`Sampler::snapshot`] serializes the complete
//!    sampler state (RNG positions included) into a versioned blob;
//!    [`Sampler::restore`] rebuilds it in a fresh process and the stream
//!    continues **bit-identically** — verified property-test-style for
//!    every algorithm, saturated and not, single-node and 4-shard.
//! 3. **The retraining loop.** [`ModelManager`] closes the paper's
//!    model-management loop (§6): per batch it scores out-of-sample,
//!    updates the sample, and refits on a policy — every batch,
//!    periodic, or drift-triggered.
//! 4. **Concurrent serving.** [`Sampler::publish`] freezes the current
//!    sample into an epoch-stamped, `Arc`-shared [`FrozenSample`], and
//!    clonable [`SampleReader`] handles (`Send + Sync`) poll it from any
//!    number of threads without stopping ingest — for sharded samplers
//!    the publication runs as a barrier through the pipeline and a
//!    background merge, so one retrain no longer stalls the stream.
//!
//! # Serving quickstart
//!
//! ```
//! use temporal_sampling::api::SamplerConfig;
//!
//! let mut sampler = SamplerConfig::rtbs(0.1, 100)
//!     .seed(1)
//!     .build::<u64>()
//!     .expect("valid config");
//! let mut reader = sampler.reader(); // Send + Sync + Clone
//! assert!(reader.latest().is_none()); // nothing published yet
//!
//! sampler.observe((0..500).collect()).unwrap();
//! let epoch = sampler.publish().unwrap();
//! let frozen = reader.wait_for_epoch(epoch).expect("published");
//! assert_eq!(frozen.epoch(), 1);
//! assert!(frozen.len() <= 100);
//! // `frozen` is immutable and Arc-shared: hand clones of `reader` to
//! // other threads and keep ingesting here.
//! ```
//!
//! # Quickstart
//!
//! ```
//! use temporal_sampling::api::{Algorithm, SamplerConfig};
//!
//! // R-TBS, λ = 0.07, hard bound 1000, 1 shard, fixed seed.
//! let config = SamplerConfig::new(Algorithm::RTbs)
//!     .decay(0.07)
//!     .capacity(1000)
//!     .seed(42);
//! let mut sampler = config.build::<u64>().expect("valid config");
//!
//! for t in 0..50u64 {
//!     sampler.observe((0..100).map(|i| t * 100 + i).collect()).unwrap();
//! }
//!
//! // Durable state: snapshot, restore, continue — bit-identical.
//! let blob = sampler.snapshot().unwrap();
//! let mut restored = temporal_sampling::api::Sampler::restore(&config, blob).unwrap();
//! sampler.observe((0..100).collect()).unwrap();
//! restored.observe((0..100).collect()).unwrap();
//! assert_eq!(sampler.sample().unwrap(), restored.sample().unwrap());
//! ```
//!
//! # Migration from raw constructors
//!
//! | Expert layer (still works) | Facade |
//! |---|---|
//! | `RTbs::new(0.07, 1000)` + own RNG | `SamplerConfig::rtbs(0.07, 1000).seed(s).build()` |
//! | `TTbs::new(λ, n, b)` (panics if infeasible) | `SamplerConfig::ttbs(λ, n, b).build()` → `Err(InfeasibleTarget)` |
//! | `ParallelIngestEngine::new(EngineConfig::new(ShardSpec::rtbs(λ, n, k), s))` | `SamplerConfig::rtbs(λ, n).shards(k).seed(s).build()` |
//! | `sampler.observe(batch, &mut rng)` | `sampler.observe(batch)` (handle owns the RNG) |
//! | hand-rolled `checkpoint::Writer` state | `sampler.snapshot()` / `Sampler::restore(&config, blob)` |

mod config;
mod error;
mod manager;
mod reader;
mod sampler;
mod store;

pub use config::{Algorithm, CheckpointPolicy, PublishPolicy, SamplerConfig, TimeSemantics};
pub use error::TbsError;
pub use manager::{IngestReport, ManagerMetrics, ModelManager};
pub use reader::SampleReader;
pub use sampler::Sampler;
pub use store::CheckpointStore;

// The failure-semantics vocabulary of the sharded engine is part of the
// facade's surface: configs carry a `RecoveryPolicy`, `TbsError::Engine`
// wraps an `EngineError`, `Sampler::health` reports `EngineHealth`, and
// `SampleReader::wait_for_epoch_timeout` returns an `EpochWait`.
pub use tbs_distributed::engine::{EngineError, EngineHealth, RecoveryPolicy};
pub use tbs_distributed::snapshot::EpochWait;

// Published snapshots are the currency of the serving layer: `publish`
// produces them, `SampleReader::latest` hands them out.
pub use tbs_core::frozen::FrozenSample;

// The retraining-policy vocabulary is part of this module's surface:
// `ModelManager::new` takes a policy, `with_detector` a detector.
pub use tbs_ml::drift::{DriftDetector, DriftVerdict, RetrainPolicy};
// Item types stream through `snapshot`/`restore` via the wire codec.
pub use tbs_core::checkpoint::{CheckpointError, Wire};
