//! # tbs-distributed
//!
//! Distributed and multi-core temporally-biased sampling: the §5
//! algorithms of the EDBT 2018 paper over a simulated Spark-like cluster,
//! plus a real sharded multi-core ingest engine built on the same
//! "distributed decisions need no per-item coordination" insight.
//!
//! The simulation side runs real in-process workers over partitioned
//! data, while a calibrated discrete-event [`cost::CostModel`] accounts
//! for what a 1 GbE cluster would spend on network transfer, master
//! coordination and per-phase framework overhead — reproducing the
//! *shape* of Figures 7–9 at laptop scale (see DESIGN.md §4,
//! substitution 1).
//!
//! * [`engine`] — **the multi-core sharded ingest engine**: N persistent
//!   shard threads behind bounded queues, each owning a monomorphized
//!   mergeable sampler and a jump-ahead RNG substream; shard states merge
//!   exactly (via `tbs_core::merge`) when a sample is requested, and a
//!   barrier-driven snapshot protocol publishes epoch-stamped
//!   `FrozenSample`s for concurrent readers without stopping ingest. The
//!   committed `BENCH_scaling.json` and `BENCH_serving.json` baseline its
//!   aggregate capacity and serving behaviour.
//! * [`snapshot`] — the [`snapshot::EpochCell`] publication slot readers
//!   poll lock-free while the pipeline keeps writing;
//! * [`queue`] — the bounded blocking batch queues behind the engine:
//!   bulk draining, backpressure, allocation-free in steady state;
//! * [`partition`] — RDD-like partitioned datasets with slot→location maps;
//! * [`kvstore`] — serialized key-value-store reservoir (Memcached
//!   stand-in) with per-operation locking and network charges;
//! * [`copart`] — the co-partitioned reservoir: local inserts/deletes,
//!   control messages only;
//! * decision strategies are embedded in [`drtbs`]: centralized slot generation
//!   (repartition or co-located joins) vs distributed per-worker counts via
//!   multivariate hypergeometric splits and jump-ahead RNG substreams;
//! * [`dttbs`] — embarrassingly parallel D-T-TBS;
//! * [`cluster`] — the worker pool: sequential, or threaded over a cache
//!   of persistent worker threads (no per-batch `thread::spawn`).

pub mod cluster;
pub mod copart;
pub mod cost;
pub mod drtbs;
pub mod dttbs;
pub mod engine;
pub mod fault;
pub mod kvstore;
pub mod partition;
pub mod queue;
pub mod snapshot;
pub mod wire;

pub use cluster::WorkerPool;
pub use copart::CoPartitionedReservoir;
pub use cost::{CostModel, CostTracker};
pub use drtbs::{DRTbs, DrtbsConfig, Strategy};
pub use dttbs::{DTTbs, DttbsConfig};
pub use engine::{
    EngineCheckpoint, EngineConfig, EngineError, EngineHealth, ParallelIngestEngine,
    RecoveryPolicy, ShardStats,
};
pub use fault::{FaultPlan, FaultSite, WireAction};
pub use kvstore::KvReservoir;
pub use partition::{Location, Partitioned};
pub use queue::BatchQueue;
pub use snapshot::{EpochCell, EpochWait};
pub use tbs_core::checkpoint::CheckpointError;
pub use wire::{Wire, WIRE_ENVELOPE_BYTES};
