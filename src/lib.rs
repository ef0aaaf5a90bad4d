//! # temporal-sampling
//!
//! A from-scratch Rust reproduction of *Temporally-Biased Sampling for Online
//! Model Management* (Hentschel, Haas & Tian, EDBT 2018, arXiv:1801.09709).
//!
//! The library maintains stream samples whose item-inclusion probabilities
//! decay exponentially in wall-clock time, so that periodically retrained
//! machine-learning models emphasize recent data while retaining a controlled
//! amount of history. The headline algorithm, [`tbs_core::rtbs::RTbs`], is the
//! first sampling scheme that simultaneously
//!
//! 1. enforces the exact exponential relative-inclusion property
//!    `Pr[i ∈ S_t] / Pr[j ∈ S_t] = exp(-λ (t'' − t'))` at all times,
//! 2. guarantees a hard upper bound on the sample size, and
//! 3. tolerates unknown, arbitrarily varying data arrival rates.
//!
//! ## Crate map
//!
//! * [`stats`] — probability substrate: exact binomial / hypergeometric /
//!   multivariate-hypergeometric variate generators, jump-ahead PRNG streams,
//!   stochastic rounding, and the expected-shortfall risk measure.
//! * [`core`] — the sampling algorithms themselves: R-TBS, T-TBS, B-TBS,
//!   batched reservoir sampling, batched time-decayed Chao, sliding windows,
//!   and the closed-form theory of Theorem 3.1.
//! * [`datagen`] — the paper's evaluation workloads: batch-size processes,
//!   normal/abnormal mode schedules, Gaussian-mixture classification streams,
//!   drifting linear-regression streams, and a synthetic Usenet2 substitute.
//! * [`ml`] — from-scratch learners retrained on the maintained samples:
//!   kNN, OLS linear regression, multinomial naive Bayes, plus the
//!   `OnlineModel` interface the retraining loop drives and evaluation
//!   metrics.
//! * [`distributed`] — a simulated Spark-like cluster substrate running
//!   D-R-TBS and D-T-TBS with co-partitioned or key-value-store reservoirs
//!   and centralized or distributed insert/delete decisions — plus the
//!   real multi-core sharded ingest engine
//!   (`distributed::engine::ParallelIngestEngine`), which maintains one
//!   mergeable sampler per worker thread and combines them exactly on
//!   demand (`core::merge`).
//!
//! ## Quickstart
//!
//! The [`api`] module is the front door: one validating builder for every
//! sampling algorithm (and the multi-core sharded engine), a unified
//! [`api::Sampler`] handle that owns its RNG, versioned
//! snapshot/restore, and a [`api::ModelManager`] that closes the paper's
//! retraining loop.
//!
//! ```
//! use temporal_sampling::api::SamplerConfig;
//!
//! // R-TBS: decay rate λ = 0.07, hard sample-size bound n = 100.
//! let config = SamplerConfig::rtbs(0.07, 100).seed(42);
//! let mut sampler = config.build::<u64>().expect("valid config");
//! for t in 0..50u64 {
//!     sampler.observe((0..20).map(|i| t * 20 + i).collect()).unwrap();
//! }
//! assert!(sampler.sample().unwrap().len() <= 100);
//!
//! // Invalid configs are errors, not panics…
//! assert!(SamplerConfig::rtbs(-1.0, 100).build::<u64>().is_err());
//!
//! // …and the complete state (RNG position included) round-trips
//! // through a versioned blob, continuing bit-identically.
//! let blob = sampler.snapshot().unwrap();
//! let mut restored = temporal_sampling::api::Sampler::restore(&config, blob).unwrap();
//! sampler.observe((0..20).collect()).unwrap();
//! restored.observe((0..20).collect()).unwrap();
//! assert_eq!(sampler.sample().unwrap(), restored.sample().unwrap());
//! ```
//!
//! The per-crate expert layer below remains fully available — e.g.
//! [`tbs_core::rtbs::RTbs::new`] with a caller-supplied RNG for hot loops
//! that manage their own randomness (see the `api` docs for the
//! migration table).

pub mod api;

pub use tbs_core as core;
pub use tbs_datagen as datagen;
pub use tbs_distributed as distributed;
pub use tbs_ml as ml;
pub use tbs_stats as stats;

/// Convenience prelude re-exporting the most commonly used types.
pub mod prelude {
    pub use crate::api::{
        Algorithm, ModelManager, RetrainPolicy, Sampler, SamplerConfig, TbsError, TimeSemantics,
    };
    pub use tbs_core::brs::BatchedReservoir;
    pub use tbs_core::btbs::BTbs;
    pub use tbs_core::chao::BChao;
    pub use tbs_core::rtbs::RTbs;
    pub use tbs_core::sliding::{CountWindow, TimeWindow};
    pub use tbs_core::ttbs::TTbs;
    pub use tbs_stats::rng::Xoshiro256PlusPlus;
    pub use tbs_stats::summary::{expected_shortfall, OnlineMoments};
}
