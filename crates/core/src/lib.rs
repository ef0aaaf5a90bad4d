//! # tbs-core
//!
//! Temporally-biased stream sampling — the algorithmic core of the EDBT 2018
//! paper *Temporally-Biased Sampling for Online Model Management*
//! (Hentschel, Haas & Tian).
//!
//! ## The problem
//!
//! Maintain a sample `S_t` over a stream of batches such that items decay
//! exponentially in *wall-clock* time: for items `i`, `j` arriving at times
//! `t′ ≤ t″`,
//!
//! ```text
//! Pr[i ∈ S_t] / Pr[j ∈ S_t] = e^{−λ (t″ − t′)}        (1)
//! ```
//!
//! while keeping the sample size under control. Retraining ML models on such
//! samples keeps them fresh *and* robust to recurring patterns — unlike
//! sliding windows, which forget old data entirely.
//!
//! ## The schemes
//!
//! | Scheme | Decay control | Size control | Varying arrival rate |
//! |---|---|---|---|
//! | [`btbs::BTbs`] (Alg. 4) | exact (1) | none | yes |
//! | [`brs::BatchedReservoir`] (Alg. 5) | none (λ=0) | hard bound | yes |
//! | [`ttbs::TTbs`] (Alg. 1) | exact (1) | probabilistic target | **no** — needs known constant mean batch size |
//! | [`chao::BChao`] (Alg. 6/7) | violated at fill-up / slow arrivals | hard bound (never shrinks) | partially |
//! | [`rtbs::RTbs`] (Alg. 2) | exact (1), always | hard bound, optimal E-size & variance | yes |
//! | [`sliding::CountWindow`] | all-or-nothing | hard bound | yes |
//! | [`sliding::TimeWindow`] | all-or-nothing | none | yes |
//!
//! ## Sharding
//!
//! R-TBS and T-TBS are **mergeable** ([`merge`]): K independent shard
//! samplers over a deterministic partition of the stream can be unioned —
//! via the paper's §5 weight algebra, with stochastic rounding of the
//! fractional items — into a sample statistically equivalent to a
//! single-node sampler over the interleaved stream. This is what lets the
//! multi-core engine in `tbs-distributed` ingest with zero cross-shard
//! coordination.
//!
//! ## Calling a sampler
//!
//! Every sampler's ingest API is a set of **inherent generic methods**
//! (`observe<R: Rng>`, `observe_after`, `sample`, `sample_into`) — the
//! monomorphized fast path. With a concrete RNG the per-batch transition
//! inlines every random draw and performs zero steady-state heap
//! allocations beyond the caller-provided batch.
//!
//! Service code, and any caller that holds a heterogeneous set of
//! samplers, should enter through the root crate's
//! `temporal_sampling::api` facade instead: a validating builder over all
//! of these samplers (errors instead of panics), a unified handle that
//! owns its RNG, and versioned snapshot/restore built on [`checkpoint`]
//! and each sampler's `save_state`/`load_state` pair. The facade's
//! `observe` enum-dispatches straight onto the inherent fast path; the
//! `bench_throughput` binary in `tbs-bench` measures the residual cost
//! (`facade` vs `fast` rows).
//!
//! ## Example
//!
//! Feed 50 batches to R-TBS with decay rate λ = 0.07 and a hard bound of
//! 100 items, then realize a sample. `rng` is a concrete xoshiro256++, so
//! every call below is monomorphized — no trait import needed:
//!
//! ```rust
//! use rand::SeedableRng;
//! use tbs_core::RTbs;
//! use tbs_stats::rng::Xoshiro256PlusPlus;
//!
//! let mut rng = Xoshiro256PlusPlus::seed_from_u64(42);
//! let mut sampler: RTbs<u64> = RTbs::new(0.07, 100);
//! for t in 0..50u64 {
//!     let batch: Vec<u64> = (0..20).map(|i| t * 20 + i).collect();
//!     sampler.observe(batch, &mut rng);
//! }
//! let sample = sampler.sample(&mut rng);
//! assert!(sample.len() <= 100);
//! // Retraining loops that realize the sample every batch can reuse one
//! // buffer instead of allocating a fresh Vec per call:
//! let mut buf = Vec::new();
//! sampler.sample_into(&mut rng, &mut buf);
//! assert_eq!(buf.len(), sample.len());
//! // The exponential decay law keeps total weight near 20 / (1 − e^{−λ}).
//! assert!(sampler.total_weight() > 100.0);
//! ```

pub mod ares;
pub mod brs;
pub mod btbs;
pub mod chao;
pub mod checkpoint;
pub mod downsample;
pub mod forward;
pub mod frozen;
pub mod latent;
pub mod merge;
pub mod notify;
pub mod rtbs;
pub mod sliding;
pub mod theory;
pub mod ttbs;
pub mod util;
pub mod verify;

pub use ares::BAres;
pub use brs::BatchedReservoir;
pub use btbs::BTbs;
pub use chao::BChao;
pub use forward::{DecayGauge, ExponentialGauge, ForwardDecayRTbs, PolynomialGauge};
pub use frozen::FrozenSample;
pub use latent::LatentSample;
pub use merge::{
    merge_replay, partition_batch, BalancedSplitter, MergePlan, MergeScalars, MergeableSample,
    ShardSpec,
};
pub use rtbs::RTbs;
pub use sliding::{CountWindow, TimeWindow};
pub use ttbs::TTbs;
