//! The unified error type of the public API.
//!
//! The expert layer underneath (`tbs_core`, `tbs_distributed`) validates
//! with `assert!` — appropriate for internal invariants, hostile to
//! service code that assembles configurations from user input. Every
//! fallible path of [`crate::api`] reports through [`TbsError`] instead:
//! construction ([`crate::api::SamplerConfig::build`]), time semantics
//! ([`crate::api::Sampler::observe_after`]), and checkpoint decoding
//! ([`crate::api::Sampler::restore`], which wraps the codec's
//! [`CheckpointError`] via `From`).

use tbs_core::checkpoint::CheckpointError;
use tbs_distributed::engine::EngineError;

/// Everything that can go wrong at the `temporal_sampling::api` surface.
#[derive(Debug, Clone, PartialEq)]
pub enum TbsError {
    /// The decay rate λ is negative, NaN, or infinite.
    InvalidDecay {
        /// The offending value.
        lambda: f64,
    },
    /// A capacity / target sample size of zero was requested.
    InvalidCapacity,
    /// The algorithm needs a parameter the config never set.
    MissingParameter {
        /// Which builder knob is missing (`"capacity"`, `"mean_batch"`, …).
        what: &'static str,
        /// The algorithm that needs it.
        algorithm: &'static str,
    },
    /// A parameter was set that the chosen algorithm does not use —
    /// almost always a mis-assembled config, so it is rejected rather
    /// than silently ignored.
    UnusedParameter {
        /// Which builder knob is superfluous.
        what: &'static str,
        /// The algorithm that ignores it.
        algorithm: &'static str,
    },
    /// T-TBS feasibility (§3): the assumed mean batch size must satisfy
    /// `b ≥ n(1 − e^{−λ})`, or items decay faster than they arrive at the
    /// target size and the scheme cannot hold it.
    InfeasibleTarget {
        /// Requested target size `n`.
        target: usize,
        /// Assumed mean batch size `b`.
        mean_batch: f64,
        /// The feasibility floor `n(1 − e^{−λ})`.
        min_mean_batch: f64,
    },
    /// The time-window width is zero, negative, NaN, or infinite.
    InvalidWindowWidth {
        /// The offending value.
        width: f64,
    },
    /// The shard count is unusable: zero, or λ = 0 with K > 1 (the merge
    /// algebra's skew headroom `1/(1 − e^{−λ})` diverges), or real-valued
    /// gaps were requested for a sharded stream (the engine's shards
    /// advance integer clocks).
    InvalidShardCount {
        /// Requested shard count K.
        shards: usize,
        /// Why it is rejected.
        reason: &'static str,
    },
    /// Sharding was requested for an algorithm with no merge algebra
    /// (only R-TBS and T-TBS are mergeable — see `tbs_core::merge`).
    UnshardableAlgorithm {
        /// The non-mergeable algorithm.
        algorithm: &'static str,
    },
    /// An automatic publication policy was configured with a batch
    /// threshold of zero ([`crate::api::PublishPolicy`]).
    InvalidPublishPolicy {
        /// Why it is rejected.
        reason: &'static str,
    },
    /// `observe_after` was called but the sampler cannot honor
    /// real-valued inter-arrival gaps — either the algorithm is
    /// integer-clocked by nature, or the config never declared
    /// [`crate::api::TimeSemantics::RealGaps`].
    UnsupportedGap {
        /// The algorithm involved.
        algorithm: &'static str,
        /// What exactly is unsupported.
        reason: &'static str,
    },
    /// A checkpoint blob encodes a different algorithm than the config
    /// restoring it expects.
    AlgorithmMismatch {
        /// Algorithm the config wants.
        expected: &'static str,
        /// Algorithm found in the blob.
        found: &'static str,
    },
    /// A checkpoint blob's parameters disagree with the restoring config
    /// (decay rate, capacity, shard count, …).
    ConfigMismatch {
        /// Which parameter disagrees.
        what: &'static str,
    },
    /// The checkpoint blob itself is unreadable (bad magic, unsupported
    /// version, truncation, corrupt field, CRC mismatch).
    Checkpoint(CheckpointError),
    /// An automatic checkpoint policy was configured with a batch
    /// threshold of zero, or without attaching a store
    /// ([`crate::api::CheckpointPolicy`]).
    InvalidCheckpointPolicy {
        /// Why it is rejected.
        reason: &'static str,
    },
    /// The sharded ingest pipeline failed (a worker or the merger died, a
    /// delivery was lost) and could not — or was configured not to —
    /// recover. The engine is terminally failed; every subsequent call
    /// returns this same cause.
    Engine(EngineError),
    /// A checkpoint-store filesystem operation failed (create, write,
    /// rename, read, scan).
    CheckpointIo {
        /// The operation that failed (`"create dir"`, `"write"`, …).
        op: &'static str,
        /// The underlying I/O error, rendered.
        detail: String,
    },
    /// [`crate::api::Sampler::recover`] walked the whole generation ring
    /// and found no blob that validates and matches the config.
    NoValidCheckpoint {
        /// How many stored generations were tried.
        attempted: usize,
    },
}

impl std::fmt::Display for TbsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TbsError::InvalidDecay { lambda } => {
                write!(
                    f,
                    "decay rate must be finite and non-negative, got {lambda}"
                )
            }
            TbsError::InvalidCapacity => write!(f, "capacity must be positive"),
            TbsError::MissingParameter { what, algorithm } => {
                write!(f, "{algorithm} requires `{what}` to be configured")
            }
            TbsError::UnusedParameter { what, algorithm } => {
                write!(
                    f,
                    "{algorithm} does not use `{what}`; remove it from the config"
                )
            }
            TbsError::InfeasibleTarget {
                target,
                mean_batch,
                min_mean_batch,
            } => write!(
                f,
                "T-TBS target {target} is infeasible: mean batch size {mean_batch} \
                 is below the floor n(1-e^-lambda) = {min_mean_batch}"
            ),
            TbsError::InvalidWindowWidth { width } => {
                write!(f, "window width must be positive and finite, got {width}")
            }
            TbsError::InvalidShardCount { shards, reason } => {
                write!(f, "shard count {shards} rejected: {reason}")
            }
            TbsError::UnshardableAlgorithm { algorithm } => {
                write!(
                    f,
                    "{algorithm} has no shard-merge algebra; only R-TBS and T-TBS \
                     can run sharded"
                )
            }
            TbsError::InvalidPublishPolicy { reason } => {
                write!(f, "publish policy rejected: {reason}")
            }
            TbsError::UnsupportedGap { algorithm, reason } => {
                write!(
                    f,
                    "{algorithm} cannot honor this inter-arrival gap: {reason}"
                )
            }
            TbsError::AlgorithmMismatch { expected, found } => {
                write!(
                    f,
                    "checkpoint holds {found} state, config expects {expected}"
                )
            }
            TbsError::ConfigMismatch { what } => {
                write!(
                    f,
                    "checkpoint disagrees with the restoring config on {what}"
                )
            }
            TbsError::Checkpoint(e) => write!(f, "checkpoint unreadable: {e}"),
            TbsError::InvalidCheckpointPolicy { reason } => {
                write!(f, "checkpoint policy rejected: {reason}")
            }
            TbsError::Engine(e) => write!(f, "ingest pipeline failed: {e}"),
            TbsError::CheckpointIo { op, detail } => {
                write!(f, "checkpoint store {op} failed: {detail}")
            }
            TbsError::NoValidCheckpoint { attempted } => {
                write!(
                    f,
                    "no stored checkpoint generation validates \
                     ({attempted} tried)"
                )
            }
        }
    }
}

impl std::error::Error for TbsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TbsError::Checkpoint(e) => Some(e),
            TbsError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for TbsError {
    fn from(e: CheckpointError) -> Self {
        TbsError::Checkpoint(e)
    }
}

impl From<EngineError> for TbsError {
    fn from(e: EngineError) -> Self {
        TbsError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_renders_every_variant() {
        let cases: Vec<TbsError> = vec![
            TbsError::InvalidDecay { lambda: -1.0 },
            TbsError::InvalidCapacity,
            TbsError::MissingParameter {
                what: "capacity",
                algorithm: "R-TBS",
            },
            TbsError::UnusedParameter {
                what: "mean_batch",
                algorithm: "B-TBS",
            },
            TbsError::InfeasibleTarget {
                target: 100,
                mean_batch: 1.0,
                min_mean_batch: 9.5,
            },
            TbsError::InvalidWindowWidth { width: 0.0 },
            TbsError::InvalidShardCount {
                shards: 0,
                reason: "need at least one shard",
            },
            TbsError::UnshardableAlgorithm {
                algorithm: "B-Chao",
            },
            TbsError::InvalidPublishPolicy {
                reason: "threshold must be at least 1",
            },
            TbsError::UnsupportedGap {
                algorithm: "Unif",
                reason: "integer-clocked",
            },
            TbsError::AlgorithmMismatch {
                expected: "R-TBS",
                found: "T-TBS",
            },
            TbsError::ConfigMismatch { what: "decay rate" },
            TbsError::Checkpoint(CheckpointError::Truncated),
            TbsError::InvalidCheckpointPolicy {
                reason: "interval must be at least 1",
            },
            TbsError::Engine(EngineError::MergerDead),
            TbsError::CheckpointIo {
                op: "write",
                detail: "disk full".into(),
            },
            TbsError::NoValidCheckpoint { attempted: 3 },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty(), "{e:?} renders empty");
        }
    }

    #[test]
    fn checkpoint_error_converts_and_chains() {
        let e: TbsError = CheckpointError::BadMagic.into();
        assert_eq!(e, TbsError::Checkpoint(CheckpointError::BadMagic));
        assert!(
            e.source().is_some(),
            "wrapped codec error must be the source"
        );
        assert!(e.to_string().contains("magic"));
    }

    #[test]
    fn engine_error_converts_and_chains() {
        let e: TbsError = EngineError::ShardDead { shard: 2 }.into();
        assert_eq!(e, TbsError::Engine(EngineError::ShardDead { shard: 2 }));
        assert!(e.source().is_some(), "pipeline cause must be the source");
        assert!(e.to_string().contains("shard worker 2"));
    }
}
