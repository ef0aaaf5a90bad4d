//! # tbs-stats
//!
//! Probability substrate for the temporally-biased sampling library.
//!
//! The EDBT 2018 paper leans on a handful of classical Monte-Carlo building
//! blocks that are *not* part of the approved dependency set, so they are
//! implemented here from the primary sources the paper cites:
//!
//! * [`mod@binomial`] — exact binomial variates via BINV inversion and the BTPE
//!   accept/reject algorithm of Kachitvichyanukul & Schmeiser (1988), the
//!   paper's reference \[22\].
//! * [`mod@hypergeometric`] — exact hypergeometric variates via a mode-centred
//!   two-sided inversion walk (in the spirit of K&S 1985, reference \[21\]).
//! * [`multivariate`] — multivariate hypergeometric vectors, used by the
//!   distributed algorithms of §5.3 to split delete/insert counts across
//!   workers without centralized slot generation.
//! * [`rng`] — `xoshiro256++` with `jump()` / `long_jump()`, providing the
//!   statistically independent parallel substreams of reference \[20\].
//! * [`rounding`] — the mean-preserving stochastic rounding used by R-TBS.
//! * [`summary`] — streaming moments, quantiles and the expected-shortfall
//!   (ES) risk measure used in §6.2's robustness evaluation.
//! * [`special`] — log-gamma / log-factorial / log-binomial-coefficient
//!   helpers backing the exact samplers.
//! * [`chi2`] — chi-square goodness-of-fit helpers used by the statistical
//!   test-suites of the sampler crates.
//! * [`gof`] — the goodness-of-fit *policy* layer: the workspace's shared
//!   false-positive budget and chi² quantile tests — the statistical
//!   backbone of `tests/statistical_equivalence.rs`.

pub mod binomial;
pub mod chi2;
pub mod gof;
pub mod hypergeometric;
pub mod multivariate;
pub mod normal;
pub mod rng;
pub mod rounding;
pub mod special;
pub mod summary;

pub use binomial::{binomial, CachedBinomial};
// (function re-exports intentionally shadow module names in docs)
pub use hypergeometric::hypergeometric;
pub use multivariate::multivariate_hypergeometric;
pub use rng::Xoshiro256PlusPlus;
pub use rounding::stochastic_round;
pub use summary::{expected_shortfall, OnlineMoments};
