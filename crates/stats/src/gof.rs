//! Goodness-of-fit testing for the statistical test-suites — one
//! shared false-positive budget for the whole workspace.
//!
//! Every stochastic test in this repository is *seeded*, so each test is
//! a one-time draw: it either passes forever or fails forever. The α
//! below therefore controls the probability that a test was unlucky *at
//! the seed it was written with* — i.e. the chance we baked in an assert
//! that rejects a correct implementation. Centralizing the constants
//! gives the suite a single documented budget instead of per-test magic
//! numbers:
//!
//! * [`TEST_ALPHA`] — per-test significance `10⁻⁴`. The workspace runs
//!   on the order of 100 distribution checks, so the family-wise
//!   false-positive budget is about `100 · 10⁻⁴ = 1%` — roughly one in a
//!   hundred *rewrites of the whole suite* would bake in one bad assert.
//!   At the same time, gross errors (an off-by-one in a pmf, a biased
//!   sweep) shift chi² statistics by orders of magnitude, so power is
//!   not a concern at the sample sizes used.
//! * [`MIN_EXPECTED`] — the classical "expected count ≥ 5" pooling rule
//!   for chi² cells.
//! * [`bonferroni`] — for harnesses that run `m` related checks and want
//!   their *family* to consume one [`TEST_ALPHA`] in total.
//!
//! The chi² machinery builds on [`crate::chi2`]; this module adds the
//! budget policy that the statistical harness
//! (`tests/statistical_equivalence.rs`) splits across its checks.

use crate::chi2::{chi2_critical, chi2_pooled};

/// Per-test significance level shared by the workspace's seeded
/// statistical tests (see the module docs for the budget arithmetic).
pub const TEST_ALPHA: f64 = 1e-4;

/// Minimum expected count per pooled chi² cell (the classical rule).
pub const MIN_EXPECTED: f64 = 5.0;

/// Bonferroni-corrected per-comparison level: a family of `m` checks
/// tested at `alpha / m` has family-wise error at most `alpha`.
pub fn bonferroni(alpha: f64, m: usize) -> f64 {
    assert!(m > 0, "empty test family");
    alpha / m as f64
}

/// Outcome of a goodness-of-fit test: the statistic, its critical value
/// at the chosen α, and the verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GofOutcome {
    /// The test statistic (chi² or scaled KS distance).
    pub statistic: f64,
    /// Rejection threshold at the test's significance level.
    pub critical: f64,
    /// `statistic > critical` — evidence against the null hypothesis.
    pub rejected: bool,
}

/// Chi² goodness-of-fit of observed counts against expected counts at
/// significance `alpha`, pooling cells below [`MIN_EXPECTED`]. Returns
/// `None` when fewer than two pooled cells remain (no test possible).
pub fn chi2_gof(observed: &[u64], expected: &[f64], alpha: f64) -> Option<GofOutcome> {
    let (statistic, df) = chi2_pooled(observed, expected, MIN_EXPECTED)?;
    let critical = chi2_critical(df, alpha);
    Some(GofOutcome {
        statistic,
        critical,
        rejected: statistic > critical,
    })
}

/// Convenience for the workspace's seeded suites: does `observed` reject
/// `expected` at the shared [`TEST_ALPHA`]? Returns `false` when no test
/// is possible after pooling.
pub fn chi2_rejects(observed: &[u64], expected: &[f64]) -> bool {
    chi2_gof(observed, expected, TEST_ALPHA).is_some_and(|o| o.rejected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bonferroni_splits_the_budget() {
        assert!((bonferroni(0.05, 10) - 0.005).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty test family")]
    fn bonferroni_rejects_empty_family() {
        bonferroni(0.05, 0);
    }

    #[test]
    fn chi2_gof_accepts_perfect_fit_and_rejects_gross_mismatch() {
        let expected = [250.0, 250.0, 250.0, 250.0];
        let good = chi2_gof(&[250, 250, 250, 250], &expected, TEST_ALPHA).unwrap();
        assert!(!good.rejected);
        assert!(good.statistic < 1e-12);
        let bad = chi2_gof(&[1000, 0, 0, 0], &expected, TEST_ALPHA).unwrap();
        assert!(bad.rejected);
        assert!(bad.statistic > bad.critical);
        assert!(chi2_rejects(&[1000, 0, 0, 0], &expected));
        assert!(!chi2_rejects(&[250, 250, 250, 250], &expected));
    }
}
