//! Exponential-jumps ingest: batch-level acceptance sampling.
//!
//! The per-item hot path already does O(1) work per item; this module is
//! the "skip work, don't just do it faster" layer on top. Instead of
//! touching every arriving item with its own RNG draw, the jump-ahead
//! ingest mode spends **per-batch** randomness:
//!
//! * **Saturated R-TBS** (Alg. 2 lines 16–17): every batch item is
//!   accepted independently with the same probability `p = n/W`, so the
//!   accept *count* is drawn directly as `M ~ Binomial(|B|, p)` (exact
//!   BINV/BTPE from `tbs-stats`). The accepted donors and the evicted
//!   victims are then chosen as **random contiguous windows** — one
//!   uniform start each — and exchanged with bulk segment swaps. A
//!   window with a uniform random start is a systematic sample (Madow
//!   1944): every position is covered by exactly `M` of the `n` possible
//!   windows, so each item's inclusion probability is exactly `M/n`,
//!   identical to the per-item Fisher–Yates sweep. Window starts are
//!   drawn independently every batch, so survival events across batches
//!   multiply exactly as in per-item mode and the Theorem 4.2 marginal
//!   `Pr[i ∈ S_t] = (C_t/W_t)·w_t(i)` is preserved for every item at
//!   every time. (The *pairwise* joint law differs — neighbours share
//!   window membership — which is why the statistical-equivalence
//!   harness in `tests/statistical_equivalence.rs` checks first-order
//!   inclusion frequencies and sample-size distributions, the quantities
//!   the paper's guarantees are stated in.)
//!
//! * **T-TBS acceptance** (Alg. 1 line 8): each item is an independent
//!   `Bernoulli(q)` trial, so the gaps between accepted items are iid
//!   `Geometric(q)`. When `q` is small the A-ExpJ idiom (Efraimidis &
//!   Spirakis 2006) wins: draw one geometric jump, skip that many items
//!   wholesale, accept the next. The pending jump is carried across
//!   batch boundaries in a [`JumpCursor`] — geometric gaps are
//!   memoryless and `q` is constant, so resuming a partially consumed
//!   skip in the next batch is *exactly* the same process. When `q` is
//!   large (the paper's §6 regimes sit near `q ≈ 0.9`) jumping is
//!   counter-productive — almost every item is accepted — so the jump
//!   path falls back to the per-item path's `Binomial(|B|, q)` count and
//!   retention sweep ([`JUMP_GEOMETRIC_MAX_Q`] is the crossover).
//!
//! Everything else — every R-TBS downsample, every T-TBS decay step — is
//! shared by both modes: [`crate::util::retain_random`] already sweeps
//! whichever of the kept and discarded sets is smaller.
//!
//! Neither rewrite changes a sampler's state shape; the only new
//! persistent state is the T-TBS [`JumpCursor`], which rides along in
//! the version-2 checkpoint payload.

/// How a sampler consumes arriving batches.
///
/// The mode changes *how randomness is spent*, not what is sampled: both
/// modes realize the same first-order inclusion probabilities (Theorem
/// 4.2 for R-TBS, `q·e^{−λa}` for T-TBS) and the same expected sample
/// sizes. Once a saturated R-TBS batch or a sparse T-TBS acceptance
/// runs, they draw different random-number streams, so two runs of the
/// same seed in different modes produce different — equally valid —
/// samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestMode {
    /// Reference path: saturated R-TBS sweeps victims item by item and
    /// T-TBS accepts by a binomial count plus a retention sweep. The
    /// default everywhere.
    #[default]
    PerItem,
    /// Batch-level acceptance sampling: binomial accept counts plus
    /// windowed victim/donor selection (saturated R-TBS) and geometric
    /// acceptance jumps with a cross-batch cursor (sparse T-TBS).
    /// Statistically equivalent to [`IngestMode::PerItem`] (see the
    /// module docs for exactly which distributional statements are
    /// preserved). Retention — every downsample and decay sweep — is
    /// shared with per-item mode, so an unsaturated R-TBS stream or a
    /// dense-`q` T-TBS stream draws the same numbers in both modes.
    Jump,
}

impl IngestMode {
    /// Label used in benchmark/CSV output.
    pub fn label(self) -> &'static str {
        match self {
            IngestMode::PerItem => "per-item",
            IngestMode::Jump => "jump",
        }
    }
}

/// Largest acceptance probability for which T-TBS's jump mode uses
/// geometric skip sampling; above it, skips are shorter than one item on
/// average and a `Binomial(|B|, q)` count plus a retention sweep of the
/// rejected minority is strictly cheaper.
///
/// The cursor of a sampler whose `q` lies above this threshold is
/// structurally zero — checkpoint restore rejects blobs that claim
/// otherwise.
pub const JUMP_GEOMETRIC_MAX_Q: f64 = 0.5;

/// Pending geometric skip carried across batch boundaries by T-TBS's
/// jump mode: the number of not-yet-seen items that must still be
/// rejected before the next acceptance.
///
/// Memorylessness makes this exact: conditioned on a `Geometric(q)` gap
/// exceeding the part already consumed inside the previous batch, the
/// remainder is again `Geometric(q)`-distributed *plus the deficit* — so
/// storing the raw remaining count and decrementing it across batches
/// reproduces the untruncated process draw for draw.
///
/// The *first* gap of a sampler's lifetime must itself be drawn from
/// `Geometric(q)` — the position of the first success in a Bernoulli
/// process is geometric, not zero. An unprimed cursor marks "no gap
/// drawn yet"; the first jump-mode acceptance pass primes it. (Starting
/// at a literal zero skip would accept the very first item with
/// certainty — a bias the statistical-equivalence harness catches
/// immediately.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JumpCursor {
    /// Items still to skip before the next accepted item. Meaningful
    /// only when `primed`.
    pub pending_skip: u64,
    /// Whether the initial geometric gap has been drawn.
    pub primed: bool,
}

impl JumpCursor {
    /// The pristine cursor: no gap drawn yet (the state before any
    /// jump-mode batch, and forever for samplers on the binomial side of
    /// [`JUMP_GEOMETRIC_MAX_Q`]).
    pub fn zero() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_item_is_the_default_mode() {
        assert_eq!(IngestMode::default(), IngestMode::PerItem);
        assert_eq!(JumpCursor::default(), JumpCursor::zero());
    }

    #[test]
    fn labels_are_stable() {
        // Benchmark rows key on these strings.
        assert_eq!(IngestMode::PerItem.label(), "per-item");
        assert_eq!(IngestMode::Jump.label(), "jump");
    }
}
