//! Fixed-memory latency histograms and small summary helpers.

/// Sub-bucket bits: each power-of-two range is split into 2^7 = 128
/// buckets, so a recorded value is known to within 1/128 of itself.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// Log-linear histogram of nanosecond durations.
///
/// Its memory is fixed (58 × 128 counters), so a faster program that
/// completes more operations in a run does not also report a larger
/// peak RSS. A failed operation is recorded with [`Histogram::record_miss`]
/// and counts as slower than every recorded value, so it misses every
/// percentile it can reach.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) - SUB) as usize;
        (shift as usize + 1) * SUB as usize + sub
    }

    /// `[lo, hi)` of bucket `i`, in ns.
    fn bounds(i: usize) -> (f64, f64) {
        let bucket = i / SUB as usize;
        let sub = (i % SUB as usize) as f64;
        if bucket == 0 {
            return (sub, sub + 1.0);
        }
        let width = 2f64.powi(bucket as i32 - 1);
        let lo = (SUB as f64 + sub) * width;
        (lo, lo + width)
    }

    /// Record one duration in ns.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// Record one failed operation: it lands above every real duration.
    pub fn record_miss(&mut self) {
        self.record(u64::MAX);
    }

    /// The `q`-quantile (0 ≤ q < 1) in ns, interpolated linearly inside
    /// its bucket by rank, or `None` when nothing was recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = q * self.total as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 > rank {
                let (lo, hi) = Self::bounds(i);
                let frac = (rank - seen as f64) / c as f64;
                return Some(lo + (hi - lo) * frac);
            }
            seen += c;
        }
        let last = self.counts.iter().rposition(|&c| c > 0)?;
        Some(Self::bounds(last).1)
    }

    /// The `q`-quantile in µs, or 0 when nothing was recorded.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile(q).map_or(0.0, |ns| ns / 1e3)
    }
}

/// Median of `values` (the mean of the middle pair for an even count),
/// or 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when the denominator is 0 (the layer did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_contain_their_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            123_456,
            1 << 40,
            u64::MAX,
        ] {
            let (lo, hi) = Histogram::bounds(Histogram::index(v));
            assert!(
                lo <= v as f64 && (v as f64) < hi || v == u64::MAX,
                "{v}: [{lo}, {hi})"
            );
            assert!(hi - lo <= (lo / 128.0).max(1.0), "{v}: bucket too wide");
        }
    }

    #[test]
    fn quantiles_track_a_uniform_spread() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p90 = h.quantile(0.9).unwrap();
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.01, "p50 {p50}");
        assert!((p90 / 900_000.0 - 1.0).abs() < 0.01, "p90 {p90}");
    }

    #[test]
    fn misses_sit_above_every_value() {
        let mut h = Histogram::default();
        for _ in 0..8 {
            h.record(1000);
        }
        h.record_miss();
        h.record_miss();
        assert!(h.quantile(0.5).unwrap() < 1100.0);
        assert!(h.quantile(0.9).unwrap() > 1e18);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
