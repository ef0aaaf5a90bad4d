//! Seeded workload inputs: pools of `[x, y]` batches on a line that
//! shifts with the `tbs_datagen` mode schedule.
//!
//! A pool is generated once per set-up and cycled through during the
//! timed window; its length is a whole number of mode periods, so the
//! schedule runs on unbroken across the wrap. Every pool item sits on
//! its own point of an x-grid, which makes "was this item ever
//! ingested?" an index computation and one comparison: the output checks
//! can run on every published sample without a hash-set lookup per
//! item.

use temporal_sampling::datagen::modes::{Mode, ModeSchedule};
use temporal_sampling::stats::normal::normal;
use temporal_sampling::stats::rng::{SplitMix64, Xoshiro256PlusPlus};

/// x is drawn from `[0, X_RANGE)`.
pub const X_RANGE: f64 = 10.0;
/// Standard deviation of the noise on y.
pub const NOISE_SD: f64 = 0.5;
/// A fit trained this many batches (or more) after the last mode switch
/// must match the current line: with λ = 0.1 the older mode then holds
/// about e^{−8} ≈ 3·10⁻⁴ of the sample.
pub const STABLE_AFTER: u64 = 80;
/// Largest allowed |prediction − line| for such a fit: about ten
/// standard errors of a 1000-point fit at the edge of the x-range.
pub const PREDICT_TOLERANCE: f64 = 0.3;

/// `(slope, intercept)` of the generating line in `mode`.
pub fn line(mode: Mode) -> (f64, f64) {
    match mode {
        Mode::Normal => (2.0, 1.0),
        Mode::Abnormal => (-1.0, 25.0),
    }
}

/// A cyclic pool of pre-generated batches.
pub struct Pool {
    batches: Vec<Vec<[f64; 2]>>,
    /// Pool item at each x-grid point.
    by_grid: Vec<[f64; 2]>,
    step: f64,
    schedule: ModeSchedule,
}

impl Pool {
    /// `cycles` repetitions of the batch-size cycle `sizes`; batch `t`
    /// lies on the line of `schedule.mode_at(t)`. The pool length must be
    /// a whole number of mode periods.
    pub fn generate(seed: u64, sizes: &[usize], cycles: usize, schedule: ModeSchedule) -> Self {
        let n_batches = sizes.len() * cycles;
        if let ModeSchedule::Periodic { normal, abnormal } = schedule {
            assert_eq!(
                n_batches as u64 % (normal + abnormal),
                0,
                "pool must hold whole mode periods"
            );
        }
        let total: usize = sizes.iter().sum::<usize>() * cycles;
        let mut mix = SplitMix64::new(seed);
        // A seeded permutation of the grid: item i sits at grid[i].
        let mut grid: Vec<u32> = (0..total as u32).collect();
        for i in (1..grid.len()).rev() {
            let j = (mix.next_u64() % (i as u64 + 1)) as usize;
            grid.swap(i, j);
        }
        let mut rng = Xoshiro256PlusPlus::from_state([
            mix.next_u64(),
            mix.next_u64(),
            mix.next_u64(),
            mix.next_u64(),
        ]);
        let step = X_RANGE / total as f64;
        let mut by_grid = vec![[0.0; 2]; total];
        let mut next = 0;
        let batches = (0..n_batches)
            .map(|t| {
                let (slope, intercept) = line(schedule.mode_at(t as u64));
                (0..sizes[t % sizes.len()])
                    .map(|_| {
                        let k = grid[next] as usize;
                        next += 1;
                        let x = k as f64 * step;
                        let item = [x, slope * x + intercept + normal(&mut rng, 0.0, NOISE_SD)];
                        by_grid[k] = item;
                        item
                    })
                    .collect()
            })
            .collect();
        Self {
            batches,
            by_grid,
            step,
            schedule,
        }
    }

    /// Batch `t` of the stream (the pool wraps around).
    pub fn batch(&self, t: u64) -> &[[f64; 2]] {
        &self.batches[(t % self.batches.len() as u64) as usize]
    }

    /// Batches in one pass over the pool.
    pub fn len(&self) -> u64 {
        self.batches.len() as u64
    }

    /// Mode of batch `t`.
    pub fn mode(&self, t: u64) -> Mode {
        self.schedule.mode_at(t % self.len())
    }

    /// Batches since the last mode switch, at batch `t`.
    pub fn stable_for(&self, t: u64) -> u64 {
        match self.schedule {
            ModeSchedule::Periodic { normal, abnormal } => {
                let r = t % (normal + abnormal);
                if r < normal {
                    r
                } else {
                    r - normal
                }
            }
            _ => t,
        }
    }

    /// Whether `item` is a pool item, i.e. was generated as input.
    pub fn contains(&self, item: &[f64; 2]) -> bool {
        let k = (item[0] / self.step).round();
        k >= 0.0 && (k as usize) < self.by_grid.len() && {
            let known = self.by_grid[k as usize];
            known[0].to_bits() == item[0].to_bits() && known[1].to_bits() == item[1].to_bits()
        }
    }

    /// Check a published or served sample: at most `cap` items, all of
    /// them ingested input.
    pub fn check_sample(&self, items: &[[f64; 2]], cap: usize) -> Result<(), String> {
        if items.len() > cap {
            return Err(format!("sample holds {} items > {cap}", items.len()));
        }
        match items.iter().find(|it| !self.contains(it)) {
            Some(bad) => Err(format!("sample holds {bad:?}, which was never ingested")),
            None => Ok(()),
        }
    }

    /// Check a prediction at `x` from a fit trained at batch `t`: when
    /// the fit saw only the current mode, it must match the line.
    pub fn check_prediction(&self, t: u64, x: f64, y: f64) -> Result<(), String> {
        if self.stable_for(t) < STABLE_AFTER {
            return Ok(());
        }
        let (slope, intercept) = line(self.mode(t));
        let want = slope * x + intercept;
        if (y - want).abs() <= PREDICT_TOLERANCE {
            Ok(())
        } else {
            Err(format!(
                "prediction {y} at x={x} is off the line ({want}) at batch {t}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pool_and_membership_is_exact() {
        let schedule = ModeSchedule::periodic(3, 3);
        let a = Pool::generate(7, &[0, 1, 250, 7, 90, 1000], 2, schedule);
        let b = Pool::generate(7, &[0, 1, 250, 7, 90, 1000], 2, schedule);
        assert_eq!(a.by_grid.len(), 2 * 1348);
        for t in 0..a.len() {
            assert_eq!(a.batch(t), b.batch(t));
            assert!(a.batch(t).iter().all(|it| a.contains(it)));
        }
        let item = a.batch(2)[0];
        assert!(!a.contains(&[item[0], item[1] + 1e-9]));
        assert!(!a.contains(&[-1.0, 0.0]));
        assert!(!a.contains(&[X_RANGE * 2.0, 0.0]));
    }

    #[test]
    fn stable_for_counts_from_each_switch() {
        let pool = Pool::generate(1, &[10], 400, ModeSchedule::periodic(200, 200));
        assert_eq!(pool.stable_for(0), 0);
        assert_eq!(pool.stable_for(199), 199);
        assert_eq!(pool.stable_for(200), 0);
        assert_eq!(pool.mode(200), Mode::Abnormal);
        assert_eq!(pool.stable_for(481), 81);
    }
}
