//! Sliding-window baselines (§1, §6).
//!
//! The paper's `SW` comparator retains the most recent items and forgets
//! everything older — the "all-or-nothing" inclusion mechanism whose
//! brittleness under recurring patterns motivates time-biased sampling.
//! Two variants:
//!
//! * [`CountWindow`] — the last `n` items (the §6 baseline: "SW contains the
//!   last 1000 items"), bounding memory deterministically;
//! * [`TimeWindow`] — all items that arrived within the last `w` time units
//!   (unbounded memory when the arrival rate is high, and shrinking toward
//!   empty when the stream dries up — like any wall-clock scheme).

use crate::checkpoint::{check_non_negative, CheckpointError, Reader, Wire, Writer};
use crate::util::check_gap;
use rand::Rng;
use std::collections::VecDeque;

/// The last `n` items of the stream.
#[derive(Debug, Clone)]
pub struct CountWindow<T> {
    items: VecDeque<T>,
    capacity: usize,
    steps: u64,
}

impl<T> CountWindow<T> {
    /// Create a window retaining the most recent `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self {
            items: VecDeque::with_capacity(capacity),
            capacity,
            steps: 0,
        }
    }

    /// Exact current size.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the window holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate over the retained items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Advance the clock by one time unit and absorb the arriving batch.
    /// Deterministic — `rng` is unused and accepted only for signature
    /// uniformity; at capacity the ring buffer allocates nothing.
    #[inline]
    pub fn observe<R: Rng + ?Sized>(&mut self, batch: Vec<T>, _rng: &mut R) {
        for item in batch {
            if self.items.len() == self.capacity {
                self.items.pop_front();
            }
            self.items.push_back(item);
        }
        self.steps += 1;
    }

    /// Expected size of `S_t` (the current exact size).
    pub fn expected_size(&self) -> f64 {
        self.items.len() as f64
    }

    /// Hard upper bound on the window size: `Some(n)`.
    pub fn max_size(&self) -> Option<usize> {
        Some(self.capacity)
    }

    /// All-or-nothing retention: decay rate 0.
    pub fn decay_rate(&self) -> f64 {
        0.0
    }

    /// Number of batches observed so far.
    pub fn batches_observed(&self) -> u64 {
        self.steps
    }
}

impl<T: Clone> CountWindow<T> {
    /// Copy out the current window contents, oldest first.
    pub fn sample<R: Rng + ?Sized>(&self, _rng: &mut R) -> Vec<T> {
        self.items.iter().cloned().collect()
    }
}

impl<T: Wire> CountWindow<T> {
    /// Serialize the complete window state (items oldest-first) into `w`;
    /// see [`crate::RTbs::save_state`] for the contract.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_u64(self.capacity as u64);
        w.put_u64(self.steps);
        w.put_u32(self.items.len() as u32);
        for item in &self.items {
            w.put_item(item);
        }
    }

    /// Rebuild a window from a [`Self::save_state`] payload, validating
    /// every field (no panics on corrupt input).
    pub fn load_state(r: &mut Reader) -> Result<Self, CheckpointError> {
        let capacity = r.get_u64()? as usize;
        if capacity == 0 {
            return Err(CheckpointError::Corrupt("count window capacity"));
        }
        let steps = r.get_u64()?;
        let len = r.get_u32()? as usize;
        if len > capacity {
            return Err(CheckpointError::Corrupt("count window item count"));
        }
        // Allocate from the (bounds-checked) item count, never from the
        // blob's capacity field; the ring buffer regrows lazily.
        r.check_count(len, 4)?;
        let mut items = VecDeque::with_capacity(len);
        for _ in 0..len {
            items.push_back(r.get_item()?);
        }
        Ok(Self {
            items,
            capacity,
            steps,
        })
    }
}

/// All items that arrived strictly within the last `width` time units.
#[derive(Debug, Clone)]
pub struct TimeWindow<T> {
    /// (arrival time, item), oldest first.
    items: VecDeque<(f64, T)>,
    width: f64,
    now: f64,
    steps: u64,
}

impl<T> TimeWindow<T> {
    /// Create a wall-clock window of the given `width > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not positive and finite.
    pub fn new(width: f64) -> Self {
        assert!(
            width.is_finite() && width > 0.0,
            "window width must be positive and finite, got {width}"
        );
        Self {
            items: VecDeque::new(),
            width,
            now: 0.0,
            steps: 0,
        }
    }

    /// Exact current size.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the window holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Current wall-clock time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The configured window width `w`.
    pub fn width(&self) -> f64 {
        self.width
    }

    fn advance(&mut self, batch: Vec<T>, gap: f64) {
        self.now += gap;
        let cutoff = self.now - self.width;
        while self.items.front().is_some_and(|(t, _)| *t <= cutoff) {
            self.items.pop_front();
        }
        let now = self.now;
        self.items.extend(batch.into_iter().map(|x| (now, x)));
        self.steps += 1;
    }

    /// Advance the clock by one time unit and absorb the arriving batch.
    /// Deterministic — `rng` is unused and accepted only for signature
    /// uniformity.
    #[inline]
    pub fn observe<R: Rng + ?Sized>(&mut self, batch: Vec<T>, _rng: &mut R) {
        self.advance(batch, 1.0);
    }

    /// Absorb a batch arriving `gap` time units after the previous one.
    ///
    /// # Panics
    ///
    /// Panics if `gap` is negative or non-finite.
    pub fn observe_after<R: Rng + ?Sized>(&mut self, batch: Vec<T>, gap: f64, _rng: &mut R) {
        check_gap(gap);
        self.advance(batch, gap);
    }

    /// Expected size of `S_t` (the current exact size).
    pub fn expected_size(&self) -> f64 {
        self.items.len() as f64
    }

    /// No bound: memory is unbounded under fast arrivals.
    pub fn max_size(&self) -> Option<usize> {
        None
    }

    /// All-or-nothing retention: decay rate 0.
    pub fn decay_rate(&self) -> f64 {
        0.0
    }

    /// Number of batches observed so far.
    pub fn batches_observed(&self) -> u64 {
        self.steps
    }
}

impl<T: Clone> TimeWindow<T> {
    /// Copy out the current window contents, oldest first.
    pub fn sample<R: Rng + ?Sized>(&self, _rng: &mut R) -> Vec<T> {
        self.items.iter().map(|(_, x)| x.clone()).collect()
    }
}

impl<T: Wire> TimeWindow<T> {
    /// Serialize the complete window state (arrival-stamped items,
    /// oldest first) into `w`; see [`crate::RTbs::save_state`] for the
    /// contract.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_f64(self.width);
        w.put_f64(self.now);
        w.put_u64(self.steps);
        w.put_u32(self.items.len() as u32);
        for (t, item) in &self.items {
            w.put_f64(*t);
            w.put_item(item);
        }
    }

    /// Rebuild a window from a [`Self::save_state`] payload, validating
    /// every field (no panics on corrupt input).
    pub fn load_state(r: &mut Reader) -> Result<Self, CheckpointError> {
        let width = r.get_f64()?;
        if !(width.is_finite() && width > 0.0) {
            return Err(CheckpointError::Corrupt("time window width"));
        }
        let now = check_non_negative(r.get_f64()?, "time window clock")?;
        let steps = r.get_u64()?;
        let len = r.get_u32()? as usize;
        // Each entry costs ≥ 8 (time) + 4 (item length prefix) bytes.
        r.check_count(len, 12)?;
        let mut items = VecDeque::with_capacity(len);
        let mut prev = 0.0f64;
        for _ in 0..len {
            let t = check_non_negative(r.get_f64()?, "time window arrival time")?;
            // The structure's invariants: arrival times are oldest-first
            // and never ahead of the restored clock. Accepting a
            // violation would rebuild a window whose eviction sweep
            // silently stops early.
            if t > now || t < prev {
                return Err(CheckpointError::Corrupt("time window arrival order"));
            }
            prev = t;
            items.push_back((t, r.get_item()?));
        }
        Ok(Self {
            items,
            width,
            now,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tbs_stats::rng::Xoshiro256PlusPlus;

    #[test]
    fn count_window_keeps_exactly_last_n() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut w = CountWindow::new(5);
        w.observe((0..3u32).collect(), &mut rng);
        assert_eq!(w.sample(&mut rng), vec![0, 1, 2]);
        w.observe((3..9u32).collect(), &mut rng);
        assert_eq!(w.sample(&mut rng), vec![4, 5, 6, 7, 8]);
    }

    #[test]
    fn count_window_single_oversized_batch() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let mut w = CountWindow::new(3);
        w.observe((0..10u32).collect(), &mut rng);
        assert_eq!(w.sample(&mut rng), vec![7, 8, 9]);
    }

    #[test]
    fn count_window_completely_forgets_old_data() {
        // The all-or-nothing failure mode: after n newer items, an old item's
        // inclusion probability is exactly zero.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let mut w = CountWindow::new(4);
        w.observe(vec![99u32], &mut rng);
        w.observe((0..4u32).collect(), &mut rng);
        assert!(!w.sample(&mut rng).contains(&99));
    }

    #[test]
    fn time_window_evicts_by_age() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let mut w = TimeWindow::new(2.5);
        w.observe(vec![1u32], &mut rng); // t=1
        w.observe(vec![2u32], &mut rng); // t=2
        w.observe(vec![3u32], &mut rng); // t=3
        assert_eq!(w.len(), 3);
        w.observe(vec![4u32], &mut rng); // t=4: item from t=1 is 3.0 > 2.5 old
        let s = w.sample(&mut rng);
        assert!(!s.contains(&1));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn time_window_shrinks_when_stream_dries_up() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let mut w = TimeWindow::new(3.0);
        w.observe((0..10u32).collect(), &mut rng);
        for _ in 0..4 {
            w.observe(vec![], &mut rng);
        }
        assert!(w.is_empty());
    }

    #[test]
    fn time_window_unbounded_under_fast_arrivals() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(6);
        let mut w = TimeWindow::new(10.0);
        for t in 0..5u32 {
            w.observe((0..1000).map(|i| t * 1000 + i).collect(), &mut rng);
        }
        assert_eq!(w.len(), 5000);
        assert_eq!(w.max_size(), None);
    }

    #[test]
    fn time_window_real_valued_gaps() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        let mut w = TimeWindow::new(1.0);
        w.observe_after(vec![1u32], 0.4, &mut rng);
        w.observe_after(vec![2u32], 0.4, &mut rng);
        w.observe_after(vec![3u32], 0.4, &mut rng);
        // First item is now 0.8 old — still inside; after one more gap it
        // leaves.
        assert_eq!(w.len(), 3);
        w.observe_after(vec![], 0.4, &mut rng);
        assert_eq!(w.len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn count_window_rejects_zero() {
        CountWindow::<u8>::new(0);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn time_window_rejects_zero() {
        TimeWindow::<u8>::new(0.0);
    }

    #[test]
    fn metadata() {
        let w = CountWindow::<u8>::new(7);
        assert_eq!(w.max_size(), Some(7));
    }
}
