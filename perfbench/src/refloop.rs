//! Host-speed reference: a `std`-only replica of the retrain loop.
//!
//! On a shared host the same binary's single-thread cost flips between a
//! fast and a slow regime (about 1.8× apart) for seconds to minutes at a
//! time, as neighbours on the physical cores and caches come and go. The
//! reference loop does the work of `manage-rtbs` by hand: copy a batch
//! out of the workload's own input pool, score it against a line, swap a
//! stochastically rounded share of it over random victims of a
//! 1000-item reservoir, and every [`CYCLE`] batches copy the reservoir
//! out and refit the line on the copy. It has the workload's instruction
//! mix and touches the same input memory, so the host slows it as it
//! slows the workload, while a change to the library under test cannot
//! move it. Between short slices of the timed window the bench thread
//! runs one cycle of it; the segment's median cycle time over
//! [`REF_CYCLE_NS`] is the host's slowdown, and dividing a bench-thread
//! time by it gives the time on a host that runs the reference at that
//! speed.

use std::time::{Duration, Instant};

use crate::data::Pool;
use crate::stats::median;
use crate::workload::{CAPACITY, LAMBDA};

/// Batches in one reference cycle, as in one `manage-rtbs` retrain cycle.
pub const CYCLE: u64 = 50;
/// Reference cycle time, ns, that defines host speed 1: about the middle
/// of what a 2-vCPU Xeon host gives between its two regimes.
pub const REF_CYCLE_NS: f64 = 40_000.0;
/// Time between two reference cycles.
pub const SLICE: Duration = Duration::from_millis(10);

pub struct RefLoop {
    reservoir: Vec<[f64; 2]>,
    weight: f64,
    fit: (f64, f64),
    rng: u64,
    t: u64,
    samples: Vec<f64>,
    /// Wall time spent in the reference loop.
    pub spent: Duration,
    /// Keeps the results alive so the work is not optimised away.
    sink: f64,
}

impl RefLoop {
    pub fn new(seed: u64) -> Self {
        Self {
            reservoir: vec![[0.0; 2]; CAPACITY],
            weight: CAPACITY as f64,
            fit: (0.0, 0.0),
            rng: seed ^ 0x5851_F42D_4C95_7F2D,
            t: 0,
            samples: Vec::new(),
            spent: Duration::ZERO,
            sink: 0.0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Run one cycle of [`CYCLE`] batches from `pool` and record its time.
    pub fn sample(&mut self, pool: &Pool) {
        let start = Instant::now();
        let n = CAPACITY as f64;
        let decay = (-LAMBDA).exp();
        for _ in 0..CYCLE {
            let mut batch = pool.batch(self.t).to_vec();
            self.t += 1;
            let (slope, intercept) = self.fit;
            let sse: f64 = batch
                .iter()
                .map(|[x, y]| {
                    let err = y - (slope * x + intercept);
                    err * err
                })
                .sum();
            self.sink += sse;
            let len = batch.len();
            self.weight = self.weight * decay + len as f64;
            let exact = len as f64 * n / self.weight;
            let mut m = exact as usize;
            if self.unit() < exact - m as f64 {
                m += 1;
            }
            for i in 0..m.min(len).min(CAPACITY) {
                let k = i + self.below(len - i);
                batch.swap(i, k);
                let v = self.below(CAPACITY);
                std::mem::swap(&mut self.reservoir[v], &mut batch[i]);
            }
        }
        let frozen: std::sync::Arc<[[f64; 2]]> = self.reservoir.as_slice().into();
        let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
        for [x, y] in frozen.iter() {
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
        let len = frozen.len() as f64;
        let denom = len * sxx - sx * sx;
        let slope = if denom.abs() < f64::EPSILON {
            0.0
        } else {
            (len * sxy - sx * sy) / denom
        };
        self.fit = (slope, (sy - slope * sx) / len);
        std::hint::black_box(self.sink);
        let spent = start.elapsed();
        self.spent += spent;
        self.samples.push(spent.as_nanos() as f64);
    }

    /// The host's slowdown against the reference (> 1: slower), from the
    /// median cycle, or `None` before the first one.
    pub fn slowdown(&self) -> Option<f64> {
        (!self.samples.is_empty()).then(|| median(&self.samples) / REF_CYCLE_NS)
    }
}
