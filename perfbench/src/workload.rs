//! What every workload shares: the set-up / timed-window / final-check
//! life cycle and the tally of operations it fills in.

use std::time::Instant;

use crate::data::Pool;
use crate::stats::Histogram;

/// R-TBS capacity `n` of every workload (the Fig 1(b) setting).
pub const CAPACITY: usize = 1000;
/// R-TBS decay rate λ of every workload.
pub const LAMBDA: f64 = 0.1;

/// Counts and latencies a workload records during its timed window.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted: library calls, wire requests and output
    /// checks.
    pub attempted: u64,
    /// Operations that failed: `TbsError` returns, `Reply::Error`
    /// frames, subscriptions that timed out or lost their publisher,
    /// client timeouts, and failed output checks.
    pub failed: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
    /// Items ingested.
    pub items: u64,
    /// Requests answered: calls into the library on the in-process
    /// workloads, wire requests on `serve-tcp`.
    pub requests: u64,
    /// Epochs published and handed to a reader.
    pub epochs: u64,
    /// Ingest rate (items/s) of each retrain cycle: the loop from one
    /// refit to the next, refit included.
    pub cycle_rate: Histogram,
    /// One acknowledged ingest.
    pub ack: Histogram,
    /// Ingest (or publication) until a reader holds the result.
    pub visible: Histogram,
    /// One retrain.
    pub retrain: Histogram,
    /// One prediction.
    pub predict: Histogram,
    /// `SUBSCRIBE_EPOCH` requests sent and answered `Published`.
    pub subscribes: u64,
    /// See `subscribes`.
    pub subscribes_published: u64,
    /// Length of the last `CHECKPOINT_PULL` blob.
    pub blob_bytes: u64,
    cycle_start: Option<Instant>,
    cycle_items_at: u64,
}

impl Tally {
    /// Count one attempted operation that failed.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(what.to_string());
        }
    }

    /// Mark a retrain-cycle boundary: record the ingest rate of the
    /// cycle that ends here (the first call only starts the clock).
    pub fn cycle(&mut self) {
        let now = Instant::now();
        if let Some(start) = self.cycle_start {
            let secs = now.saturating_duration_since(start).as_secs_f64();
            let items = (self.items - self.cycle_items_at) as f64;
            self.cycle_rate.record((items / secs) as u64);
        }
        self.cycle_start = Some(now);
        self.cycle_items_at = self.items;
    }

    /// The window stops here for a while: the cycle under way is not
    /// recorded, and the next boundary only restarts the clock.
    pub fn pause(&mut self) {
        self.cycle_start = None;
    }

    /// Count one output check.
    pub fn check(&mut self, result: Result<(), String>) {
        match result {
            Ok(()) => self.attempted += 1,
            Err(e) => self.fail(format!("check failed: {e}")),
        }
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// End-to-end metrics whose work runs wholly on the bench thread.
    /// They are reported at reference host speed (see `refloop`); when
    /// the list is empty the window runs without reference pauses.
    const HOST_SCALED: &'static [&'static str];

    /// Build everything from `seed` and warm up with a fixed amount of
    /// work until the reservoir is saturated and the first retrain has
    /// run. The benchmark's `setup_s` times this call.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Drive the timed window until `deadline`. Called again after a
    /// reference pause, it carries on where it stopped.
    fn run(&mut self, deadline: Instant, tally: &mut Tally);

    /// The input pool, which the reference loop reads too.
    fn pool(&self) -> &Pool;

    /// Checks that run after the window, then teardown.
    fn finish(self, tally: &mut Tally);
}

/// Nanoseconds from `start` to `end`.
pub fn ns(start: Instant, end: Instant) -> u64 {
    end.saturating_duration_since(start).as_nanos() as u64
}

/// The epoch stream a reader sees must strictly increase.
pub fn check_epoch(last: &mut u64, epoch: u64) -> Result<(), String> {
    if epoch <= *last {
        return Err(format!("epoch {epoch} after epoch {last}"));
    }
    *last = epoch;
    Ok(())
}
