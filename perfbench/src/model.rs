//! The served model: the server tier's line fit, wrapped so the
//! benchmark can time each call from outside the library.

use std::cell::RefCell;
use std::time::Instant;

use tbs_server::service::{LineFit, Predictor};
use temporal_sampling::ml::pipeline::OnlineModel;

use crate::stats::Histogram;
use crate::trace::{self, Name};

/// What the wrapper saw since the last [`TimedLineFit::reset`].
#[derive(Default)]
pub struct ModelStats {
    /// Durations of `batch_error` (the model's predictions for one
    /// batch).
    pub scoring: Histogram,
    /// When the most recent `retrain` was handed its sample.
    pub last_retrain_at: Option<Instant>,
    /// Refits performed.
    pub retrains: u64,
}

/// [`LineFit`] behind `OnlineModel` and `Predictor`, timing each call
/// and recording trace spans when tracing is on.
#[derive(Default)]
pub struct TimedLineFit {
    fit: LineFit,
    stats: RefCell<ModelStats>,
}

impl TimedLineFit {
    /// Forget what was recorded so far (e.g. during warm-up).
    pub fn reset(&self) {
        *self.stats.borrow_mut() = ModelStats::default();
    }

    /// Recorded call timings.
    pub fn stats(&self) -> std::cell::Ref<'_, ModelStats> {
        self.stats.borrow()
    }
}

impl OnlineModel<[f64; 2]> for TimedLineFit {
    fn retrain(&mut self, sample: &[[f64; 2]]) {
        self.stats.get_mut().last_retrain_at = Some(Instant::now());
        trace::span(Name::Retrain, || self.fit.retrain(sample));
        self.stats.get_mut().retrains += 1;
    }

    fn batch_error(&self, batch: &[[f64; 2]]) -> f64 {
        let start = Instant::now();
        let error = trace::span(Name::BatchError, || self.fit.batch_error(batch));
        let ns = start.elapsed().as_nanos() as u64;
        self.stats.borrow_mut().scoring.record(ns);
        error
    }
}

impl Predictor for TimedLineFit {
    fn predict(&self, x: f64) -> Option<f64> {
        self.fit.predict(x)
    }
}
