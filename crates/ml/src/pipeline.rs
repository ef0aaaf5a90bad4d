//! The model side of the online model-management loop (§6).
//!
//! Protocol per batch (the paper's evaluation discipline):
//!
//! 1. **Predict** — score the arriving batch with the model trained on the
//!    *current* sample (test-then-train, so every item is out-of-sample);
//! 2. **Update** — feed the batch to the sampling scheme;
//! 3. **Retrain** — refit the model on the scheme's current sample.
//!
//! [`OnlineModel`] is the model's half of that contract, implemented here
//! for the three learners the paper retrains. The loop itself lives once,
//! in the root crate's `temporal_sampling::api::ModelManager`, which owns
//! the sampler too; the §6 experiments in `tbs-bench` drive one manager
//! per contending scheme over a shared stream.

use crate::knn::KnnClassifier;
use crate::linreg::LinearRegression;
use crate::naive_bayes::NaiveBayes;
use tbs_datagen::gmm::LabeledPoint;
use tbs_datagen::regression::RegressionPoint;
use tbs_datagen::text::Message;

/// A model that can be refit from scratch on a sample and scored on a batch.
pub trait OnlineModel<T> {
    /// Refit on the sampler's current sample.
    fn retrain(&mut self, sample: &[T]);
    /// Error of the current fit on an arriving batch (misclassification %
    /// or MSE, depending on the task).
    fn batch_error(&self, batch: &[T]) -> f64;
}

impl OnlineModel<LabeledPoint> for KnnClassifier {
    fn retrain(&mut self, sample: &[LabeledPoint]) {
        self.train(sample);
    }
    fn batch_error(&self, batch: &[LabeledPoint]) -> f64 {
        self.misclassification_pct(batch)
    }
}

impl OnlineModel<RegressionPoint> for LinearRegression {
    fn retrain(&mut self, sample: &[RegressionPoint]) {
        self.train(sample);
    }
    fn batch_error(&self, batch: &[RegressionPoint]) -> f64 {
        self.mse(batch)
    }
}

impl OnlineModel<Message> for NaiveBayes {
    fn retrain(&mut self, sample: &[Message]) {
        self.train(sample);
    }
    fn batch_error(&self, batch: &[Message]) -> f64 {
        self.misclassification_pct(batch)
    }
}
