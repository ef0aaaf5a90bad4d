//! # tbs-ml
//!
//! From-scratch machine-learning substrate for the EDBT 2018
//! temporally-biased-sampling evaluation: the three model families the
//! paper retrains on maintained samples, the accuracy/robustness metrics it
//! reports, and the model interface of the test-then-train loop.
//!
//! * [`knn`] — k-nearest-neighbour classification (§6.2, k = 7);
//! * [`linreg`] — OLS linear regression via normal equations (§6.3);
//! * [`naive_bayes`] — multinomial naive Bayes over bags of words (§6.4);
//! * [`metrics`] — mean error + expected-shortfall robustness summaries
//!   (Table 1);
//! * [`drift`] — error-based drift detection and drift-triggered
//!   retraining policies (the §7 Velox integration);
//! * [`pipeline`] — [`OnlineModel`], the model side of the predict →
//!   update → retrain loop.

pub mod drift;
pub mod knn;
pub mod linreg;
pub mod metrics;
pub mod naive_bayes;
pub mod pipeline;

pub use drift::{DriftDetector, DriftVerdict, RetrainPolicy, RetrainScheduler};
pub use knn::KnnClassifier;
pub use linreg::LinearRegression;
pub use metrics::{average_summaries, summarize_series, SeriesSummary};
pub use naive_bayes::NaiveBayes;
pub use pipeline::OnlineModel;
