#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # darwin
//!
//! The paper's primary contribution: **Darwin**, a flexible learning-based
//! CDN cache-admission system (Chen et al., SIGCOMM 2023).
//!
//! Darwin selects, online, the best HOC admission *expert* — a threshold
//! policy (f, s[, r]) — for the traffic currently hitting a cache server,
//! using a three-stage pipeline:
//!
//! 1. **Offline clustering & expert-set association** ([`offline`]):
//!    historical traces are featurized ([`darwin_features`]), clustered
//!    ([`darwin_cluster`]), and each cluster is associated with the small set
//!    of experts that come within θ% of the best expert on its traces.
//! 2. **Offline cross-expert predictors** ([`offline`], [`model`]): for each
//!    ordered expert pair (i, j), a tiny neural net ([`darwin_nn`]) maps
//!    trace features (extended with a bucketized size distribution) to the
//!    conditional probabilities P(E_j hit | E_i hit) and
//!    P(E_j hit | E_i miss), enabling *fictitious reward samples* for experts
//!    that are not deployed.
//! 3. **Online selection** ([`online`]): each epoch, a warm-up phase
//!    estimates features and looks up the cluster; then Track-and-Stop with
//!    Side Information ([`darwin_bandit`]) identifies the best expert of the
//!    cluster's set, deploying experts over rounds and feeding the bandit
//!    real + fictitious rewards; the identified expert serves the rest of
//!    the epoch.
//!
//! The same pipeline optimizes any [`darwin_cache::Objective`] — OHR, BMR,
//! or hit-rate/disk-write combinations — by swapping the reward (§6.3).
//!
//! ```no_run
//! use darwin::prelude::*;
//!
//! # fn main() {
//! // Offline: train on historical traces.
//! let corpus: Vec<darwin_trace::Trace> = /* historical traces */ vec![];
//! let trainer = OfflineTrainer::new(OfflineConfig::default());
//! let model = std::sync::Arc::new(trainer.train(&corpus));
//!
//! // Online: adapt to live traffic.
//! let cfg = OnlineConfig::default();
//! let trace = /* live request stream */ darwin_trace::Trace::default();
//! let report = run_darwin(&model, &cfg, &trace, &CacheConfig::paper_default());
//! println!("OHR = {:.4}", report.metrics.hoc_ohr());
//! # }
//! ```

pub mod bits;
pub mod expert;
pub mod model;
pub mod offline;
pub mod online;
pub mod runner;

pub use expert::{Expert, ExpertGrid};
pub use model::{DarwinModel, PairPredictor};
pub use offline::{EvaluatedTrace, OfflineConfig, OfflineTrainer};
pub use online::{ControlEvent, ControllerPhase, OnlineConfig, OnlineController};
pub use runner::{run_darwin, run_static, DarwinReport};

/// Convenient re-exports for downstream code and examples.
pub mod prelude {
    pub use crate::expert::{Expert, ExpertGrid};
    pub use crate::model::DarwinModel;
    pub use crate::offline::{OfflineConfig, OfflineTrainer};
    pub use crate::online::{OnlineConfig, OnlineController};
    pub use crate::runner::{run_darwin, run_static, DarwinReport};
    pub use darwin_cache::{CacheConfig, CacheServer, Objective, ThresholdPolicy};
}
