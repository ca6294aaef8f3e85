#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # darwin-repro
//!
//! Umbrella crate for the Darwin reproduction (Chen et al., *Darwin:
//! Flexible Learning-based CDN Caching*, SIGCOMM 2023). It exists to host
//! the repository-level `examples/` and cross-crate integration `tests/`;
//! the functionality lives in the workspace crates it re-exports:
//!
//! * [`darwin`] — the paper's contribution (offline trainer, model, online
//!   controller, experts) and the admission seam every cache server serves
//!   through ([`darwin::AdmissionDriver`]);
//! * [`darwin_trace`] — synthetic CDN traces, trace I/O and dynamics;
//! * [`darwin_cache`] — the two-level HOC/DC cache simulator;
//! * [`darwin_features`] — feature extraction, footprint descriptors, drift
//!   detection, trace synthesis;
//! * [`darwin_cluster`] — k-means and normalization;
//! * [`darwin_nn`] — the from-scratch MLPs behind the cross-expert
//!   predictors;
//! * [`darwin_bandit`] — Track-and-Stop with Side Information and baselines;
//! * [`darwin_baselines`] — AdaptSize, Percentile, HillClimbing,
//!   DirectMapping;
//! * [`darwin_testbed`] — the discrete-event prototype testbed, a simulator
//!   beside the serving path (`darwin-shard`, `darwin-gateway`), not under
//!   it.
//!
//! See `README.md` for a tour and `DESIGN.md`/`EXPERIMENTS.md` for the
//! reproduction methodology and results.

pub use darwin;
pub use darwin_bandit;
pub use darwin_baselines;
pub use darwin_cache;
pub use darwin_cluster;
pub use darwin_features;
pub use darwin_nn;
pub use darwin_testbed;
pub use darwin_trace;
