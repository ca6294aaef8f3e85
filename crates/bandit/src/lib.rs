#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # darwin-bandit
//!
//! Best-arm identification bandits, centred on the paper's contribution:
//! **Track and Stop with Side Information** (Algorithm 1 of §4.2).
//!
//! ## The setting
//!
//! `K` experts (arms) have unknown mean rewards `μ ∈ ℝᴷ`. When arm `i` is
//! *deployed* for a round, the learner observes a full reward vector
//! `Y = (Y_1 … Y_K)`: the deployed arm's entry is a real measurement; every
//! other entry is a *fictitious sample* produced by Darwin's cross-expert
//! predictors. Each `Y_j` is modeled as Gaussian with mean `μ_j` and a
//! variance `σ²_{ij}` that depends on which arm `i` was deployed — the
//! **side-information matrix** `Σ ∈ ℝ^{K×K}`.
//!
//! The goal is δ-sound pure exploration: stop as early as possible while
//! recommending the true best arm with probability ≥ 1 − δ. The paper proves
//! (Theorems 1 & 2) that with this feedback the stopping time does **not**
//! scale with `K`, unlike classical bandit feedback.
//!
//! ## What's here
//!
//! * [`SideInfo`] — the variance matrix and its derived constants
//!   (σ²_min, σ²_max, κ).
//! * [`WeightedEstimator`] — the variance-weighted mean estimator of Eq (1).
//! * [`oracle`] — the alternative-environment divergence `Φ(ν, α)` (Eq 2) and
//!   the optimal deployment proportions `α*(ν, Σ)` (Eq 3).
//! * [`TrackAndStopSideInfo`] — Algorithm 1: D-tracking of `α*`, the
//!   information level `Z_t`, and the stopping threshold `β_t(δ, Σ)`
//!   (Theorem 1's form, plus the standard Garivier–Kaufmann practical
//!   threshold and the paper's 5-consecutive-rounds stability criterion from
//!   §6.2).
//! * [`ClassicalTrackAndStop`] — the standard-feedback baseline, used to
//!   reproduce the "stopping time grows linearly in K without side
//!   information" comparison.
//! * [`SuccessiveElimination`] — a simple elimination baseline.
//! * [`GaussianEnv`] — a synthetic environment for the theory experiments.
//!
//! ```
//! use darwin_bandit::{GaussianEnv, SideInfo, TrackAndStopSideInfo, TasConfig};
//!
//! let mu = vec![0.50, 0.45, 0.40];
//! let sigma = SideInfo::uniform(3, 0.05);
//! let mut env = GaussianEnv::new(mu, sigma.clone(), 7);
//! let mut tas = TrackAndStopSideInfo::new(sigma, 0.05, TasConfig::default());
//! while !tas.finished() {
//!     let arm = tas.next_arm();
//!     let y = env.pull(arm);
//!     tas.observe(arm, &y);
//! }
//! assert_eq!(tas.recommend(), 0);
//! ```

pub mod classical;
pub mod elimination;
pub mod env;
pub mod estimator;
pub mod oracle;
pub mod tas;
pub mod ucb;

pub use classical::ClassicalTrackAndStop;
pub use elimination::SuccessiveElimination;
pub use env::GaussianEnv;
pub use env::SideInfo;
pub use estimator::WeightedEstimator;
pub use tas::{BetaRule, TasConfig, TrackAndStopSideInfo};
pub use ucb::{SideInfoUcb, Ucb1};
