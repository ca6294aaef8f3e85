#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # darwin-baselines
//!
//! The adaptive HOC-admission baselines Darwin is evaluated against (§6
//! "Baselines" and Table 1/2):
//!
//! * **Static experts** — fixed (f, s) thresholds; provided by
//!   [`darwin::runner::run_static`], listed here only for completeness.
//! * **[`AdaptSize`]** — Berger et al. (NSDI'17): probabilistic size-based
//!   admission `P(admit) = exp(−size/c)` with `c` re-tuned periodically by
//!   maximizing a Markov (Che-approximation) model of OHR.
//! * **[`Percentile`]** — re-estimates the empirical frequency/size
//!   distributions every N requests and deploys the expert nearest the 60th
//!   frequency / 90th size percentiles.
//! * **[`HillClimbing`]** — runs two shadow caches at (f ± Δf, s) and
//!   (f, s ± Δs) and moves the main cache to the best performer.
//! * **[`DirectMapping`]** — a neural net mapping traffic features directly
//!   to the best (f, s) — the "more practical approach" §4 describes and
//!   rejects in favour of expert selection.
//!
//! Each baseline exposes `run(trace, cache_config) -> CacheMetrics` so the
//! experiment harness treats them uniformly.

pub mod adaptsize;
pub mod direct;
pub mod hillclimb;
pub mod percentile;

pub use adaptsize::AdaptSize;
pub use direct::DirectMapping;
pub use hillclimb::HillClimbing;
pub use percentile::Percentile;
