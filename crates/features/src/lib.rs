#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # darwin-features
//!
//! Traffic-pattern feature extraction — the "footprint descriptor"-style
//! statistics Darwin clusters on and feeds to its cross-expert predictors.
//!
//! Appendix A.1 of the paper defines the features:
//!
//! * **(a)** average request size;
//! * **(b)** vector of the first *n* average inter-arrival times, where the
//!   n-th inter-arrival time is the time elapsed between n+1 successive
//!   requests with the same object ID;
//! * **(c)** vector of the first *m* average stack distances, where the m-th
//!   stack distance is the *cumulative size of all requests* received between
//!   m+1 successive requests with the same ID.
//!
//! Averages are over all object-ID/position choices. The paper uses n = m = 7
//! for 15 features total, and extends the vector with a **bucketized size
//! distribution** when training the cross-expert predictors (§4.1).
//!
//! The extractor is *online*: it consumes requests one at a time (the paper's
//! prototype builds "a tree structure" during the feature-collection stage
//! and then keeps only "a single feature vector with 15 entries" — here the
//! working state is a per-object ring of recent accesses, discarded on
//! [`FeatureExtractor::finish`]).
//!
//! ```
//! use darwin_features::FeatureExtractor;
//! use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};
//!
//! let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 1).generate(10_000);
//! let mut fx = FeatureExtractor::paper_default();
//! for r in &trace {
//!     fx.observe(r);
//! }
//! let features = fx.features();
//! assert_eq!(features.len(), 15); // avg size + 7 IATs + 7 stack distances
//! ```

pub mod convergence;
pub mod drift;
pub mod extractor;
pub mod hrc;
pub mod sizedist;
pub mod synth;
pub mod vector;

pub use convergence::{max_relative_error, relative_errors};
pub use drift::{DriftDetector, TrafficSnapshot};
pub use extractor::FeatureExtractor;
pub use hrc::FootprintDescriptor;
pub use sizedist::SizeDistribution;
pub use synth::synthesize;
pub use vector::FeatureVector;
