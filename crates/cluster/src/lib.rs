#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # darwin-cluster
//!
//! Unsupervised clustering of workload feature vectors — step 1a of Darwin's
//! offline pipeline ("we then form clusters of traces based on their
//! features … using the K-means clustering algorithm", Appendix A.1).
//!
//! Provides z-score feature normalization (features span wildly different
//! scales: bytes vs microseconds vs cumulative gigabytes), k-means with
//! k-means++ seeding, and nearest-centroid assignment for Darwin's *online*
//! cluster lookup at the end of each epoch's warm-up phase.
//!
//! ```
//! use darwin_cluster::{KMeans, Normalizer};
//!
//! let data = vec![
//!     vec![0.0, 0.1], vec![0.2, 0.0], vec![10.0, 9.8], vec![9.9, 10.1],
//! ];
//! let norm = Normalizer::fit(&data);
//! let scaled: Vec<Vec<f64>> = data.iter().map(|v| norm.transform(v)).collect();
//! let km = KMeans::fit(&scaled, 2, 100, 42);
//! assert_eq!(km.assign(&norm.transform(&vec![0.1, 0.1])),
//!            km.assign(&norm.transform(&vec![0.15, 0.05])));
//! ```

pub mod kmeans;
pub mod normalize;

pub use kmeans::KMeans;
pub use normalize::Normalizer;
