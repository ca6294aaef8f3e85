#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # darwin-nn
//!
//! Minimal dense neural networks, implemented from scratch (no BLAS, no
//! framework). Darwin's cross-expert predictors are deliberately tiny — "we
//! train a 1-layer fully connected neural network M_ij for each ordered pair
//! of experts" (§4.1) — so a small, dependency-free MLP with manually derived
//! backpropagation is a faithful and auditable substrate.
//!
//! The crate provides:
//!
//! * [`Mlp`] — a one-hidden-layer perceptron with tanh hidden units and
//!   either sigmoid outputs (probabilities: the cross-expert predictors) or
//!   identity outputs (regression: the DirectMapping baseline);
//! * [`TrainConfig`] / [`Mlp::train`] — mini-batch Adam on mean squared
//!   error;
//! * serde persistence for trained models.
//!
//! ```
//! use darwin_nn::{Mlp, OutputActivation, TrainConfig};
//!
//! // Learn XOR (sanity check that the net can fit non-linear functions).
//! let data: Vec<(Vec<f64>, Vec<f64>)> = vec![
//!     (vec![0., 0.], vec![0.]), (vec![0., 1.], vec![1.]),
//!     (vec![1., 0.], vec![1.]), (vec![1., 1.], vec![0.]),
//! ];
//! let mut net = Mlp::new(2, 8, 1, OutputActivation::Sigmoid, 42);
//! net.train(&data, &TrainConfig { epochs: 2000, ..TrainConfig::default() });
//! assert!(net.forward(&[0., 1.])[0] > 0.5);
//! assert!(net.forward(&[1., 1.])[0] < 0.5);
//! ```

pub mod net;

pub use net::{Mlp, OutputActivation, TrainConfig};
