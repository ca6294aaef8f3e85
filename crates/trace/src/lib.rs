#![warn(missing_docs)]

//! # darwin-trace
//!
//! Synthetic CDN request-trace generation and manipulation for the Darwin
//! reproduction.
//!
//! The Darwin paper evaluates on traces derived from a production CDN server
//! and on synthetic mixes produced by Tragen (Sabnis & Sitaraman, IMC'21).
//! This crate is the stand-in for both: it models *traffic classes* (sets of
//! domains with similar access characteristics, e.g. `Image` and `Download`)
//! with per-class popularity (Zipf), object-size (clamped log-normal) and
//! arrival (Poisson) models, and composes them into mixed traces at arbitrary
//! request-rate ratios — the corpus-construction procedure of the paper's §6
//! ("we generate synthetic traces based on the Download and Image traces with
//! various mixed ratios using Tragen").
//!
//! The crate also provides the trace *scaling* transformation used for the
//! 200 MB / 500 MB cache studies (multiply object sizes by k and perturb each
//! by ±20 %), trace statistics, and (de)serialization.
//!
//! ```
//! use darwin_trace::{TrafficClass, MixSpec, TraceGenerator};
//!
//! // 70 % Image / 30 % Download mix, 10k requests.
//! let spec = MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.7);
//! let trace = TraceGenerator::new(spec, 42).generate(10_000);
//! assert_eq!(trace.len(), 10_000);
//! ```

pub mod class;
pub mod dynamics;
pub mod generator;
pub mod io;
pub mod request;
pub mod scale;
pub mod stats;
pub mod window;
mod zipf;

pub use class::{ClassKind, SizeModel, TrafficClass};
pub use dynamics::{
    compress_window, drift_popularity, flash_crowd, modulate_rate, popularity_inversion,
};
pub use generator::{MixSpec, TraceGenerator};
pub use io::{read_trace, read_trace_file, write_trace, write_trace_file, TraceReadError};
pub use request::{ObjectId, Request, Trace};
pub use scale::{concat_traces, scale_trace};
pub use stats::TraceStats;
pub use window::Windows;
