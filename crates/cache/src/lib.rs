#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # darwin-cache
//!
//! A two-level CDN cache simulator: a small, fast **Hot Object Cache** (HOC)
//! in front of a large **Disk Cache** (DC), as described in §2.2 / Figure 1
//! of the Darwin paper and modeled after the LRB simulator the authors built
//! on.
//!
//! Request flow (paper §2.2):
//!
//! 1. If the object is in the HOC → HOC hit, served from memory.
//! 2. Else if in the DC → DC hit; the object *may be promoted* into the HOC
//!    according to the HOC **admission policy** (Darwin's experts live here).
//! 3. Else → miss; fetched from origin. The DC admits the object only on its
//!    second request, tracked with a Bloom filter, to keep "one-hit wonders"
//!    (≈70 % of unique objects) from wasting disk writes.
//!
//! Both levels evict with a pluggable [`eviction`] policy (LRU by default, as
//! in the paper's simulations). All byte/hit accounting needed by the paper's
//! metrics — object hit rate (OHR), byte miss ratio (BMR), disk writes — is
//! collected in [`metrics::CacheMetrics`].
//!
//! ```
//! use darwin_cache::{CacheConfig, CacheServer, ThresholdPolicy};
//! use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};
//!
//! let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 1).generate(50_000);
//! let mut server = CacheServer::new(CacheConfig::small_test());
//! server.set_policy(ThresholdPolicy::new(2, 100 * 1024)); // f=2, s=100 KB
//! for r in &trace {
//!     server.process(r);
//! }
//! let m = server.metrics();
//! assert!(m.hoc_ohr() >= 0.0 && m.hoc_ohr() <= 1.0);
//! ```

pub mod bloom;
pub mod eviction;
pub mod idmap;
pub mod metrics;
pub mod objective;
pub mod policy;
pub mod server;

pub use bloom::BloomFilter;
pub use eviction::{EvictionKind, Store};
pub use metrics::CacheMetrics;
pub use objective::Objective;
pub use policy::{Admission, ObjectView, ThresholdPolicy};
pub use server::{CacheConfig, CacheServer, HocSim, RequestOutcome};
