#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # darwin-testbed
//!
//! A discrete-event simulation of the paper's CloudLab/ATS prototype testbed
//! (§5, §6.4): closed-loop clients → proxy (the CDN cache server running
//! Darwin or a static expert) → origin.
//!
//! The paper's testbed: client, proxy and origin nodes with 20 Gbps links,
//! an injected 10 ms client↔proxy and 100 ms proxy↔origin latency, 100 MB
//! RAM cache. The simulation reproduces the same request path:
//!
//! * **HOC hit** — served after a pass through the HOC critical section
//!   (lock); first byte after one client↔proxy round trip.
//! * **DC hit** — adds a disk read (seek + size/disk bandwidth).
//! * **Miss** — adds a proxy↔origin round trip and the origin transfer.
//!
//! Lock contention is modeled as a single FIFO resource whose per-operation
//! service time grows with the number of concurrent clients (cache-line and
//! lock-queue overheads) — this produces the paper's interior throughput
//! sweet spot ("the sweet spot for throughput vs synchronization overhead is
//! around 200" concurrent requests, Fig 7b).
//!
//! The admission policy is pluggable through [`AdmissionDriver`], with
//! implementations for static experts and the full Darwin online controller,
//! so Fig 4c / 7a / 7b compare exactly the code paths the paper compares.

pub mod latency;
pub mod sim;

pub use darwin::{AdmissionDriver, DarwinDriver, StaticDriver};
pub use latency::LatencyStats;
pub use sim::{Testbed, TestbedConfig, TestbedReport};
