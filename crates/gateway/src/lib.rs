#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # darwin-gateway
//!
//! The network serving layer: a compact binary wire protocol and a TCP
//! front-end over the sharded fleet, plus a load-generator client.
//!
//! The paper deploys Darwin inside a production proxy (Apache Traffic
//! Server, §5) where requests arrive over the network and the learning
//! logic stays off the critical path. This crate reproduces that boundary
//! with `std`-only networking:
//!
//! * [`wire`] — the length-prefixed frame protocol (`GET` / `STATS` /
//!   `EVENTS` / `SHUTDOWN` and their replies), an incremental
//!   [`wire::FrameReader`], and hostile-input-safe decoding.
//! * [`server`] — [`server::Gateway`]: an acceptor plus thread-per-connection
//!   workers that route decoded requests through the existing
//!   [`ShardedFleet`](darwin_shard::ShardedFleet) shard queues and stream
//!   verdicts back with batched writes; graceful shutdown drains connections
//!   and joins the shard workers.
//! * [`loadgen`] — a pipelined client that replays a
//!   [`Trace`](darwin_trace::Trace) over N concurrent connections and
//!   reports throughput and latency percentiles (log-bucketed
//!   [`darwin_obs`] histograms), plus one-shot [`loadgen::fetch_stats`] /
//!   [`loadgen::fetch_events`] monitoring clients.
//! * [`netfault`] — the transport faults of `darwin-shard`'s fault script
//!   ([`netfault::NetFaultPlan`]): scripted connection resets, stalls,
//!   frame corruption and accept pauses keyed off frame sequence numbers,
//!   for bit-for-bit reproducible hostile-network runs.
//!
//! The contract inherited from `darwin-shard` is preserved end to end: a
//! trace served through a loopback gateway on one connection produces
//! bitwise-identical cache metrics and deployed-expert sequences to an
//! in-process replay (`tests/loopback.rs`).

pub mod loadgen;
pub mod netfault;
pub mod server;
pub mod wire;

mod conn;

pub use loadgen::{ConnReport, ErrorStats, LoadgenConfig, LoadgenReport, VerdictTally};
pub use netfault::{NetFaultEvent, NetFaultKind, NetFaultPlan};
pub use server::{Gateway, GatewayConfig, GatewayError, ResizeAck, GATEWAY_JOURNAL_SHARD};
pub use wire::{Message, VerdictOutcome, WireError, WireVerdict};
