#![warn(missing_docs)]

//! # darwin-rebalance
//!
//! Elastic fleet rebalancing for the sharded serving layer: resize a live
//! Darwin cache fleet `N → M` shards without losing a request, a counter,
//! or (for the surviving keyspace) a warm cache.
//!
//! ```text
//!  generation g (N shards)                generation g+1 (M shards)
//!  ┌──────────────────────┐      cut      ┌──────────────────────────┐
//!  │ Serving → Draining   │   envelopes   │  warm boot from resolved │
//!  │  final cut @ seq ────┼──────────────▶│  frames (survivors) /    │
//!  │  Transferring        │  Full | Rows  │  cold (moved keyspace)   │
//!  │  Retired             │               │  Serving                 │
//!  └──────────────────────┘               └──────────────────────────┘
//!            ▲                                        ▲
//!            └──── one Router, asked route(id, N | M) ─┘
//!              JumpRouter recommended: moves only
//!              |M−N|/max(N,M) of the keyspace
//! ```
//!
//! * [`elastic`] — [`ElasticFleet`]: the orchestrator that drains a
//!   generation — every shard one way through `Serving → Draining →
//!   Transferring → Retired` — ships each survivor's final cut in a
//!   [`CutFrame`](darwin_ckpt::replica::CutFrame) handoff envelope (hosted
//!   in [`darwin_ckpt`], which the shard replication layer shares) and
//!   boots the successor warm, keeping the exactly-once conservation ledger
//!   intact across any resize sequence; submitters feed it through
//!   per-submitter [`ElasticProducer`]s.
//! * Routing: a resize asks one [`Router`](darwin_shard::Router) for
//!   `route(id, N)` and `route(id, M)`. Any router works; the
//!   [`JumpRouter`](darwin_shard::JumpRouter) keeps every surviving
//!   shard's objects in place, so only the moved slice boots cold.
//!
//! Every rebalance is byte-auditable: `DrainStart`, `HandoffCut`,
//! `HandoffRestore`, `Cutover` and `RingResize` events land in the shards'
//! journals keyed on request sequence numbers, and seeded runs reproduce
//! bit-for-bit.

pub mod elastic;

pub use elastic::{
    ElasticFleet, ElasticProducer, ElasticReport, ResizeRefused, TransferStat, MAX_SHARDS,
};
