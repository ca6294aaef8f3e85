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
//!  │  Transferring        │  Full | Delta │  cold (moved keyspace)   │
//!  │  Retired             │               │  Serving                 │
//!  └──────────────────────┘               └──────────────────────────┘
//!            ▲                                        ▲
//!            └──── one Router, asked route(id, N | M) ─┘
//!              RingRouter(seed, vnodes) recommended: the
//!              same ring family at every fleet size
//! ```
//!
//! * [`ring`] — [`RingRouter`]: consistent-hash ring with virtual nodes;
//!   resizing `N → M` remaps only `|M−N|/max(N,M)` of the keyspace, with
//!   exact per-object stability guarantees (see the module docs). The
//!   recommended router, not the only one: an [`ElasticFleet`] resizes
//!   under any [`Router`](darwin_shard::Router), a plain hash just moves
//!   (and so cold-starts) most of the keyspace.
//! * [`delta`] — [`DeltaFrame`]: rsync-style block diff between two
//!   checkpoint images, so a handoff ships O(churn) not O(cache) bytes
//!   (hosted in [`darwin_ckpt`], which the shard replication layer shares).
//! * [`replica`] — [`CutFrame`]: the sealed, role-tagged cut envelope
//!   (full or delta payload, shard- and generation-addressed) with its one
//!   sender and one apply gate; a resize ships [`CutRole::Handoff`]
//!   frames, a standby feed [`CutRole::Replica`] ones (also hosted in
//!   [`darwin_ckpt`]).
//! * [`handoff`] — [`HandoffTracker`]: the one-way
//!   `Serving → Draining → Transferring → Retired` state machine.
//! * [`elastic`] — [`ElasticFleet`]: the orchestrator that drains a
//!   generation, ships the envelopes and boots the successor warm, keeping
//!   the exactly-once conservation ledger intact across any resize
//!   sequence; submitters feed it through per-submitter
//!   [`ElasticProducer`]s.
//!
//! Every rebalance is byte-auditable: `DrainStart`, `HandoffCut`,
//! `HandoffRestore`, `Cutover` and `RingResize` events land in the shards'
//! journals keyed on request sequence numbers, and seeded runs reproduce
//! bit-for-bit.

pub mod elastic;
pub mod handoff;
pub mod ring;

/// The block-delta codec, hosted in [`darwin_ckpt`].
pub use darwin_ckpt::delta;
/// The cut envelope, hosted in [`darwin_ckpt`].
pub use darwin_ckpt::replica;

pub use darwin_ckpt::delta::{DeltaFrame, DELTA_MAGIC, DELTA_VERSION};
pub use darwin_ckpt::replica::{
    AppliedCut, CutError, CutFrame, CutPayload, CutRole, Held, CUT_MAGIC, CUT_VERSION,
};
pub use elastic::{
    ElasticFleet, ElasticProducer, ElasticReport, ResizeRefused, TransferStat, MAX_SHARDS,
};
pub use handoff::HandoffTracker;
pub use ring::{theoretical_remap, RingRouter, DEFAULT_SEED, DEFAULT_VNODES};
