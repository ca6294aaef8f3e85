#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # darwin-shard
//!
//! The sharded concurrent serving layer: a hash-partitioned fleet of HOC
//! cache servers with per-shard Darwin controllers.
//!
//! The paper deploys Darwin inside a real proxy where "the learning logic is
//! not in the critical path of cache processing" (§5); production CDNs scale
//! that proxy by hash-partitioning the object space across independent cache
//! shards. This crate reproduces that shape:
//!
//! ```text
//!                       ┌─────────────────────────── ShardedFleet ───────┐
//!                       │  ┌─ SPSC queue 0 ─┐   ┌─ worker thread 0 ────┐ │
//!  submit(req) ─ Router ┼─▶│ bounded,       │──▶│ CacheServer (HOC+DC) │ │
//!        │              │  │ backpressure   │   │ + AdmissionDriver    │ │
//!        │              │  └────────────────┘   │   (Darwin ctrl #0)   │ │
//!        │              │          ⋮            └──────────┬───────────┘ │
//!        │              │  ┌────────────────┐   ┌──────────▼───────────┐ │
//!        └──────────────┼─▶│ SPSC queue N−1 │──▶│ worker N−1 / ctrl N−1│ │
//!                       │  └────────────────┘   └──────────┬───────────┘ │
//!                       │                         FleetMetrics (agg)     │
//!                       └────────────────────────────────────────────────┘
//! ```
//!
//! * [`router`] — pure `(id, shards) → shard` placement ([`HashRouter`] by
//!   default; the [`Router`] trait is the seam for locality-aware routing).
//! * [`queue`] — bounded SPSC queues (a `Mutex<VecDeque>` each, one lock
//!   round per batch) with blocking or drop-with-counter backpressure and
//!   occupancy gauges.
//! * [`fleet`] — [`ShardedFleet`]: one worker thread, cache server, queue
//!   and [`AdmissionDriver`](darwin_testbed::AdmissionDriver) per shard
//!   (with `DarwinDriver` drivers that is one Darwin controller per shard,
//!   each learning its own sub-workload).
//! * [`metrics`] — [`FleetMetrics`]: per-shard and fleet-wide OHR / BMR /
//!   disk-write aggregation, queue depth and backpressure counters, restart
//!   and degraded-mode state, periodic snapshots.
//! * [`supervisor`] — per-shard restart policy: a [`Supervisor`] grants cold
//!   restarts against a sliding-window [`RestartBudget`] and marks shards
//!   permanently dead once it is spent (the fleet then answers their
//!   requests `Unavailable` — degraded mode, not an outage).
//! * [`fault`] — deterministic chaos scripting: a [`FaultPlan`] keys panics,
//!   delays, queue-full stalls and checkpoint corruption off per-shard
//!   request sequence numbers, so fault runs reproduce bit-for-bit (no wall
//!   clock anywhere).
//! * [`standby`] — hot-standby replication: a per-shard [`StandbySlot`] fed
//!   a `Replica`-role cut envelope (full image, then row deltas: the
//!   per-object rows that changed) at every checkpoint cut. When a shard's
//!   restart budget is exhausted the standby
//!   is *promoted* — its last applied frame is installed and the worker
//!   warm-restarts from it, bitwise-identical to an unfailed run from the
//!   checkpoint boundary — instead of burying the shard
//!   (`tests/failover.rs`).
//! * [`ckpt`] — warm-restart checkpoints: a versioned, CRC-64-guarded
//!   [`ShardCheckpoint`] frame (cache image + driver state + deployed
//!   policy) taken at request-sequence boundaries into a double-buffered
//!   [`CheckpointSlot`] with optional atomic-rename disk spill. A respawned
//!   worker restores the latest valid frame (warm restart) and falls back
//!   cold when none validates.
//! * [`elastic`] — [`ElasticFleet`]: live `N → M` resizes. A resize drains
//!   the serving generation (every shard `Serving → Draining →
//!   Transferring → Retired`), hands each survivor's final cut to the next
//!   generation as a row delta and boots it warm; the ledger stays exact
//!   and seeded resizes journal bit-for-bit (`tests/resize.rs`).
//!   [`JumpRouter`] keeps the keyspace that boots cold to `|M−N|/max(N,M)`.
//! * [`replay`] — the deterministic sequential side of the equivalence
//!   contract: an N-shard fleet over a hash-partitioned trace is bitwise
//!   identical to N sequential single-shard runs (`tests/equivalence.rs`
//!   enforces this at 1, 2 and 8 shards).
//!
//! Observability rides along via [`darwin_obs`]: each shard's cell carries
//! serve / queue-wait / checkpoint-pause latency histograms and a bounded
//! journal of typed events (deaths, restart verdicts, warm/cold restores,
//! expert switches, drift, faults, checkpoint cuts, switching-cost windows),
//! all stamped with request sequence numbers so seeded runs journal
//! identically (`tests/journal_determinism.rs`).

pub mod ckpt;
pub mod elastic;
pub mod fault;
pub mod fleet;
mod lane;
pub mod metrics;
pub mod queue;
pub mod replay;
pub mod router;
pub mod standby;
pub mod supervisor;
mod worker;

pub use ckpt::{CheckpointSlot, ShardCheckpoint, CKPT_MAGIC, CKPT_VERSION};
pub use darwin_obs::{Event, EventKind, JournalSnapshot, LatencySnapshot};
pub use elastic::{
    ElasticFleet, ElasticProducer, ElasticReport, ResizeRefused, TransferStat, MAX_SHARDS,
};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use fleet::{
    Backpressure, Envelope, FleetBoot, FleetConfig, FleetIngest, FleetProducer, FleetReport,
    ShardOutcome, ShardedFleet, Verdict,
};
pub use metrics::{
    FleetMetrics, GatewaySnapshot, GenerationSummary, MetricsHandle, ShardCell, ShardPhase,
    ShardSnapshot,
};
pub use queue::{channel, Consumer, Producer, QueueGauges};
pub use replay::{partition, run_partition, run_sequential, ShardRun};
pub use router::{mix64, HashRouter, JumpRouter, Router};
pub use standby::{FeedOutcome, StandbySlot};
pub use supervisor::{RestartBudget, Supervisor, SupervisorVerdict};
