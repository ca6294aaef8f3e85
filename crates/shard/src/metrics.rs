//! Fleet-wide metrics aggregation.
//!
//! Each shard worker publishes its cumulative [`CacheMetrics`] (plus
//! processed/backpressure counters) into a [`ShardCell`]; the fleet
//! assembles point-in-time [`FleetMetrics`] snapshots from the cells on
//! demand and, when configured, on a fixed submission cadence. Because every
//! counter is a plain sum, per-shard metrics merge into exact fleet-wide
//! OHR / BMR / disk-write figures via [`CacheMetrics::merge_all`].
//!
//! Cells survive their worker: when a supervisor cold-restarts a shard, the
//! dying incarnation's counters are *folded* into per-cell bases
//! (`ShardCell::fold_incarnation`) and the fresh worker counts on top, so
//! `processed` / `cache` in a snapshot are always totals over the shard's
//! whole life. Restart and permanent-death state ride along (`restarts`,
//! `dead`, `unavailable`), which is how `finish()` reports fault history
//! instead of panicking.

use crate::queue::QueueGauges;
use darwin_cache::{CacheMetrics, ThresholdPolicy};
use darwin_obs::{Event, EventKind, JournalSnapshot, LatencySnapshot, ShardObs};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Lifecycle phase of a shard during an elastic rebalance. Phases only ever
/// advance (Serving → Draining → Transferring → Retired), and are set in
/// that order into the shard's [`ShardCell`], so snapshots and dashboards
/// can show drain state: [`ShardedFleet::finish_with_cut`] sets Draining,
/// and [`ElasticFleet::resize`] then Transferring and Retired per shard.
///
/// [`ShardedFleet::finish_with_cut`]: crate::ShardedFleet::finish_with_cut
/// [`ElasticFleet::resize`]: crate::ElasticFleet::resize
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardPhase {
    /// Normal operation: the shard accepts and serves requests.
    Serving,
    /// A resize began: the shard's queue is draining toward a final
    /// handoff checkpoint; no new requests are routed to it.
    Draining,
    /// The drain boundary checkpoint was cut and is being shipped to the
    /// shard's successor; the old state still answers metrics reads.
    Transferring,
    /// The successor took over (cutover); this incarnation is history.
    Retired,
}

impl ShardPhase {
    /// Compact code stored in the cell's atomic (0..=3).
    pub fn code(self) -> u8 {
        match self {
            ShardPhase::Serving => 0,
            ShardPhase::Draining => 1,
            ShardPhase::Transferring => 2,
            ShardPhase::Retired => 3,
        }
    }

    /// Inverse of [`code`](Self::code); `None` for out-of-range codes.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(ShardPhase::Serving),
            1 => Some(ShardPhase::Draining),
            2 => Some(ShardPhase::Transferring),
            3 => Some(ShardPhase::Retired),
            _ => None,
        }
    }

    /// Stable snapshot/dashboard label.
    pub fn label(self) -> &'static str {
        match self {
            ShardPhase::Serving => "serving",
            ShardPhase::Draining => "draining",
            ShardPhase::Transferring => "transferring",
            ShardPhase::Retired => "retired",
        }
    }
}

/// Point-in-time view of one shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Requests fully processed by the shard's workers, summed over every
    /// incarnation.
    pub processed: u64,
    /// Requests dropped: shed at the shard's queue under `DropNewest`
    /// backpressure, or in flight when a worker died.
    pub dropped: u64,
    /// Requests answered `Unavailable` because the shard was permanently
    /// dead when they arrived.
    #[serde(default)]
    pub unavailable: u64,
    /// Requests answered `Busy` because the shard's queue depth was over
    /// its shed watermark when they arrived (overload control).
    #[serde(default)]
    pub shed: u64,
    /// True while the shard is actively shedding: its queue crossed the
    /// watermark and has not yet drained below the recovery threshold.
    #[serde(default)]
    pub shedding: bool,
    /// Restarts the shard's supervisor granted (warm and cold together).
    #[serde(default)]
    pub restarts: u32,
    /// Restarts that resumed from a valid checkpoint (warm). Always
    /// `<= restarts`; the difference is the cold-restart count.
    #[serde(default)]
    pub warm_restarts: u32,
    /// Warm *boots*: incarnations that restored state shipped across a
    /// process or generation boundary (a `--checkpoint-dir` spill file or a
    /// resize handoff) rather than surviving an in-process crash. Disjoint
    /// from `warm_restarts`, which still partitions `restarts` with the
    /// cold count.
    #[serde(default)]
    pub warm_boots: u32,
    /// Router generation this shard serves under (0 before any resize; each
    /// elastic resize spawns the next generation).
    #[serde(default)]
    pub router_generation: u32,
    /// True once the shard is permanently dead (restart budget exhausted or
    /// a terminal end-of-stream panic).
    #[serde(default)]
    pub dead: bool,
    /// Handoff phase label (`serving` / `draining` / `transferring` /
    /// `retired`); empty in snapshots written before the elastic-fleet
    /// subsystem (read as `serving`).
    #[serde(default)]
    pub phase: String,
    /// Per-shard sequence number of the latest stored checkpoint, if any.
    #[serde(default)]
    pub checkpoint_seq: Option<u64>,
    /// Requests processed since the latest checkpoint (0 when no checkpoint
    /// exists yet) — the work a crash right now would replay-lose warm.
    #[serde(default)]
    pub checkpoint_age: u64,
    /// Failover promotions: past-budget worker deaths answered by
    /// installing the hot standby's frame instead of burying the shard.
    #[serde(default)]
    pub failovers: u32,
    /// Sequence boundary of the frame the shard's hot standby has applied
    /// (`None` without replication or before the first seed).
    #[serde(default)]
    pub replica_seq: Option<u64>,
    /// Cumulative payload bytes shipped to the hot standby (full seeds plus
    /// deltas) — the O(churn) replication-cost ledger.
    #[serde(default)]
    pub replica_shipped_bytes: u64,
    /// Standby losses detected (poisoned or failed-validation standbys);
    /// each is journaled and followed by a background re-seed.
    #[serde(default)]
    pub standby_lost: u32,
    /// Requests currently waiting in the shard's queue.
    pub queue_depth: usize,
    /// Maximum queue depth ever observed, across incarnations (backpressure
    /// high-water mark).
    pub queue_high_water: usize,
    /// The shard's cumulative cache metrics, summed over incarnations (each
    /// restart begins from a cold cache but keeps counting).
    pub cache: CacheMetrics,
    /// Label of the shard's currently deployed admission policy (the last
    /// published label, for a dead shard).
    pub policy: String,
    /// Wall-clock latency histograms (serve / queue-wait / checkpoint-pause).
    /// `None` in snapshots written before the observability subsystem.
    #[serde(default)]
    pub latency: Option<LatencySnapshot>,
    /// Events evicted from the shard's bounded journal ring so far.
    #[serde(default)]
    pub events_dropped: u64,
    /// The shard's retained event journal, oldest first.
    #[serde(default)]
    pub events: Vec<Event>,
}

impl ShardSnapshot {
    /// Restarts that fell back to a cold start (no valid checkpoint).
    pub fn cold_restarts(&self) -> u32 {
        self.restarts.saturating_sub(self.warm_restarts)
    }

    /// Folds another snapshot carrying the *same shard index* into this one,
    /// counter-wise: additive counters (processed, dropped, unavailable,
    /// restarts, cache, queue depth) sum, so fleet-wide `total_*` accessors
    /// over the merged view equal the sums over the inputs; `dead` ORs;
    /// checkpoint and high-water gauges take the pointwise max; the first
    /// operand keeps its policy label unless it is empty.
    ///
    /// # Panics
    ///
    /// If the two snapshots carry different shard indices.
    pub fn absorb(&mut self, other: &ShardSnapshot) {
        assert_eq!(self.shard, other.shard, "cannot absorb a different shard's snapshot");
        self.processed += other.processed;
        self.dropped += other.dropped;
        self.unavailable += other.unavailable;
        self.shed += other.shed;
        self.shedding |= other.shedding;
        self.restarts += other.restarts;
        self.warm_restarts += other.warm_restarts;
        self.warm_boots += other.warm_boots;
        // The phase follows the newest generation (a retired generation's
        // archive must not mask the live incarnation's state).
        if other.router_generation >= self.router_generation && !other.phase.is_empty() {
            self.phase = other.phase.clone();
        }
        self.router_generation = self.router_generation.max(other.router_generation);
        self.dead |= other.dead;
        self.checkpoint_seq = self.checkpoint_seq.max(other.checkpoint_seq);
        self.checkpoint_age = self.checkpoint_age.max(other.checkpoint_age);
        self.failovers += other.failovers;
        self.replica_seq = self.replica_seq.max(other.replica_seq);
        self.replica_shipped_bytes += other.replica_shipped_bytes;
        self.standby_lost += other.standby_lost;
        self.queue_depth += other.queue_depth;
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        self.cache = CacheMetrics::merge_all([&self.cache, &other.cache]);
        if self.policy.is_empty() {
            self.policy = other.policy.clone();
        }
        self.latency = match (self.latency.take(), &other.latency) {
            (Some(mut a), Some(b)) => {
                a.merge(b);
                Some(a)
            }
            (a, b) => a.or_else(|| b.clone()),
        };
        self.events_dropped += other.events_dropped;
        self.events.extend(other.events.iter().cloned());
        self.events.sort_by_key(|e| e.seq);
    }
}

/// Counters of a network front-end serving a fleet, folded into
/// [`FleetMetrics`] snapshots taken through a gateway (`None` for in-process
/// fleets). All counters are cumulative since the gateway started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatewaySnapshot {
    /// Connections accepted so far.
    pub connections_accepted: u64,
    /// Connections currently being served.
    pub connections_active: u64,
    /// Connections closed by the gateway's idle cutoff.
    #[serde(default)]
    pub idle_closed: u64,
    /// Well-formed frames decoded across all connections.
    pub frames_in: u64,
    /// Frames rejected (malformed, oversized, or a client-illegal opcode).
    pub frames_rejected: u64,
    /// Requests extracted from `GET` frames and submitted to the fleet.
    pub requests_in: u64,
    /// Verdicts written back to clients, counted as each reply write is
    /// issued: a reply a client has read is always counted, and a write
    /// that failed counts in full.
    pub verdicts_out: u64,
    /// `STATS` frames served.
    pub stats_served: u64,
    /// `EVENTS` frames served.
    #[serde(default)]
    pub events_served: u64,
    /// `RESIZE` frames served (acknowledged, whether the resize was
    /// performed or refused with an error ack).
    #[serde(default)]
    pub resizes_served: u64,
    /// Requests answered `Busy` by the gateway itself — over the
    /// per-connection rate limit or the reply-backlog bound — without ever
    /// reaching the fleet. Disjoint from the per-shard `shed` counters.
    #[serde(default)]
    pub shed: u64,
    /// Connections that ever exceeded their fair-share token bucket.
    #[serde(default)]
    pub throttled: u64,
    /// Connections evicted because the client stopped reading replies
    /// (write-stall budget expired).
    #[serde(default)]
    pub slow_closed: u64,
    /// Scripted network faults injected so far.
    #[serde(default)]
    pub net_faults: u64,
    /// Bytes read off client sockets.
    pub bytes_in: u64,
    /// Bytes written to client sockets, counted as `verdicts_out` is.
    pub bytes_out: u64,
}

/// Per-generation roll-up of one fleet incarnation's ledger, recorded by
/// the rebalancer when the generation retires (and for the live one on
/// demand). Lets STATS consumers audit restart/warm counters across a
/// shard-count change instead of assuming a fixed `shards` vector length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenerationSummary {
    /// Router generation (0 is the boot generation).
    pub generation: u32,
    /// Shard count this generation served with.
    pub shards: u32,
    /// Requests processed by this generation.
    pub processed: u64,
    /// Requests dropped by this generation.
    pub dropped: u64,
    /// Requests answered `Unavailable` by this generation.
    pub unavailable: u64,
    /// Requests shed at the overload watermark by this generation.
    #[serde(default)]
    pub shed: u64,
    /// Restarts granted within this generation.
    pub restarts: u32,
    /// Warm restarts within this generation.
    pub warm_restarts: u32,
    /// Warm boots (handoff or spill restores) within this generation.
    pub warm_boots: u32,
}

/// Point-in-time view of the whole fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetMetrics {
    /// Per-shard snapshots, indexed by shard.
    pub shards: Vec<ShardSnapshot>,
    /// Per-generation ledgers, oldest first, populated by the elastic
    /// rebalancer (empty for fixed fleets and pre-elastic artifacts).
    #[serde(default)]
    pub generations: Vec<GenerationSummary>,
    /// Network front-end counters, when the snapshot was taken through a
    /// gateway.
    pub gateway: Option<GatewaySnapshot>,
}

impl FleetMetrics {
    /// A snapshot of `shards` with no gateway in front.
    pub fn from_shards(shards: Vec<ShardSnapshot>) -> Self {
        Self { shards, generations: Vec::new(), gateway: None }
    }

    /// Folds a gateway's counters into the snapshot.
    pub fn with_gateway(mut self, gateway: GatewaySnapshot) -> Self {
        self.gateway = Some(gateway);
        self
    }

    /// Serializes the snapshot as pretty JSON — the one code path behind the
    /// gateway's `STATS` reply and the `inspect` binary's fleet mode.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fleet metrics serialization cannot fail")
    }

    /// Parses a snapshot produced by [`FleetMetrics::to_json`].
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Merges another snapshot into this one, aggregating STATS replies from
    /// multiple shard groups (e.g. two gateway processes each owning half the
    /// keyspace) into a single cluster-wide view: snapshots of distinct shard
    /// indices concatenate (re-sorted by index); snapshots *sharing* a shard
    /// index are folded counter-wise via [`ShardSnapshot::absorb`] — never
    /// concatenated, which would double-count every `total_*` accessor and
    /// report phantom shard entries. Gateway counters sum when both sides
    /// carry them. Every `total_*` accessor of the merged snapshot equals
    /// the sum of the inputs', so the conservation law survives merging.
    pub fn merge(mut self, other: FleetMetrics) -> FleetMetrics {
        for snap in other.shards {
            match self.shards.iter_mut().find(|s| s.shard == snap.shard) {
                Some(existing) => existing.absorb(&snap),
                None => self.shards.push(snap),
            }
        }
        self.shards.sort_by_key(|s| s.shard);
        self.generations.extend(other.generations);
        self.generations.sort_by_key(|g| g.generation);
        self.generations.dedup_by_key(|g| g.generation);
        self.gateway = match (self.gateway, other.gateway) {
            (Some(a), Some(b)) => Some(GatewaySnapshot {
                connections_accepted: a.connections_accepted + b.connections_accepted,
                connections_active: a.connections_active + b.connections_active,
                idle_closed: a.idle_closed + b.idle_closed,
                frames_in: a.frames_in + b.frames_in,
                frames_rejected: a.frames_rejected + b.frames_rejected,
                requests_in: a.requests_in + b.requests_in,
                verdicts_out: a.verdicts_out + b.verdicts_out,
                stats_served: a.stats_served + b.stats_served,
                events_served: a.events_served + b.events_served,
                resizes_served: a.resizes_served + b.resizes_served,
                shed: a.shed + b.shed,
                throttled: a.throttled + b.throttled,
                slow_closed: a.slow_closed + b.slow_closed,
                net_faults: a.net_faults + b.net_faults,
                bytes_in: a.bytes_in + b.bytes_in,
                bytes_out: a.bytes_out + b.bytes_out,
            }),
            (a, b) => a.or(b),
        };
        self
    }

    /// Fleet-wide cache metrics: the counter-wise sum over shards. OHR/BMR
    /// and disk-write rates of the returned value are exact fleet-wide
    /// figures.
    pub fn fleet_cache(&self) -> CacheMetrics {
        CacheMetrics::merge_all(self.shards.iter().map(|s| &s.cache))
    }

    /// Requests processed across the fleet.
    pub fn total_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed).sum()
    }

    /// Requests dropped across the fleet (backpressure load shedding plus
    /// in-flight losses at worker deaths).
    pub fn total_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped).sum()
    }

    /// Requests answered `Unavailable` across the fleet (degraded mode).
    pub fn total_unavailable(&self) -> u64 {
        self.shards.iter().map(|s| s.unavailable).sum()
    }

    /// Requests shed `Busy` at shard watermarks across the fleet. Gateway-
    /// level sheds (rate limit, reply backlog) are counted separately in
    /// [`GatewaySnapshot::shed`] — they never reached the fleet.
    pub fn total_shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed).sum()
    }

    /// Shards currently over their shed watermark.
    pub fn shedding_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.shedding).count()
    }

    /// Restarts granted across the fleet (warm and cold together).
    pub fn total_restarts(&self) -> u32 {
        self.shards.iter().map(|s| s.restarts).sum()
    }

    /// Restarts that resumed warm from a checkpoint, across the fleet.
    pub fn total_warm_restarts(&self) -> u32 {
        self.shards.iter().map(|s| s.warm_restarts).sum()
    }

    /// Restarts that fell back cold, across the fleet. Together with
    /// [`FleetMetrics::total_warm_restarts`] this always sums to
    /// [`FleetMetrics::total_restarts`].
    pub fn total_cold_restarts(&self) -> u32 {
        self.shards.iter().map(|s| s.cold_restarts()).sum()
    }

    /// Warm boots across the fleet: restores shipped across a process or
    /// generation boundary (spill-file boots plus resize handoffs).
    pub fn total_warm_boots(&self) -> u32 {
        self.shards.iter().map(|s| s.warm_boots).sum()
    }

    /// Highest router generation any shard reports (the currently serving
    /// generation after merging a retired archive with the live fleet).
    pub fn router_generation(&self) -> u32 {
        let live = self.shards.iter().map(|s| s.router_generation).max().unwrap_or(0);
        let archived = self.generations.iter().map(|g| g.generation).max().unwrap_or(0);
        live.max(archived)
    }

    /// Largest checkpoint age across shards: the most work any one shard
    /// would lose to a crash right now, even restoring warm.
    pub fn max_checkpoint_age(&self) -> u64 {
        self.shards.iter().map(|s| s.checkpoint_age).max().unwrap_or(0)
    }

    /// Failover promotions across the fleet: past-budget deaths answered by
    /// a hot standby instead of burial.
    pub fn total_failovers(&self) -> u32 {
        self.shards.iter().map(|s| s.failovers).sum()
    }

    /// Standby losses detected across the fleet.
    pub fn total_standby_lost(&self) -> u32 {
        self.shards.iter().map(|s| s.standby_lost).sum()
    }

    /// Cumulative replication payload bytes shipped across the fleet.
    pub fn total_replica_shipped_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.replica_shipped_bytes).sum()
    }

    /// Shards currently marked permanently dead.
    pub fn dead_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.dead).count()
    }

    /// Deepest queue across shards right now.
    pub fn max_queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue_depth).max().unwrap_or(0)
    }

    /// Highest queue high-water mark across shards.
    pub fn max_queue_high_water(&self) -> usize {
        self.shards.iter().map(|s| s.queue_high_water).max().unwrap_or(0)
    }
}

/// A cloneable, non-blocking view of a fleet's metrics.
///
/// Snapshots read only the per-shard [`ShardCell`] mailboxes — never the
/// submission path or the shard queues — so a handle can be polled from any
/// thread while submitters are blocked on backpressure, and it remains valid
/// after the fleet has been [`finish`](crate::ShardedFleet::finish)ed
/// (reporting each shard's final published state).
#[derive(Debug, Clone)]
pub struct MetricsHandle {
    cells: Vec<Arc<ShardCell>>,
}

impl MetricsHandle {
    /// Handle over the given shard cells (one per shard, in shard order).
    pub(crate) fn new(cells: Vec<Arc<ShardCell>>) -> Self {
        Self { cells }
    }

    /// Number of shards the handle observes.
    pub fn shards(&self) -> usize {
        self.cells.len()
    }

    /// The underlying shard cells, in shard order. The elastic rebalancer
    /// uses these to journal fleet-level events (drain, cutover, resize)
    /// and to mirror handoff phases into snapshots.
    pub fn cells(&self) -> &[Arc<ShardCell>] {
        &self.cells
    }

    /// Point-in-time fleet snapshot.
    pub fn snapshot(&self) -> FleetMetrics {
        FleetMetrics::from_shards(self.cells.iter().map(|c| c.snapshot()).collect())
    }

    /// Per-shard event-journal snapshots, in shard order — the body of the
    /// gateway's `EVENTS` reply.
    pub fn journals(&self) -> Vec<(u32, JournalSnapshot)> {
        self.cells.iter().map(|c| (c.shard_index() as u32, c.obs().journal.snapshot())).collect()
    }
}

/// Cache metrics and deployed policy of the current worker incarnation,
/// plus the folded totals of every incarnation that died before it.
#[derive(Debug, Default)]
struct CellState {
    cache: CacheMetrics,
    cache_base: CacheMetrics,
    policy: Option<ThresholdPolicy>,
}

/// The mailbox one shard worker publishes into and the fleet reads from.
///
/// The cell outlives any single worker incarnation: at a restart the fleet
/// folds the dead incarnation's counters into bases and points the cell at
/// the replacement queue, so readers always see whole-shard totals. Only
/// the fleet writes a cell; everything public here reads it.
#[derive(Debug)]
pub struct ShardCell {
    shard: usize,
    state: Mutex<CellState>,
    /// Requests processed by the *current* incarnation, stored per request
    /// so the count is exact at any crash point.
    processed: AtomicU64,
    /// Requests processed by previous (crashed) incarnations.
    processed_base: AtomicU64,
    dropped: AtomicU64,
    unavailable: AtomicU64,
    shed: AtomicU64,
    /// True while producers are shedding this shard's traffic (queue over
    /// the watermark; cleared once it drains below half of it).
    shedding: AtomicBool,
    restarts: AtomicU32,
    warm_restarts: AtomicU32,
    warm_boots: AtomicU32,
    /// Router generation the shard serves under (set once at fleet build).
    generation: AtomicU32,
    /// Handoff phase code ([`ShardPhase::code`]).
    phase: AtomicU8,
    /// Sequence number of the latest stored checkpoint; `u64::MAX` is the
    /// "none yet" sentinel (a real sequence of `u64::MAX` is unreachable).
    ckpt_seq: AtomicU64,
    /// Failover promotions granted (past-budget deaths a standby answered).
    failovers: AtomicU32,
    /// Sequence boundary the hot standby has applied; `u64::MAX` is the
    /// "none" sentinel, mirroring `ckpt_seq`.
    replica_seq: AtomicU64,
    /// Cumulative replication payload bytes shipped to the standby.
    replica_shipped_bytes: AtomicU64,
    /// Standby losses detected so far.
    standby_lost: AtomicU32,
    dead: AtomicBool,
    /// High-water marks of retired queues (a restart swaps in a fresh queue
    /// whose gauge starts at zero).
    high_water_floor: AtomicUsize,
    gauges: Mutex<Arc<QueueGauges>>,
    /// Latency histograms and event journal. Like every other cell counter
    /// these outlive worker incarnations and accumulate across restarts.
    obs: ShardObs,
}

impl ShardCell {
    /// Cell for `shard`, wired to that shard's queue gauges.
    pub(crate) fn new(shard: usize, gauges: Arc<QueueGauges>) -> Self {
        Self {
            shard,
            state: Mutex::new(CellState::default()),
            processed: AtomicU64::new(0),
            processed_base: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            shedding: AtomicBool::new(false),
            restarts: AtomicU32::new(0),
            warm_restarts: AtomicU32::new(0),
            warm_boots: AtomicU32::new(0),
            generation: AtomicU32::new(0),
            phase: AtomicU8::new(ShardPhase::Serving.code()),
            ckpt_seq: AtomicU64::new(u64::MAX),
            failovers: AtomicU32::new(0),
            replica_seq: AtomicU64::new(u64::MAX),
            replica_shipped_bytes: AtomicU64::new(0),
            standby_lost: AtomicU32::new(0),
            dead: AtomicBool::new(false),
            high_water_floor: AtomicUsize::new(0),
            gauges: Mutex::new(gauges),
            obs: ShardObs::default(),
        }
    }

    /// Shard index this cell reports under.
    pub fn shard_index(&self) -> usize {
        self.shard
    }

    /// The shard's observability state (histograms + journal). Workers
    /// record through this; readers snapshot it.
    pub fn obs(&self) -> &ShardObs {
        &self.obs
    }

    /// Worker side, per request: publish the processed count. Keeping it
    /// exact at every request is what makes the fleet's crash accounting
    /// (`submitted = processed + dropped + unavailable + shed`) exact rather
    /// than batch-granular.
    #[inline]
    pub(crate) fn publish_processed(&self, processed: u64) {
        self.processed.store(processed, Ordering::Release);
    }

    /// Worker side, once per drained batch and once more when the worker
    /// ends — normally or by unwinding: publish the incarnation's cumulative
    /// cache metrics with the processed count they belong to. Between two
    /// calls readers see cache counters at most one batch behind
    /// `processed`; after the worker has ended they are exact.
    ///
    /// Called from a `Drop`, so a poisoned lock is entered, not propagated:
    /// every update of the state is a whole-field assignment, valid at any
    /// step.
    pub(crate) fn publish(&self, cache: CacheMetrics, processed: u64) {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).cache = cache;
        self.processed.store(processed, Ordering::Release);
    }

    /// Worker side, at boot and whenever the deployed policy changes:
    /// publish it. A snapshot formats its label.
    pub(crate) fn publish_policy(&self, policy: ThresholdPolicy) {
        self.state.lock().expect("cell poisoned").policy = Some(policy);
    }

    /// Producer side: account requests shed at this shard's queue or lost in
    /// flight to a worker death.
    pub(crate) fn add_dropped(&self, n: u64) {
        if n > 0 {
            self.dropped.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Requests dropped at this shard so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Producer side: account requests answered `Unavailable` because this
    /// shard is dead.
    pub(crate) fn add_unavailable(&self, n: u64) {
        if n > 0 {
            self.unavailable.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Requests answered `Unavailable` so far.
    pub fn unavailable(&self) -> u64 {
        self.unavailable.load(Ordering::Relaxed)
    }

    /// Producer side: account requests answered `Busy` because this shard's
    /// queue was over its shed watermark.
    pub(crate) fn add_shed(&self, n: u64) {
        if n > 0 {
            self.shed.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Requests shed `Busy` at this shard so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// True while producers are shedding this shard's traffic.
    pub fn is_shedding(&self) -> bool {
        self.shedding.load(Ordering::Relaxed)
    }

    /// Current depth of the shard's queue (the live incarnation's gauge).
    pub fn queue_depth(&self) -> usize {
        self.gauges.lock().expect("cell poisoned").depth()
    }

    /// Runs the watermark state machine against the current queue depth and
    /// returns whether producers should shed this shard's traffic right
    /// now. Shedding engages at `depth >= watermark` and disengages at
    /// `depth <= watermark / 2` (hysteresis, so the decision doesn't
    /// flicker at the boundary); each episode's start and stop are
    /// journaled exactly once, whichever producer's CAS wins the crossing.
    pub(crate) fn shed_decision(&self, watermark: usize) -> bool {
        let depth = self.queue_depth();
        if self.shedding.load(Ordering::Relaxed) {
            if depth <= watermark / 2 {
                if self
                    .shedding
                    .compare_exchange(true, false, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    self.obs
                        .journal
                        .record(self.processed_total(), EventKind::ShedStop { shed: self.shed() });
                }
                return false;
            }
            true
        } else {
            if depth >= watermark {
                if self
                    .shedding
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    self.obs
                        .journal
                        .record(self.processed_total(), EventKind::ShedStart { depth: depth as u64 });
                }
                return true;
            }
            false
        }
    }

    /// Requests processed across all incarnations.
    pub fn processed_total(&self) -> u64 {
        self.processed_base.load(Ordering::Acquire) + self.processed.load(Ordering::Acquire)
    }

    /// Folds the just-joined incarnation's counters into the bases so the
    /// next incarnation (if any) counts on top. Call only after the worker
    /// thread has been joined — the arithmetic assumes no concurrent
    /// publisher.
    pub(crate) fn fold_incarnation(&self) {
        {
            let mut st = self.state.lock().expect("cell poisoned");
            let current = std::mem::take(&mut st.cache);
            st.cache_base = st.cache_base.merge(&current);
        }
        let p = self.processed.swap(0, Ordering::AcqRel);
        self.processed_base.fetch_add(p, Ordering::AcqRel);
        let hw = self.gauges.lock().expect("cell poisoned").high_water();
        self.high_water_floor.fetch_max(hw, Ordering::Relaxed);
    }

    /// Points the cell at a replacement queue's gauges (cold restart).
    pub(crate) fn set_gauges(&self, gauges: Arc<QueueGauges>) {
        *self.gauges.lock().expect("cell poisoned") = gauges;
    }

    /// Counts one granted restart (warm or cold — warmness is recorded
    /// separately by the respawned worker once its restore attempt settles).
    pub(crate) fn record_restart(&self) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Restarts granted so far (warm and cold together).
    pub fn restarts(&self) -> u32 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Worker side, on respawn: records that the incarnation restored warm
    /// from a valid checkpoint.
    pub(crate) fn record_warm_restart(&self) {
        self.warm_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Restarts that resumed warm so far.
    pub fn warm_restarts(&self) -> u32 {
        self.warm_restarts.load(Ordering::Relaxed)
    }

    /// Worker side, at boot: records a restore shipped across a process or
    /// generation boundary (spill-file warm boot or resize handoff).
    pub(crate) fn record_warm_boot(&self) {
        self.warm_boots.fetch_add(1, Ordering::Relaxed);
    }

    /// Warm boots recorded so far.
    pub fn warm_boots(&self) -> u32 {
        self.warm_boots.load(Ordering::Relaxed)
    }

    /// Sets the router generation this cell reports under (fleet build).
    pub(crate) fn set_generation(&self, generation: u32) {
        self.generation.store(generation, Ordering::Relaxed);
    }

    /// Router generation this cell reports under.
    pub fn generation(&self) -> u32 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Advances the shard's handoff phase. No order is enforced here: the
    /// callers set the phases in order ([`ShardPhase`] names them).
    pub(crate) fn set_phase(&self, phase: ShardPhase) {
        self.phase.store(phase.code(), Ordering::Relaxed);
    }

    /// The shard's current handoff phase.
    pub fn phase(&self) -> ShardPhase {
        ShardPhase::from_code(self.phase.load(Ordering::Relaxed)).unwrap_or(ShardPhase::Serving)
    }

    /// Worker side: records a stored checkpoint covering the shard's first
    /// `seq` requests.
    pub(crate) fn record_checkpoint(&self, seq: u64) {
        self.ckpt_seq.store(seq, Ordering::Release);
    }

    /// Sequence number of the latest stored checkpoint, if any.
    pub fn checkpoint_seq(&self) -> Option<u64> {
        match self.ckpt_seq.load(Ordering::Acquire) {
            u64::MAX => None,
            seq => Some(seq),
        }
    }

    /// Counts one failover promotion: a past-budget death answered by
    /// installing the hot standby's frame instead of burying the shard.
    /// Always paired with [`record_restart`](Self::record_restart) — the
    /// promoted incarnation is a (warm) restart, so `warm + cold` keeps
    /// partitioning `restarts`.
    pub(crate) fn record_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Failover promotions granted so far.
    pub fn failovers(&self) -> u32 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Worker side: records a replication feed the standby applied — the
    /// boundary it now holds and the payload bytes the envelope shipped.
    pub(crate) fn record_replica(&self, seq: u64, shipped_bytes: u64) {
        self.replica_seq.store(seq, Ordering::Release);
        self.replica_shipped_bytes.fetch_add(shipped_bytes, Ordering::Relaxed);
    }

    /// Sequence boundary the hot standby has applied, if any.
    pub fn replica_seq(&self) -> Option<u64> {
        match self.replica_seq.load(Ordering::Acquire) {
            u64::MAX => None,
            seq => Some(seq),
        }
    }

    /// Cumulative replication payload bytes shipped to the standby.
    pub fn replica_shipped_bytes(&self) -> u64 {
        self.replica_shipped_bytes.load(Ordering::Relaxed)
    }

    /// Counts one detected standby loss (poisoned or failed validation).
    pub(crate) fn record_standby_lost(&self) {
        self.standby_lost.fetch_add(1, Ordering::Relaxed);
        // The standby's applied boundary is gone with it.
        self.replica_seq.store(u64::MAX, Ordering::Release);
    }

    /// Standby losses detected so far.
    pub fn standby_lost(&self) -> u32 {
        self.standby_lost.load(Ordering::Relaxed)
    }

    /// Marks the shard permanently dead.
    pub(crate) fn mark_dead(&self) {
        self.dead.store(true, Ordering::Relaxed);
    }

    /// True once the shard has been marked permanently dead.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// Reader side: the shard's current snapshot (whole-life totals).
    pub fn snapshot(&self) -> ShardSnapshot {
        let (cache, policy) = {
            let st = self.state.lock().expect("cell poisoned");
            (st.cache_base.merge(&st.cache), st.policy)
        };
        let gauges = Arc::clone(&self.gauges.lock().expect("cell poisoned"));
        let processed_total = self.processed_total();
        let checkpoint_seq = self.checkpoint_seq();
        let journal = self.obs.journal.snapshot();
        ShardSnapshot {
            shard: self.shard,
            processed: processed_total,
            dropped: self.dropped(),
            unavailable: self.unavailable(),
            shed: self.shed(),
            shedding: self.is_shedding(),
            restarts: self.restarts(),
            warm_restarts: self.warm_restarts(),
            warm_boots: self.warm_boots(),
            router_generation: self.generation(),
            dead: self.is_dead(),
            phase: self.phase().label().to_string(),
            checkpoint_seq,
            checkpoint_age: checkpoint_seq.map_or(0, |s| processed_total.saturating_sub(s)),
            failovers: self.failovers(),
            replica_seq: self.replica_seq(),
            replica_shipped_bytes: self.replica_shipped_bytes(),
            standby_lost: self.standby_lost(),
            queue_depth: gauges.depth(),
            queue_high_water: self.high_water_floor.load(Ordering::Relaxed).max(gauges.high_water()),
            cache,
            policy: policy.map_or_else(String::new, |p| p.label()),
            latency: Some(self.obs.latency_snapshot()),
            events_dropped: journal.dropped,
            events: journal.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(shard: usize, requests: u64, hits: u64) -> ShardSnapshot {
        ShardSnapshot {
            shard,
            processed: requests,
            dropped: 0,
            unavailable: 0,
            shed: 0,
            shedding: false,
            restarts: 0,
            warm_restarts: 0,
            warm_boots: 0,
            router_generation: 0,
            dead: false,
            phase: String::new(),
            checkpoint_seq: None,
            checkpoint_age: 0,
            failovers: 0,
            replica_seq: None,
            replica_shipped_bytes: 0,
            standby_lost: 0,
            queue_depth: 0,
            queue_high_water: 0,
            cache: CacheMetrics {
                requests,
                hoc_hits: hits,
                bytes_total: requests * 10,
                ..Default::default()
            },
            policy: "f2s100".into(),
            latency: None,
            events_dropped: 0,
            events: Vec::new(),
        }
    }

    #[test]
    fn fleet_aggregates_are_counterwise_sums() {
        let fm = FleetMetrics::from_shards(vec![snap(0, 100, 40), snap(1, 300, 60)]);
        let total = fm.fleet_cache();
        assert_eq!(total.requests, 400);
        assert_eq!(total.hoc_hits, 100);
        assert!((total.hoc_ohr() - 0.25).abs() < 1e-12, "fleet OHR is hit-weighted");
        assert_eq!(fm.total_processed(), 400);
        assert_eq!(fm.total_dropped(), 0);
        assert_eq!(fm.total_unavailable(), 0);
        assert_eq!(fm.total_restarts(), 0);
        assert_eq!(fm.dead_shards(), 0);
    }

    #[test]
    fn empty_fleet_is_all_zero() {
        let fm = FleetMetrics::from_shards(Vec::new());
        assert_eq!(fm.fleet_cache(), CacheMetrics::default());
        assert_eq!(fm.max_queue_depth(), 0);
        assert_eq!(fm.max_queue_high_water(), 0);
    }

    #[test]
    fn snapshot_json_roundtrips_with_and_without_gateway() {
        let plain = FleetMetrics::from_shards(vec![snap(0, 10, 3)]);
        assert_eq!(FleetMetrics::from_json(&plain.to_json()).unwrap(), plain);

        let gw = GatewaySnapshot {
            connections_accepted: 2,
            connections_active: 1,
            idle_closed: 1,
            frames_in: 40,
            frames_rejected: 1,
            requests_in: 2_000,
            verdicts_out: 1_990,
            stats_served: 3,
            events_served: 1,
            resizes_served: 1,
            shed: 12,
            throttled: 1,
            slow_closed: 1,
            net_faults: 4,
            bytes_in: 48_000,
            bytes_out: 2_300,
        };
        let folded = FleetMetrics::from_shards(vec![snap(0, 10, 3)]).with_gateway(gw);
        let back = FleetMetrics::from_json(&folded.to_json()).unwrap();
        assert_eq!(back, folded);
        assert_eq!(back.gateway.unwrap().requests_in, 2_000);
    }

    #[test]
    fn snapshot_json_tolerates_pre_supervision_fields() {
        // Snapshots written before the supervision counters existed (older
        // bench artifacts) still parse; the new fields default to zero.
        let fm = FleetMetrics::from_shards(vec![snap(0, 10, 3)]);
        let mut json = fm.to_json();
        for gone in [
            "\"unavailable\": 0,",
            "\"restarts\": 0,",
            "\"warm_restarts\": 0,",
            "\"warm_boots\": 0,",
            "\"router_generation\": 0,",
            "\"dead\": false,",
            "\"phase\": \"\",",
            "\"checkpoint_seq\": null,",
            "\"checkpoint_age\": 0,",
            "\"failovers\": 0,",
            "\"replica_seq\": null,",
            "\"replica_shipped_bytes\": 0,",
            "\"standby_lost\": 0,",
            "\"latency\": null,",
            "\"events_dropped\": 0,",
            "\"generations\": [],",
        ] {
            assert!(json.contains(gone), "field {gone} missing from JSON");
            json = json.replacen(gone, "", 1);
        }
        let back = FleetMetrics::from_json(&json).unwrap();
        assert_eq!(back, fm, "missing fields default to zero");
    }

    #[test]
    fn warm_and_cold_restarts_partition_the_total() {
        let mut a = snap(0, 100, 40);
        a.restarts = 3;
        a.warm_restarts = 2;
        let mut b = snap(1, 100, 40);
        b.restarts = 1;
        b.warm_restarts = 0;
        assert_eq!(a.cold_restarts(), 1);
        assert_eq!(b.cold_restarts(), 1);
        let fm = FleetMetrics::from_shards(vec![a, b]);
        assert_eq!(fm.total_restarts(), 4);
        assert_eq!(fm.total_warm_restarts(), 2);
        assert_eq!(fm.total_cold_restarts(), 2);
        assert_eq!(
            fm.total_warm_restarts() + fm.total_cold_restarts(),
            fm.total_restarts(),
            "warm + cold must always equal the total"
        );
    }

    #[test]
    fn phases_advance_one_way_and_roundtrip_codes() {
        use ShardPhase::*;
        let order = [Serving, Draining, Transferring, Retired];
        for p in order {
            assert_eq!(ShardPhase::from_code(p.code()), Some(p));
        }
        assert_eq!(ShardPhase::from_code(4), None);
        // The codes rise in the one-way order, which is what a watcher of a
        // cell's phase checks its sequence against.
        assert!(order.windows(2).all(|w| w[0].code() < w[1].code()));
    }

    #[test]
    fn absorb_tracks_generation_phase_and_warm_boots() {
        // Archive of the retired generation 0 merged with the live
        // generation 1: counters sum, the phase follows the newer
        // generation, and the generation gauge takes the max.
        let mut retired = snap(0, 100, 40);
        retired.router_generation = 0;
        retired.phase = "retired".into();
        retired.warm_boots = 0;
        let mut live = snap(0, 60, 20);
        live.router_generation = 1;
        live.phase = "serving".into();
        live.warm_boots = 1;
        retired.absorb(&live);
        assert_eq!(retired.processed, 160);
        assert_eq!(retired.warm_boots, 1);
        assert_eq!(retired.router_generation, 1);
        assert_eq!(retired.phase, "serving", "live generation's phase wins");

        // Absorbing an *older* generation's archive must not regress the
        // live phase either.
        let mut live2 = snap(1, 10, 5);
        live2.router_generation = 2;
        live2.phase = "serving".into();
        let mut old = snap(1, 30, 5);
        old.router_generation = 1;
        old.phase = "retired".into();
        live2.absorb(&old);
        assert_eq!(live2.phase, "serving");
        assert_eq!(live2.router_generation, 2);
    }

    #[test]
    fn generation_summaries_merge_and_survive_json() {
        let summary = |g: u32, shards: u32, processed: u64| GenerationSummary {
            generation: g,
            shards,
            processed,
            dropped: 0,
            unavailable: 0,
            shed: 0,
            restarts: 0,
            warm_restarts: 0,
            warm_boots: shards,
        };
        let mut a = FleetMetrics::from_shards(vec![snap(0, 100, 40)]);
        a.generations.push(summary(0, 4, 50));
        let mut b = FleetMetrics::from_shards(vec![snap(1, 10, 1)]);
        b.generations.push(summary(1, 8, 50));
        b.generations.push(summary(0, 4, 50)); // duplicate: deduped, not doubled
        let merged = a.merge(b);
        assert_eq!(
            merged.generations.iter().map(|g| g.generation).collect::<Vec<_>>(),
            vec![0, 1],
            "generations dedupe by id and sort"
        );
        assert_eq!(merged.generations[1].shards, 8);
        let back = FleetMetrics::from_json(&merged.to_json()).unwrap();
        assert_eq!(back, merged);
        assert_eq!(back.router_generation(), 1);
        assert_eq!(back.total_warm_boots(), 0);
    }

    #[test]
    fn cell_reports_generation_phase_and_warm_boots() {
        let cell = ShardCell::new(2, Arc::new(QueueGauges::default()));
        assert_eq!(cell.generation(), 0);
        assert_eq!(cell.phase(), ShardPhase::Serving);
        cell.set_generation(3);
        cell.set_phase(ShardPhase::Draining);
        cell.record_warm_boot();
        let s = cell.snapshot();
        assert_eq!(s.router_generation, 3);
        assert_eq!(s.phase, "draining");
        assert_eq!(s.warm_boots, 1);
        assert_eq!(s.warm_restarts, 0, "a boot is not a restart");
        assert_eq!(s.restarts, 0);
    }

    #[test]
    fn merge_concatenates_disjoint_shard_groups() {
        let a = FleetMetrics::from_shards(vec![snap(0, 100, 40), snap(2, 50, 10)]);
        let b = FleetMetrics::from_shards(vec![snap(1, 300, 60)]);
        let merged = a.merge(b);
        assert_eq!(merged.shards.len(), 3);
        assert_eq!(merged.shards.iter().map(|s| s.shard).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(merged.total_processed(), 450);
        assert_eq!(merged.fleet_cache().requests, 450);
    }

    #[test]
    fn merge_folds_duplicate_shard_ids_counterwise() {
        // Regression: merge used to concatenate snapshots sharing a shard
        // index, so the merged list carried phantom duplicate entries while
        // every total_* accessor double-counted nothing — but per-shard
        // consumers indexing by shard id read only one of the halves.
        let mut a0 = snap(0, 100, 40);
        a0.dropped = 5;
        a0.restarts = 1;
        a0.queue_depth = 3;
        a0.queue_high_water = 7;
        let mut b0 = snap(0, 60, 20);
        b0.unavailable = 2;
        b0.warm_restarts = 0;
        b0.restarts = 2;
        b0.warm_restarts = 1;
        b0.dead = true;
        b0.checkpoint_seq = Some(50);
        b0.checkpoint_age = 10;
        b0.queue_depth = 1;
        b0.queue_high_water = 4;
        let a = FleetMetrics::from_shards(vec![a0, snap(1, 10, 1)]);
        let b = FleetMetrics::from_shards(vec![b0]);
        let merged = a.merge(b);
        assert_eq!(merged.shards.len(), 2, "shard 0 folded, never duplicated");
        let s0 = &merged.shards[0];
        assert_eq!(s0.shard, 0);
        assert_eq!(s0.processed, 160);
        assert_eq!(s0.dropped, 5);
        assert_eq!(s0.unavailable, 2);
        assert_eq!(s0.restarts, 3);
        assert_eq!(s0.warm_restarts, 1);
        assert!(s0.dead);
        assert_eq!(s0.checkpoint_seq, Some(50));
        assert_eq!(s0.checkpoint_age, 10);
        assert_eq!(s0.queue_depth, 4);
        assert_eq!(s0.queue_high_water, 7);
        assert_eq!(s0.cache.requests, 160);
        assert_eq!(s0.cache.hoc_hits, 60);
        // The conservation-law accessors equal the sums of the inputs.
        assert_eq!(merged.total_processed(), 170);
        assert_eq!(merged.total_dropped(), 5);
        assert_eq!(merged.total_unavailable(), 2);
        assert_eq!(merged.total_restarts(), 3);
        assert_eq!(merged.fleet_cache().requests, 170);
    }

    #[test]
    fn absorb_merges_journal_and_latency() {
        use darwin_obs::{EventKind, Histogram};
        let mut a = snap(0, 10, 5);
        a.events.push(Event { seq: 40, kind: EventKind::WorkerDeath });
        a.events_dropped = 2;
        let h = Histogram::new();
        h.record(1_000);
        a.latency = Some(LatencySnapshot {
            serve: h.snapshot(),
            queue_wait: Default::default(),
            ckpt_pause: Default::default(),
        });
        let mut b = snap(0, 10, 5);
        b.events.push(Event { seq: 7, kind: EventKind::RestoreCold });
        b.events_dropped = 1;
        h.record(3_000);
        b.latency = Some(LatencySnapshot {
            serve: h.snapshot(),
            queue_wait: Default::default(),
            ckpt_pause: Default::default(),
        });
        a.absorb(&b);
        assert_eq!(a.events_dropped, 3);
        assert_eq!(a.events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![7, 40]);
        assert_eq!(a.latency.as_ref().unwrap().serve.count, 3, "1 + 2 recorded samples");
    }

    #[test]
    #[should_panic(expected = "cannot absorb a different shard's snapshot")]
    fn absorb_rejects_mismatched_shard_ids() {
        let mut a = snap(0, 1, 0);
        a.absorb(&snap(1, 1, 0));
    }

    #[test]
    fn checkpoint_age_tracks_latest_checkpoint() {
        let mut a = snap(0, 5_000, 40);
        a.checkpoint_seq = Some(4_000);
        a.checkpoint_age = 1_000;
        let b = snap(1, 9_000, 60); // never checkpointed: age 0
        let fm = FleetMetrics::from_shards(vec![a, b]);
        assert_eq!(fm.max_checkpoint_age(), 1_000);
    }

    #[test]
    fn cell_records_checkpoints_and_warm_restarts() {
        let cell = ShardCell::new(0, Arc::new(QueueGauges::default()));
        assert_eq!(cell.checkpoint_seq(), None);
        assert_eq!(cell.snapshot().checkpoint_age, 0);

        cell.publish(CacheMetrics { requests: 1_500, ..Default::default() }, 1_500);
        cell.record_checkpoint(1_000);
        let s = cell.snapshot();
        assert_eq!(s.checkpoint_seq, Some(1_000));
        assert_eq!(s.checkpoint_age, 500);

        cell.record_restart();
        cell.record_warm_restart();
        let s = cell.snapshot();
        assert_eq!(s.restarts, 1);
        assert_eq!(s.warm_restarts, 1);
        assert_eq!(s.cold_restarts(), 0);
    }

    #[test]
    fn cell_tracks_replication_and_failovers() {
        let cell = ShardCell::new(1, Arc::new(QueueGauges::default()));
        assert_eq!(cell.replica_seq(), None);
        cell.record_replica(1_000, 4_096);
        cell.record_replica(2_000, 128);
        let s = cell.snapshot();
        assert_eq!(s.replica_seq, Some(2_000));
        assert_eq!(s.replica_shipped_bytes, 4_224);
        assert_eq!(s.failovers, 0);
        // A detected loss clears the applied boundary but keeps the ledger.
        cell.record_standby_lost();
        let s = cell.snapshot();
        assert_eq!(s.replica_seq, None);
        assert_eq!(s.standby_lost, 1);
        assert_eq!(s.replica_shipped_bytes, 4_224);
        // A failover is a (warm) restart plus the failover count.
        cell.record_restart();
        cell.record_failover();
        let s = cell.snapshot();
        assert_eq!(s.failovers, 1);
        assert_eq!(s.restarts, 1);
        let fm = FleetMetrics::from_shards(vec![s]);
        assert_eq!(fm.total_failovers(), 1);
        assert_eq!(fm.total_standby_lost(), 1);
        assert_eq!(fm.total_replica_shipped_bytes(), 4_224);
    }

    #[test]
    fn handle_snapshots_are_nonblocking_views_of_cells() {
        let cell = Arc::new(ShardCell::new(0, Arc::new(QueueGauges::default())));
        let handle = MetricsHandle::new(vec![Arc::clone(&cell)]);
        assert_eq!(handle.shards(), 1);
        assert_eq!(handle.snapshot().total_processed(), 0);
        cell.publish(CacheMetrics { requests: 9, ..Default::default() }, 9);
        let snap = handle.snapshot();
        assert_eq!(snap.total_processed(), 9);
        assert!(snap.gateway.is_none());
    }

    #[test]
    fn cell_roundtrips_published_state() {
        let cell = ShardCell::new(3, Arc::new(QueueGauges::default()));
        let m = CacheMetrics { requests: 7, hoc_hits: 2, ..Default::default() };
        cell.publish(m, 7);
        cell.publish_policy(ThresholdPolicy::new(1, 50 * 1024));
        cell.add_dropped(5);
        cell.add_unavailable(2);
        let s = cell.snapshot();
        assert_eq!(s.shard, 3);
        assert_eq!(s.processed, 7);
        assert_eq!(s.dropped, 5);
        assert_eq!(s.unavailable, 2);
        assert_eq!(s.cache, m);
        assert_eq!(s.policy, "f1s50");
        assert!(!s.dead);
    }

    #[test]
    fn fold_incarnation_accumulates_across_restarts() {
        let cell = ShardCell::new(0, Arc::new(QueueGauges::default()));
        let m1 = CacheMetrics { requests: 100, hoc_hits: 30, ..Default::default() };
        cell.publish(m1, 100);
        cell.fold_incarnation();
        cell.record_restart();

        // Fresh incarnation counts from zero; readers see the sum.
        let m2 = CacheMetrics { requests: 40, hoc_hits: 10, ..Default::default() };
        cell.publish(m2, 40);
        let s = cell.snapshot();
        assert_eq!(s.processed, 140);
        assert_eq!(s.cache.requests, 140);
        assert_eq!(s.cache.hoc_hits, 40);
        assert_eq!(s.restarts, 1);
        assert!(!s.dead);

        // Second death exhausts the (hypothetical) budget.
        cell.fold_incarnation();
        cell.mark_dead();
        let s = cell.snapshot();
        assert_eq!(s.processed, 140);
        assert!(s.dead);
        assert_eq!(cell.processed_total(), 140);
    }
}
