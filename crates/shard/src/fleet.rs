//! The sharded fleet: N cache servers on N worker threads, supervised.
//!
//! [`ShardedFleet`] hash-partitions the object space across `shards`
//! independent [`CacheServer`]s, each owned by a dedicated worker thread and
//! each driven by its *own* [`AdmissionDriver`] — with [`DarwinDriver`]
//! drivers this is one Darwin controller per shard, learning that shard's
//! sub-workload (the paper's per-server deployment model, §5).
//!
//! # Ingest pipeline
//!
//! Requests reach a shard through a two-stage pipeline: a [`FleetProducer`]
//! *stages* envelopes into per-shard runs, then *delivers* each run with a
//! single [`push_batch`](crate::queue::Producer::push_batch) onto the
//! shard's SPSC ring — one index publication and one gauge update per run,
//! however many requests it carries. Every ingest front is a producer: the
//! fleet's own single-submitter API ([`ShardedFleet::submit`] /
//! [`submit_trace`](ShardedFleet::submit_trace)) drives one it owns, and
//! [`FleetIngest`] mints one per gateway connection. Producers stage and
//! flush independently; delivery into any one shard is serialized by that
//! shard's *lane* lock, so N connections contend per shard instead of
//! through one global router loop.
//!
//! # Determinism contract
//!
//! The router is a pure function of `(id, shards)`, so shard `s` sees
//! exactly the subsequence of the submitted stream whose IDs route to `s`,
//! *in submission order* — the SPSC queue preserves order and nothing else
//! touches the shard's state. Thread scheduling can change timing but never
//! ordering, so under [`Backpressure::Block`] a fleet replay is bitwise
//! identical (metrics, deployed-expert sequence, final cache occupancy) to
//! running each shard's filtered trace sequentially. `replay.rs` exposes
//! both sides of this equation and `tests/equivalence.rs` enforces it.
//! Multi-producer ingest keeps the per-shard FIFO *within* each producer
//! (each flush is one atomic run); the interleaving *between* producers is
//! scheduling-dependent, exactly as concurrent connections always were.
//!
//! # Supervision
//!
//! A shard worker that panics — organically (a bug in a driver or the
//! server) or on a scripted [`FaultPlan`] event — no longer takes the fleet
//! down. The fleet detects the death at the next delivery to that shard
//! (a failed push on the Block path, a closed-consumer probe on the
//! DropNewest path) and consults the shard's [`Supervisor`]:
//!
//! * **Within the [`RestartBudget`]** the worker is cold-restarted: fresh
//!   `CacheServer`, fresh driver from the factory, fresh queue. Learned
//!   state is gone and the shard re-warms — exactly what a production cache
//!   node does after a crash. The restart is counted in [`FleetMetrics`].
//! * **Beyond the budget** the shard is permanently dead: every later
//!   request routed to it is answered immediately via
//!   [`Envelope::unavailable`] (degraded mode) instead of queueing into a
//!   crash loop.
//! * **With a hot standby** ([`FleetConfig::replicas`] > 0) a past-budget
//!   death *promotes* instead of burying: the standby's last applied
//!   checkpoint frame is installed as the newest restore candidate and the
//!   worker warm-restarts from it, so the shard keeps serving and nothing
//!   is answered `Unavailable`. A lost standby (a scripted
//!   [`FaultKind::CorruptStandby`], or a feed that failed validation) falls
//!   back to burial — detected and journaled, never silent.
//!
//! Requests in flight at the moment of death (queued, or popped but not yet
//! completed) are answered `Dropped` through their envelope `Drop` impls and
//! counted, so the conservation law **submitted = processed + dropped +
//! unavailable** holds exactly over any run, faulty or not (`tests/chaos.rs`
//! proptests it). Scripted panics are additionally
//! *synchronized* in the lane, whichever front delivers: a run is pushed
//! only up to the fatal request, and the lane joins the doomed worker
//! before it hands the shard anything more. That pins the processed /
//! dropped / restart boundary — the fatal request is the only loss — and
//! makes chaos runs under `Block` reproducible bit-for-bit.
//! [`finish`](ShardedFleet::finish) never panics on a dead shard — it
//! reports per-shard `restarts` / `dead` flags instead.
//!
//! Worker threads wrap their serving loop in
//! [`darwin_parallel::inline_sweeps`], so a per-shard Darwin controller that
//! sweeps experts at an epoch boundary runs those sweeps inline instead of
//! stacking `DARWIN_THREADS`-wide pools `shards` times over.
//!
//! [`DarwinDriver`]: darwin_testbed::DarwinDriver

use crate::ckpt::{CheckpointSlot, ShardCheckpoint, Spiller};
use crate::fault::{FaultKind, FaultPlan, ShardFaultCursor};
use crate::metrics::{FleetMetrics, MetricsHandle, ShardCell, ShardPhase};
use crate::queue::{channel, Consumer, Producer, QueueGauges};
use crate::router::Router;
use crate::standby::{FeedOutcome, StandbySlot};
use crate::supervisor::{RestartBudget, Supervisor, SupervisorVerdict};
use darwin_cache::{CacheConfig, CacheMetrics, CacheServer, RequestOutcome};
use darwin_ckpt::rows::Changes;
use darwin_obs::{EventKind, SwitchCostTracker};
use darwin_testbed::{AdmissionDriver, ControlEvent};
use darwin_trace::{Request, Trace};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// What one request's trip through its shard produced: where it was served
/// from and whether the admission policy promoted it into the HOC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Shard that served the request.
    pub shard: usize,
    /// Where the request was served from.
    pub outcome: RequestOutcome,
    /// True if this request's object was written into the HOC (the expert's
    /// admission decision fired).
    pub admitted: bool,
}

/// A queue item: a request plus whatever completion state rides along with
/// it through the shard queue.
///
/// The fleet routes on [`Envelope::request`] and, once the shard worker has
/// processed the request, hands the envelope its [`Verdict`] via
/// [`Envelope::complete`]. A plain [`Request`] is the trivial envelope
/// (completion is a no-op) — in-process replay uses that; the network
/// gateway wraps requests in envelopes that deliver the verdict back to the
/// originating connection.
///
/// Implementations that must report *something* even when the envelope never
/// reaches a worker (dropped under [`Backpressure::DropNewest`], stranded by
/// a worker crash) should do so in their `Drop` impl: the queue simply drops
/// shed envelopes.
pub trait Envelope: Send + 'static {
    /// The request to route and process.
    fn request(&self) -> &Request;
    /// Called on the shard worker thread after the request was processed.
    fn complete(self, verdict: Verdict);
    /// Called on the submitting thread when the request's shard is
    /// permanently dead (degraded mode): the request will never be
    /// processed. The default just drops the envelope — override to report
    /// a distinct `Unavailable` answer (the gateway does).
    fn unavailable(self)
    where
        Self: Sized,
    {
        drop(self);
    }
    /// Called on the submitting thread when the request was shed under
    /// overload control (its shard's queue was over the watermark): the
    /// request will not be processed now, but the client may retry after a
    /// backoff keyed to `retry_after` (0–7, larger means more overloaded).
    /// The default just drops the envelope — override to report a distinct
    /// `Busy` answer (the gateway does).
    fn shed(self, retry_after: u8)
    where
        Self: Sized,
    {
        let _ = retry_after;
        drop(self);
    }
}

impl Envelope for Request {
    fn request(&self) -> &Request {
        self
    }
    fn complete(self, _verdict: Verdict) {}
}

/// What happens when a shard's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backpressure {
    /// Submission blocks until the shard drains (lossless — required for the
    /// determinism/replay contract).
    Block,
    /// The overflow is dropped and counted (load shedding, as a production
    /// front-end under overload would do).
    DropNewest,
}

/// Fleet parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of shards (= worker threads = cache servers = controllers).
    pub shards: usize,
    /// Per-shard queue capacity, in requests.
    pub queue_capacity: usize,
    /// Submission/drain batch size (bounds a staged per-shard run; one queue
    /// operation publishes the whole run).
    pub batch: usize,
    /// Full-queue behaviour.
    pub backpressure: Backpressure,
    /// Record a [`FleetMetrics`] snapshot every this many submitted requests
    /// (`None` disables periodic snapshots; a final one is always taken).
    pub snapshot_every: Option<u64>,
    /// Restart budget enforced per shard by its [`Supervisor`].
    #[serde(default)]
    pub restart_budget: RestartBudget,
    /// Take a warm-restart checkpoint of each shard every this many
    /// per-shard requests (`None` disables checkpointing; every restart is
    /// then cold). Boundaries are request-sequence numbers, never wall
    /// clock, so checkpoint contents are deterministic.
    #[serde(default)]
    pub checkpoint_every: Option<u64>,
    /// Queue-depth watermark for overload shedding (`None` disables it).
    /// While a shard's queue depth is at or above the watermark, every
    /// ingest front answers that shard's requests `Busy` (via
    /// [`Envelope::shed`]) instead of delivering them; shedding stops once
    /// the queue drains to half the watermark (hysteresis). Shed requests
    /// count as both `submitted` and `shed`, extending the conservation
    /// ledger to `processed + dropped + unavailable + shed == submitted`.
    #[serde(default)]
    pub shed_watermark: Option<usize>,
    /// Hot standbys per shard (0 disables replication; any nonzero value
    /// runs one in-process [`StandbySlot`] per shard). The primary feeds the
    /// standby at every checkpoint cut ([`FleetConfig::checkpoint_every`]
    /// must be set for the standby to ever seed), and a shard whose restart
    /// budget is exhausted *promotes* the standby's last applied frame
    /// instead of being buried — the shard keeps serving and answers nothing
    /// `Unavailable`.
    #[serde(default)]
    pub replicas: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 4096,
            batch: 256,
            backpressure: Backpressure::Block,
            snapshot_every: None,
            restart_budget: RestartBudget::default(),
            checkpoint_every: None,
            shed_watermark: None,
            replicas: 0,
        }
    }
}

impl FleetConfig {
    /// A fleet of `shards` shards with the remaining defaults.
    pub fn with_shards(shards: usize) -> Self {
        Self { shards, ..Self::default() }
    }
}

/// How a fleet comes up: cold (the historical default), warm from each
/// shard's spill file in `checkpoint_dir` (cross-process warm boot), or warm
/// from explicit per-shard seed frames (an elastic-resize handoff).
///
/// Warm boots are *validated per shard*: a seed or spill frame that fails
/// CRC/decode/shard-index checks makes exactly that shard boot detected-cold
/// (its spill file is then cleared) while the rest of the fleet boots warm.
/// A shard's spill file is never removed before its restore attempt
/// resolves.
#[derive(Debug, Clone, Default)]
pub struct FleetBoot {
    /// Spill directory for checkpoint frames (created if missing). With
    /// `warm_boot` unset, stale spill files for this fleet's shards are
    /// cleared up front — the historical cold-boot semantics deterministic
    /// reruns rely on.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Attempt to restore each shard at startup instead of clearing the
    /// spill directory.
    pub warm_boot: bool,
    /// Per-shard seed frames ([`ShardCheckpoint::to_frame`] bytes), indexed
    /// by shard; `None` entries (or a short vector) leave the shard to its
    /// spill file or a cold start. Only read when `warm_boot` is set.
    pub seeds: Vec<Option<Vec<u8>>>,
    /// Router generation the fleet serves under (0 is the boot generation;
    /// the elastic rebalancer increments it per resize).
    pub generation: u32,
    /// True when the seeds came from a live in-process resize handoff
    /// rather than a process restart — selects the journal flavour of
    /// [`EventKind::HandoffRestore`], and makes missing seeds boot cold
    /// instead of falling back to (stale, pre-resize) spill files.
    pub handoff: bool,
}

impl FleetBoot {
    /// Warm boot from `dir`'s spill files (the gateway's `--checkpoint-dir`
    /// default).
    pub fn warm_from(dir: std::path::PathBuf) -> Self {
        Self { checkpoint_dir: Some(dir), warm_boot: true, ..Self::default() }
    }
}

/// Everything one shard produced, returned by [`ShardedFleet::finish`]. The
/// driver comes back too, so callers can pull switch histories out of
/// per-shard Darwin controllers.
#[derive(Debug)]
pub struct ShardOutcome<D> {
    /// Shard index.
    pub shard: usize,
    /// Final cumulative cache metrics, summed over every incarnation of the
    /// shard's server (restarts start from a cold cache but keep counting).
    pub cache: CacheMetrics,
    /// Requests the worker(s) fully processed, across incarnations.
    pub processed: u64,
    /// Requests dropped: shed at the queue under
    /// [`Backpressure::DropNewest`], or in flight when a worker died.
    pub dropped: u64,
    /// Requests answered `Unavailable` because the shard was permanently
    /// dead when they were submitted.
    pub unavailable: u64,
    /// Requests answered `Busy` because the shard's queue was over its shed
    /// watermark when they were submitted (overload control).
    pub shed: u64,
    /// Restarts the supervisor granted this shard (warm and cold together).
    pub restarts: u32,
    /// Restarts that resumed warm from a valid checkpoint.
    pub warm_restarts: u32,
    /// Past-budget deaths answered by promoting the hot standby's frame
    /// instead of burying the shard (each is also counted in `restarts` and
    /// `warm_restarts`: the promoted worker restores warm).
    pub failovers: u32,
    /// True if the shard's worker was dead when the fleet finished (restart
    /// budget exhausted, or a terminal panic at end-of-stream).
    pub dead: bool,
    /// Queue high-water mark over the run (max across incarnations).
    pub queue_high_water: usize,
    /// Final HOC occupancy, bytes (0 for a dead shard — the server was lost
    /// in the crash).
    pub hoc_used_bytes: u64,
    /// Final DC occupancy, bytes (0 for a dead shard).
    pub dc_used_bytes: u64,
    /// The shard's admission driver, returned for post-mortem inspection.
    /// `None` for a dead shard: the driver unwound with the worker.
    pub driver: Option<D>,
}

/// Result of a completed fleet run.
#[derive(Debug)]
pub struct FleetReport<D> {
    /// Per-shard outcomes, indexed by shard.
    pub shards: Vec<ShardOutcome<D>>,
    /// Periodic snapshots ([`FleetConfig::snapshot_every`]) plus a final one.
    pub snapshots: Vec<FleetMetrics>,
    /// Label of the router that partitioned the stream.
    pub router: String,
}

impl<D> FleetReport<D> {
    /// Fleet-wide cache metrics (counter-wise sum over shards).
    pub fn fleet_cache(&self) -> CacheMetrics {
        CacheMetrics::merge_all(self.shards.iter().map(|s| &s.cache))
    }

    /// Requests processed across the fleet.
    pub fn total_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed).sum()
    }

    /// Requests dropped across the fleet.
    pub fn total_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped).sum()
    }

    /// Requests answered `Unavailable` across the fleet.
    pub fn total_unavailable(&self) -> u64 {
        self.shards.iter().map(|s| s.unavailable).sum()
    }

    /// Requests shed `Busy` at shard watermarks across the fleet.
    pub fn total_shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed).sum()
    }

    /// Restarts granted across the fleet (warm and cold together).
    pub fn total_restarts(&self) -> u32 {
        self.shards.iter().map(|s| s.restarts).sum()
    }

    /// Restarts that resumed warm from a checkpoint, across the fleet.
    pub fn total_warm_restarts(&self) -> u32 {
        self.shards.iter().map(|s| s.warm_restarts).sum()
    }

    /// Standby promotions (failovers) across the fleet.
    pub fn total_failovers(&self) -> u32 {
        self.shards.iter().map(|s| s.failovers).sum()
    }

    /// Restarts that fell back cold, across the fleet.
    pub fn total_cold_restarts(&self) -> u32 {
        self.shards.iter().map(|s| s.restarts.saturating_sub(s.warm_restarts)).sum()
    }

    /// Shards that were dead at finish.
    pub fn dead_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.dead).count()
    }
}

struct WorkerResult<D> {
    hoc_used_bytes: u64,
    dc_used_bytes: u64,
    driver: D,
}

/// How a shard worker thread ended. Workers catch their own unwinds, so
/// `JoinHandle::join` always succeeds and the fleet inspects this instead.
enum WorkerExit<D> {
    /// Clean end-of-stream exit.
    Completed(WorkerResult<D>),
    /// The worker panicked; server and driver unwound with it. In-flight
    /// envelopes were released (their `Drop` impls filed verdicts) by the
    /// consumer endpoint's destructor.
    Panicked,
}

/// The mutable half of one shard's ingest lane. Every delivery into the
/// shard — from any [`FleetProducer`], the fleet's own included — happens
/// under this lock, which is what serializes producers per shard (instead
/// of per fleet) and makes death settlement race-free.
struct LaneState<D, E> {
    /// `None` once the shard is dead (burying drops the producer).
    producer: Option<Producer<E>>,
    /// The current incarnation's worker, `None` once buried.
    handle: Option<JoinHandle<WorkerExit<D>>>,
    supervisor: Supervisor,
    /// Envelopes handed into this lane across all producers and
    /// incarnations (delivered to the queue or shed at it) — the per-shard
    /// request index of the *next* delivery, the shard-side term of the
    /// conservation arithmetic and the supervisor's restart clock.
    delivered: u64,
    /// The shard's scripted `Panic` indices not yet settled, ascending. One
    /// below `delivered` means the current incarnation already holds its
    /// fatal request and dies on it.
    panics: VecDeque<u64>,
}

/// One shard's runtime state inside the core.
struct ShardState<D, E> {
    lane: Mutex<LaneState<D, E>>,
    cell: Arc<ShardCell>,
    /// The shard's checkpoint mailbox (allocated even when checkpointing is
    /// off: an empty slot just makes every restart cold).
    slot: Arc<CheckpointSlot>,
    /// The shard's hot standby ([`FleetConfig::replicas`] > 0), fed by the
    /// worker at every checkpoint cut and consulted at death settlement.
    standby: Option<Arc<StandbySlot>>,
}

/// The shared heart of a fleet: configuration, router, per-shard lanes.
/// [`ShardedFleet`] owns one behind an `Arc`; every [`FleetProducer`] holds
/// the same `Arc` and delivers through the lane locks.
struct FleetCore<D, E> {
    cfg: FleetConfig,
    cache: CacheConfig,
    router: Arc<dyn Router>,
    /// Builds shard drivers; behind a lock because respawns may be triggered
    /// from any producer's thread.
    factory: Mutex<Box<dyn FnMut(usize) -> D + Send>>,
    fault: FaultPlan,
    /// True when initial incarnations should attempt a restore (warm boot
    /// or resize handoff) instead of starting cold.
    warm_boot: bool,
    /// Journal flavour of a boot restore: handoff (in-process resize) vs
    /// warm boot (cross-process spill).
    boot_handoff: bool,
    /// Target shard count of a requested drain-for-handoff final cut;
    /// `u64::MAX` means no cut was requested. Workers read it at
    /// end-of-stream and cut a final [`ShardCheckpoint`] at the exact drain
    /// boundary when set.
    cut_target: Arc<AtomicU64>,
    /// Writes the shards' checkpoint spill files off their workers' threads
    /// (`None` without a checkpoint directory). Joined by `finish` — and on
    /// drop — so every cut's file is in place once the fleet is gone.
    spiller: Option<Spiller>,
    shards: Vec<ShardState<D, E>>,
}

impl<D: AdmissionDriver + Send + 'static, E: Envelope> FleetCore<D, E> {
    /// Delivers a staged run into shard `s`'s queue with one `push_batch` —
    /// or, when the run holds the shard's next scripted panic, pushes it only
    /// up to and including that fatal request. The death is settled before
    /// the lane hands the shard anything more, so the rest of the run goes to
    /// the next incarnation (or is answered `Unavailable` once the shard is
    /// buried) and the fatal request is the only loss, whichever front
    /// delivers. A death on a shard's last request is left to
    /// [`ShardedFleet::finish`]: nothing is left to serve.
    fn deliver(&self, s: usize, batch: &mut Vec<E>) {
        let shard = &self.shards[s];
        let mut lane = shard.lane.lock().expect("shard lane poisoned");
        while !batch.is_empty() {
            // The incarnation already holds its fatal request: settle the
            // death before the shard gets anything more.
            if lane.panics.front().is_some_and(|&p| p < lane.delivered) {
                self.settle(s, &mut lane);
            }
            if lane.producer.is_none() {
                // Buried shard: the tail of a run whose fatal request buried
                // it, or a producer's flush that raced the burial. Answer it
                // Unavailable, as a post-burial submission would have been.
                shard.cell.add_unavailable(batch.len() as u64);
                for env in batch.drain(..) {
                    env.unavailable();
                }
                return;
            }
            // A run holding the next fatal request stops after it.
            let mut rest = match lane.panics.front() {
                Some(&p) if p - lane.delivered < batch.len() as u64 => {
                    batch.split_off((p - lane.delivered + 1) as usize)
                }
                _ => Vec::new(),
            };
            lane.delivered += batch.len() as u64;
            let producer = lane.producer.as_ref().expect("checked above");
            let died = match self.cfg.backpressure {
                Backpressure::Block => {
                    // `push_batch` destroys-and-counts the remainder if the
                    // consumer vanished mid-delivery; a nonzero return is the
                    // Block path's death signal.
                    let wait = Instant::now();
                    let died = producer.push_batch(batch) > 0;
                    shard.cell.obs().queue_wait.record_duration(wait.elapsed());
                    died
                }
                Backpressure::DropNewest => {
                    let shed = producer.try_push_batch(batch);
                    shard.cell.add_dropped(shed as u64);
                    producer.is_closed()
                }
            };
            if died {
                self.settle(s, &mut lane);
            }
            batch.append(&mut rest);
        }
    }

    /// Joins a dead (or doomed) worker, settles the accounting, and asks the
    /// shard's supervisor for a restart or a burial. Caller holds the lane.
    fn settle(&self, s: usize, lane: &mut LaneState<D, E>) {
        let shard = &self.shards[s];
        // Hang up first so a worker stalled in a scripted QueueFull wait (or
        // a doomed-but-alive worker draining toward its scripted panic)
        // observes end-of-stream and terminates.
        lane.producer = None;
        let handle = lane.handle.take().expect("dying shard had no worker");
        let exit = handle.join().unwrap_or(WorkerExit::Panicked);
        // `Completed` here means the worker won a race against the death
        // signal (possible only under DropNewest shedding of a scripted
        // fatal request); treat it as the scripted death it stands in for.
        drop(exit);
        let cell = &shard.cell;
        // Every envelope handed into the lane ends processed, counted
        // dropped (queue shedding), or destroyed unanswered in the crash —
        // its Drop impl answered the client. The difference is exactly that
        // unanswered in-flight tail; count it so the conservation law holds.
        let answered = cell.processed_total() + cell.dropped();
        cell.add_dropped(lane.delivered.saturating_sub(answered));
        cell.fold_incarnation();
        // Scripted deaths the incarnation never reached fell in its dropped
        // tail; the next one starts at `delivered`.
        while lane.panics.front().is_some_and(|&p| p < lane.delivered) {
            lane.panics.pop_front();
        }
        // Journal stamps use the shard's processed count — deterministic
        // under Block (scripted panics are lane-synchronized).
        let seq = cell.processed_total();
        let budget_max = lane.supervisor.budget().max_restarts;
        cell.obs().journal.record(seq, EventKind::WorkerDeath);
        let standby_ready = shard.standby.as_ref().is_some_and(|st| st.ready());
        match lane.supervisor.on_worker_death_with_standby(lane.delivered, standby_ready) {
            SupervisorVerdict::Respawn => {
                cell.record_restart();
                cell.obs().journal.record(
                    seq,
                    EventKind::RestartGranted { restarts_used: lane.supervisor.restarts(), budget_max },
                );
                self.spawn(s, lane, lane.delivered, true);
            }
            SupervisorVerdict::Promote => {
                match shard.standby.as_ref().and_then(|st| st.take_for_promotion()) {
                    Some((frame, checkpoint_seq)) => {
                        // Install the standby's frame as the newest restore
                        // candidate (`store` flips it active, so the
                        // promoted frame wins even after a scripted
                        // corruption damaged every prior candidate, and the
                        // spill file follows), then warm-restart
                        // through the same validated restore path every
                        // respawn uses — which is what makes a promoted
                        // shard bitwise-identical to an unfailed run from
                        // the checkpoint boundary.
                        shard.slot.store(frame);
                        cell.record_restart();
                        cell.record_failover();
                        cell.obs().journal.record(
                            seq,
                            EventKind::Failover {
                                checkpoint_seq,
                                restarts_used: lane.supervisor.restarts(),
                                budget_max,
                            },
                        );
                        self.spawn(s, lane, lane.delivered, true);
                    }
                    None => {
                        // The standby was lost between the readiness check
                        // and the take: bury exactly as an unreplicated
                        // fleet would.
                        cell.obs().journal.record(
                            seq,
                            EventKind::RestartDenied {
                                restarts_used: lane.supervisor.restarts(),
                                budget_max,
                            },
                        );
                        cell.mark_dead();
                    }
                }
            }
            SupervisorVerdict::Bury => {
                cell.obs().journal.record(
                    seq,
                    EventKind::RestartDenied { restarts_used: lane.supervisor.restarts(), budget_max },
                );
                cell.mark_dead();
            }
        }
    }

    /// Spawns shard `s`'s worker whose first request has per-shard index
    /// `from` (0 for the initial incarnation). A `respawn`ed worker first
    /// tries to restore the shard's latest checkpoint (warm restart); the
    /// initial incarnation always starts cold. Caller holds the lane.
    fn spawn(&self, s: usize, lane: &mut LaneState<D, E>, from: u64, respawn: bool) {
        let shard = &self.shards[s];
        let (tx, rx) = channel::<E>(self.cfg.queue_capacity);
        shard.cell.set_gauges(tx.gauges());
        let driver = {
            let mut factory = self.factory.lock().expect("driver factory poisoned");
            (*factory)(s)
        };
        let ctx = WorkerCtx {
            shard: s,
            rx,
            cell: Arc::clone(&shard.cell),
            cache: self.cache.clone(),
            driver,
            batch: self.cfg.batch,
            start: from,
            faults: ShardFaultCursor::for_shard(&self.fault, s, from),
            slot: Arc::clone(&shard.slot),
            checkpoint_every: self.cfg.checkpoint_every,
            respawn,
            boot: !respawn && self.warm_boot,
            boot_handoff: self.boot_handoff,
            cut_target: Arc::clone(&self.cut_target),
            standby: shard.standby.as_ref().map(Arc::clone),
            generation: shard.cell.generation(),
            budget_restarts: lane.supervisor.restarts(),
            budget_marks: lane.supervisor.marks(),
        };
        let handle = std::thread::Builder::new()
            .name(format!("shard-{s}"))
            .spawn(move || worker(ctx))
            .expect("spawn shard worker");
        lane.producer = Some(tx);
        lane.handle = Some(handle);
    }
}

/// A running fleet. Submit requests (or any [`Envelope`] around them), then
/// [`finish`](Self::finish) to join the workers and collect the report.
pub struct ShardedFleet<D: AdmissionDriver + Send + 'static, E: Envelope = Request> {
    core: Arc<FleetCore<D, E>>,
    /// The fleet's own ingest front, a producer like any other.
    producer: FleetProducer<D, E>,
    submitted: u64,
    snapshots: Vec<FleetMetrics>,
}

impl<D: AdmissionDriver + Send + 'static, E: Envelope> ShardedFleet<D, E> {
    /// Spawns the fleet: one worker thread, cache server, queue and driver
    /// per shard. `factory(s)` builds shard `s`'s driver — it is retained
    /// so the supervisor can build fresh drivers for cold restarts.
    pub fn new(
        cfg: FleetConfig,
        cache: CacheConfig,
        router: Box<dyn Router>,
        factory: impl FnMut(usize) -> D + Send + 'static,
    ) -> Self {
        Self::with_fault_plan(cfg, cache, router, factory, FaultPlan::default())
    }

    /// [`new`](Self::new) plus a scripted [`FaultPlan`] threaded into the
    /// shard workers. The empty plan is the identity: it leaves the fleet
    /// bitwise identical to one built without a plan. Intended for chaos
    /// tests and benches; production paths pass no plan.
    pub fn with_fault_plan(
        cfg: FleetConfig,
        cache: CacheConfig,
        router: Box<dyn Router>,
        factory: impl FnMut(usize) -> D + Send + 'static,
        fault: FaultPlan,
    ) -> Self {
        Self::with_boot(cfg, cache, router, factory, fault, FleetBoot::default())
    }

    /// The full-control constructor: [`with_fault_plan`](Self::with_fault_plan)
    /// plus the spill directory and warm-boot/handoff behaviour described on
    /// [`FleetBoot`]. With a `boot.checkpoint_dir`, each shard's latest
    /// checkpoint frame is also written to `dir/shard-{s}.ckpt` (temp-file +
    /// atomic rename), and stale spill files for this fleet's shards are
    /// removed up front unless `boot.warm_boot` is set, so a reused directory
    /// never resurrects a previous run's state. With `boot.warm_boot` set,
    /// each shard's initial incarnation attempts a restore — from its
    /// validated seed frame if one is given, else from its spill file — and
    /// falls back detected-cold per shard on any validation failure.
    pub fn with_boot(
        cfg: FleetConfig,
        cache: CacheConfig,
        router: Box<dyn Router>,
        factory: impl FnMut(usize) -> D + Send + 'static,
        fault: FaultPlan,
        boot: FleetBoot,
    ) -> Self {
        assert!(cfg.shards > 0, "fleet needs at least one shard");
        assert!(cfg.batch > 0, "batch size must be positive");
        let (spiller, slots) = match &boot.checkpoint_dir {
            Some(dir) => {
                let _ = std::fs::create_dir_all(dir);
                let (spiller, slots) = Spiller::start(cfg.shards, dir);
                if !boot.warm_boot {
                    slots.iter().for_each(|slot| slot.clear_disk());
                }
                (Some(spiller), slots)
            }
            None => (None, (0..cfg.shards).map(|s| Arc::new(CheckpointSlot::new(s, None))).collect()),
        };
        let panics = fault.panic_indices(cfg.shards);
        let core = Arc::new(FleetCore {
            cache,
            router: Arc::from(router),
            factory: Mutex::new(Box::new(factory)),
            fault,
            warm_boot: boot.warm_boot,
            boot_handoff: boot.handoff,
            cut_target: Arc::new(AtomicU64::new(u64::MAX)),
            spiller,
            shards: slots
                .into_iter()
                .zip(panics)
                .enumerate()
                .map(|(s, (slot, panics))| ShardState {
                    lane: Mutex::new(LaneState {
                        producer: None,
                        handle: None,
                        supervisor: Supervisor::new(cfg.restart_budget),
                        delivered: 0,
                        panics: panics.into(),
                    }),
                    cell: Arc::new(ShardCell::new(s, Arc::new(QueueGauges::default()))),
                    slot,
                    standby: (cfg.replicas > 0).then(|| Arc::new(StandbySlot::new(s))),
                })
                .collect(),
            cfg,
        });
        if boot.warm_boot {
            for (s, shard) in core.shards.iter().enumerate() {
                match boot.seeds.get(s).and_then(|o| o.as_ref()) {
                    // The worker's restore attempt is the one validator: a
                    // seed that does not decode as this shard's checkpoint
                    // is refused there, journaled `RestoreCold` and its
                    // spill cleared — never silently mis-restored.
                    Some(frame) => drop(shard.slot.store(frame.clone())),
                    // A handoff boot with no seed for this shard must come
                    // up cold: any spill file on disk predates the resize.
                    None if boot.handoff => shard.slot.clear_disk(),
                    // Process warm boot: the spill file itself is the seed;
                    // the worker validates it during its restore attempt.
                    None => {}
                }
            }
        }
        for (s, shard) in core.shards.iter().enumerate() {
            shard.cell.set_generation(boot.generation);
            let mut lane = shard.lane.lock().expect("shard lane poisoned");
            if boot.warm_boot {
                // Reconstitute the supervisor's budget state from the frame
                // the shard is about to restore, so a crash-looping shard
                // cannot launder its restart history through a warm boot.
                // The marks' request clock restarted at 0; `with_state`
                // keeps them conservatively until they age out of the new
                // clock's window.
                let carried = shard.slot.candidates().find_map(|frame| {
                    ShardCheckpoint::from_frame(&frame)
                        .ok()
                        .filter(|c| c.shard == s)
                        .map(|c| (c.restarts, c.budget_marks))
                });
                if let Some((restarts, marks)) = carried {
                    lane.supervisor = Supervisor::with_state(core.cfg.restart_budget, restarts, &marks);
                }
            }
            core.spawn(s, &mut lane, 0, false);
        }
        Self {
            producer: FleetProducer::new(Arc::clone(&core)),
            core,
            submitted: 0,
            snapshots: Vec::new(),
        }
    }

    /// Routes one envelope to its shard through the fleet's own
    /// [`FleetProducer`]. Under [`Backpressure::Block`] this may block when
    /// the shard's queue is full. Requests routed to a dead shard are
    /// answered via [`Envelope::unavailable`], and requests routed to a shard
    /// over its [`FleetConfig::shed_watermark`] via [`Envelope::shed`].
    pub fn submit(&mut self, env: E) {
        self.producer.submit(env);
        self.submitted += 1;
        if let Some(every) = self.core.cfg.snapshot_every {
            if self.submitted.is_multiple_of(every) {
                let snap = self.metrics();
                self.snapshots.push(snap);
            }
        }
    }

    /// Pushes all staged batches to their shards.
    pub fn flush(&mut self) {
        self.producer.flush();
    }

    /// Requests submitted so far (including any later dropped or answered
    /// `Unavailable`).
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Shards currently marked permanently dead.
    pub fn dead_shards(&self) -> usize {
        self.core.shards.iter().filter(|sh| sh.cell.is_dead()).count()
    }

    /// Live fleet-wide metrics, assembled from the shard cells. Mid-run this
    /// is a *recent* view (workers publish once per request); after
    /// [`finish`](Self::finish) the final snapshot is exact.
    pub fn metrics(&self) -> FleetMetrics {
        self.metrics_handle().snapshot()
    }

    /// A cloneable, non-blocking handle onto the fleet's metrics. Snapshots
    /// taken through the handle never touch the submission path or the shard
    /// queues (the cells are lock-per-cell mailboxes), so a monitoring
    /// thread — or a gateway `STATS` frame — can read the fleet while a
    /// submitter is blocked on backpressure. The handle stays valid after
    /// [`finish`](Self::finish); it then reports each shard's final
    /// published state.
    pub fn metrics_handle(&self) -> MetricsHandle {
        MetricsHandle::new(self.core.shards.iter().map(|sh| Arc::clone(&sh.cell)).collect())
    }

    /// A cloneable multi-producer ingest handle onto this fleet. Each
    /// [`FleetProducer`] minted from it stages and flushes independently;
    /// per-shard delivery is serialized by the shard's lane, which also
    /// synchronizes scripted deaths for every producer. Producer traffic
    /// bypasses only this fleet's [`submitted`](Self::submitted) count and
    /// snapshot cadence.
    ///
    /// All producers must be dropped (or flushed) before
    /// [`finish`](Self::finish) for their envelopes to be answered by the
    /// run they rode in.
    pub fn ingest(&self) -> FleetIngest<D, E> {
        FleetIngest { core: Arc::clone(&self.core) }
    }

    /// Snapshots recorded so far.
    pub fn snapshots(&self) -> &[FleetMetrics] {
        &self.snapshots
    }

    /// The shards' checkpoint mailboxes, in shard order. A rebalancer reads
    /// the final-cut frames out of these after
    /// [`finish_with_cut`](Self::finish_with_cut) returns.
    pub fn checkpoint_slots(&self) -> Vec<Arc<CheckpointSlot>> {
        self.core.shards.iter().map(|sh| Arc::clone(&sh.slot)).collect()
    }

    /// Asks every shard to cut a final [`ShardCheckpoint`] at its
    /// end-of-stream request-sequence boundary (during the next
    /// [`finish`](Self::finish)) and marks the shards as draining. The cut
    /// lands in each shard's [`CheckpointSlot`] — including its disk spill
    /// when a checkpoint directory is configured — so a successor fleet can
    /// restore it warm. `target_shards` is journaled with the
    /// [`EventKind::DrainStart`] event.
    pub fn request_final_cut(&self, target_shards: usize) {
        self.core.cut_target.store(target_shards as u64, Ordering::Release);
        for shard in &self.core.shards {
            shard.cell.set_phase(ShardPhase::Draining);
        }
    }

    /// [`request_final_cut`](Self::request_final_cut) followed by
    /// [`finish`](Self::finish): drains the fleet and leaves each shard's
    /// final-cut checkpoint in its slot (and spill file, when configured).
    pub fn finish_with_cut(self, target_shards: usize) -> FleetReport<D> {
        self.request_final_cut(target_shards);
        self.finish()
    }

    /// Flushes staged work, closes the queues, joins every worker and
    /// returns the final report (with the surviving drivers inside).
    ///
    /// Never panics on a dead worker: a shard that died with no flush left
    /// to observe it is folded in here, reported as `dead` with its
    /// unanswered tail counted `dropped`.
    pub fn finish(mut self) -> FleetReport<D> {
        self.flush();
        // End-of-stream for every live shard first, so the workers drain in
        // parallel while we join them in order.
        for shard in &self.core.shards {
            shard.lane.lock().expect("shard lane poisoned").producer = None;
        }
        let mut shards = Vec::with_capacity(self.core.cfg.shards);
        for (s, shard) in self.core.shards.iter().enumerate() {
            let mut lane = shard.lane.lock().expect("shard lane poisoned");
            let exit = lane.handle.take().map(|h| h.join().unwrap_or(WorkerExit::Panicked));
            let (driver, hoc_used_bytes, dc_used_bytes) = match exit {
                Some(WorkerExit::Completed(r)) => (Some(r.driver), r.hoc_used_bytes, r.dc_used_bytes),
                Some(WorkerExit::Panicked) => {
                    // A death no later delivery settled — a scripted panic
                    // on the shard's last request, or an organic one at
                    // end-of-stream — is settled here. No respawn: the
                    // stream is over, there is nothing left to serve.
                    let answered = shard.cell.processed_total() + shard.cell.dropped();
                    shard.cell.add_dropped(lane.delivered.saturating_sub(answered));
                    shard.cell.fold_incarnation();
                    shard.cell.mark_dead();
                    shard
                        .cell
                        .obs()
                        .journal
                        .record(shard.cell.processed_total(), EventKind::WorkerDeath);
                    (None, 0, 0)
                }
                None => (None, 0, 0), // buried earlier
            };
            let snap = shard.cell.snapshot();
            shards.push(ShardOutcome {
                shard: s,
                cache: snap.cache,
                processed: snap.processed,
                dropped: snap.dropped,
                unavailable: snap.unavailable,
                shed: snap.shed,
                restarts: snap.restarts,
                warm_restarts: snap.warm_restarts,
                failovers: snap.failovers,
                dead: snap.dead,
                queue_high_water: snap.queue_high_water,
                hoc_used_bytes,
                dc_used_bytes,
                driver,
            });
        }
        // The workers are gone; what they cut is on disk before this returns.
        if let Some(spiller) = &self.core.spiller {
            spiller.join();
        }
        let mut snapshots = std::mem::take(&mut self.snapshots);
        snapshots.push(self.metrics_handle().snapshot());
        FleetReport { shards, snapshots, router: self.core.router.label() }
    }
}

impl<D: AdmissionDriver + Send + 'static> ShardedFleet<D, Request> {
    /// Submits every request of `trace` in order.
    pub fn submit_trace(&mut self, trace: &Trace) {
        for req in trace.iter() {
            self.submit(*req);
        }
    }
}

/// A cloneable handle that mints [`FleetProducer`]s — the multi-producer
/// ingest front. One producer per gateway connection (or per load-generator
/// thread) lets N submitters route and stage concurrently; only the final
/// per-shard `push_batch` serializes, per shard, on that shard's lane.
pub struct FleetIngest<D: AdmissionDriver + Send + 'static, E: Envelope> {
    core: Arc<FleetCore<D, E>>,
}

impl<D: AdmissionDriver + Send + 'static, E: Envelope> Clone for FleetIngest<D, E> {
    fn clone(&self) -> Self {
        Self { core: Arc::clone(&self.core) }
    }
}

impl<D: AdmissionDriver + Send + 'static, E: Envelope> FleetIngest<D, E> {
    /// Number of shards behind this ingest front.
    pub fn shards(&self) -> usize {
        self.core.cfg.shards
    }

    /// Mints an independent producer with its own staging buffers.
    pub fn producer(&self) -> FleetProducer<D, E> {
        FleetProducer::new(Arc::clone(&self.core))
    }
}

/// One submitter's private staging front onto a shared fleet.
///
/// `submit` stages envelopes into per-shard runs and flushes a run when it
/// reaches the fleet's batch size; [`submit_frame`](Self::submit_frame)
/// routes a whole decoded frame in one pass and then delivers every touched
/// shard's run with a single queue operation each. Within one producer,
/// per-shard order is the submission order (the determinism the equivalence
/// suite relies on); across producers the interleaving is
/// scheduling-dependent, like any set of concurrent connections.
///
/// Dropping the producer flushes whatever is still staged, so envelopes are
/// never stranded in a torn-down connection's buffers.
pub struct FleetProducer<D: AdmissionDriver + Send + 'static, E: Envelope> {
    core: Arc<FleetCore<D, E>>,
    staged: Vec<Vec<E>>,
}

impl<D: AdmissionDriver + Send + 'static, E: Envelope> FleetProducer<D, E> {
    fn new(core: Arc<FleetCore<D, E>>) -> Self {
        Self { staged: (0..core.cfg.shards).map(|_| Vec::with_capacity(core.cfg.batch)).collect(), core }
    }

    /// Routes and stages one envelope; flushes its shard's run when it fills
    /// to the fleet batch size.
    pub fn submit(&mut self, env: E) {
        let s = self.core.router.route(env.request().id, self.core.cfg.shards);
        self.staged[s].push(env);
        if self.staged[s].len() >= self.core.cfg.batch {
            self.flush_shard(s);
        }
    }

    /// Routes an entire frame (any iterator of envelopes) into per-shard
    /// runs, then delivers every touched shard's run with one queue
    /// operation each. This is the gateway's per-`GET`-frame path: the
    /// client is waiting on the frame's verdicts, so the runs flush
    /// immediately instead of pooling toward the batch threshold.
    pub fn submit_frame(&mut self, envs: impl IntoIterator<Item = E>) {
        for env in envs {
            let s = self.core.router.route(env.request().id, self.core.cfg.shards);
            self.staged[s].push(env);
        }
        self.flush();
    }

    /// Delivers every staged run to its shard.
    pub fn flush(&mut self) {
        for s in 0..self.staged.len() {
            self.flush_shard(s);
        }
    }

    fn flush_shard(&mut self, s: usize) {
        if self.staged[s].is_empty() {
            return;
        }
        let cell = &self.core.shards[s].cell;
        if cell.is_dead() {
            // Degraded mode: answer without touching the lane.
            cell.add_unavailable(self.staged[s].len() as u64);
            for env in self.staged[s].drain(..) {
                env.unavailable();
            }
            return;
        }
        if let Some(watermark) = self.core.cfg.shed_watermark {
            if cell.shed_decision(watermark) {
                // Overload: answer Busy without blocking on the full queue.
                // The retry hint scales with how far past the watermark the
                // queue is — deeper backlog, longer client backoff.
                let hint = (cell.queue_depth() / watermark.max(1)).min(7) as u8;
                cell.add_shed(self.staged[s].len() as u64);
                for env in self.staged[s].drain(..) {
                    env.shed(hint.max(1));
                }
                return;
            }
        }
        self.core.deliver(s, &mut self.staged[s]);
    }
}

impl<D: AdmissionDriver + Send + 'static, E: Envelope> Drop for FleetProducer<D, E> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Everything one worker incarnation needs, bundled for the thread spawn.
struct WorkerCtx<D, E> {
    shard: usize,
    rx: Consumer<E>,
    cell: Arc<ShardCell>,
    cache: CacheConfig,
    driver: D,
    batch: usize,
    /// Per-shard index of the first request this incarnation pops.
    start: u64,
    faults: ShardFaultCursor,
    /// The shard's checkpoint mailbox (writer side; restore source on
    /// respawn).
    slot: Arc<CheckpointSlot>,
    /// Checkpoint cadence in per-shard requests (`None`: never checkpoint).
    checkpoint_every: Option<u64>,
    /// True when this incarnation replaces a dead one and should attempt a
    /// warm restore.
    respawn: bool,
    /// True when this is the shard's *first* incarnation in a warm-booting
    /// fleet and it should attempt a restore from the slot (seeded frame or
    /// spill file) before serving.
    boot: bool,
    /// True when a boot-time restore stems from a live handoff (resize)
    /// rather than a cross-process warm boot; controls the journal flavour.
    boot_handoff: bool,
    /// Requested final-cut target shard count; `u64::MAX` means no cut.
    cut_target: Arc<AtomicU64>,
    /// The shard's hot standby, fed at every checkpoint cut (`None` when the
    /// fleet runs without replicas).
    standby: Option<Arc<StandbySlot>>,
    /// Router generation, stamped into every replica envelope.
    generation: u32,
    /// Supervisor budget state snapshotted at spawn (it is constant for the
    /// lifetime of one incarnation), carried inside every checkpoint this
    /// incarnation cuts so warm boots cannot launder restart history.
    budget_restarts: u32,
    /// In-window restart marks at spawn (see `budget_restarts`).
    budget_marks: Vec<u64>,
}

/// Feeds one checkpoint cut to the shard's standby and folds the outcome
/// into the cell's replication metrics and the journal. Loss is detected and
/// journaled here — a failed or poisoned standby is never silent: the next
/// feed records [`EventKind::StandbyLost`] and (when the feed itself
/// succeeded) re-seeds a fresh standby with a full image.
fn feed_standby(
    standby: &StandbySlot,
    cell: &ShardCell,
    generation: u32,
    seq: u64,
    frame: &[u8],
    changes: Option<&Changes>,
) {
    match standby.feed(generation, seq, frame, changes) {
        FeedOutcome::Seeded { shipped_bytes } => {
            cell.record_replica(seq, shipped_bytes);
            cell.obs().journal.record(seq, EventKind::ReplicaSeeded { checkpoint_seq: seq });
        }
        FeedOutcome::Applied { shipped_bytes, lag } => {
            cell.record_replica(seq, shipped_bytes);
            cell.obs().journal.record(seq, EventKind::ReplicaLag { checkpoint_seq: seq, lag });
        }
        FeedOutcome::Replaced { shipped_bytes } => {
            cell.record_standby_lost();
            cell.obs().journal.record(seq, EventKind::StandbyLost { checkpoint_seq: seq });
            cell.record_replica(seq, shipped_bytes);
            cell.obs().journal.record(seq, EventKind::ReplicaSeeded { checkpoint_seq: seq });
        }
        FeedOutcome::Lost => {
            cell.record_standby_lost();
            cell.obs().journal.record(seq, EventKind::StandbyLost { checkpoint_seq: seq });
        }
    }
}

/// Attempts a warm restore from the slot's best candidate. Returns the
/// restored server — the frame it restored from recorded as its base — the
/// policy deployed at the checkpoint boundary, the metrics base the
/// incarnation must subtract before publishing (its pre-existing history,
/// already folded into the cell by the supervisor), and the journal facts:
/// which candidate validated (0 = active buffer, 1 = previous buffer, 2 =
/// disk spill) and the restored sequence number — or, when none validates,
/// how many candidates there were to refuse.
#[allow(clippy::type_complexity)]
fn try_restore<D: AdmissionDriver>(
    shard: usize,
    slot: &CheckpointSlot,
    cache: &CacheConfig,
    driver: &mut D,
) -> Result<(CacheServer, darwin_cache::ThresholdPolicy, CacheMetrics, u8, u64), usize> {
    let mut refused = 0;
    for (candidate, frame) in slot.candidates().enumerate() {
        refused = candidate + 1;
        let Ok(ckpt) = ShardCheckpoint::from_frame(&frame) else { continue };
        if ckpt.shard != shard {
            continue;
        }
        let Ok(mut server) = CacheServer::restore_state(cache.clone(), &ckpt.cache) else { continue };
        if !driver.load_state(&ckpt.driver) {
            continue;
        }
        let tables = ShardCheckpoint::layout(&frame);
        server.record_base(ckpt.seq, frame, tables);
        let base = server.metrics();
        return Ok((server, ckpt.policy, base, candidate as u8, ckpt.seq));
    }
    Err(refused)
}

/// Stable journal label for a scripted fault. Part of the deterministic
/// journal contract: integers and fixed strings only.
fn fault_label(kind: &FaultKind) -> String {
    match kind {
        FaultKind::Panic => "panic".into(),
        FaultKind::Delay { spins } => format!("delay({spins})"),
        FaultKind::QueueFull => "queue-full".into(),
        FaultKind::CorruptCheckpoint { torn: true } => "corrupt-ckpt(torn)".into(),
        FaultKind::CorruptCheckpoint { torn: false } => "corrupt-ckpt(zeroed)".into(),
        FaultKind::CorruptStandby => "corrupt-standby".into(),
    }
}

/// One request in this many is timed for the serve histogram — chosen by
/// per-shard sequence number, so the choice is a function of the stream —
/// and recorded with this weight, so `count`, `sum` and the quantiles keep
/// estimating every request. Timing every request cost the benchmark host
/// 18 % of `lanes-darwin`'s throughput (DESIGN.md, "Cost of a request").
const SERVE_SAMPLE: u64 = 16;

/// A worker incarnation's cache server, and the publication of its counters.
///
/// The processed count is stored into the cell per request; the 112-byte
/// `CacheMetrics` copy behind a lock is published once per drained batch and
/// from `Drop` — which also runs when the worker unwinds. So a reader sees
/// cache counters at most one batch behind `processed` while the worker
/// runs, and exactly the counters of the `processed` requests once it has
/// ended, at whatever request it died: the conservation suites assert that.
/// (Every scripted fault fires between requests. A panic from inside
/// `CacheServer::process` itself would leave that request half-counted.)
struct Serving<'a> {
    cell: &'a ShardCell,
    server: CacheServer,
    /// Counters the incarnation restored with. The cell already holds them
    /// (folded by the supervisor), so only increments are published.
    base: CacheMetrics,
    /// Requests this incarnation has processed.
    processed: u64,
}

impl Serving<'_> {
    fn publish(&self) {
        self.cell.publish(self.server.metrics().diff(&self.base), self.processed);
    }
}

impl Drop for Serving<'_> {
    fn drop(&mut self) {
        self.publish();
    }
}

/// The per-shard serving loop. Identical, request for request, to the
/// sequential loop in `replay::run_partition` — that symmetry is the
/// equivalence proof's other half. Each processed envelope is completed with
/// its [`Verdict`] before the driver observes the request.
///
/// The whole loop runs under `catch_unwind`: a panic (organic or scripted)
/// drops the in-hand envelope, the drain buffer and the consumer endpoint —
/// each of which answers its envelopes via `Drop` — and the worker reports
/// [`WorkerExit::Panicked`] instead of poisoning `join()`.
fn worker<D: AdmissionDriver, E: Envelope>(ctx: WorkerCtx<D, E>) -> WorkerExit<D> {
    let WorkerCtx {
        shard,
        rx,
        cell,
        cache,
        mut driver,
        batch,
        start,
        mut faults,
        slot,
        checkpoint_every,
        respawn,
        boot,
        boot_handoff,
        cut_target,
        standby,
        generation,
        budget_restarts,
        budget_marks,
    } = ctx;
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        darwin_parallel::inline_sweeps(|| {
            // Respawned incarnations try the shard's checkpoint candidates
            // first (warm restart); first incarnations of a warm-booting
            // fleet do the same against their seeded/spilled frame (warm
            // boot). Validation failure of every candidate — or no
            // checkpoint at all — falls back to the cold path. The restored
            // metrics become this incarnation's publication *base*: the
            // cell already holds the shard's whole pre-death history
            // (folded by the supervisor), so the incarnation must publish
            // only its increments or restored counters would double-count.
            let attempt =
                if respawn || boot { try_restore(shard, &slot, &cache, &mut driver) } else { Err(0) };
            let (server, mut current_policy, base) = match attempt {
                Ok((server, policy, base, candidate, checkpoint_seq)) => {
                    if respawn {
                        cell.record_warm_restart();
                        cell.obs()
                            .journal
                            .record(start, EventKind::RestoreWarm { candidate, checkpoint_seq });
                    } else {
                        cell.record_warm_boot();
                        cell.obs().journal.record(
                            start,
                            EventKind::HandoffRestore { checkpoint_seq, warm_boot: !boot_handoff },
                        );
                    }
                    (server, policy, base)
                }
                Err(refused) => {
                    // A failed boot attempt detects cold: drop the
                    // invalid spill so a later restart can't retry it.
                    if boot && !respawn {
                        slot.clear_disk();
                    }
                    if respawn || refused > 0 {
                        cell.obs().journal.record(start, EventKind::RestoreCold);
                    }
                    (CacheServer::new(cache), driver.initial_policy(), CacheMetrics::default())
                }
            };
            let mut serving = Serving { cell: &cell, server, base, processed: 0 };
            serving.server.set_policy(current_policy);
            cell.publish_policy(serving.server.policy_label());
            // The one cut routine: seal the shard's state at `seq` — merged
            // into the server's base, the previous cut, and written over
            // the slot's inactive frame, two cuts old — publish it to the
            // slot, record it as the server's next base, journal `event`,
            // feed the standby the rows that changed — which rebuilds its
            // image over the one it holds.
            // Periodic cuts time the serving pause, all of it, the feed
            // included (`timed`); the final handoff cut runs after the
            // stream ended and pauses nobody.
            let cut = |seq: u64,
                       policy: darwin_cache::ThresholdPolicy,
                       server: &mut CacheServer,
                       dstate: Vec<u8>,
                       event: EventKind,
                       timed: bool| {
                let pause = Instant::now();
                let (frame, changes) = ShardCheckpoint {
                    shard,
                    seq,
                    policy,
                    cache: Vec::new(),
                    driver: dstate,
                    restarts: budget_restarts,
                    budget_marks: budget_marks.clone(),
                }
                .cut_of(server, slot.take_inactive());
                let frame = slot.store(frame);
                server.record_base(seq, Arc::clone(&frame), ShardCheckpoint::layout(&frame));
                cell.record_checkpoint(seq);
                cell.obs().journal.record(seq, event);
                if let Some(st) = &standby {
                    feed_standby(st, &cell, generation, seq, &frame, changes.as_ref());
                }
                if timed {
                    cell.obs().ckpt_pause.record_duration(pause.elapsed());
                }
            };
            let mut switch_cost = SwitchCostTracker::default();
            let mut buf: Vec<E> = Vec::with_capacity(batch);
            let gauges = rx.gauges();
            while rx.pop_batch(&mut buf, batch) {
                for env in buf.drain(..) {
                    let at = start + serving.processed;
                    while let Some(kind) = faults.take(at) {
                        cell.obs()
                            .journal
                            .record(at, EventKind::FaultInjected { fault: fault_label(&kind) });
                        match kind {
                            FaultKind::Panic => {
                                panic!("scripted fault: shard {shard} dies at per-shard request {at}")
                            }
                            FaultKind::Delay { spins } => {
                                for _ in 0..spins {
                                    std::hint::spin_loop();
                                }
                            }
                            // Stall until the input queue is packed solid
                            // (or the stream ended): a manufactured
                            // backpressure episode.
                            FaultKind::QueueFull => {
                                while gauges.depth() < rx.capacity() && !rx.is_producer_closed() {
                                    std::thread::yield_now();
                                }
                            }
                            FaultKind::CorruptCheckpoint { torn } => slot.corrupt(torn),
                            // The standby process "dies": its applied frame
                            // is discarded. Detected and journaled at the
                            // next feed; a budget-exhausting death before
                            // then falls back to burial.
                            FaultKind::CorruptStandby => {
                                if let Some(st) = &standby {
                                    st.poison();
                                }
                            }
                        }
                    }
                    let req = *env.request();
                    let writes_before = serving.server.metrics().hoc_writes;
                    let served = at.is_multiple_of(SERVE_SAMPLE).then(Instant::now);
                    let outcome = serving.server.process(&req);
                    if let Some(served) = served {
                        let ns = u64::try_from(served.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        cell.obs().serve.record_n(ns, SERVE_SAMPLE);
                    }
                    serving.processed += 1;
                    // The *raw* cumulative metrics drive the driver and the
                    // admission indicator — they are part of the determinism
                    // contract. Only the published copy is re-based.
                    let metrics = serving.server.metrics();
                    env.complete(Verdict {
                        shard,
                        outcome,
                        admitted: metrics.hoc_writes > writes_before,
                    });
                    // The count is exact at any crash point — the
                    // conservation law depends on it; the counters follow
                    // per batch and from `Serving`'s drop.
                    cell.publish_processed(serving.processed);
                    if let Some(policy) = driver.observe(&req, &metrics) {
                        current_policy = policy;
                        serving.server.set_policy(policy);
                        cell.publish_policy(serving.server.policy_label());
                    }
                    let seq = at + 1;
                    // Feed the switching-cost tracker, then journal any
                    // control-plane decisions this request triggered. Both
                    // are pure functions of the request stream, so the
                    // journal stays byte-reproducible under a seed.
                    if let Some(done) = switch_cost.observe(outcome != RequestOutcome::OriginFetch, seq)
                    {
                        cell.obs().journal.record(done.seq, done.kind);
                    }
                    for ev in driver.drain_events() {
                        match ev {
                            ControlEvent::Switch { from, to, round, posterior } => {
                                if let Some(done) = switch_cost.on_switch(seq, to as u32) {
                                    cell.obs().journal.record(done.seq, done.kind);
                                }
                                cell.obs().journal.record(
                                    seq,
                                    EventKind::ExpertSwitch {
                                        from: Some(from as u32),
                                        to: to as u32,
                                        round: round as u32,
                                        posterior,
                                    },
                                );
                            }
                            ControlEvent::Drift { restarts } => {
                                cell.obs()
                                    .journal
                                    .record(seq, EventKind::DriftDetected { restarts: restarts as u32 });
                            }
                        }
                    }
                    // Checkpoint exactly at configured request-sequence
                    // boundaries, after the driver observed the request —
                    // the same cut a paused sequential run would make.
                    if let Some(every) = checkpoint_every {
                        if every > 0 && seq.is_multiple_of(every) {
                            if let Some(dstate) = driver.save_state() {
                                let event = EventKind::CheckpointCut { checkpoint_seq: seq };
                                cut(seq, current_policy, &mut serving.server, dstate, event, true);
                            }
                        }
                    }
                }
                serving.publish();
            }
            let end = start + serving.processed;
            if let Some(done) = switch_cost.finish(end) {
                cell.obs().journal.record(done.seq, done.kind);
            }
            // Final cut for a live handoff: the producer side has closed the
            // queue, so `start + processed` is the exact request-sequence
            // boundary every shard cuts at — the same cut a paused
            // sequential run would make. Journaled here (not by the
            // resizer) because only the worker knows the boundary.
            let target = cut_target.load(Ordering::Acquire);
            if target != u64::MAX {
                if let Some(dstate) = driver.save_state() {
                    cell.obs()
                        .journal
                        .record(end, EventKind::DrainStart { target_shards: target as u32 });
                    let event = EventKind::HandoffCut { checkpoint_seq: end };
                    cut(end, current_policy, &mut serving.server, dstate, event, false);
                }
            }
            WorkerResult {
                hoc_used_bytes: serving.server.hoc_used_bytes(),
                dc_used_bytes: serving.server.dc_used_bytes(),
                driver,
            }
        })
    }));
    match outcome {
        Ok(result) => WorkerExit::Completed(result),
        Err(_) => WorkerExit::Panicked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;
    use crate::router::HashRouter;
    use darwin_cache::ThresholdPolicy;
    use darwin_testbed::StaticDriver;
    use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};

    fn trace(n: usize, seed: u64) -> Trace {
        TraceGenerator::new(MixSpec::single(TrafficClass::image()), seed).generate(n)
    }

    fn static_fleet(cfg: FleetConfig) -> ShardedFleet<StaticDriver> {
        ShardedFleet::new(cfg, CacheConfig::small_test(), Box::new(HashRouter), |_| {
            StaticDriver::new(ThresholdPolicy::new(1, 100 * 1024))
        })
    }

    #[test]
    fn fleet_processes_every_request_under_block() {
        let t = trace(20_000, 3);
        let mut fleet = static_fleet(FleetConfig {
            queue_capacity: 64,
            batch: 16,
            snapshot_every: Some(5_000),
            ..FleetConfig::default()
        });
        fleet.submit_trace(&t);
        let report = fleet.finish();
        assert_eq!(report.total_processed(), 20_000);
        assert_eq!(report.total_dropped(), 0);
        assert_eq!(report.total_unavailable(), 0);
        assert_eq!(report.total_restarts(), 0);
        assert_eq!(report.dead_shards(), 0);
        assert_eq!(report.fleet_cache().requests, 20_000);
        // Periodic snapshots at 5k/10k/15k/20k plus the final one.
        assert_eq!(report.snapshots.len(), 5);
        let last = report.snapshots.last().unwrap();
        assert_eq!(last.total_processed(), 20_000);
        assert_eq!(last.fleet_cache(), report.fleet_cache());
        for s in &report.shards {
            assert!(s.queue_high_water <= 64, "capacity bound violated");
            assert!(!s.driver.as_ref().expect("healthy shard keeps its driver").label().is_empty());
        }
    }

    #[test]
    fn drop_newest_accounts_for_every_request() {
        // A tiny queue with a huge batch guarantees overflow: whatever is
        // not processed must be counted as dropped.
        let t = trace(30_000, 9);
        let mut fleet = static_fleet(FleetConfig {
            shards: 2,
            queue_capacity: 8,
            batch: 512,
            backpressure: Backpressure::DropNewest,
            ..FleetConfig::default()
        });
        fleet.submit_trace(&t);
        let report = fleet.finish();
        assert_eq!(
            report.total_processed() + report.total_dropped(),
            30_000,
            "processed + dropped must cover every submission"
        );
        assert_eq!(report.fleet_cache().requests, report.total_processed());
    }

    /// Envelope that records its verdict into a shared log.
    struct VerdictProbe {
        req: Request,
        out: Arc<std::sync::Mutex<Vec<Verdict>>>,
    }

    impl Envelope for VerdictProbe {
        fn request(&self) -> &Request {
            &self.req
        }
        fn complete(self, verdict: Verdict) {
            self.out.lock().unwrap().push(verdict);
        }
    }

    #[test]
    fn envelopes_receive_verdicts_matching_metrics() {
        let t = trace(10_000, 11);
        let verdicts: Arc<std::sync::Mutex<Vec<Verdict>>> = Arc::default();
        let mut fleet: ShardedFleet<StaticDriver, VerdictProbe> = ShardedFleet::new(
            FleetConfig::with_shards(2),
            CacheConfig::small_test(),
            Box::new(HashRouter),
            |_| StaticDriver::new(ThresholdPolicy::new(1, 100 * 1024)),
        );
        for req in t.iter() {
            fleet.submit(VerdictProbe { req: *req, out: Arc::clone(&verdicts) });
        }
        let report = fleet.finish();
        let v = verdicts.lock().unwrap();
        assert_eq!(v.len(), 10_000, "every envelope completed exactly once");
        let cache = report.fleet_cache();
        use darwin_cache::RequestOutcome::*;
        assert_eq!(v.iter().filter(|x| x.outcome == HocHit).count() as u64, cache.hoc_hits);
        assert_eq!(v.iter().filter(|x| x.outcome == DcHit).count() as u64, cache.dc_hits);
        assert_eq!(v.iter().filter(|x| x.outcome == OriginFetch).count() as u64, cache.origin_fetches);
        assert_eq!(v.iter().filter(|x| x.admitted).count() as u64, cache.hoc_writes);
        assert!(v.iter().all(|x| x.shard < 2));
    }

    #[test]
    fn shards_partition_the_object_space() {
        let t = trace(10_000, 5);
        let mut fleet = ShardedFleet::new(
            FleetConfig::with_shards(4),
            CacheConfig::small_test(),
            Box::new(HashRouter),
            |_| StaticDriver::new(ThresholdPolicy::new(1, 100 * 1024)),
        );
        fleet.submit_trace(&t);
        let report = fleet.finish();
        // Each shard served exactly the requests the router sends it, and
        // every shard saw work.
        let mut routed = [0u64; 4];
        for req in t.iter() {
            routed[HashRouter.route(req.id, 4)] += 1;
        }
        for (s, shard) in report.shards.iter().enumerate() {
            assert_eq!(shard.cache.requests, routed[s], "shard {s}");
            assert!(shard.cache.requests > 0);
        }
        assert_eq!(report.router, "hash");
    }

    #[test]
    fn scripted_panic_restarts_the_shard_and_conserves_answers() {
        let t = trace(12_000, 21);
        let plan = FaultPlan::new(vec![FaultEvent { shard: 0, at: 100, kind: FaultKind::Panic }]);
        let mut fleet: ShardedFleet<StaticDriver> = ShardedFleet::with_fault_plan(
            FleetConfig { shards: 2, batch: 32, ..FleetConfig::default() },
            CacheConfig::small_test(),
            Box::new(HashRouter),
            |_| StaticDriver::new(ThresholdPolicy::new(1, 100 * 1024)),
            plan,
        );
        fleet.submit_trace(&t);
        let report = fleet.finish();
        assert_eq!(report.total_restarts(), 1, "one scripted death, one restart");
        assert_eq!(report.dead_shards(), 0);
        assert_eq!(
            report.total_processed() + report.total_dropped() + report.total_unavailable(),
            12_000,
            "conservation across the restart"
        );
        let s0 = &report.shards[0];
        assert_eq!(s0.dropped, 1, "exactly the fatal request dropped");
        assert!(s0.driver.is_some(), "respawned shard has a (fresh) driver");
        assert_eq!(s0.restarts, 1);
        assert_eq!(report.fleet_cache().requests, report.total_processed());
    }

    #[test]
    fn exhausted_budget_buries_the_shard_and_degrades() {
        let t = trace(10_000, 33);
        let plan = FaultPlan::new(vec![FaultEvent { shard: 0, at: 50, kind: FaultKind::Panic }]);
        let mut fleet: ShardedFleet<StaticDriver> = ShardedFleet::with_fault_plan(
            FleetConfig {
                shards: 2,
                restart_budget: RestartBudget::with_max_restarts(0),
                ..FleetConfig::default()
            },
            CacheConfig::small_test(),
            Box::new(HashRouter),
            |_| StaticDriver::new(ThresholdPolicy::new(1, 100 * 1024)),
            plan,
        );
        fleet.submit_trace(&t);
        assert_eq!(fleet.dead_shards(), 1);
        let report = fleet.finish();
        let s0 = &report.shards[0];
        assert!(s0.dead, "zero budget: first panic is fatal");
        assert_eq!(s0.restarts, 0);
        assert!(s0.driver.is_none(), "dead shard's driver unwound with it");
        assert_eq!(s0.processed, 50, "requests before the fault were served");
        assert_eq!(s0.dropped, 1, "the fatal request");
        assert!(s0.unavailable > 0, "later arrivals answered Unavailable");
        assert_eq!(
            report.total_processed() + report.total_dropped() + report.total_unavailable(),
            10_000,
            "conservation with a dead shard"
        );
        // Shard 1 was untouched.
        assert!(!report.shards[1].dead);
        assert_eq!(report.shards[1].dropped + report.shards[1].unavailable, 0);
    }

    #[test]
    fn boundary_panic_with_checkpointing_restarts_warm() {
        let t = trace(12_000, 21);
        // Panic exactly at a checkpoint boundary: the respawn restores the
        // checkpoint taken at seq 1_000 (covering requests [0, 1_000)).
        let plan = FaultPlan::new(vec![FaultEvent { shard: 0, at: 1_000, kind: FaultKind::Panic }]);
        let mut fleet: ShardedFleet<StaticDriver> = ShardedFleet::with_fault_plan(
            FleetConfig { shards: 2, batch: 32, checkpoint_every: Some(500), ..FleetConfig::default() },
            CacheConfig::small_test(),
            Box::new(HashRouter),
            |_| StaticDriver::new(ThresholdPolicy::new(1, 100 * 1024)),
            plan,
        );
        fleet.submit_trace(&t);
        let report = fleet.finish();
        assert_eq!(report.total_restarts(), 1);
        assert_eq!(report.total_warm_restarts(), 1, "boundary kill must restore warm");
        assert_eq!(report.total_cold_restarts(), 0);
        assert_eq!(report.shards[0].dropped, 1, "exactly the fatal request dropped");
        assert_eq!(
            report.total_processed() + report.total_dropped() + report.total_unavailable(),
            12_000,
            "conservation across the warm restart"
        );
        assert_eq!(report.fleet_cache().requests, report.total_processed());
        // The final snapshot carries the checkpoint gauges.
        let last = report.snapshots.last().unwrap();
        assert!(last.shards[0].checkpoint_seq.is_some());
        assert_eq!(last.total_warm_restarts() + last.total_cold_restarts(), last.total_restarts());
    }

    #[test]
    fn corrupt_checkpoint_forces_detected_cold_fallback() {
        let t = trace(12_000, 21);
        for &torn in &[true, false] {
            // Corrupt every checkpoint candidate right before the panic at
            // the same index (corruption sorts before the death).
            let plan = FaultPlan::new(vec![
                FaultEvent { shard: 0, at: 1_000, kind: FaultKind::CorruptCheckpoint { torn } },
                FaultEvent { shard: 0, at: 1_000, kind: FaultKind::Panic },
            ]);
            let mut fleet: ShardedFleet<StaticDriver> = ShardedFleet::with_fault_plan(
                FleetConfig {
                    shards: 2,
                    batch: 32,
                    checkpoint_every: Some(500),
                    ..FleetConfig::default()
                },
                CacheConfig::small_test(),
                Box::new(HashRouter),
                |_| StaticDriver::new(ThresholdPolicy::new(1, 100 * 1024)),
                plan,
            );
            fleet.submit_trace(&t);
            let report = fleet.finish();
            assert_eq!(report.total_restarts(), 1, "torn={torn}");
            assert_eq!(
                report.total_warm_restarts(),
                0,
                "torn={torn}: corruption must be detected, restart must go cold"
            );
            assert_eq!(report.total_cold_restarts(), 1, "torn={torn}");
            assert_eq!(
                report.total_processed() + report.total_dropped() + report.total_unavailable(),
                12_000,
                "torn={torn}: conservation across the cold fallback"
            );
        }
    }

    #[test]
    fn delay_and_queue_full_faults_do_not_change_results() {
        let t = trace(8_000, 44);
        let run = |plan: FaultPlan| {
            let mut fleet: ShardedFleet<StaticDriver> = ShardedFleet::with_fault_plan(
                FleetConfig { shards: 2, queue_capacity: 32, batch: 8, ..FleetConfig::default() },
                CacheConfig::small_test(),
                Box::new(HashRouter),
                |_| StaticDriver::new(ThresholdPolicy::new(1, 100 * 1024)),
                plan,
            );
            fleet.submit_trace(&t);
            fleet.finish()
        };
        let clean = run(FaultPlan::default());
        let slowed = run(FaultPlan::new(vec![
            FaultEvent { shard: 0, at: 40, kind: FaultKind::Delay { spins: 2_000 } },
            FaultEvent { shard: 1, at: 10, kind: FaultKind::QueueFull },
            FaultEvent { shard: 1, at: 11, kind: FaultKind::Delay { spins: 100 } },
        ]));
        assert_eq!(clean.fleet_cache(), slowed.fleet_cache(), "stalls never alter state");
        assert_eq!(slowed.total_restarts(), 0);
        assert_eq!(slowed.total_dropped(), 0);
        for (a, b) in clean.shards.iter().zip(slowed.shards.iter()) {
            assert_eq!(a.cache, b.cache);
            assert_eq!(a.processed, b.processed);
        }
    }

    #[test]
    fn multi_producer_ingest_conserves_and_matches_single_submitter_totals() {
        // Four producer threads split one trace; every request must be
        // answered exactly once and the fleet-wide totals must balance.
        let t = trace(24_000, 61);
        let fleet =
            static_fleet(FleetConfig { queue_capacity: 128, batch: 32, ..FleetConfig::default() });
        let ingest = fleet.ingest();
        std::thread::scope(|scope| {
            for chunk in t.requests().chunks(6_000) {
                let mut producer = ingest.producer();
                scope.spawn(move || {
                    for frame in chunk.chunks(64) {
                        producer.submit_frame(frame.iter().copied());
                    }
                });
            }
        });
        let report = fleet.finish();
        assert_eq!(report.total_processed(), 24_000);
        assert_eq!(report.total_dropped(), 0);
        assert_eq!(report.total_unavailable(), 0);
        assert_eq!(report.fleet_cache().requests, 24_000);
        // Partitioning is router-determined, so per-shard request counts are
        // interleaving-independent even with 4 concurrent producers.
        let seq = crate::replay::partition(&t, &HashRouter, 4);
        for (outcome, part) in report.shards.iter().zip(&seq) {
            assert_eq!(outcome.cache.requests, part.len() as u64, "shard {}", outcome.shard);
        }
    }

    #[test]
    fn producer_drop_flushes_staged_work() {
        let t = trace(1_000, 13);
        let fleet = static_fleet(FleetConfig {
            shards: 2,
            batch: 100_000, // never reaches the flush threshold on its own
            ..FleetConfig::default()
        });
        {
            let mut producer = fleet.ingest().producer();
            for req in t.iter() {
                producer.submit(*req);
            }
            // No explicit flush: the drop must deliver the staged runs.
        }
        let report = fleet.finish();
        assert_eq!(report.total_processed(), 1_000);
    }
}
