//! The sharded fleet: N cache servers on N worker threads, supervised.
//!
//! [`ShardedFleet`] hash-partitions the object space across `shards`
//! independent [`CacheServer`](darwin_cache::CacheServer)s, each owned by a
//! dedicated worker thread and each driven by its *own* [`AdmissionDriver`]
//! — with [`DarwinDriver`] drivers this is one Darwin controller per shard,
//! learning that shard's sub-workload (the paper's per-server deployment
//! model, §5).
//!
//! # Ingest pipeline
//!
//! Requests reach a shard through a two-stage pipeline: a [`FleetProducer`]
//! *stages* envelopes into per-shard runs, then *delivers* each run with a
//! single [`push_batch`](crate::queue::Producer::push_batch) onto the
//! shard's SPSC queue — one lock round per run, however many requests it
//! carries. Every ingest front is a producer: the
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
//! DropNewest path) and consults the shard's
//! [`Supervisor`](crate::Supervisor):
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
//!   [`FaultKind::CorruptStandby`](crate::FaultKind::CorruptStandby), or a
//!   feed that failed validation) falls back to burial — detected and
//!   journaled, never silent.
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

use crate::ckpt::CheckpointSlot;
use crate::fault::FaultPlan;
use crate::lane::FleetCore;
use crate::metrics::{FleetMetrics, MetricsHandle, ShardPhase};
use crate::router::Router;
use crate::supervisor::RestartBudget;
use crate::worker::{Incarnation, WorkerExit};
use darwin_cache::{CacheConfig, CacheMetrics, RequestOutcome};
use darwin_testbed::AdmissionDriver;
use darwin_trace::{Request, Trace};
use serde::{Deserialize, Serialize};
use std::sync::atomic::Ordering;
use std::sync::Arc;

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
    /// Restart budget enforced per shard by its
    /// [`Supervisor`](crate::Supervisor).
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
    /// runs one in-process [`StandbySlot`](crate::StandbySlot) per shard).
    /// The primary feeds the standby at every checkpoint cut
    /// ([`FleetConfig::checkpoint_every`] must be set for the standby to
    /// ever seed), and a shard whose restart budget is exhausted *promotes*
    /// the standby's last applied frame instead of being buried — the shard
    /// keeps serving and answers nothing `Unavailable`.
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

/// How a fleet comes up: cold (the historical default), or warm from each
/// shard's spill file in `checkpoint_dir` (cross-process warm boot).
///
/// Warm boots are *validated per shard*: a spill frame that fails
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
}

impl FleetBoot {
    /// Warm boot from `dir`'s spill files (the gateway's `--checkpoint-dir`
    /// default).
    pub fn warm_from(dir: std::path::PathBuf) -> Self {
        Self { checkpoint_dir: Some(dir), warm_boot: true }
    }
}

/// What one shard's join produced, returned by [`ShardedFleet::finish`]. The
/// driver comes back too, so callers can pull switch histories out of
/// per-shard Darwin controllers; the shard's ledger is in
/// [`FleetReport::metrics`].
#[derive(Debug)]
pub struct ShardOutcome<D> {
    /// Shard index.
    pub shard: usize,
    /// Queue high-water mark over the run (max across incarnations), as the
    /// final snapshot reports it.
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
    /// The final snapshot, taken after every worker was joined: each
    /// shard's whole-life ledger, exact.
    pub fn metrics(&self) -> &FleetMetrics {
        self.snapshots.last().expect("finish takes a final snapshot")
    }

    /// Fleet-wide cache metrics (counter-wise sum over shards).
    pub fn fleet_cache(&self) -> CacheMetrics {
        self.metrics().fleet_cache()
    }

    /// Requests processed across the fleet.
    pub fn total_processed(&self) -> u64 {
        self.metrics().total_processed()
    }

    /// Requests dropped across the fleet.
    pub fn total_dropped(&self) -> u64 {
        self.metrics().total_dropped()
    }

    /// Requests answered `Unavailable` across the fleet.
    pub fn total_unavailable(&self) -> u64 {
        self.metrics().total_unavailable()
    }

    /// Requests shed `Busy` at shard watermarks across the fleet.
    pub fn total_shed(&self) -> u64 {
        self.metrics().total_shed()
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
    /// plus the spill directory and warm-boot behaviour described on
    /// [`FleetBoot`]. With a `boot.checkpoint_dir`, each shard's latest
    /// checkpoint frame is also written to `dir/shard-{s}.ckpt` (temp-file +
    /// atomic rename), and stale spill files for this fleet's shards are
    /// removed up front unless `boot.warm_boot` is set, so a reused directory
    /// never resurrects a previous run's state. With `boot.warm_boot` set,
    /// each shard's initial incarnation attempts a restore from its spill
    /// file and falls back detected-cold per shard on any validation failure.
    pub fn with_boot(
        cfg: FleetConfig,
        cache: CacheConfig,
        router: Box<dyn Router>,
        factory: impl FnMut(usize) -> D + Send + 'static,
        fault: FaultPlan,
        boot: FleetBoot,
    ) -> Self {
        let incarnation = if boot.warm_boot { Incarnation::WarmBoot } else { Incarnation::Cold };
        let dir = boot.checkpoint_dir.as_deref();
        Self::launch(FleetCore::new(cfg, cache, router, factory, fault, dir, incarnation), incarnation)
    }

    /// The successor generation of a live resize: serves as router
    /// generation `generation` and boots shard `s` warm from `seeds[s]`, a
    /// handed-off checkpoint frame (one entry per shard). The worker's
    /// restore attempt is the one validator: a seed that does not decode as
    /// its shard's checkpoint is refused there, journaled `RestoreCold` and
    /// never silently mis-restored. A shard without a seed boots cold, its
    /// spill file cleared: it predates the resize.
    pub(crate) fn successor(
        cfg: FleetConfig,
        cache: CacheConfig,
        router: Box<dyn Router>,
        factory: impl FnMut(usize) -> D + Send + 'static,
        dir: Option<&std::path::Path>,
        seeds: Vec<Option<Vec<u8>>>,
        generation: u32,
    ) -> Self {
        let handoff = Incarnation::Handoff;
        let core = FleetCore::new(cfg, cache, router, factory, FaultPlan::default(), dir, handoff);
        assert_eq!(seeds.len(), core.shards.len(), "one seed entry per shard");
        for (shard, seed) in core.shards.iter().zip(seeds) {
            shard.cell.set_generation(generation);
            match seed {
                Some(frame) => drop(shard.slot.store(frame)),
                None => shard.slot.clear_disk(),
            }
        }
        Self::launch(core, handoff)
    }

    /// Spawns every shard's first incarnation and wraps the running core.
    fn launch(core: FleetCore<D, E>, incarnation: Incarnation) -> Self {
        let core = Arc::new(core);
        core.start(incarnation);
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

    /// The shards' checkpoint mailboxes, in shard order. A resize reads
    /// the final-cut frames out of these after
    /// [`finish_with_cut`](Self::finish_with_cut) returns.
    pub(crate) fn checkpoint_slots(&self) -> Vec<Arc<CheckpointSlot>> {
        self.core.shards.iter().map(|sh| Arc::clone(&sh.slot)).collect()
    }

    /// [`finish`](Self::finish), with every shard cutting a final
    /// [`ShardCheckpoint`](crate::ShardCheckpoint) at its end-of-stream
    /// request-sequence boundary: drains the fleet and leaves each shard's
    /// final cut in its checkpoint slot (and spill file, when configured),
    /// for a successor fleet to restore warm. `target_shards` is journaled
    /// with each shard's `DrainStart` event.
    pub fn finish_with_cut(self, target_shards: usize) -> FleetReport<D> {
        self.core.cut_target.store(target_shards as u64, Ordering::Release);
        for shard in &self.core.shards {
            shard.cell.set_phase(ShardPhase::Draining);
        }
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
        let mut joined = Vec::with_capacity(self.core.cfg.shards);
        for shard in &self.core.shards {
            let mut lane = shard.lane.lock().expect("shard lane poisoned");
            let exit = lane.handle.take().map(|h| h.join().unwrap_or(WorkerExit::Panicked));
            joined.push(match exit {
                Some(WorkerExit::Completed { driver, hoc_used_bytes, dc_used_bytes }) => {
                    (Some(driver), hoc_used_bytes, dc_used_bytes)
                }
                Some(WorkerExit::Panicked) => {
                    // A death no later delivery settled — a scripted panic
                    // on the shard's last request, or an organic one at
                    // end-of-stream — is settled here. No respawn: the
                    // stream is over, there is nothing left to serve.
                    lane.account_death(&shard.cell);
                    shard.cell.mark_dead();
                    (None, 0, 0)
                }
                None => (None, 0, 0), // buried earlier
            });
        }
        // The workers are gone; what they cut is on disk before this returns.
        if let Some(spiller) = &self.core.spiller {
            spiller.join();
        }
        let last = self.metrics_handle().snapshot();
        let shards = joined
            .into_iter()
            .zip(&last.shards)
            .map(|((driver, hoc_used_bytes, dc_used_bytes), snap)| ShardOutcome {
                shard: snap.shard,
                queue_high_water: snap.queue_high_water,
                hoc_used_bytes,
                dc_used_bytes,
                driver,
            })
            .collect();
        let mut snapshots = std::mem::take(&mut self.snapshots);
        snapshots.push(last);
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
        if !self.staged[s].is_empty() {
            self.core.dispatch(s, &mut self.staged[s]);
        }
    }
}

impl<D: AdmissionDriver + Send + 'static, E: Envelope> Drop for FleetProducer<D, E> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, FaultKind};
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
        assert_eq!(report.metrics().total_restarts(), 0);
        assert_eq!(report.metrics().dead_shards(), 0);
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
        for (s, shard) in report.metrics().shards.iter().enumerate() {
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
        assert_eq!(report.metrics().total_restarts(), 1, "one scripted death, one restart");
        assert_eq!(report.metrics().dead_shards(), 0);
        assert_eq!(
            report.total_processed() + report.total_dropped() + report.total_unavailable(),
            12_000,
            "conservation across the restart"
        );
        let s0 = &report.metrics().shards[0];
        assert_eq!(s0.dropped, 1, "exactly the fatal request dropped");
        assert!(report.shards[0].driver.is_some(), "respawned shard has a (fresh) driver");
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
        assert_eq!(fleet.metrics().dead_shards(), 1);
        let report = fleet.finish();
        let s0 = &report.metrics().shards[0];
        assert!(s0.dead, "zero budget: first panic is fatal");
        assert_eq!(s0.restarts, 0);
        assert!(report.shards[0].driver.is_none(), "dead shard's driver unwound with it");
        assert_eq!(s0.processed, 50, "requests before the fault were served");
        assert_eq!(s0.dropped, 1, "the fatal request");
        assert!(s0.unavailable > 0, "later arrivals answered Unavailable");
        assert_eq!(
            report.total_processed() + report.total_dropped() + report.total_unavailable(),
            10_000,
            "conservation with a dead shard"
        );
        // Shard 1 was untouched.
        let s1 = &report.metrics().shards[1];
        assert!(!s1.dead);
        assert_eq!(s1.dropped + s1.unavailable, 0);
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
        assert_eq!(report.metrics().total_restarts(), 1);
        assert_eq!(report.metrics().total_warm_restarts(), 1, "boundary kill must restore warm");
        assert_eq!(report.metrics().total_cold_restarts(), 0);
        assert_eq!(report.metrics().shards[0].dropped, 1, "exactly the fatal request dropped");
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
            assert_eq!(report.metrics().total_restarts(), 1, "torn={torn}");
            assert_eq!(
                report.metrics().total_warm_restarts(),
                0,
                "torn={torn}: corruption must be detected, restart must go cold"
            );
            assert_eq!(report.metrics().total_cold_restarts(), 1, "torn={torn}");
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
        assert_eq!(slowed.metrics().total_restarts(), 0);
        assert_eq!(slowed.total_dropped(), 0);
        for (a, b) in clean.metrics().shards.iter().zip(&slowed.metrics().shards) {
            assert_eq!(a.cache, b.cache);
            assert_eq!(a.processed, b.processed);
        }
    }

    /// A reader polling the cells while shards die, restart warm, fail over
    /// to a standby and cut checkpoints sees each shard's ledger whole: no
    /// count falls between two polls, and warm restarts and failovers never
    /// outnumber the restarts they are part of.
    #[test]
    fn polled_snapshots_never_see_a_ledger_go_backwards() {
        let t = trace(30_000, 71);
        let plan = FaultPlan::new(vec![
            FaultEvent { shard: 0, at: 1_000, kind: FaultKind::Panic },
            FaultEvent { shard: 0, at: 3_000, kind: FaultKind::Panic },
            FaultEvent { shard: 1, at: 1_500, kind: FaultKind::Panic },
            FaultEvent { shard: 1, at: 4_000, kind: FaultKind::Panic },
        ]);
        let mut fleet: ShardedFleet<StaticDriver> = ShardedFleet::with_fault_plan(
            FleetConfig {
                shards: 2,
                batch: 32,
                restart_budget: RestartBudget { max_restarts: 1, window_requests: 100_000 },
                checkpoint_every: Some(500),
                replicas: 1,
                ..FleetConfig::default()
            },
            CacheConfig::small_test(),
            Box::new(HashRouter),
            |_| StaticDriver::new(ThresholdPolicy::new(1, 100 * 1024)),
            plan,
        );
        let handle = fleet.metrics_handle();
        let done = std::sync::atomic::AtomicBool::new(false);
        let polls = std::thread::scope(|scope| {
            let poller = scope.spawn(|| {
                let mut polls = 0u64;
                let mut last = vec![(0u64, 0u32); 2];
                while !done.load(Ordering::Acquire) {
                    for (s, last) in handle.snapshot().shards.iter().zip(&mut last) {
                        assert!(
                            s.processed >= last.0,
                            "shard {}: processed fell below {}",
                            s.shard,
                            last.0
                        );
                        assert!(
                            s.restarts >= last.1,
                            "shard {}: restarts fell below {}",
                            s.shard,
                            last.1
                        );
                        assert!(s.warm_restarts <= s.restarts, "shard {}: {s:?}", s.shard);
                        assert!(s.failovers <= s.restarts, "shard {}: {s:?}", s.shard);
                        *last = (s.processed, s.restarts);
                    }
                    polls += 1;
                }
                polls
            });
            fleet.submit_trace(&t);
            fleet.flush();
            let report = fleet.finish();
            done.store(true, Ordering::Release);
            let polls = poller.join().expect("the poller saw a consistent ledger");
            let m = report.metrics();
            assert_eq!(m.total_restarts(), 4, "two deaths per shard, each answered");
            assert_eq!(m.total_failovers(), 2, "each shard's second death promoted its standby");
            assert_eq!(m.total_processed() + m.total_dropped(), 30_000);
            polls
        });
        assert!(polls > 0);
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
        for (snap, part) in report.metrics().shards.iter().zip(&seq) {
            assert_eq!(snap.cache.requests, part.len() as u64, "shard {}", snap.shard);
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
