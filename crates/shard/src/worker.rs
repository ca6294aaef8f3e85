//! A shard worker: one incarnation's serving loop (see the `fleet` module
//! docs for why it runs under [`darwin_parallel::inline_sweeps`]).

use crate::ckpt::{try_restore, CheckpointSlot, Restored, ShardCheckpoint};
use crate::fault::{spin, Cursor, Fault, FaultKind};
use crate::fleet::{Envelope, Verdict};
use crate::metrics::ShardCell;
use crate::queue::Consumer;
use crate::standby::{feed_standby, StandbySlot};
use darwin::{step, AdmissionDriver, ControlEvent};
use darwin_cache::{CacheConfig, CacheMetrics, CacheServer, RequestOutcome};
use darwin_obs::{EventKind, SwitchCostTracker};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How a worker incarnation starts, and so which restore it tries and how
/// it journals the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Incarnation {
    /// A cold fleet's first: no restore, nothing journaled.
    Cold,
    /// Replaces a dead one: `RestoreWarm` from the slot, else `RestoreCold`.
    Respawn,
    /// A warm-booting process's first: `HandoffRestore { warm_boot: true }`
    /// from the spill file; a refused frame is cleared and `RestoreCold`.
    WarmBoot,
    /// A resize successor's first: as `WarmBoot` from the handed-off seed,
    /// journaled `HandoffRestore { warm_boot: false }`.
    Handoff,
}

/// How a shard worker thread ended. Workers catch their own unwinds, so
/// `JoinHandle::join` always succeeds and the fleet inspects this instead.
pub(crate) enum WorkerExit<D> {
    /// Clean end-of-stream exit: the driver, and the final HOC and DC
    /// occupancy in bytes.
    Completed { driver: D, hoc_used_bytes: u64, dc_used_bytes: u64 },
    /// The worker panicked; server and driver unwound with it. In-flight
    /// envelopes were released (their `Drop` impls filed verdicts) by the
    /// consumer endpoint's destructor.
    Panicked,
}

/// Everything one worker incarnation needs, bundled for the thread spawn.
pub(crate) struct WorkerCtx<D, E> {
    pub(crate) shard: usize,
    pub(crate) rx: Consumer<E>,
    pub(crate) cell: Arc<ShardCell>,
    pub(crate) cache: CacheConfig,
    pub(crate) driver: D,
    pub(crate) batch: usize,
    /// Per-shard index of the first request this incarnation pops.
    pub(crate) start: u64,
    pub(crate) faults: Cursor<FaultKind>,
    /// The shard's checkpoint mailbox (writer side; restore source on
    /// respawn).
    pub(crate) slot: Arc<CheckpointSlot>,
    /// Checkpoint cadence in per-shard requests (`None`: never checkpoint).
    pub(crate) checkpoint_every: Option<u64>,
    /// How this incarnation starts.
    pub(crate) incarnation: Incarnation,
    /// Requested final-cut target shard count; `u64::MAX` means no cut.
    pub(crate) cut_target: Arc<AtomicU64>,
    /// The shard's hot standby, fed at every checkpoint cut (`None` when the
    /// fleet runs without replicas).
    pub(crate) standby: Option<Arc<StandbySlot>>,
    /// Supervisor budget state snapshotted at spawn (it is constant for the
    /// lifetime of one incarnation), carried inside every checkpoint this
    /// incarnation cuts so warm boots cannot launder restart history.
    pub(crate) budget_restarts: u32,
    /// In-window restart marks at spawn (see `budget_restarts`).
    pub(crate) budget_marks: Vec<u64>,
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

/// The per-shard serving loop. Each request is one [`darwin::step`], the
/// same step the sequential [`darwin::serve`] of `replay::run_partition`
/// and the paper runner takes — so the two sides are identical request for
/// request, the equivalence proof's other half. The envelope is completed
/// with its [`Verdict`] inside the step, before the driver observes.
///
/// The whole loop runs under `catch_unwind`: a panic (organic or scripted)
/// drops the in-hand envelope, the drain buffer and the consumer endpoint —
/// each of which answers its envelopes via `Drop` — and the worker reports
/// [`WorkerExit::Panicked`] instead of poisoning `join()`.
pub(crate) fn worker<D: AdmissionDriver, E: Envelope>(ctx: WorkerCtx<D, E>) -> WorkerExit<D> {
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
        incarnation,
        cut_target,
        standby,
        budget_restarts,
        budget_marks,
    } = ctx;
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        darwin_parallel::inline_sweeps(|| {
            // Every incarnation but a cold fleet's first tries the shard's
            // checkpoint candidates: a respawn restarts warm, a boot restores
            // its spilled or handed-off frame. Validation failure of every
            // candidate — or no checkpoint at all — falls back to the cold
            // path. The restored metrics become this incarnation's
            // publication *base*: the cell already holds the shard's whole
            // pre-death history (folded by the supervisor), so the
            // incarnation must publish only its increments or restored
            // counters would double-count.
            let attempt = match incarnation {
                Incarnation::Cold => Err(0),
                _ => try_restore(shard, &slot, &cache, &mut driver),
            };
            let (server, mut current_policy, base) = match attempt {
                Ok(Restored { server, policy, candidate, checkpoint_seq }) => {
                    let event = if incarnation == Incarnation::Respawn {
                        cell.record_warm_restart();
                        EventKind::RestoreWarm { candidate, checkpoint_seq }
                    } else {
                        cell.record_warm_boot();
                        let warm_boot = incarnation == Incarnation::WarmBoot;
                        EventKind::HandoffRestore { checkpoint_seq, warm_boot }
                    };
                    cell.obs().journal.record(start, event);
                    let base = server.metrics();
                    (server, policy, base)
                }
                Err(refused) => {
                    // A failed boot attempt detects cold: drop the
                    // invalid spill so a later restart can't retry it.
                    if matches!(incarnation, Incarnation::WarmBoot | Incarnation::Handoff) {
                        slot.clear_disk();
                    }
                    if incarnation == Incarnation::Respawn || refused > 0 {
                        cell.obs().journal.record(start, EventKind::RestoreCold);
                    }
                    (CacheServer::new(cache), driver.initial_policy(), CacheMetrics::default())
                }
            };
            let mut serving = Serving { cell: &cell, server, base, processed: 0 };
            serving.server.set_policy(current_policy);
            cell.publish_policy(current_policy);
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
                    feed_standby(st, &cell, seq, &frame, changes);
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
                        cell.obs().journal.record(at, EventKind::FaultInjected { fault: kind.label() });
                        match kind {
                            FaultKind::Panic => {
                                panic!("scripted fault: shard {shard} dies at per-shard request {at}")
                            }
                            FaultKind::Delay { spins } => spin(spins),
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
                    let timer = at.is_multiple_of(SERVE_SAMPLE).then(Instant::now);
                    let (outcome, policy) =
                        step(&mut serving.server, &mut driver, &req, |outcome, admitted| {
                            if let Some(timer) = timer {
                                let ns = u64::try_from(timer.elapsed().as_nanos()).unwrap_or(u64::MAX);
                                cell.obs().serve.record_n(ns, SERVE_SAMPLE);
                            }
                            serving.processed += 1;
                            env.complete(Verdict { shard, outcome, admitted });
                            // The count is exact at any crash point — the
                            // conservation law depends on it; the counters
                            // follow per batch and from `Serving`'s drop.
                            cell.publish_processed(serving.processed);
                        });
                    if let Some(policy) = policy {
                        current_policy = policy;
                        cell.publish_policy(policy);
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
            WorkerExit::Completed {
                hoc_used_bytes: serving.server.hoc_used_bytes(),
                dc_used_bytes: serving.server.dc_used_bytes(),
                driver,
            }
        })
    }))
    .unwrap_or(WorkerExit::Panicked)
}
