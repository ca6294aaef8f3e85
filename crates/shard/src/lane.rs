//! A shard's ingest lane: where every ingest front's runs are answered
//! `Unavailable` or `Busy` or delivered, and where a dead worker is joined,
//! accounted for and respawned, promoted or buried.

use crate::ckpt::{CheckpointSlot, ShardCheckpoint, Spiller};
use crate::fault::{FaultPlan, ShardFaultCursor};
use crate::fleet::{Backpressure, Envelope, FleetConfig};
use crate::metrics::ShardCell;
use crate::queue::{channel, Producer, QueueGauges};
use crate::router::Router;
use crate::standby::StandbySlot;
use crate::supervisor::{Supervisor, SupervisorVerdict};
use crate::worker::{worker, Incarnation, WorkerCtx, WorkerExit};
use darwin_cache::CacheConfig;
use darwin_obs::EventKind;
use darwin_testbed::AdmissionDriver;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The mutable half of one shard's ingest lane. Every delivery into the
/// shard — from any [`FleetProducer`], the fleet's own included — happens
/// under this lock, which is what serializes producers per shard (instead
/// of per fleet) and makes death settlement race-free.
pub(crate) struct LaneState<D, E> {
    /// `None` once the shard is dead (burying drops the producer).
    pub(crate) producer: Option<Producer<E>>,
    /// The current incarnation's worker, `None` once buried.
    pub(crate) handle: Option<JoinHandle<WorkerExit<D>>>,
    pub(crate) supervisor: Supervisor,
    /// Envelopes handed into this lane across all producers and
    /// incarnations (delivered to the queue or shed at it) — the per-shard
    /// request index of the *next* delivery, the shard-side term of the
    /// conservation arithmetic and the supervisor's restart clock.
    pub(crate) delivered: u64,
    /// The shard's scripted `Panic` indices not yet settled, ascending. One
    /// below `delivered` means the current incarnation already holds its
    /// fatal request and dies on it.
    pub(crate) panics: VecDeque<u64>,
}

impl<D, E> LaneState<D, E> {
    /// Books the death of the lane's current incarnation: every envelope
    /// handed in ends processed, counted dropped, or destroyed unanswered in
    /// the crash (its Drop impl answered the client), so that unanswered
    /// tail is counted dropped and the conservation law holds. Folds the
    /// incarnation into the cell and journals `WorkerDeath` at — and returns
    /// — the shard's processed count, deterministic under Block.
    pub(crate) fn account_death(&self, cell: &ShardCell) -> u64 {
        let answered = cell.processed_total() + cell.dropped();
        cell.add_dropped(self.delivered.saturating_sub(answered));
        cell.fold_incarnation();
        let seq = cell.processed_total();
        cell.obs().journal.record(seq, EventKind::WorkerDeath);
        seq
    }
}

/// One shard's runtime state inside the core.
pub(crate) struct ShardState<D, E> {
    pub(crate) lane: Mutex<LaneState<D, E>>,
    pub(crate) cell: Arc<ShardCell>,
    /// The shard's checkpoint mailbox (allocated even when checkpointing is
    /// off: an empty slot just makes every restart cold).
    pub(crate) slot: Arc<CheckpointSlot>,
    /// The shard's hot standby ([`FleetConfig::replicas`] > 0), fed by the
    /// worker at every checkpoint cut and consulted at death settlement.
    pub(crate) standby: Option<Arc<StandbySlot>>,
}

/// The shared heart of a fleet: configuration, router, per-shard lanes.
/// [`ShardedFleet`] owns one behind an `Arc`; every [`FleetProducer`] holds
/// the same `Arc` and delivers through the lane locks.
pub(crate) struct FleetCore<D, E> {
    pub(crate) cfg: FleetConfig,
    pub(crate) cache: CacheConfig,
    pub(crate) router: Arc<dyn Router>,
    /// Builds shard drivers; behind a lock because respawns may be triggered
    /// from any producer's thread.
    pub(crate) factory: Mutex<Box<dyn FnMut(usize) -> D + Send>>,
    pub(crate) fault: FaultPlan,
    /// Target shard count of a requested drain-for-handoff final cut;
    /// `u64::MAX` means no cut was requested. Workers read it at
    /// end-of-stream and cut a final [`ShardCheckpoint`] at the exact drain
    /// boundary when set.
    pub(crate) cut_target: Arc<AtomicU64>,
    /// Writes the shards' checkpoint spill files off their workers' threads
    /// (`None` without a checkpoint directory). Joined by `finish` — and on
    /// drop — so every cut's file is in place once the fleet is gone.
    pub(crate) spiller: Option<Spiller>,
    pub(crate) shards: Vec<ShardState<D, E>>,
}

impl<D: AdmissionDriver + Send + 'static, E: Envelope> FleetCore<D, E> {
    /// A fleet core with every shard's lane, cell and checkpoint slot in
    /// place and no worker running yet; [`start`](Self::start) spawns them.
    /// A cold fleet clears its shards' stale spill files here.
    pub(crate) fn new(
        cfg: FleetConfig,
        cache: CacheConfig,
        router: Box<dyn Router>,
        factory: impl FnMut(usize) -> D + Send + 'static,
        fault: FaultPlan,
        checkpoint_dir: Option<&Path>,
        incarnation: Incarnation,
    ) -> Self {
        assert!(cfg.shards > 0, "fleet needs at least one shard");
        assert!(cfg.batch > 0, "batch size must be positive");
        let (spiller, slots) = match checkpoint_dir {
            Some(dir) => {
                let _ = std::fs::create_dir_all(dir);
                let (spiller, slots) = Spiller::start(cfg.shards, dir);
                if incarnation == Incarnation::Cold {
                    slots.iter().for_each(|slot| slot.clear_disk());
                }
                (Some(spiller), slots)
            }
            None => (None, (0..cfg.shards).map(|s| Arc::new(CheckpointSlot::new(s, None))).collect()),
        };
        let panics = fault.panic_indices(cfg.shards);
        Self {
            cache,
            router: Arc::from(router),
            factory: Mutex::new(Box::new(factory)),
            fault,
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
        }
    }

    /// Spawns every shard's first incarnation. One that restores takes over
    /// the budget state of the frame it restores, so a crash-looping shard
    /// cannot launder its restart history through a warm boot (the marks
    /// are kept until they age out of the restarted request clock's window).
    pub(crate) fn start(&self, incarnation: Incarnation) {
        for (s, shard) in self.shards.iter().enumerate() {
            let mut lane = shard.lane.lock().expect("shard lane poisoned");
            if incarnation != Incarnation::Cold {
                let carried = shard.slot.candidates().find_map(|frame| {
                    ShardCheckpoint::from_frame(&frame)
                        .ok()
                        .filter(|c| c.shard == s)
                        .map(|c| (c.restarts, c.budget_marks))
                });
                if let Some((restarts, marks)) = carried {
                    lane.supervisor = Supervisor::with_state(self.cfg.restart_budget, restarts, &marks);
                }
            }
            self.spawn(s, &mut lane, incarnation);
        }
    }

    /// Decides a staged run's fate: answered `Unavailable` when shard `s`
    /// is dead (degraded mode, without touching the lane), `Busy` when its
    /// queue is over the shed watermark, and otherwise delivered.
    pub(crate) fn dispatch(&self, s: usize, batch: &mut Vec<E>) {
        let cell = &self.shards[s].cell;
        if cell.is_dead() {
            // Degraded mode: answer without touching the lane.
            cell.add_unavailable(batch.len() as u64);
            batch.drain(..).for_each(E::unavailable);
            return;
        }
        if let Some(watermark) = self.cfg.shed_watermark {
            if cell.shed_decision(watermark) {
                // Overload: answer Busy without blocking on the full queue.
                // The retry hint scales with how far past the watermark the
                // queue is — deeper backlog, longer client backoff.
                let hint = (cell.queue_depth() / watermark.max(1)).clamp(1, 7) as u8;
                cell.add_shed(batch.len() as u64);
                batch.drain(..).for_each(|env| env.shed(hint));
                return;
            }
        }
        self.deliver(s, batch);
    }

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
                batch.drain(..).for_each(E::unavailable);
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
        // `Completed` here means the worker won a race against the death
        // signal (possible only under DropNewest shedding of a scripted
        // fatal request); treat it as the scripted death it stands in for.
        drop(lane.handle.take().expect("dying shard had no worker").join());
        let cell = &shard.cell;
        let seq = lane.account_death(cell);
        // Scripted deaths the incarnation never reached fell in its dropped
        // tail; the next one starts at `delivered`.
        while lane.panics.front().is_some_and(|&p| p < lane.delivered) {
            lane.panics.pop_front();
        }
        let standby_ready = shard.standby.as_ref().is_some_and(|st| st.ready());
        let verdict = lane.supervisor.on_worker_death_with_standby(lane.delivered, standby_ready);
        let (restarts_used, budget_max) =
            (lane.supervisor.restarts(), lane.supervisor.budget().max_restarts);
        let promoted = match verdict {
            SupervisorVerdict::Promote => shard.standby.as_ref().and_then(|st| st.take_for_promotion()),
            _ => None,
        };
        match (verdict, promoted) {
            (SupervisorVerdict::Respawn, _) => {
                cell.record_restart();
                cell.obs().journal.record(seq, EventKind::RestartGranted { restarts_used, budget_max });
                self.spawn(s, lane, Incarnation::Respawn);
            }
            (SupervisorVerdict::Promote, Some((frame, checkpoint_seq))) => {
                // Install the standby's frame as the newest restore
                // candidate (`store` flips it active, so the promoted frame
                // wins even after a scripted corruption damaged every prior
                // candidate, and the spill file follows), then warm-restart
                // through the same validated restore path every respawn
                // uses — which is what makes a promoted shard
                // bitwise-identical to an unfailed run from the checkpoint
                // boundary.
                shard.slot.store(frame);
                cell.record_restart();
                cell.record_failover();
                let event = EventKind::Failover { checkpoint_seq, restarts_used, budget_max };
                cell.obs().journal.record(seq, event);
                self.spawn(s, lane, Incarnation::Respawn);
            }
            // A burial, or a standby lost between the readiness check and
            // the take: buried exactly as an unreplicated shard would be.
            _ => {
                cell.obs().journal.record(seq, EventKind::RestartDenied { restarts_used, budget_max });
                cell.mark_dead();
            }
        }
    }

    /// Spawns shard `s`'s worker, starting as `incarnation` says; its first
    /// request is the lane's next delivery. Caller holds the lane.
    fn spawn(&self, s: usize, lane: &mut LaneState<D, E>, incarnation: Incarnation) {
        let shard = &self.shards[s];
        let from = lane.delivered;
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
            incarnation,
            cut_target: Arc::clone(&self.cut_target),
            standby: shard.standby.as_ref().map(Arc::clone),
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
