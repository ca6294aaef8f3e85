//! The structured per-shard event journal.
//!
//! Every notable control-plane decision in the fleet — worker deaths,
//! restart verdicts with their budget state, warm-vs-cold restores with the
//! checkpoint candidate chosen, expert switches with the bandit's round
//! index and posterior summary, drift detections, injected faults,
//! checkpoint cuts, switching-cost windows, and replication traffic
//! (standby seeds, delta applies, failover promotions, standby losses) —
//! lands in a bounded ring of typed [`Event`]s.
//!
//! ## Determinism
//!
//! Events carry the shard's *request sequence number* at the moment of the
//! event, never a wall-clock timestamp. Faults are scripted on sequence
//! numbers ([`FaultPlan`](../../darwin_shard/fault) semantics), checkpoints
//! cut at sequence boundaries, and controller decisions are functions of
//! the request stream — so two runs with the same seed and fault plan
//! produce *byte-identical* journal frames. `verify.sh` gates on exactly
//! that at 1, 2 and 8 shards.
//!
//! ## Bounded memory
//!
//! The ring keeps the most recent [`DEFAULT_JOURNAL_CAPACITY`] events;
//! older events are dropped oldest-first and counted exactly in
//! [`JournalSnapshot::dropped`]. Events are rare (per decision, not per
//! request), so a mutex-guarded ring off the hot path is plenty.

use darwin_ckpt::{open, seal, CkptError, Dec, Enc};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Events kept per shard before the oldest is dropped.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// Frame magic for a sealed fleet-wide event dump ("OBSE").
pub const FLEET_EVENTS_MAGIC: u32 = 0x4F42_5345;
/// Frame version for fleet-event frames.
pub const JOURNAL_VERSION: u16 = 1;

/// What happened. Payloads are integers and deterministic strings only —
/// no wall clock anywhere.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// The shard's worker thread died (panic fault or poisoned state).
    WorkerDeath,
    /// The supervisor granted a respawn; `restarts_used` counts this one.
    RestartGranted {
        /// Restarts consumed within the budget window, including this one.
        restarts_used: u32,
        /// The budget's maximum restarts per window.
        budget_max: u32,
    },
    /// The supervisor refused a respawn and buried the shard.
    RestartDenied {
        /// Restarts already consumed within the budget window.
        restarts_used: u32,
        /// The budget's maximum restarts per window.
        budget_max: u32,
    },
    /// A respawned worker restored from a checkpoint.
    RestoreWarm {
        /// Which candidate validated: 0 = active buffer, 1 = previous
        /// buffer, 2 = disk spill.
        candidate: u8,
        /// The restored checkpoint's request sequence number.
        checkpoint_seq: u64,
    },
    /// A respawned worker found no usable checkpoint and started cold.
    RestoreCold,
    /// The controller deployed a different expert.
    ExpertSwitch {
        /// The previously deployed expert, if any.
        from: Option<u32>,
        /// The newly deployed expert.
        to: u32,
        /// Identification rounds completed this epoch when the switch fired.
        round: u32,
        /// Compact posterior summary (per-arm means) at the switch.
        posterior: String,
    },
    /// The drift detector fired and the controller restarted identification.
    DriftDetected {
        /// Drift-triggered restarts so far, including this one.
        restarts: u32,
    },
    /// A scripted fault fired at this sequence number.
    FaultInjected {
        /// Stable label of the fault kind (e.g. `panic`, `delay(100)`).
        fault: String,
    },
    /// A checkpoint frame was cut and stored.
    CheckpointCut {
        /// The checkpoint's request sequence number.
        checkpoint_seq: u64,
    },
    /// A post-switch observation window closed; the dip is the trailing
    /// hit ratio's worst drop below the pre-switch baseline.
    SwitchCost {
        /// The expert deployed by the switch that opened the window.
        expert: u32,
        /// Trailing hit ratio at the switch.
        baseline: f64,
        /// Worst `baseline − trailing ratio` observed in the window (≥ 0).
        dip: f64,
        /// Requests until the trailing ratio regained the baseline;
        /// `None` if it never did within the window.
        recovery: Option<u64>,
        /// Requests the window observed.
        window: u64,
    },
    /// A rebalance began draining this shard: its queue empties, then the
    /// worker cuts a final handoff checkpoint at the drain boundary.
    DrainStart {
        /// Shard count the fleet is resizing to.
        target_shards: u32,
    },
    /// The draining worker cut its final handoff checkpoint at the exact
    /// end-of-stream sequence boundary.
    HandoffCut {
        /// The handoff checkpoint's request sequence number.
        checkpoint_seq: u64,
    },
    /// A shard restored state shipped across a generation or process
    /// boundary (resize handoff or `--checkpoint-dir` warm boot).
    HandoffRestore {
        /// Request sequence number of the restored checkpoint (in its
        /// source incarnation's numbering).
        checkpoint_seq: u64,
        /// `true` for a cross-process warm boot from a spill file, `false`
        /// for an in-process resize handoff.
        warm_boot: bool,
    },
    /// A new fleet generation took over serving from a retired one.
    Cutover {
        /// The router generation now serving.
        generation: u32,
    },
    /// The fleet was resized to a new shard count. The name and codec tag
    /// date from the consistent-hash ring router; they stay so journal
    /// bytes do not change.
    RingResize {
        /// Shard count before the resize.
        from_shards: u32,
        /// Shard count after the resize.
        to_shards: u32,
        /// The router generation serving the new shard count.
        generation: u32,
    },
    /// The shard's queue depth crossed its shed watermark: producers start
    /// answering this shard's requests `Busy` instead of delivering them.
    ShedStart {
        /// Queue depth observed at the crossing.
        depth: u64,
    },
    /// The shard's queue drained below the recovery threshold (half the
    /// watermark) and producers resumed delivering.
    ShedStop {
        /// Requests shed at this shard so far (cumulative).
        shed: u64,
    },
    /// A scripted network fault fired on a gateway connection.
    NetFault {
        /// Gateway connection id the fault hit.
        conn: u64,
        /// Per-connection frame sequence number the fault was keyed to.
        frame: u64,
        /// Stable label of the fault kind (e.g. `reset`, `stall(1000)`).
        fault: String,
    },
    /// The gateway evicted a connection whose client stopped reading
    /// replies (the write-stall budget expired).
    SlowClientClosed {
        /// Gateway connection id that was evicted.
        conn: u64,
    },
    /// A connection first exceeded its fair-share token bucket and had
    /// requests answered `Busy` (journaled once per connection).
    ConnThrottled {
        /// Gateway connection id that was throttled.
        conn: u64,
    },
    /// The shard's hot standby was (re)seeded with a full checkpoint image.
    ReplicaSeeded {
        /// Request sequence number of the seeding checkpoint cut.
        checkpoint_seq: u64,
    },
    /// The standby applied a delta cut; its lag behind the primary closed.
    ReplicaLag {
        /// Request sequence number of the cut just applied.
        checkpoint_seq: u64,
        /// Requests the standby was behind before this apply (the gap
        /// between its previous applied boundary and this cut).
        lag: u64,
    },
    /// The restart budget was spent and the hot standby was promoted: the
    /// shard resumes from the standby's last applied checkpoint.
    Failover {
        /// Request sequence number of the checkpoint the promotion
        /// restored.
        checkpoint_seq: u64,
        /// Restarts already consumed within the budget window.
        restarts_used: u32,
        /// The budget's maximum restarts per window.
        budget_max: u32,
    },
    /// The standby itself failed validation (corrupt or stale) and could
    /// not serve a promotion or an apply — detected, never silent.
    StandbyLost {
        /// Request sequence number of the standby's last applied
        /// checkpoint (or the cut whose apply failed).
        checkpoint_seq: u64,
    },
}

impl EventKind {
    fn tag(&self) -> u8 {
        match self {
            EventKind::WorkerDeath => 0,
            EventKind::RestartGranted { .. } => 1,
            EventKind::RestartDenied { .. } => 2,
            EventKind::RestoreWarm { .. } => 3,
            EventKind::RestoreCold => 4,
            EventKind::ExpertSwitch { .. } => 5,
            EventKind::DriftDetected { .. } => 6,
            EventKind::FaultInjected { .. } => 7,
            EventKind::CheckpointCut { .. } => 8,
            EventKind::SwitchCost { .. } => 9,
            EventKind::DrainStart { .. } => 10,
            EventKind::HandoffCut { .. } => 11,
            EventKind::HandoffRestore { .. } => 12,
            EventKind::Cutover { .. } => 13,
            EventKind::RingResize { .. } => 14,
            EventKind::ShedStart { .. } => 15,
            EventKind::ShedStop { .. } => 16,
            EventKind::NetFault { .. } => 17,
            EventKind::SlowClientClosed { .. } => 18,
            EventKind::ConnThrottled { .. } => 19,
            EventKind::ReplicaSeeded { .. } => 20,
            EventKind::ReplicaLag { .. } => 21,
            EventKind::Failover { .. } => 22,
            EventKind::StandbyLost { .. } => 23,
        }
    }
}

/// One journal entry: a typed event stamped with the shard's request
/// sequence number at the moment it happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Requests the shard had processed when the event fired.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// A stable single-line rendering, e.g. for dashboards and artifacts.
    pub fn render(&self) -> String {
        let body = match &self.kind {
            EventKind::WorkerDeath => "worker-death".to_string(),
            EventKind::RestartGranted { restarts_used, budget_max } => {
                format!("restart-granted {restarts_used}/{budget_max}")
            }
            EventKind::RestartDenied { restarts_used, budget_max } => {
                format!("restart-denied {restarts_used}/{budget_max}")
            }
            EventKind::RestoreWarm { candidate, checkpoint_seq } => {
                format!("restore-warm candidate={candidate} ckpt_seq={checkpoint_seq}")
            }
            EventKind::RestoreCold => "restore-cold".to_string(),
            EventKind::ExpertSwitch { from, to, round, posterior } => {
                let from = from.map_or("-".to_string(), |f| f.to_string());
                format!("switch {from}->{to} round={round} posterior=[{posterior}]")
            }
            EventKind::DriftDetected { restarts } => format!("drift restarts={restarts}"),
            EventKind::FaultInjected { fault } => format!("fault {fault}"),
            EventKind::CheckpointCut { checkpoint_seq } => {
                format!("ckpt-cut seq={checkpoint_seq}")
            }
            EventKind::SwitchCost { expert, baseline, dip, recovery, window } => {
                let rec = recovery.map_or("none".to_string(), |r| r.to_string());
                format!(
                    "switch-cost expert={expert} baseline={baseline:.4} dip={dip:.4} \
                     recovery={rec}/{window}"
                )
            }
            EventKind::DrainStart { target_shards } => {
                format!("drain-start target_shards={target_shards}")
            }
            EventKind::HandoffCut { checkpoint_seq } => {
                format!("handoff-cut seq={checkpoint_seq}")
            }
            EventKind::HandoffRestore { checkpoint_seq, warm_boot } => {
                let mode = if *warm_boot { "warm-boot" } else { "handoff" };
                format!("handoff-restore ckpt_seq={checkpoint_seq} mode={mode}")
            }
            EventKind::Cutover { generation } => format!("cutover generation={generation}"),
            EventKind::RingResize { from_shards, to_shards, generation } => {
                format!("ring-resize {from_shards}->{to_shards} generation={generation}")
            }
            EventKind::ShedStart { depth } => format!("shed-start depth={depth}"),
            EventKind::ShedStop { shed } => format!("shed-stop shed={shed}"),
            EventKind::NetFault { conn, frame, fault } => {
                format!("net-fault conn={conn} frame={frame} {fault}")
            }
            EventKind::SlowClientClosed { conn } => format!("slow-client-closed conn={conn}"),
            EventKind::ConnThrottled { conn } => format!("conn-throttled conn={conn}"),
            EventKind::ReplicaSeeded { checkpoint_seq } => {
                format!("replica-seeded ckpt_seq={checkpoint_seq}")
            }
            EventKind::ReplicaLag { checkpoint_seq, lag } => {
                format!("replica-lag ckpt_seq={checkpoint_seq} lag={lag}")
            }
            EventKind::Failover { checkpoint_seq, restarts_used, budget_max } => {
                format!("failover ckpt_seq={checkpoint_seq} budget={restarts_used}/{budget_max}")
            }
            EventKind::StandbyLost { checkpoint_seq } => {
                format!("standby-lost ckpt_seq={checkpoint_seq}")
            }
        };
        format!("[{:>10}] {body}", self.seq)
    }

    /// The fewest bytes an event encodes to: its sequence number and tag.
    const MIN_ENCODED: usize = 8 + 1;

    fn encode(&self, e: &mut Enc) {
        e.u64(self.seq);
        e.u8(self.kind.tag());
        match &self.kind {
            EventKind::WorkerDeath | EventKind::RestoreCold => {}
            EventKind::RestartGranted { restarts_used, budget_max }
            | EventKind::RestartDenied { restarts_used, budget_max } => {
                e.u32(*restarts_used);
                e.u32(*budget_max);
            }
            EventKind::RestoreWarm { candidate, checkpoint_seq } => {
                e.u8(*candidate);
                e.u64(*checkpoint_seq);
            }
            EventKind::ExpertSwitch { from, to, round, posterior } => {
                e.opt(from.as_ref(), |e, f| e.u32(*f));
                e.u32(*to);
                e.u32(*round);
                e.str(posterior);
            }
            EventKind::DriftDetected { restarts } => e.u32(*restarts),
            EventKind::FaultInjected { fault } => e.str(fault),
            EventKind::CheckpointCut { checkpoint_seq } => e.u64(*checkpoint_seq),
            EventKind::SwitchCost { expert, baseline, dip, recovery, window } => {
                e.u32(*expert);
                e.f64(*baseline);
                e.f64(*dip);
                e.opt(recovery.as_ref(), |e, r| e.u64(*r));
                e.u64(*window);
            }
            EventKind::DrainStart { target_shards } => e.u32(*target_shards),
            EventKind::HandoffCut { checkpoint_seq } => e.u64(*checkpoint_seq),
            EventKind::HandoffRestore { checkpoint_seq, warm_boot } => {
                e.u64(*checkpoint_seq);
                e.bool(*warm_boot);
            }
            EventKind::Cutover { generation } => e.u32(*generation),
            EventKind::RingResize { from_shards, to_shards, generation } => {
                e.u32(*from_shards);
                e.u32(*to_shards);
                e.u32(*generation);
            }
            EventKind::ShedStart { depth } => e.u64(*depth),
            EventKind::ShedStop { shed } => e.u64(*shed),
            EventKind::NetFault { conn, frame, fault } => {
                e.u64(*conn);
                e.u64(*frame);
                e.str(fault);
            }
            EventKind::SlowClientClosed { conn } => e.u64(*conn),
            EventKind::ConnThrottled { conn } => e.u64(*conn),
            EventKind::ReplicaSeeded { checkpoint_seq } => e.u64(*checkpoint_seq),
            EventKind::ReplicaLag { checkpoint_seq, lag } => {
                e.u64(*checkpoint_seq);
                e.u64(*lag);
            }
            EventKind::Failover { checkpoint_seq, restarts_used, budget_max } => {
                e.u64(*checkpoint_seq);
                e.u32(*restarts_used);
                e.u32(*budget_max);
            }
            EventKind::StandbyLost { checkpoint_seq } => e.u64(*checkpoint_seq),
        }
    }

    fn decode(d: &mut Dec) -> Result<Self, CkptError> {
        let seq = d.u64()?;
        let kind = match d.u8()? {
            0 => EventKind::WorkerDeath,
            1 => EventKind::RestartGranted { restarts_used: d.u32()?, budget_max: d.u32()? },
            2 => EventKind::RestartDenied { restarts_used: d.u32()?, budget_max: d.u32()? },
            3 => EventKind::RestoreWarm { candidate: d.u8()?, checkpoint_seq: d.u64()? },
            4 => EventKind::RestoreCold,
            5 => EventKind::ExpertSwitch {
                from: d.opt(|d| d.u32())?,
                to: d.u32()?,
                round: d.u32()?,
                posterior: d.str()?.to_string(),
            },
            6 => EventKind::DriftDetected { restarts: d.u32()? },
            7 => EventKind::FaultInjected { fault: d.str()?.to_string() },
            8 => EventKind::CheckpointCut { checkpoint_seq: d.u64()? },
            9 => EventKind::SwitchCost {
                expert: d.u32()?,
                baseline: d.f64()?,
                dip: d.f64()?,
                recovery: d.opt(|d| d.u64())?,
                window: d.u64()?,
            },
            10 => EventKind::DrainStart { target_shards: d.u32()? },
            11 => EventKind::HandoffCut { checkpoint_seq: d.u64()? },
            12 => EventKind::HandoffRestore { checkpoint_seq: d.u64()?, warm_boot: d.bool()? },
            13 => EventKind::Cutover { generation: d.u32()? },
            14 => EventKind::RingResize {
                from_shards: d.u32()?,
                to_shards: d.u32()?,
                generation: d.u32()?,
            },
            15 => EventKind::ShedStart { depth: d.u64()? },
            16 => EventKind::ShedStop { shed: d.u64()? },
            17 => EventKind::NetFault { conn: d.u64()?, frame: d.u64()?, fault: d.str()?.to_string() },
            18 => EventKind::SlowClientClosed { conn: d.u64()? },
            19 => EventKind::ConnThrottled { conn: d.u64()? },
            20 => EventKind::ReplicaSeeded { checkpoint_seq: d.u64()? },
            21 => EventKind::ReplicaLag { checkpoint_seq: d.u64()?, lag: d.u64()? },
            22 => EventKind::Failover {
                checkpoint_seq: d.u64()?,
                restarts_used: d.u32()?,
                budget_max: d.u32()?,
            },
            23 => EventKind::StandbyLost { checkpoint_seq: d.u64()? },
            t => return Err(CkptError::Malformed(format!("unknown event tag {t}"))),
        };
        Ok(Self { seq, kind })
    }
}

/// A copy of a journal's contents: the retained events in arrival order
/// plus the exact count of events dropped by the ring bound.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct JournalSnapshot {
    /// Events the ring had to drop (oldest-first) to stay bounded.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
}

impl JournalSnapshot {
    /// Appends the snapshot to an encoder.
    pub fn encode(&self, e: &mut Enc) {
        e.u64(self.dropped);
        e.seq(&self.events, |e, ev| ev.encode(e));
    }

    /// Decodes what [`encode`](JournalSnapshot::encode) wrote.
    pub fn decode(d: &mut Dec) -> Result<Self, CkptError> {
        Ok(Self { dropped: d.u64()?, events: d.seq(Event::MIN_ENCODED, Event::decode)? })
    }
}

/// Seals every shard's journal into one fleet-wide frame (the gateway
/// `EVENTS` reply body). Shards must be pre-sorted by id for determinism.
pub fn encode_fleet_events(shards: &[(u32, JournalSnapshot)]) -> Vec<u8> {
    let mut e = Enc::new();
    e.seq(shards, |e, (shard, snap)| {
        e.u32(*shard);
        snap.encode(e);
    });
    seal(FLEET_EVENTS_MAGIC, JOURNAL_VERSION, &e.into_bytes())
}

/// [`encode_fleet_events`] into a frame of at most `max_len` bytes (the
/// gateway's reply bound). When not every event fits, each journal
/// keeps its newest events within a fair share of the room and counts the
/// rest in `dropped`: journals are served smallest first, each taking at
/// most an equal share of what the ones before left over.
pub fn encode_fleet_events_within(shards: &mut [(u32, JournalSnapshot)], max_len: usize) -> Vec<u8> {
    let frame = encode_fleet_events(shards);
    if frame.len() <= max_len {
        return frame;
    }
    let sizes: Vec<Vec<usize>> = shards
        .iter()
        .map(|(_, j)| {
            j.events
                .iter()
                .map(|ev| {
                    let mut e = Enc::new();
                    ev.encode(&mut e);
                    e.len()
                })
                .collect()
        })
        .collect();
    let fixed = frame.len() - sizes.iter().flatten().sum::<usize>();
    let mut room = max_len.saturating_sub(fixed);
    let mut order: Vec<usize> = (0..shards.len()).collect();
    order.sort_by_key(|&i| sizes[i].iter().sum::<usize>());
    for (served, &i) in order.iter().enumerate() {
        let share = room / (order.len() - served);
        let (mut used, mut keep) = (0, 0);
        for &n in sizes[i].iter().rev() {
            if used + n > share {
                break;
            }
            used += n;
            keep += 1;
        }
        room -= used;
        let journal = &mut shards[i].1;
        let cut = journal.events.len() - keep;
        journal.events.drain(..cut);
        journal.dropped += cut as u64;
    }
    encode_fleet_events(shards)
}

/// Decodes a frame produced by [`encode_fleet_events`].
pub fn decode_fleet_events(frame: &[u8]) -> Result<Vec<(u32, JournalSnapshot)>, CkptError> {
    let body = open(frame, FLEET_EVENTS_MAGIC, JOURNAL_VERSION)?;
    let mut d = Dec::new(body);
    let shards = d.seq(4 + 8 + 8, |d| Ok((d.u32()?, JournalSnapshot::decode(d)?)))?;
    d.finish()?;
    Ok(shards)
}

/// A bounded, thread-safe ring of [`Event`]s.
///
/// Recording locks a mutex — events are per *decision* (restart, switch,
/// checkpoint), not per request, so this is far off the serve hot path.
#[derive(Debug)]
pub struct Journal {
    ring: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
    capacity: usize,
}

impl Default for Journal {
    fn default() -> Self {
        Self::new(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl Journal {
    /// A journal retaining at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self { ring: Mutex::new(VecDeque::new()), dropped: AtomicU64::new(0), capacity: capacity.max(1) }
    }

    /// Appends an event stamped with request sequence number `seq`,
    /// dropping the oldest retained event if the ring is full.
    pub fn record(&self, seq: u64, kind: EventKind) {
        let mut ring = self.ring.lock().expect("journal poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(Event { seq, kind });
    }

    /// Events dropped so far by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A non-destructive copy of the retained events and drop count.
    pub fn snapshot(&self) -> JournalSnapshot {
        let ring = self.ring.lock().expect("journal poisoned");
        JournalSnapshot {
            dropped: self.dropped.load(Ordering::Relaxed),
            events: ring.iter().cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<EventKind> {
        vec![
            EventKind::WorkerDeath,
            EventKind::RestartGranted { restarts_used: 1, budget_max: 3 },
            EventKind::RestartDenied { restarts_used: 3, budget_max: 3 },
            EventKind::RestoreWarm { candidate: 2, checkpoint_seq: 4000 },
            EventKind::RestoreCold,
            EventKind::ExpertSwitch {
                from: Some(2),
                to: 0,
                round: 7,
                posterior: "0.41 0.38 0.55 0.12".into(),
            },
            EventKind::ExpertSwitch { from: None, to: 1, round: 0, posterior: String::new() },
            EventKind::DriftDetected { restarts: 1 },
            EventKind::FaultInjected { fault: "delay(100)".into() },
            EventKind::CheckpointCut { checkpoint_seq: 2000 },
            EventKind::SwitchCost {
                expert: 1,
                baseline: 0.5125,
                dip: 0.031,
                recovery: Some(420),
                window: 4096,
            },
            EventKind::SwitchCost { expert: 0, baseline: 0.25, dip: 0.25, recovery: None, window: 4096 },
            EventKind::DrainStart { target_shards: 8 },
            EventKind::HandoffCut { checkpoint_seq: 6000 },
            EventKind::HandoffRestore { checkpoint_seq: 6000, warm_boot: true },
            EventKind::HandoffRestore { checkpoint_seq: 6000, warm_boot: false },
            EventKind::Cutover { generation: 2 },
            EventKind::RingResize { from_shards: 4, to_shards: 8, generation: 2 },
            EventKind::ShedStart { depth: 8192 },
            EventKind::ShedStop { shed: 1311 },
            EventKind::NetFault { conn: 3, frame: 41, fault: "stall(1000)".into() },
            EventKind::SlowClientClosed { conn: 9 },
            EventKind::ConnThrottled { conn: 2 },
            EventKind::ReplicaSeeded { checkpoint_seq: 1000 },
            EventKind::ReplicaLag { checkpoint_seq: 2000, lag: 1000 },
            EventKind::Failover { checkpoint_seq: 3000, restarts_used: 3, budget_max: 3 },
            EventKind::StandbyLost { checkpoint_seq: 3000 },
        ]
    }

    #[test]
    fn every_kind_roundtrips_through_frame_and_json() {
        let j = Journal::new(64);
        for (i, kind) in all_kinds().into_iter().enumerate() {
            j.record(i as u64 * 100, kind);
        }
        let snap = j.snapshot();
        let shards = vec![(0u32, snap.clone())];
        assert_eq!(decode_fleet_events(&encode_fleet_events(&shards)).unwrap(), shards);
        let json = serde_json::to_string(&snap).unwrap();
        let back: JournalSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn ring_drops_oldest_and_counts_exactly() {
        let j = Journal::new(4);
        for i in 0..10u64 {
            j.record(i, EventKind::WorkerDeath);
        }
        let snap = j.snapshot();
        assert_eq!(snap.dropped, 6);
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.events.first().unwrap().seq, 6, "oldest retained");
        assert_eq!(snap.events.last().unwrap().seq, 9);
    }

    #[test]
    fn identical_journals_seal_identically() {
        let build = || {
            let j = Journal::new(8);
            j.record(5, EventKind::FaultInjected { fault: "panic".into() });
            j.record(5, EventKind::WorkerDeath);
            j.record(5, EventKind::RestartGranted { restarts_used: 1, budget_max: 3 });
            j.record(5, EventKind::RestoreWarm { candidate: 0, checkpoint_seq: 4 });
            encode_fleet_events(&[(0, j.snapshot())])
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn fleet_frame_roundtrips() {
        let j = Journal::new(8);
        j.record(1, EventKind::RestoreCold);
        let shards = vec![(0u32, j.snapshot()), (1u32, JournalSnapshot::default())];
        let frame = encode_fleet_events(&shards);
        assert_eq!(decode_fleet_events(&frame).unwrap(), shards);
        for keep in 0..frame.len() {
            assert!(decode_fleet_events(&frame[..keep]).is_err());
        }
    }

    #[test]
    fn a_bounded_fleet_frame_keeps_the_newest_events_that_fit() {
        let full = |n: u64| {
            let j = Journal::new(1024);
            for seq in 0..n {
                j.record(seq, EventKind::FaultInjected { fault: format!("delay({seq})") });
            }
            j.snapshot()
        };
        let mut shards = vec![(0u32, full(1000)), (1, full(3)), (2, full(1000))];
        let whole = encode_fleet_events(&shards);
        assert_eq!(
            encode_fleet_events_within(&mut shards.clone(), whole.len()),
            whole,
            "fits: unchanged"
        );

        let bound = whole.len() / 2;
        let frame = encode_fleet_events_within(&mut shards, bound);
        assert!(frame.len() <= bound, "{} > {bound}", frame.len());
        assert!(
            whole.len() / 2 - frame.len() < 2 * 30,
            "the room is used up to about one event per journal"
        );
        assert_eq!(
            decode_fleet_events(&frame).unwrap(),
            shards,
            "the caller's journals are the trimmed ones"
        );
        assert_eq!(shards[1].1, full(3), "the small journal fits whole");
        for (_, j) in [&shards[0], &shards[2]] {
            let kept = j.events.len() as u64;
            assert!(kept > 0 && kept < 1000);
            assert_eq!(j.dropped, 1000 - kept, "every trimmed event counts as dropped");
            assert_eq!(j.events.first().unwrap().seq, 1000 - kept, "the newest events stay");
            assert_eq!(j.events.last().unwrap().seq, 999);
        }
        assert_eq!(shards[0].1.events.len(), shards[2].1.events.len(), "equal journals share equally");
    }

    #[test]
    fn renderings_are_stable() {
        let ev =
            Event { seq: 2000, kind: EventKind::RestoreWarm { candidate: 0, checkpoint_seq: 2000 } };
        assert_eq!(ev.render(), "[      2000] restore-warm candidate=0 ckpt_seq=2000");
        let ev = Event {
            seq: 6000,
            kind: EventKind::RingResize { from_shards: 4, to_shards: 8, generation: 1 },
        };
        assert_eq!(ev.render(), "[      6000] ring-resize 4->8 generation=1");
        let ev = Event {
            seq: 6000,
            kind: EventKind::HandoffRestore { checkpoint_seq: 6000, warm_boot: true },
        };
        assert_eq!(ev.render(), "[      6000] handoff-restore ckpt_seq=6000 mode=warm-boot");
        let ev = Event { seq: 120, kind: EventKind::ShedStart { depth: 8192 } };
        assert_eq!(ev.render(), "[       120] shed-start depth=8192");
        let ev =
            Event { seq: 40, kind: EventKind::NetFault { conn: 1, frame: 40, fault: "reset".into() } };
        assert_eq!(ev.render(), "[        40] net-fault conn=1 frame=40 reset");
        let ev = Event {
            seq: 3000,
            kind: EventKind::Failover { checkpoint_seq: 3000, restarts_used: 3, budget_max: 3 },
        };
        assert_eq!(ev.render(), "[      3000] failover ckpt_seq=3000 budget=3/3");
        let ev = Event { seq: 2000, kind: EventKind::ReplicaLag { checkpoint_seq: 2000, lag: 1000 } };
        assert_eq!(ev.render(), "[      2000] replica-lag ckpt_seq=2000 lag=1000");
        let ev = Event { seq: 1000, kind: EventKind::ReplicaSeeded { checkpoint_seq: 1000 } };
        assert_eq!(ev.render(), "[      1000] replica-seeded ckpt_seq=1000");
        let ev = Event { seq: 3000, kind: EventKind::StandbyLost { checkpoint_seq: 3000 } };
        assert_eq!(ev.render(), "[      3000] standby-lost ckpt_seq=3000");
    }
}
