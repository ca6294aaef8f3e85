//! Deterministic fault injection for chaos testing the fleet.
//!
//! A [`FaultPlan`] is a script of [`FaultEvent`]s, each keyed off a **per-shard
//! request sequence number** — the index, starting at 0, of a request within
//! the subsequence of the submitted stream that routes to its shard. Because
//! the router is a pure function of `(id, shards)`, that index is a property
//! of the trace alone: the same trace under the same plan produces the same
//! faults at the same requests, run after run, with no wall clock anywhere.
//!
//! Five fault kinds are scripted:
//!
//! * [`FaultKind::Panic`] — the shard worker panics immediately before
//!   processing the request at the event's index. The request itself is
//!   answered `Dropped`; everything before it was served by the dying
//!   incarnation, everything after it by the respawned one (or answered
//!   `Unavailable` once the restart budget is spent). The shard's ingest
//!   lane synchronizes on scripted panics, whichever front delivers — it
//!   delivers a run only up to the fatal request and joins the doomed worker
//!   before handing the shard anything more — so the processed / dropped /
//!   restarted boundaries are **bit-for-bit reproducible**, unlike an
//!   organic panic whose in-flight set depends on thread timing.
//! * [`FaultKind::Delay`] — the worker spins `spins` iterations before
//!   processing the request: a deterministic stand-in for a slow disk or a
//!   controller stall. Under [`Backpressure::Block`](crate::Backpressure) it
//!   only stretches wall clock; under `DropNewest` it forces real shedding.
//! * [`FaultKind::QueueFull`] — the worker stalls before the request until
//!   its input queue is completely full (or the producer hung up), then
//!   resumes: a scripted backpressure episode that exercises the exact
//!   queue-full machinery overload would.
//! * [`FaultKind::CorruptCheckpoint`] — every stored warm-restart
//!   checkpoint candidate for the shard is damaged (torn-truncated or
//!   bit-flipped) before the request. Harmless by itself; followed by a
//!   `Panic` it forces — and proves — the detected-corruption cold-restart
//!   fallback.
//! * [`FaultKind::CorruptStandby`] — the shard's hot standby (when the
//!   fleet runs with `replicas > 0`) is poisoned before the request: its
//!   applied frame is discarded and the loss is journaled at the next
//!   replication feed. Followed by a budget-exhausting `Panic` it proves
//!   the standby-loss fallback — the shard is buried exactly as an
//!   unreplicated one would be, never silently mis-promoted.
//!
//! Plans can be written by hand ([`FaultPlan::new`] / [`FaultPlan::push`]) or
//! generated from a seed ([`FaultPlan::random`]) — both are plain data
//! (serde-serializable) so a failing chaos run can be replayed from its
//! logged plan. The empty plan is the identity: a fleet built through
//! [`ShardedFleet::with_fault_plan`](crate::ShardedFleet::with_fault_plan)
//! with `FaultPlan::default()` is bitwise identical to one built without a
//! plan (`tests/chaos.rs` enforces this against the sequential replay).

use crate::router::mix64;
use serde::{Deserialize, Serialize};

/// What happens when a [`FaultEvent`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The shard worker panics before processing the request at the event's
    /// index (the request is answered `Dropped`; the supervisor respawns or
    /// buries the shard).
    Panic,
    /// The worker spins this many iterations before processing the request.
    Delay {
        /// Busy-loop iterations (`std::hint::spin_loop`), bounding the stall
        /// without any wall-clock dependency.
        spins: u32,
    },
    /// The worker stalls before the request until its queue is full or the
    /// producer side has hung up, manufacturing a backpressure episode.
    QueueFull,
    /// Damages every stored checkpoint candidate for the shard — both
    /// in-memory buffers and the on-disk spill — immediately before the
    /// request at the event's index. `torn` truncates the frames (a torn
    /// write); otherwise a mid-frame bit is flipped (bit rot). On its own
    /// the fault is result-invisible; paired with a later `Panic` it proves
    /// the restore path detects the damage and falls back cold.
    CorruptCheckpoint {
        /// Truncate the frames instead of flipping a bit.
        torn: bool,
    },
    /// Poisons the shard's hot standby (no-op without one): the standby's
    /// applied frame is discarded and the next replication feed detects and
    /// journals the loss, then re-seeds a fresh standby. Paired with a
    /// budget-exhausting `Panic` before the re-seed lands, it proves a lost
    /// standby falls back to burial — detected and journaled, never a
    /// silent promotion of stale state.
    CorruptStandby,
}

impl FaultKind {
    /// Stable journal label. Part of the deterministic journal contract:
    /// integers and fixed strings only.
    pub fn label(&self) -> String {
        match self {
            FaultKind::Panic => "panic".into(),
            FaultKind::Delay { spins } => format!("delay({spins})"),
            FaultKind::QueueFull => "queue-full".into(),
            FaultKind::CorruptCheckpoint { torn: true } => "corrupt-ckpt(torn)".into(),
            FaultKind::CorruptCheckpoint { torn: false } => "corrupt-ckpt(zeroed)".into(),
            FaultKind::CorruptStandby => "corrupt-standby".into(),
        }
    }
}

/// One scripted fault: `kind` fires on shard `shard` immediately before the
/// request with per-shard sequence number `at` is processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Shard the fault fires on.
    pub shard: usize,
    /// Per-shard request sequence number (0-based submission index within the
    /// shard's substream) the fault is keyed to.
    pub at: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic chaos script: a set of [`FaultEvent`]s, held sorted by
/// `(shard, at)`. The default plan is empty (no faults).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan over the given events (sorted internally; at most one `Panic`
    /// per `(shard, at)` is kept — a worker can only die once per request).
    pub fn new(events: Vec<FaultEvent>) -> Self {
        let mut plan = Self { events };
        plan.normalize();
        plan
    }

    /// Adds one event.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
        self.normalize();
    }

    /// True when the plan scripts no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scripted events, sorted by `(shard, at)`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scripted `Panic` events.
    pub fn panics(&self) -> usize {
        self.events.iter().filter(|e| e.kind == FaultKind::Panic).count()
    }

    fn normalize(&mut self) {
        self.events.sort_by_key(|e| (e.shard, e.at, fault_rank(e.kind)));
        // Duplicate panics at one (shard, at) collapse to a single death.
        self.events.dedup_by(|a, b| a.shard == b.shard && a.at == b.at && a.kind == b.kind);
    }

    /// A seeded random plan: `n_events` faults spread over `shards` shards
    /// with per-shard indices below `horizon`. Same seed ⇒ same plan — the
    /// generator is a self-contained SplitMix64 over the router's
    /// [`mix64`], so chaos sweeps need no external RNG.
    pub fn random(seed: u64, shards: usize, horizon: u64, n_events: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(horizon > 0, "horizon must be positive");
        let mut state = seed;
        let mut next = move || -> u64 {
            let z = mix64(state);
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z
        };
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let shard = (next() % shards as u64) as usize;
            let at = next() % horizon;
            let kind = match next() % 4 {
                // Panics weighted at 50%: they are what supervision is for.
                0 | 1 => FaultKind::Panic,
                2 => FaultKind::Delay { spins: (next() % 8_192) as u32 },
                _ => FaultKind::QueueFull,
            };
            events.push(FaultEvent { shard, at, kind });
        }
        Self::new(events)
    }

    /// The per-shard panic indices, sorted ascending — what each shard's
    /// lane holds to stop a delivery at its fatal request.
    pub(crate) fn panic_indices(&self, shards: usize) -> Vec<Vec<u64>> {
        let mut out = vec![Vec::new(); shards];
        for e in &self.events {
            if e.kind == FaultKind::Panic && e.shard < shards {
                out[e.shard].push(e.at);
            }
        }
        // `events` is sorted by (shard, at); each per-shard list is too, but
        // dedup defensively against hand-built plans.
        for v in &mut out {
            v.dedup();
        }
        out
    }
}

/// Sort rank so that at one `(shard, at)` a delay/queue-full fault fires
/// before a panic (the panic ends the incarnation).
fn fault_rank(kind: FaultKind) -> u8 {
    match kind {
        FaultKind::Delay { .. } => 0,
        FaultKind::QueueFull => 1,
        FaultKind::CorruptCheckpoint { .. } => 2,
        FaultKind::CorruptStandby => 3,
        FaultKind::Panic => 4,
    }
}

/// The worker-side view of a plan: the events of one shard, at indices at or
/// beyond the incarnation's first request, consumed in order as the worker
/// counts its requests.
#[derive(Debug, Default)]
pub(crate) struct ShardFaultCursor {
    events: Vec<(u64, FaultKind)>,
    next: usize,
}

impl ShardFaultCursor {
    /// Cursor over `shard`'s events with per-shard index ≥ `from` (the first
    /// index this incarnation will see).
    pub(crate) fn for_shard(plan: &FaultPlan, shard: usize, from: u64) -> Self {
        let events = plan
            .events
            .iter()
            .filter(|e| e.shard == shard && e.at >= from)
            .map(|e| (e.at, e.kind))
            .collect();
        Self { events, next: 0 }
    }

    /// Pops the next fault scheduled at per-shard index `idx`, if any.
    /// Callers loop until `None`: several non-panic faults may share an index.
    pub(crate) fn take(&mut self, idx: u64) -> Option<FaultKind> {
        // Skip events the incarnation raced past (defensive; `from` filtering
        // makes this a no-op in practice).
        while self.events.get(self.next).is_some_and(|&(at, _)| at < idx) {
            self.next += 1;
        }
        match self.events.get(self.next) {
            Some(&(at, kind)) if at == idx => {
                self.next += 1;
                Some(kind)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_sort_and_dedup_panics() {
        let plan = FaultPlan::new(vec![
            FaultEvent { shard: 1, at: 50, kind: FaultKind::Panic },
            FaultEvent { shard: 0, at: 10, kind: FaultKind::Panic },
            FaultEvent { shard: 1, at: 50, kind: FaultKind::Panic },
            FaultEvent { shard: 1, at: 50, kind: FaultKind::Delay { spins: 5 } },
        ]);
        assert_eq!(plan.events().len(), 3, "duplicate panic collapsed");
        assert_eq!(plan.panics(), 2);
        // Delay sorts before the panic at the shared index.
        assert_eq!(plan.events()[1].kind, FaultKind::Delay { spins: 5 });
        assert_eq!(plan.events()[2].kind, FaultKind::Panic);
        assert_eq!(plan.panic_indices(2), vec![vec![10], vec![50]]);
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = FaultPlan::random(7, 4, 10_000, 12);
        let b = FaultPlan::random(7, 4, 10_000, 12);
        let c = FaultPlan::random(8, 4, 10_000, 12);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, c, "different seed, different plan");
        assert!(a.events().iter().all(|e| e.shard < 4 && e.at < 10_000));
    }

    #[test]
    fn random_plans_are_pinned() {
        // Logged plans replay from their seed, so the generator's draws are
        // part of the format.
        let event = |shard, at, kind| FaultEvent { shard, at, kind };
        assert_eq!(
            FaultPlan::random(7, 4, 10_000, 6).events(),
            [
                event(0, 8_990, FaultKind::Panic),
                event(1, 4_425, FaultKind::QueueFull),
                event(2, 4_680, FaultKind::QueueFull),
                event(2, 8_305, FaultKind::Delay { spins: 7_934 }),
                event(3, 5_804, FaultKind::Delay { spins: 2_507 }),
                event(3, 9_797, FaultKind::Panic),
            ]
        );
    }

    #[test]
    fn cursor_yields_events_in_index_order() {
        let plan = FaultPlan::new(vec![
            FaultEvent { shard: 0, at: 3, kind: FaultKind::Delay { spins: 1 } },
            FaultEvent { shard: 0, at: 3, kind: FaultKind::QueueFull },
            FaultEvent { shard: 0, at: 9, kind: FaultKind::Panic },
            FaultEvent { shard: 1, at: 4, kind: FaultKind::Panic },
        ]);
        let mut cur = ShardFaultCursor::for_shard(&plan, 0, 0);
        assert_eq!(cur.take(0), None);
        assert_eq!(cur.take(3), Some(FaultKind::Delay { spins: 1 }));
        assert_eq!(cur.take(3), Some(FaultKind::QueueFull));
        assert_eq!(cur.take(3), None);
        assert_eq!(cur.take(9), Some(FaultKind::Panic));

        // A respawned incarnation starting at index 5 skips earlier events.
        let mut cur = ShardFaultCursor::for_shard(&plan, 0, 5);
        assert_eq!(cur.take(9), Some(FaultKind::Panic));

        let mut other = ShardFaultCursor::for_shard(&plan, 1, 0);
        assert_eq!(other.take(4), Some(FaultKind::Panic));
    }

    #[test]
    fn plan_serde_roundtrips() {
        let plan = FaultPlan::random(42, 3, 1_000, 6);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
