//! Deterministic fault scripts, one mechanism for every layer.
//!
//! A [`Plan`] is a script of [`PlanEvent`]s, each keyed off a **unit** and an
//! **index** within that unit, neither of which involves a wall clock. The
//! fleet's [`FaultPlan`] keys a shard and a **per-shard request sequence
//! number** — the index, starting at 0, of a request within the subsequence
//! of the submitted stream that routes to its shard. Because the router is a
//! pure function of `(id, shards)`, that index is a property of the trace
//! alone. The gateway's `NetFaultPlan` keys a connection (the 0-based accept
//! order) and a per-connection frame index. Either way the same input under
//! the same plan produces the same faults at the same places, run after run.
//!
//! Each layer brings only its kind enum and a [`Fault`] impl for it: a
//! journal label, a sort rank among faults sharing an index, and a seeded
//! draw. The plan, its normalisation, the seeded generator
//! ([`Plan::random`]), the per-unit [`Cursor`] and the busy-wait [`spin`] are
//! shared.
//!
//! The fleet scripts the five [`FaultKind`]s. A scripted `Panic` is
//! **bit-for-bit reproducible**, unlike an organic panic whose in-flight set
//! depends on thread timing: the shard's ingest lane, whichever front
//! delivers, delivers a run only up to the fatal request and joins the
//! doomed worker before handing the shard anything more.
//!
//! Plans can be written by hand ([`Plan::new`] / [`Plan::push`]) or
//! generated from a seed ([`Plan::random`]) — both are plain data
//! (serde-serializable) so a failing chaos run can be replayed from its
//! logged plan. The empty plan is the identity: a fleet built through
//! [`ShardedFleet::with_fault_plan`](crate::ShardedFleet::with_fault_plan)
//! with `FaultPlan::default()` is bitwise identical to one built without a
//! plan (`tests/chaos.rs` enforces this against the sequential replay).

use crate::router::mix64;
use serde::{Deserialize, Serialize};

/// A layer's kind of scripted fault.
pub trait Fault: Copy + Eq {
    /// Stable journal label. Part of the deterministic journal contract:
    /// integers and fixed strings only.
    fn label(&self) -> String;
    /// Order among faults sharing one `(unit, at)`: lower fires first, so a
    /// stall precedes the fault that ends the unit.
    fn rank(&self) -> u8;
    /// One seeded fault, drawn from [`Plan::random`]'s stream.
    fn draw(next: &mut impl FnMut() -> u64) -> Self;
}

/// What happens when a [`FaultEvent`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The shard worker panics before processing the request at the event's
    /// index. The request is answered `Dropped`; everything before it was
    /// served by the dying incarnation, everything after it by the respawned
    /// one (or answered `Unavailable` once the restart budget is spent).
    Panic,
    /// The worker spins this many iterations before processing the request:
    /// a stand-in for a slow disk or a controller stall. Under
    /// [`Backpressure::Block`](crate::Backpressure) it only stretches wall
    /// clock; under `DropNewest` it forces real shedding.
    Delay {
        /// Busy-loop iterations ([`spin`]), bounding the stall without any
        /// wall-clock dependency.
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

impl Fault for FaultKind {
    fn label(&self) -> String {
        match self {
            FaultKind::Panic => "panic".into(),
            FaultKind::Delay { spins } => format!("delay({spins})"),
            FaultKind::QueueFull => "queue-full".into(),
            FaultKind::CorruptCheckpoint { torn: true } => "corrupt-ckpt(torn)".into(),
            FaultKind::CorruptCheckpoint { torn: false } => "corrupt-ckpt(zeroed)".into(),
            FaultKind::CorruptStandby => "corrupt-standby".into(),
        }
    }

    // A panic ends the incarnation, so it fires last.
    fn rank(&self) -> u8 {
        match self {
            FaultKind::Delay { .. } => 0,
            FaultKind::QueueFull => 1,
            FaultKind::CorruptCheckpoint { .. } => 2,
            FaultKind::CorruptStandby => 3,
            FaultKind::Panic => 4,
        }
    }

    fn draw(next: &mut impl FnMut() -> u64) -> Self {
        match next() % 4 {
            // Panics weighted at 50%: they are what supervision is for.
            0 | 1 => FaultKind::Panic,
            2 => FaultKind::Delay { spins: (next() % 8_192) as u32 },
            _ => FaultKind::QueueFull,
        }
    }
}

/// One scripted fault: `kind` fires on unit `unit` (a shard, a connection)
/// immediately before that unit's item with index `at` is handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanEvent<K> {
    /// The unit the fault fires on.
    pub unit: usize,
    /// The 0-based index within the unit (a shard's request, a connection's
    /// frame) the fault is keyed to.
    pub at: u64,
    /// What happens.
    pub kind: K,
}

/// A deterministic fault script: a set of [`PlanEvent`]s, held sorted by
/// `(unit, at, rank)`. The default plan is empty (no faults).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Plan<K> {
    events: Vec<PlanEvent<K>>,
}

/// The fleet's fault script, keyed by shard and per-shard request index.
pub type FaultPlan = Plan<FaultKind>;
/// One scripted fleet fault.
pub type FaultEvent = PlanEvent<FaultKind>;

impl<K> Default for Plan<K> {
    fn default() -> Self {
        Self { events: Vec::new() }
    }
}

impl<K: Fault> Plan<K> {
    /// A plan over the given events (sorted internally; exact duplicates
    /// collapse — a unit can only die once at one index).
    pub fn new(events: Vec<PlanEvent<K>>) -> Self {
        let mut plan = Self { events };
        plan.normalize();
        plan
    }

    /// Adds one event.
    pub fn push(&mut self, event: PlanEvent<K>) {
        self.events.push(event);
        self.normalize();
    }

    /// True when the plan scripts no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scripted events, sorted by `(unit, at, rank)`.
    pub fn events(&self) -> &[PlanEvent<K>] {
        &self.events
    }

    fn normalize(&mut self) {
        self.events.sort_by_key(|e| (e.unit, e.at, e.kind.rank()));
        self.events.dedup();
    }

    /// A seeded random plan: `n_events` faults spread over `units` units
    /// with per-unit indices below `horizon`. Same seed ⇒ same plan — the
    /// generator is a self-contained SplitMix64 over the router's
    /// [`mix64`], so chaos sweeps need no external RNG.
    pub fn random(seed: u64, units: usize, horizon: u64, n_events: usize) -> Self {
        assert!(units > 0, "at least one unit");
        assert!(horizon > 0, "horizon must be positive");
        let mut state = seed;
        let mut next = move || -> u64 {
            let z = mix64(state);
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z
        };
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let unit = (next() % units as u64) as usize;
            let at = next() % horizon;
            events.push(PlanEvent { unit, at, kind: K::draw(&mut next) });
        }
        Self::new(events)
    }

    /// The cursor over `unit`'s events with index ≥ `from` (the first index
    /// the consumer will see).
    pub fn cursor(&self, unit: usize, from: u64) -> Cursor<K> {
        let events = self
            .events
            .iter()
            .filter(|e| e.unit == unit && e.at >= from)
            .map(|e| (e.at, e.kind))
            .collect();
        Cursor { events, next: 0 }
    }
}

impl FaultPlan {
    /// Number of scripted `Panic` events.
    pub fn panics(&self) -> usize {
        self.events.iter().filter(|e| e.kind == FaultKind::Panic).count()
    }

    /// The per-shard panic indices, sorted ascending — what each shard's
    /// lane holds to stop a delivery at its fatal request.
    pub(crate) fn panic_indices(&self, shards: usize) -> Vec<Vec<u64>> {
        let mut out = vec![Vec::new(); shards];
        for e in &self.events {
            if e.kind == FaultKind::Panic && e.unit < shards {
                out[e.unit].push(e.at);
            }
        }
        // Dedup defensively against deserialized plans.
        for v in &mut out {
            v.dedup();
        }
        out
    }
}

/// One unit's view of a plan: its events from some index on, consumed in
/// order as the unit counts its items.
#[derive(Debug)]
pub struct Cursor<K> {
    events: Vec<(u64, K)>,
    next: usize,
}

impl<K: Fault> Cursor<K> {
    /// Pops the next fault scheduled at index `idx`, if any. Callers loop
    /// until `None`: several faults may share an index.
    pub fn take(&mut self, idx: u64) -> Option<K> {
        // Skip events the consumer raced past (defensive; `from` filtering
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

/// The deterministic busy-wait behind every scripted stall: `spins`
/// iterations of [`std::hint::spin_loop`], no wall clock involved.
pub fn spin(spins: u32) {
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_sort_and_dedup_panics() {
        let plan = FaultPlan::new(vec![
            FaultEvent { unit: 1, at: 50, kind: FaultKind::Panic },
            FaultEvent { unit: 0, at: 10, kind: FaultKind::Panic },
            FaultEvent { unit: 1, at: 50, kind: FaultKind::Panic },
            FaultEvent { unit: 1, at: 50, kind: FaultKind::Delay { spins: 5 } },
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
        assert!(a.events().iter().all(|e| e.unit < 4 && e.at < 10_000));
    }

    #[test]
    fn random_plans_are_pinned() {
        // Logged plans replay from their seed, so the generator's draws are
        // part of the format.
        let event = |unit, at, kind| FaultEvent { unit, at, kind };
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
            FaultEvent { unit: 0, at: 3, kind: FaultKind::Delay { spins: 1 } },
            FaultEvent { unit: 0, at: 3, kind: FaultKind::QueueFull },
            FaultEvent { unit: 0, at: 9, kind: FaultKind::Panic },
            FaultEvent { unit: 1, at: 4, kind: FaultKind::Panic },
        ]);
        let mut cur = plan.cursor(0, 0);
        assert_eq!(cur.take(0), None);
        assert_eq!(cur.take(3), Some(FaultKind::Delay { spins: 1 }));
        assert_eq!(cur.take(3), Some(FaultKind::QueueFull));
        assert_eq!(cur.take(3), None);
        assert_eq!(cur.take(9), Some(FaultKind::Panic));

        // A respawned incarnation starting at index 5 skips earlier events.
        let mut cur = plan.cursor(0, 5);
        assert_eq!(cur.take(9), Some(FaultKind::Panic));

        let mut other = plan.cursor(1, 0);
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
