//! Shard-worker supervision: restart policy and per-shard health tracking.
//!
//! A [`Supervisor`] sits (logically) above one shard worker. When the worker
//! dies — an organic panic detected by a failed queue push, or a scripted
//! [`FaultKind::Panic`](crate::fault::FaultKind) — the fleet asks the
//! supervisor what to do. The answer is governed by a [`RestartBudget`]:
//! up to `max_restarts` cold restarts within any sliding window of
//! `window_requests` of the *shard's own* delivered requests (request
//! counts, not wall clock, and not a fleet-wide count that concurrent
//! producers would race on — so chaos runs stay deterministic). Inside the budget the worker is respawned
//! with a fresh `CacheServer` and a fresh admission driver — a cold restart,
//! exactly what a production cache node does after a crash: the learned
//! state is gone, the shard re-warms. Beyond the budget the shard is marked
//! **permanently dead** and every later request routed to it is answered
//! `Unavailable` immediately (degraded mode) instead of queueing into a
//! crash loop.
//!
//! When the shard runs with a hot standby (see
//! [`StandbySlot`](crate::standby::StandbySlot)), exhausting the budget no
//! longer has to bury the shard: the fleet asks
//! [`Supervisor::on_worker_death_with_standby`] instead, and a ready standby
//! turns the `Bury` into a [`SupervisorVerdict::Promote`] — the replica's
//! last applied frame is installed and the worker warm-restarts from it.
//! Promotion does **not** refill the restart budget: the window marks stay
//! in place, so a crash-looping shard keeps paying for every death and is
//! buried the moment it dies without a ready standby.
//!
//! Budget state (`restarts` plus the in-window marks) travels inside every
//! [`ShardCheckpoint`](crate::ckpt::ShardCheckpoint) so a warm boot or
//! restore cannot launder a crash-looper's history back to zero.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// How many cold restarts a shard is allowed before it is declared dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RestartBudget {
    /// Maximum restarts tolerated within one window. 0 means the first panic
    /// kills the shard permanently.
    pub max_restarts: u32,
    /// Sliding-window length, counted in requests delivered to the shard (a
    /// deterministic clock, whichever front delivers them). Restarts older
    /// than this no longer count against the budget.
    pub window_requests: u64,
}

impl Default for RestartBudget {
    fn default() -> Self {
        Self { max_restarts: 3, window_requests: 100_000 }
    }
}

impl RestartBudget {
    /// A budget of `max_restarts` over the default window.
    pub fn with_max_restarts(max_restarts: u32) -> Self {
        Self { max_restarts, ..Self::default() }
    }
}

/// What the fleet should do with a shard whose worker just died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorVerdict {
    /// Within budget: cold-restart the worker (fresh server, fresh driver).
    Respawn,
    /// Budget exhausted: mark the shard permanently dead; answer everything
    /// routed to it `Unavailable`.
    Bury,
    /// Budget exhausted but a hot standby is ready: install the standby's
    /// frame and warm-restart the worker from it instead of burying. The
    /// budget is *not* refilled — the next death must present a fresh
    /// standby or the shard is buried.
    Promote,
}

/// Per-shard supervision state: the restart history against its budget.
#[derive(Debug, Clone)]
pub struct Supervisor {
    budget: RestartBudget,
    /// The shard's delivered-request counts at which past restarts happened
    /// (only those still inside the window are retained).
    marks: VecDeque<u64>,
    restarts: u32,
    promotions: u32,
    dead: bool,
}

impl Supervisor {
    /// A supervisor enforcing `budget`.
    pub fn new(budget: RestartBudget) -> Self {
        Self { budget, marks: VecDeque::new(), restarts: 0, promotions: 0, dead: false }
    }

    /// A supervisor reconstituted from checkpointed budget state: `restarts`
    /// granted so far and the request counts of the still-in-window
    /// restarts. Used on warm boot / restore so a crash-looping shard cannot
    /// reset its budget by riding through a checkpoint (satellite of the
    /// replication layer). Marks are kept sorted; callers pass them as they
    /// came out of the frame.
    pub fn with_state(budget: RestartBudget, restarts: u32, marks: &[u64]) -> Self {
        let mut marks: Vec<u64> = marks.to_vec();
        marks.sort_unstable();
        Self { budget, marks: marks.into(), restarts, promotions: 0, dead: false }
    }

    /// Records a worker death observed at the shard's request count `now` and
    /// decides between respawn and burial. Idempotent once dead.
    pub fn on_worker_death(&mut self, now: u64) -> SupervisorVerdict {
        self.on_worker_death_with_standby(now, false)
    }

    /// Like [`on_worker_death`](Self::on_worker_death), but aware of a hot
    /// standby. Within budget the answer is the usual `Respawn` (the budget
    /// is consumed first — promotion is the *past-budget* escape hatch, not
    /// a cheaper restart). Past the budget, a ready standby yields
    /// `Promote` without marking the shard dead; without one the shard is
    /// buried exactly as before.
    pub fn on_worker_death_with_standby(&mut self, now: u64, standby_ready: bool) -> SupervisorVerdict {
        if self.dead {
            return SupervisorVerdict::Bury;
        }
        let horizon = now.saturating_sub(self.budget.window_requests);
        while self.marks.front().is_some_and(|&m| m < horizon) {
            self.marks.pop_front();
        }
        if (self.marks.len() as u64) < u64::from(self.budget.max_restarts) {
            self.marks.push_back(now);
            self.restarts += 1;
            SupervisorVerdict::Respawn
        } else if standby_ready {
            self.promotions += 1;
            SupervisorVerdict::Promote
        } else {
            self.dead = true;
            SupervisorVerdict::Bury
        }
    }

    /// Cold restarts granted so far.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Standby promotions granted so far (past-budget deaths answered by a
    /// ready replica instead of burial).
    pub fn promotions(&self) -> u32 {
        self.promotions
    }

    /// The request counts of restarts still inside the sliding window,
    /// oldest first — the budget state a checkpoint must carry.
    pub fn marks(&self) -> Vec<u64> {
        self.marks.iter().copied().collect()
    }

    /// The budget this supervisor enforces.
    pub fn budget(&self) -> &RestartBudget {
        &self.budget
    }

    /// True once the shard has been declared permanently dead.
    pub fn is_dead(&self) -> bool {
        self.dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respawns_within_budget_then_buries() {
        let mut sup = Supervisor::new(RestartBudget { max_restarts: 2, window_requests: 1_000 });
        assert_eq!(sup.on_worker_death(10), SupervisorVerdict::Respawn);
        assert_eq!(sup.on_worker_death(20), SupervisorVerdict::Respawn);
        assert_eq!(sup.restarts(), 2);
        assert!(!sup.is_dead());
        assert_eq!(sup.on_worker_death(30), SupervisorVerdict::Bury);
        assert!(sup.is_dead());
        assert_eq!(sup.restarts(), 2, "burial is not a restart");
        // Idempotent once dead, regardless of how far the clock moves.
        assert_eq!(sup.on_worker_death(1_000_000), SupervisorVerdict::Bury);
    }

    #[test]
    fn window_expiry_refills_the_budget() {
        let mut sup = Supervisor::new(RestartBudget { max_restarts: 1, window_requests: 100 });
        assert_eq!(sup.on_worker_death(0), SupervisorVerdict::Respawn);
        // Second death 200 requests later: the first mark fell out of the
        // window, so the budget has refilled.
        assert_eq!(sup.on_worker_death(200), SupervisorVerdict::Respawn);
        assert_eq!(sup.restarts(), 2);
        // A third death inside the second mark's window exhausts it.
        assert_eq!(sup.on_worker_death(250), SupervisorVerdict::Bury);
    }

    #[test]
    fn zero_budget_buries_immediately() {
        let mut sup = Supervisor::new(RestartBudget::with_max_restarts(0));
        assert_eq!(sup.on_worker_death(5), SupervisorVerdict::Bury);
        assert!(sup.is_dead());
        assert_eq!(sup.restarts(), 0);
    }

    #[test]
    fn ready_standby_turns_burial_into_promotion() {
        let mut sup = Supervisor::new(RestartBudget { max_restarts: 1, window_requests: 1_000 });
        // Budget consumed first: standby readiness does not make restarts cheaper.
        assert_eq!(sup.on_worker_death_with_standby(10, true), SupervisorVerdict::Respawn);
        // Past the budget: a ready standby promotes instead of burying.
        assert_eq!(sup.on_worker_death_with_standby(20, true), SupervisorVerdict::Promote);
        assert!(!sup.is_dead());
        assert_eq!(sup.promotions(), 1);
        assert_eq!(sup.restarts(), 1, "promotion is not a budgeted restart");
        // Promotion did not refill the budget: the next death with no
        // standby is the burial we would have had all along.
        assert_eq!(sup.on_worker_death_with_standby(30, false), SupervisorVerdict::Bury);
        assert!(sup.is_dead());
        // Once dead, a standby cannot resurrect the shard.
        assert_eq!(sup.on_worker_death_with_standby(40, true), SupervisorVerdict::Bury);
        assert_eq!(sup.promotions(), 1);
    }

    #[test]
    fn zero_budget_with_standby_promotes_every_death() {
        let mut sup = Supervisor::new(RestartBudget::with_max_restarts(0));
        assert_eq!(sup.on_worker_death_with_standby(5, true), SupervisorVerdict::Promote);
        assert_eq!(sup.on_worker_death_with_standby(6, true), SupervisorVerdict::Promote);
        assert!(!sup.is_dead());
        assert_eq!(sup.promotions(), 2);
        assert_eq!(sup.restarts(), 0);
    }

    #[test]
    fn reconstituted_state_keeps_the_budget_spent() {
        let mut sup = Supervisor::new(RestartBudget { max_restarts: 2, window_requests: 1_000 });
        assert_eq!(sup.on_worker_death(100), SupervisorVerdict::Respawn);
        assert_eq!(sup.on_worker_death(200), SupervisorVerdict::Respawn);
        let (restarts, marks) = (sup.restarts(), sup.marks());
        assert_eq!(marks, vec![100, 200]);

        // A warm-booted supervisor carrying that state buries on the next
        // in-window death — no budget laundering through the checkpoint.
        let mut warm = Supervisor::with_state(*sup.budget(), restarts, &marks);
        assert_eq!(warm.restarts(), 2);
        assert_eq!(warm.on_worker_death(300), SupervisorVerdict::Bury);

        // But window expiry still works after reconstitution.
        let mut later = Supervisor::with_state(*sup.budget(), restarts, &marks);
        assert_eq!(later.on_worker_death(5_000), SupervisorVerdict::Respawn);
        assert_eq!(later.restarts(), 3);
    }
}
