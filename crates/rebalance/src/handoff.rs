//! The live-handoff state machine.
//!
//! A resize drains every shard of the serving generation through the
//! one-way phase sequence `Serving → Draining → Transferring → Retired`
//! ([`HandoffTracker`] enforces the order) and cuts a final
//! [`ShardCheckpoint`](darwin_shard::ShardCheckpoint) at each shard's
//! request-sequence boundary. Each surviving shard's cut then travels to
//! the successor generation as a
//! [`CutRole::Handoff`](darwin_ckpt::replica::CutRole) shipment of the cut
//! envelope ([`darwin_ckpt::replica`] has the format, the sender and the
//! apply gate — the same ones a standby feed uses), so a truncated,
//! bit-flipped or misrouted transfer can fail loudly but never silently
//! mis-restore.

use darwin_shard::ShardPhase;

/// Enforces the one-way handoff phase order for every shard of a draining
/// generation.
#[derive(Debug)]
pub struct HandoffTracker {
    phases: Vec<ShardPhase>,
}

impl HandoffTracker {
    /// All shards start `Serving`.
    pub fn new(shards: usize) -> Self {
        Self { phases: vec![ShardPhase::Serving; shards] }
    }

    /// Current phase of `shard`.
    pub fn phase(&self, shard: usize) -> ShardPhase {
        self.phases[shard]
    }

    /// Advances `shard` to `to`, refusing any transition that is not the
    /// immediate next phase — a shard can never skip `Transferring` or move
    /// backwards out of `Retired`.
    pub fn advance(&mut self, shard: usize, to: ShardPhase) -> Result<(), String> {
        let from = self.phases[shard];
        if !from.can_advance_to(to) {
            return Err(format!("shard {shard}: illegal transition {from:?} -> {to:?}"));
        }
        self.phases[shard] = to;
        Ok(())
    }

    /// True when every shard reached `phase`.
    pub fn all_at(&self, phase: ShardPhase) -> bool {
        self.phases.iter().all(|&p| p == phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_enforces_one_way_order() {
        let mut tr = HandoffTracker::new(2);
        assert!(tr.advance(0, ShardPhase::Transferring).is_err(), "cannot skip draining");
        tr.advance(0, ShardPhase::Draining).unwrap();
        assert!(tr.advance(0, ShardPhase::Draining).is_err(), "no self-loops");
        tr.advance(0, ShardPhase::Transferring).unwrap();
        tr.advance(0, ShardPhase::Retired).unwrap();
        assert!(tr.advance(0, ShardPhase::Serving).is_err(), "retired is terminal");
        assert!(!tr.all_at(ShardPhase::Retired));
        tr.advance(1, ShardPhase::Draining).unwrap();
        tr.advance(1, ShardPhase::Transferring).unwrap();
        tr.advance(1, ShardPhase::Retired).unwrap();
        assert!(tr.all_at(ShardPhase::Retired));
    }
}
