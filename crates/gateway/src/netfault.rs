//! Deterministic network fault injection for chaos testing the gateway.
//!
//! A [`NetFaultPlan`] is the fleet's fault script ([`darwin_shard::fault`])
//! over [`NetFaultKind`]: each [`NetFaultEvent`] is keyed off a **gateway
//! connection id** (the 0-based accept order) and a **per-connection frame
//! sequence number** (the 0-based index of a well-formed frame decoded on
//! that connection). Neither key involves a wall clock, so the same client
//! behaviour under the same plan reproduces the same faults at the same
//! frames, run after run — hostile-network runs are bit-for-bit auditable
//! through the gateway's event journal.
//!
//! Every fired fault is journaled as a gateway
//! [`EventKind::NetFault`](darwin_obs::EventKind::NetFault) and counted in
//! the gateway's `net_faults` counter.

use darwin_shard::fault::{Fault, Plan, PlanEvent};
use serde::{Deserialize, Serialize};

/// What happens when a [`NetFaultEvent`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetFaultKind {
    /// Tear the connection down abruptly right after the keyed frame is
    /// decoded (before it is handled), as if the peer's NAT dropped the
    /// mapping: in-flight replies are abandoned and the client follows its
    /// reconnect-and-resubmit protocol.
    Reset,
    /// Spin this many iterations before handling the keyed frame: a
    /// stand-in for a congested or bufferbloated path.
    Stall {
        /// Busy-loop iterations ([`spin`](darwin_shard::fault::spin)),
        /// bounding the stall without any wall-clock dependency.
        spins: u32,
    },
    /// Treat the keyed frame as corrupted in flight: reject it (counted in
    /// `frames_rejected`) and close the connection, as the codec does for
    /// genuinely malformed bytes.
    Corrupt,
    /// Spin this many iterations before accepting the keyed connection, a
    /// listen-queue stall (`at` is ignored for this kind).
    AcceptPause {
        /// Busy-loop iterations in the acceptor.
        spins: u32,
    },
}

impl Fault for NetFaultKind {
    fn label(&self) -> String {
        match self {
            NetFaultKind::Reset => "reset".into(),
            NetFaultKind::Stall { spins } => format!("stall({spins})"),
            NetFaultKind::Corrupt => "corrupt".into(),
            NetFaultKind::AcceptPause { spins } => format!("accept-pause({spins})"),
        }
    }

    // A stall fires before the reset or corruption that ends the connection.
    fn rank(&self) -> u8 {
        match self {
            NetFaultKind::AcceptPause { .. } => 0,
            NetFaultKind::Stall { .. } => 1,
            NetFaultKind::Corrupt => 2,
            NetFaultKind::Reset => 3,
        }
    }

    fn draw(next: &mut impl FnMut() -> u64) -> Self {
        match next() % 4 {
            0 => NetFaultKind::Reset,
            1 => NetFaultKind::Corrupt,
            2 => NetFaultKind::Stall { spins: (next() % 8_192) as u32 },
            _ => NetFaultKind::AcceptPause { spins: (next() % 8_192) as u32 },
        }
    }
}

/// A hostile-network script, keyed by connection and frame index. The
/// default plan is empty (a healthy network).
pub type NetFaultPlan = Plan<NetFaultKind>;
/// One scripted network fault.
pub type NetFaultEvent = PlanEvent<NetFaultKind>;

/// Accept-pause spins scripted for connection `conn`, if any (summed over
/// duplicate events).
pub(crate) fn accept_pause(plan: &NetFaultPlan, conn: u64) -> Option<u32> {
    let total: u64 = plan
        .events()
        .iter()
        .filter(|e| e.unit as u64 == conn)
        .filter_map(|e| match e.kind {
            NetFaultKind::AcceptPause { spins } => Some(spins as u64),
            _ => None,
        })
        .sum();
    (total > 0).then(|| total.min(u32::MAX as u64) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_sort_and_dedup() {
        let plan = NetFaultPlan::new(vec![
            NetFaultEvent { unit: 1, at: 50, kind: NetFaultKind::Reset },
            NetFaultEvent { unit: 0, at: 10, kind: NetFaultKind::Corrupt },
            NetFaultEvent { unit: 1, at: 50, kind: NetFaultKind::Reset },
            NetFaultEvent { unit: 1, at: 50, kind: NetFaultKind::Stall { spins: 5 } },
        ]);
        assert_eq!(plan.events().len(), 3, "duplicate reset collapsed");
        // The stall sorts before the reset at the shared frame.
        assert_eq!(plan.events()[1].kind, NetFaultKind::Stall { spins: 5 });
        assert_eq!(plan.events()[2].kind, NetFaultKind::Reset);
    }

    #[test]
    fn random_plans_are_pinned() {
        // Logged plans replay from their seed, so the generator's draws are
        // part of the format.
        let event = |unit, at, kind| NetFaultEvent { unit, at, kind };
        assert_eq!(
            NetFaultPlan::random(7, 4, 1_000, 6).events(),
            [
                event(0, 743, NetFaultKind::Corrupt),
                event(1, 425, NetFaultKind::AcceptPause { spins: 812 }),
                event(2, 305, NetFaultKind::Stall { spins: 7_934 }),
                event(2, 344, NetFaultKind::Stall { spins: 1_528 }),
                event(3, 804, NetFaultKind::Stall { spins: 2_507 }),
                event(3, 991, NetFaultKind::Corrupt),
            ]
        );
    }
}
