//! Hot-standby replication state for one shard.
//!
//! A [`StandbySlot`] is the in-process stand-in for a standby cache node:
//! the primary's worker *feeds* it every checkpoint cut, and the slot plays
//! both ends of the replication channel — it ships the cut in a
//! [`CutRole::Replica`] [`CutFrame`] exactly as a primary would put it on
//! the wire, then decodes, address-checks and applies it exactly as a remote
//! standby would (the format and the gate are in [`darwin_ckpt::replica`];
//! a resize handoff goes through the same two calls). The first cut (and
//! every re-seed after a promotion or a detected loss) ships the full
//! checkpoint image; steady-state cuts ship a row delta against the frame
//! the standby already holds — the per-object rows that changed in the
//! window, plus the image's other bytes — laid out by
//! [`ShardCheckpoint::layout`], and planned from the worker's own list of
//! the rows it changed when the standby holds the cut that list is against
//! (by diffing the two frames otherwise). The standby therefore always
//! trails the primary by at most one checkpoint window — the lag bound the
//! failover contract quotes.
//!
//! When the shard's restart budget is exhausted, the fleet asks
//! [`ready`](StandbySlot::ready) and, on a
//! [`Promote`](crate::supervisor::SupervisorVerdict::Promote) verdict,
//! [`take_for_promotion`](StandbySlot::take_for_promotion) hands the last
//! applied frame over: the fleet installs it as the shard's newest restore
//! candidate and the respawned worker warm-restores it through the same
//! validated path every restart uses — which is why a promoted shard
//! answers bitwise-identically to an unfailed run from the checkpoint
//! boundary. Taking the frame empties the slot, so the next cut re-seeds a
//! fresh standby (full image) in the background.
//!
//! Every failure mode is detected and surfaced, never silent: a feed whose
//! envelope fails decoding, addressing or checkpoint validation marks the
//! standby *lost* ([`FeedOutcome::Lost`]); the next feed replaces it with a
//! fresh full seed ([`FeedOutcome::Replaced`]). A scripted
//! [`CorruptStandby`](crate::fault::FaultKind::CorruptStandby) fault drives
//! the same path deterministically via [`poison`](StandbySlot::poison).

use crate::ckpt::ShardCheckpoint;
use darwin_ckpt::replica::{CutFrame, CutRole, Held};
use darwin_ckpt::rows::Changes;
use std::sync::Mutex;

/// What one replication feed did to the standby.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedOutcome {
    /// The standby held no base: a full image was shipped and applied
    /// (first cut, or the background re-seed after a promotion).
    Seeded {
        /// Payload bytes the envelope shipped.
        shipped_bytes: u64,
    },
    /// Steady state: a row delta against the standby's held frame was
    /// shipped and applied.
    Applied {
        /// Payload bytes the envelope shipped (the changed rows, not the
        /// whole image).
        shipped_bytes: u64,
        /// Sequence distance the delta covered (`seq - base_seq`) — bounded
        /// by one checkpoint window.
        lag: u64,
    },
    /// The standby had been lost (poisoned, or a previous feed failed
    /// validation); this feed detected the loss and seeded a fresh standby
    /// with a full image.
    Replaced {
        /// Payload bytes the replacement seed shipped.
        shipped_bytes: u64,
    },
    /// This feed's envelope failed decoding, addressing or checkpoint
    /// validation: the standby is now lost (nothing was applied). The next
    /// feed will replace it.
    Lost,
}

/// The standby's applied state: the last checkpoint frame it reconstructed
/// and the boundary it covers.
#[derive(Debug, Default)]
struct StandbyState {
    /// Last applied, fully validated checkpoint frame.
    frame: Option<Vec<u8>>,
    /// Request-sequence boundary of `frame`: what the next delta names its
    /// base by.
    seq: u64,
    /// True once the standby is known-bad: poisoned by a scripted fault or
    /// failed a feed's validation. A lost standby never serves a promotion.
    lost: bool,
}

/// One shard's hot standby, shared between the shard's worker (feeder) and
/// the fleet core (promotion at settlement).
#[derive(Debug)]
pub struct StandbySlot {
    shard: usize,
    state: Mutex<StandbyState>,
}

impl StandbySlot {
    /// An empty (unseeded) standby for `shard`.
    pub fn new(shard: usize) -> Self {
        Self { shard, state: Mutex::new(StandbyState::default()) }
    }

    /// Shard this standby replicates.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Feeds the checkpoint cut at `seq` (the sealed
    /// [`ShardCheckpoint`] frame bytes) through the replication channel:
    /// [`CutFrame::ship`] seals a [`CutRole::Replica`] envelope on the
    /// primary side, then [`CutFrame::rebuild`] decodes, address-checks and
    /// resolves it on the standby side, and the image is opened as this
    /// shard's checkpoint at `seq` before it is stored — the one hash of
    /// the image on this side, and the check of a row delta's rebuild. The
    /// loopback is deliberate — the bytes that reach the standby's state are
    /// exactly the bytes that survived the wire format's gauntlet, so a
    /// corrupted or misrouted envelope can fail loudly but never silently
    /// mis-apply.
    ///
    /// `changes` are the rows the cut changed since the one its writer
    /// merged it into ([`ShardCheckpoint::cut_of`]): when that is the cut
    /// the standby holds, the delta is planned from them; otherwise — a
    /// re-seeded standby, a worker restored from an older cut — by diffing
    /// the two images, and the envelope is the same bytes either way.
    ///
    /// The image is rebuilt over the one the standby holds, in its own
    /// allocation ([`CutFrame::rebuild`]), so a steady feed writes over
    /// pages the standby already owns.
    pub fn feed(
        &self,
        generation: u32,
        seq: u64,
        frame: &[u8],
        changes: Option<&Changes>,
    ) -> FeedOutcome {
        let mut st = self.state.lock().expect("standby slot poisoned");
        let was_lost = std::mem::take(&mut st.lost);
        if was_lost {
            st.frame = None;
        }
        let held_seq = st.frame.as_ref().map(|_| st.seq);
        let mut image = st.frame.take().unwrap_or_default();
        let held = held_seq.map(|seq| Held { seq, image: &image });
        let (shard, role, layout) = (self.shard, CutRole::Replica, ShardCheckpoint::layout);
        let wire = CutFrame::ship_changes(shard, generation, role, seq, frame, held, changes, layout);
        let rebuilt = CutFrame::rebuild(&wire, shard, generation, role, held_seq, &mut image, layout)
            .ok()
            .filter(|_| ShardCheckpoint::header(&image) == Ok((shard, seq)));
        match rebuilt {
            Some(cut) => {
                st.frame = Some(image);
                st.seq = seq;
                let shipped_bytes = cut.shipped_bytes;
                match cut.base_seq {
                    None if was_lost => FeedOutcome::Replaced { shipped_bytes },
                    None => FeedOutcome::Seeded { shipped_bytes },
                    Some(base_seq) => {
                        FeedOutcome::Applied { shipped_bytes, lag: seq.saturating_sub(base_seq) }
                    }
                }
            }
            None => {
                st.lost = true;
                FeedOutcome::Lost
            }
        }
    }

    /// True when the standby holds a validated frame and is not lost — the
    /// question the supervisor's
    /// [`on_worker_death_with_standby`](crate::supervisor::Supervisor::on_worker_death_with_standby)
    /// asks at settlement.
    pub fn ready(&self) -> bool {
        let st = self.state.lock().expect("standby slot poisoned");
        st.frame.is_some() && !st.lost
    }

    /// Request-sequence boundary of the standby's applied frame, if any.
    pub fn applied_seq(&self) -> Option<u64> {
        let st = self.state.lock().expect("standby slot poisoned");
        st.frame.as_ref().map(|_| st.seq)
    }

    /// Hands the applied frame over for a failover promotion and empties
    /// the slot (the next feed re-seeds a fresh standby). Returns `None`
    /// when the standby is lost or unseeded — the caller must then bury the
    /// shard exactly as an unreplicated fleet would.
    pub fn take_for_promotion(&self) -> Option<(Vec<u8>, u64)> {
        let mut st = self.state.lock().expect("standby slot poisoned");
        if st.lost {
            return None;
        }
        let frame = st.frame.take()?;
        let seq = st.seq;
        *st = StandbyState::default();
        Some((frame, seq))
    }

    /// Deterministic fault injection: discards the applied frame and marks
    /// the standby lost, as if the standby process had died. The loss is
    /// detected and journaled at the next feed (which also re-seeds); a
    /// budget-exhausting death before then falls back to burial.
    pub fn poison(&self) {
        let mut st = self.state.lock().expect("standby slot poisoned");
        st.frame = None;
        st.lost = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_cache::{CacheConfig, CacheServer, ThresholdPolicy};
    use darwin_trace::Request;

    /// A real cut: shard `shard`'s checkpoint after `seq` requests over a
    /// catalogue of 5 000 objects — far more seen than resident, so the
    /// per-object tables are most of the image, as in a serving shard.
    fn ckpt_frame(shard: usize, seq: u64) -> Vec<u8> {
        let config = CacheConfig {
            dc_bytes: 4 * 1024 * 1024,
            expected_unique_objects: 4096,
            ..CacheConfig::small_test()
        };
        let policy = ThresholdPolicy::new(1, 64 * 1024);
        let mut server = CacheServer::new(config);
        server.set_policy(policy);
        for i in 0..seq {
            server.process(&Request::new(i.wrapping_mul(2_654_435_761) % 5_000, 20_000, i));
        }
        let ckpt = ShardCheckpoint {
            shard,
            seq,
            policy,
            cache: Vec::new(),
            driver: vec![seq as u8; 128],
            restarts: 1,
            budget_marks: vec![seq / 2],
        };
        ckpt.to_frame_of(&server)
    }

    /// A feed with no change list.
    fn feed(slot: &StandbySlot, generation: u32, seq: u64, frame: &[u8]) -> FeedOutcome {
        slot.feed(generation, seq, frame, None)
    }

    /// Where the standby's image lies, and its bytes.
    fn held(slot: &StandbySlot) -> (*const u8, Vec<u8>) {
        let st = slot.state.lock().unwrap();
        let image = st.frame.as_ref().expect("a seeded standby");
        (image.as_ptr(), image.clone())
    }

    /// A steady feed rebuilds the next cut over the image the standby
    /// holds, in that image's allocation; a rebuild that fails its open
    /// loses the standby, and the next feed seeds a replacement sized to
    /// the cut exactly.
    #[test]
    fn a_feed_rebuilds_the_image_in_the_spare_buffer() {
        let slot = StandbySlot::new(0);
        let (f1, f2, f3) = (ckpt_frame(0, 20_000), ckpt_frame(0, 21_000), ckpt_frame(0, 22_000));
        feed(&slot, 0, 20_000, &f1);
        slot.state.lock().unwrap().frame.as_mut().unwrap().reserve_exact(f2.len());
        let (at, _) = held(&slot);
        assert!(matches!(feed(&slot, 0, 21_000, &f2), FeedOutcome::Applied { .. }));
        assert_eq!(held(&slot), (at, f2.clone()));
        // A cut another shard's image fails its open: lost, not replaced.
        assert_eq!(feed(&slot, 0, 22_000, &ckpt_frame(1, 22_000)), FeedOutcome::Lost);
        assert!(!slot.ready());
        assert!(matches!(feed(&slot, 0, 22_000, &f3), FeedOutcome::Replaced { .. }));
        let (promoted, seq) = slot.take_for_promotion().expect("ready standby");
        assert_eq!((seq, &promoted, promoted.capacity()), (22_000, &f3, f3.len()));
    }

    #[test]
    fn seed_then_deltas_stay_within_one_window() {
        let slot = StandbySlot::new(0);
        assert!(!slot.ready());
        assert_eq!(slot.applied_seq(), None);

        let f1 = ckpt_frame(0, 20_000);
        match feed(&slot, 0, 20_000, &f1) {
            FeedOutcome::Seeded { shipped_bytes } => {
                assert_eq!(shipped_bytes, f1.len() as u64, "first feed ships the full image");
            }
            other => panic!("expected Seeded, got {other:?}"),
        }
        assert!(slot.ready());
        assert_eq!(slot.applied_seq(), Some(20_000));

        // The next cut ships the rows its window changed, and the lag
        // equals one checkpoint window.
        let f2 = ckpt_frame(0, 21_000);
        match feed(&slot, 0, 21_000, &f2) {
            FeedOutcome::Applied { shipped_bytes, lag } => {
                assert_eq!(lag, 1_000);
                assert!(
                    shipped_bytes < f2.len() as u64 / 2,
                    "delta ({shipped_bytes}B) must undercut the full image ({}B)",
                    f2.len()
                );
            }
            other => panic!("expected Applied, got {other:?}"),
        }
        // The applied frame is bitwise the primary's cut.
        let (frame, seq) = slot.take_for_promotion().expect("ready standby");
        assert_eq!(seq, 21_000);
        assert_eq!(frame, f2);
        // Taking empties the slot: the next feed is a fresh seed.
        assert!(!slot.ready());
        assert!(matches!(feed(&slot, 0, 22_000, &ckpt_frame(0, 22_000)), FeedOutcome::Seeded { .. }));
    }

    #[test]
    fn poison_is_detected_then_replaced() {
        let slot = StandbySlot::new(2);
        feed(&slot, 0, 500, &ckpt_frame(2, 500));
        assert!(slot.ready());
        slot.poison();
        assert!(!slot.ready());
        assert_eq!(slot.take_for_promotion(), None, "a lost standby never promotes");
        // The next feed detects the loss and seeds a replacement.
        match feed(&slot, 0, 1_000, &ckpt_frame(2, 1_000)) {
            FeedOutcome::Replaced { .. } => {}
            other => panic!("expected Replaced, got {other:?}"),
        }
        assert!(slot.ready());
        assert_eq!(slot.applied_seq(), Some(1_000));
    }

    #[test]
    fn invalid_feed_loses_the_standby_never_applies() {
        let slot = StandbySlot::new(1);
        // A frame that is not a valid checkpoint for shard 1 (wrong shard
        // inside the sealed image) must not be applied.
        let wrong_shard = ckpt_frame(0, 500);
        assert_eq!(feed(&slot, 0, 500, &wrong_shard), FeedOutcome::Lost);
        assert!(!slot.ready());
        // Garbage bytes: same story.
        let slot = StandbySlot::new(1);
        assert_eq!(feed(&slot, 0, 500, b"not a checkpoint"), FeedOutcome::Lost);
        assert!(!slot.ready());
        assert_eq!(slot.take_for_promotion(), None);
        // A cut damaged after it was sealed, fed as a row delta: the rows
        // merge, the rebuild's open refuses it.
        let slot = StandbySlot::new(1);
        feed(&slot, 0, 500, &ckpt_frame(1, 500));
        let mut damaged = ckpt_frame(1, 1_000);
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0x10;
        assert_eq!(feed(&slot, 0, 1_000, &damaged), FeedOutcome::Lost);
        assert!(!slot.ready());
    }

    #[test]
    fn wrong_seq_checkpoint_is_refused() {
        // The envelope says seq 900 but the image was cut at 500: the
        // standby's re-validation refuses the mismatch.
        let slot = StandbySlot::new(0);
        assert_eq!(feed(&slot, 0, 900, &ckpt_frame(0, 500)), FeedOutcome::Lost);
        assert!(!slot.ready());
    }
}
