//! Warm-restart checkpoints for fleet shards.
//!
//! A [`ShardCheckpoint`] pairs a shard's cache image ([`CacheServer::
//! save_state`]-bytes) with its driver's state, the currently deployed
//! policy and the supervisor's restart-budget state, sealed into one
//! versioned, CRC-64-guarded frame. Checkpoints are
//! taken only at per-shard request-sequence boundaries (`checkpoint_every`
//! in `FleetConfig`), never on a wall clock, so a restore from sequence `C`
//! resumes bitwise-identically to a worker that simply paused after its
//! `C`-th request.
//!
//! [`CheckpointSlot`] is where frames live between a store and a crash: a
//! double-buffered in-memory pair (the writer always fills the *inactive*
//! buffer and flips, so a panic mid-store can never tear the buffer a
//! restore will read) plus an optional on-disk spill via write-to-temp +
//! atomic rename. Restores walk [`CheckpointSlot::candidates`] newest-first
//! and fall back cold when every candidate fails validation — corruption is
//! a detected, counted event, never a panic.
//!
//! [`CacheServer::save_state`]: darwin_cache::CacheServer::save_state

use darwin_cache::ThresholdPolicy;
use darwin_ckpt::{open, CkptError, Dec, Enc};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Frame magic: `"DSCK"` (Darwin Shard ChecKpoint), little-endian.
pub const CKPT_MAGIC: u32 = 0x4453_434B;
/// Current frame format revision. v2 added the supervisor's restart-budget
/// state (`restarts` + in-window marks) so warm boots and restores cannot
/// launder a crash-looping shard's history back to a fresh budget.
pub const CKPT_VERSION: u16 = 2;

/// One shard's complete warm-restart image.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// Shard index the image belongs to (restores refuse other shards').
    pub shard: usize,
    /// Per-shard request sequence number the image covers: the state after
    /// exactly `seq` processed-or-dropped requests.
    pub seq: u64,
    /// Policy deployed at the boundary (reinstalled before the first
    /// post-restore request).
    pub policy: ThresholdPolicy,
    /// `CacheServer::save_state` bytes.
    pub cache: Vec<u8>,
    /// `AdmissionDriver::save_state` bytes.
    pub driver: Vec<u8>,
    /// Cold restarts the shard's supervisor had granted when the cut was
    /// taken. Carried so a restore resumes the budget, not resets it.
    pub restarts: u32,
    /// Fleet submission counts of the restarts still inside the budget's
    /// sliding window at the cut (oldest first) — the other half of the
    /// supervisor state a crash-looper must not shed.
    pub budget_marks: Vec<u64>,
}

impl ShardCheckpoint {
    /// Seals the checkpoint into a versioned, CRC-guarded frame.
    pub fn to_frame(&self) -> Vec<u8> {
        // The two blobs plus under a hundred bytes of fixed fields: sized
        // once, sealed where it lies.
        let mut enc =
            Enc::frame(96 + self.cache.len() + self.driver.len() + 8 * self.budget_marks.len());
        enc.usize(self.shard);
        enc.u64(self.seq);
        self.policy.encode_state(&mut enc);
        enc.bytes(&self.cache);
        enc.bytes(&self.driver);
        enc.u32(self.restarts);
        enc.seq(&self.budget_marks, |e, &m| e.u64(m));
        enc.seal(CKPT_MAGIC, CKPT_VERSION)
    }

    /// Validates `frame`'s seal — magic, CRC over every byte, version, body
    /// length: everything [`from_frame`](Self::from_frame) checks before it
    /// decodes — and reads the `(shard, seq)` it is addressed with, without
    /// copying the payload out. For holders that move a frame on rather than
    /// restore from it (the standby, a resize handoff).
    pub fn header(frame: &[u8]) -> Result<(usize, u64), CkptError> {
        let mut dec = Dec::new(open(frame, CKPT_MAGIC, CKPT_VERSION)?);
        Ok((dec.usize()?, dec.u64()?))
    }

    /// Opens and decodes a frame written by [`ShardCheckpoint::to_frame`].
    pub fn from_frame(frame: &[u8]) -> Result<Self, CkptError> {
        let body = open(frame, CKPT_MAGIC, CKPT_VERSION)?;
        let mut dec = Dec::new(body);
        let shard = dec.usize()?;
        let seq = dec.u64()?;
        let policy = ThresholdPolicy::decode_state(&mut dec)?;
        let cache = dec.bytes()?.to_vec();
        let driver = dec.bytes()?.to_vec();
        let restarts = dec.u32()?;
        let budget_marks = dec.seq(|d| d.u64())?;
        dec.finish()?;
        Ok(Self { shard, seq, policy, cache, driver, restarts, budget_marks })
    }
}

/// Double-buffered checkpoint mailbox for one shard, with optional on-disk
/// spill. Shared between the shard's worker (writer) and its supervisor
/// (reader, on respawn).
#[derive(Debug)]
pub struct CheckpointSlot {
    shard: usize,
    bufs: [Mutex<Option<Arc<Vec<u8>>>>; 2],
    active: AtomicUsize,
    dir: Option<PathBuf>,
}

impl CheckpointSlot {
    /// An empty slot for `shard`. When `dir` is given, every store also
    /// spills the frame to `dir/shard-{shard}.ckpt` via temp-file +
    /// atomic rename; spill failures are ignored (the in-memory pair is
    /// the primary copy).
    pub fn new(shard: usize, dir: Option<PathBuf>) -> Self {
        Self { shard, bufs: [Mutex::new(None), Mutex::new(None)], active: AtomicUsize::new(0), dir }
    }

    /// The on-disk spill path, if spilling is configured.
    pub fn disk_path(&self) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("shard-{}.ckpt", self.shard)))
    }

    /// Publishes a new frame: fills the inactive buffer, then flips it
    /// active. The previously active frame survives as the second restore
    /// candidate, so a store torn by a crash never destroys the last good
    /// checkpoint. Returns the frame as stored — shared, not copied — for a
    /// writer that goes on to feed it to a standby.
    pub fn store(&self, frame: Vec<u8>) -> Arc<Vec<u8>> {
        let inactive = 1 - self.active.load(Ordering::Acquire);
        if let Some(path) = self.disk_path() {
            // Best-effort spill *before* the flip: write the whole frame to
            // a temp file, then rename into place so readers only ever see
            // complete frames (the "atomic rename" half of the contract).
            let tmp = path.with_extension("ckpt.tmp");
            if std::fs::write(&tmp, &frame).is_ok() {
                let _ = std::fs::rename(&tmp, &path);
            }
        }
        let frame = Arc::new(frame);
        *self.bufs[inactive].lock().expect("checkpoint buffer poisoned") = Some(Arc::clone(&frame));
        self.active.store(inactive, Ordering::Release);
        frame
    }

    /// Restore candidates, best-first: the active in-memory frame, the
    /// previous in-memory frame, then the on-disk spill. The restorer
    /// validates each in turn and goes cold if all fail.
    pub fn candidates(&self) -> Vec<Vec<u8>> {
        let a = self.active.load(Ordering::Acquire);
        let mut out = Vec::new();
        for idx in [a, 1 - a] {
            if let Some(f) = self.bufs[idx].lock().expect("checkpoint buffer poisoned").as_ref() {
                out.push(f.to_vec());
            }
        }
        if let Some(path) = self.disk_path() {
            if let Ok(f) = std::fs::read(&path) {
                out.push(f);
            }
        }
        out
    }

    /// True once at least one frame has been stored (in memory).
    pub fn has_checkpoint(&self) -> bool {
        self.bufs.iter().any(|b| b.lock().expect("checkpoint buffer poisoned").is_some())
    }

    /// Removes the shard's on-disk spill file (and any temp leftover). The
    /// warm-boot path calls this only *after* a restore attempt has
    /// resolved detected-cold, so a valid spill is never destroyed before
    /// it had its chance to serve a boot.
    pub fn clear_disk(&self) {
        if let Some(path) = self.disk_path() {
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(path.with_extension("ckpt.tmp"));
        }
    }

    /// Deterministic fault injection: damages **every** candidate — both
    /// in-memory frames and the disk spill — so a subsequent restore
    /// provably falls back cold. `torn` truncates each frame to half its
    /// length (a torn write); otherwise a single mid-frame bit is flipped
    /// (bit rot). Both damage classes must be caught by the CRC/length
    /// checks in [`ShardCheckpoint::from_frame`].
    pub fn corrupt(&self, torn: bool) {
        let damage = |frame: &mut Vec<u8>| {
            if torn {
                frame.truncate(frame.len() / 2);
            } else if !frame.is_empty() {
                let mid = frame.len() / 2;
                frame[mid] ^= 0x10;
            }
        };
        for b in &self.bufs {
            if let Some(f) = b.lock().expect("checkpoint buffer poisoned").as_mut() {
                damage(Arc::make_mut(f));
            }
        }
        if let Some(path) = self.disk_path() {
            if let Ok(mut f) = std::fs::read(&path) {
                damage(&mut f);
                let _ = std::fs::write(&path, &f);
            }
        }
    }
}

/// Removes stale spill files for shards `0..shards` under `dir`, so a fleet
/// reusing a checkpoint directory never restores a previous run's state.
pub fn clear_spill_dir(dir: &Path, shards: usize) {
    for s in 0..shards {
        let _ = std::fs::remove_file(dir.join(format!("shard-{s}.ckpt")));
        let _ = std::fs::remove_file(dir.join(format!("shard-{s}.ckpt.tmp")));
    }
}

/// What each way into a frame — the full decode, and the payload-free
/// [`ShardCheckpoint::header`] — makes of `frame`, reduced to the address
/// both yield. Envelope damage must be refused by both, identically.
#[cfg(test)]
fn both_entry_points(frame: &[u8]) -> [Result<(usize, u64), CkptError>; 2] {
    [ShardCheckpoint::from_frame(frame).map(|c| (c.shard, c.seq)), ShardCheckpoint::header(frame)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_ckpt::seal;

    fn sample(shard: usize, seq: u64) -> ShardCheckpoint {
        ShardCheckpoint {
            shard,
            seq,
            policy: ThresholdPolicy::new(3, 64 * 1024),
            cache: vec![1, 2, 3, 4, 5],
            driver: vec![9, 8, 7],
            restarts: 2,
            budget_marks: vec![7_500, 11_900],
        }
    }

    #[test]
    fn frame_roundtrips() {
        let c = sample(2, 12_000);
        let frame = c.to_frame();
        assert_eq!(ShardCheckpoint::from_frame(&frame).unwrap(), c);
        // Deterministic: same checkpoint, same bytes.
        assert_eq!(c.to_frame(), frame);
    }

    #[test]
    fn empty_payloads_roundtrip() {
        let c = ShardCheckpoint {
            shard: 0,
            seq: 0,
            policy: ThresholdPolicy::new(1, 1),
            cache: Vec::new(),
            driver: Vec::new(),
            restarts: 0,
            budget_marks: Vec::new(),
        };
        assert_eq!(ShardCheckpoint::from_frame(&c.to_frame()).unwrap(), c);
    }

    #[test]
    fn wrong_version_is_rejected_specifically() {
        let c = sample(0, 5);
        let mut enc = Enc::new();
        enc.usize(c.shard);
        enc.u64(c.seq);
        c.policy.encode_state(&mut enc);
        enc.bytes(&c.cache);
        enc.bytes(&c.driver);
        enc.u32(c.restarts);
        enc.seq(&c.budget_marks, |e, &m| e.u64(m));
        let body = enc.into_bytes();
        for found in [CKPT_VERSION + 1, CKPT_VERSION - 1] {
            let frame = seal(CKPT_MAGIC, found, &body);
            assert_eq!(
                ShardCheckpoint::from_frame(&frame),
                Err(CkptError::BadVersion { expected: CKPT_VERSION, found }),
                "v{found} frame must be rejected — v1 frames lack budget state"
            );
        }
    }

    #[test]
    fn header_is_from_frame_without_the_payload() {
        let frame = sample(2, 12_000).to_frame();
        assert_eq!(ShardCheckpoint::header(&frame), Ok((2, 12_000)));
        let body = &frame[14..frame.len() - 8];
        // Another format's magic, either neighbouring version, and a body
        // length that lies under a CRC that does not: the envelope refuses
        // each the same way whichever entry point asks.
        let mut lying = frame[..frame.len() - 8].to_vec();
        lying[6..14].copy_from_slice(&(body.len() as u64 + 1).to_le_bytes());
        let crc = darwin_ckpt::crc64(&lying);
        lying.extend_from_slice(&crc.to_le_bytes());
        for (bad, why) in [
            (seal(CKPT_MAGIC ^ 1, CKPT_VERSION, body), "magic"),
            (seal(CKPT_MAGIC, CKPT_VERSION + 1, body), "version"),
            (seal(CKPT_MAGIC, CKPT_VERSION - 1, body), "version"),
            (lying, "body length"),
        ] {
            let [decoded, header] = both_entry_points(&bad);
            assert!(header.is_err(), "{why} accepted by header()");
            assert_eq!(header, decoded, "{why}");
        }
    }

    #[test]
    fn slot_store_flips_and_keeps_previous() {
        let slot = CheckpointSlot::new(0, None);
        assert!(!slot.has_checkpoint());
        assert!(slot.candidates().is_empty());
        let f1 = sample(0, 100).to_frame();
        let f2 = sample(0, 200).to_frame();
        slot.store(f1.clone());
        assert_eq!(slot.candidates(), vec![f1.clone()]);
        slot.store(f2.clone());
        // Newest first, previous frame retained as fallback.
        assert_eq!(slot.candidates(), vec![f2, f1]);
    }

    #[test]
    fn corrupt_torn_and_bitflip_defeat_every_candidate() {
        for &torn in &[true, false] {
            let slot = CheckpointSlot::new(1, None);
            slot.store(sample(1, 100).to_frame());
            slot.store(sample(1, 200).to_frame());
            slot.corrupt(torn);
            let cands = slot.candidates();
            assert_eq!(cands.len(), 2);
            for c in &cands {
                assert!(
                    ShardCheckpoint::from_frame(c).is_err(),
                    "corrupt(torn={torn}) candidate decoded successfully"
                );
            }
        }
    }

    #[test]
    fn disk_spill_atomic_rename_and_restore() {
        let dir = std::env::temp_dir().join(format!("darwin-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        clear_spill_dir(&dir, 4);

        let slot = CheckpointSlot::new(3, Some(dir.clone()));
        let frame = sample(3, 4_000).to_frame();
        slot.store(frame.clone());

        let path = slot.disk_path().unwrap();
        assert!(path.exists(), "spill file missing");
        assert!(!path.with_extension("ckpt.tmp").exists(), "temp file left behind");
        assert_eq!(std::fs::read(&path).unwrap(), frame);

        // A *fresh* slot over the same dir (a restarted process) sees the
        // spilled frame as its only candidate.
        let reborn = CheckpointSlot::new(3, Some(dir.clone()));
        assert_eq!(reborn.candidates(), vec![frame.clone()]);
        assert_eq!(ShardCheckpoint::from_frame(&reborn.candidates()[0]).unwrap(), sample(3, 4_000));

        // Corruption reaches the disk copy too.
        slot.corrupt(false);
        assert!(ShardCheckpoint::from_frame(&std::fs::read(&path).unwrap()).is_err());

        clear_spill_dir(&dir, 4);
        let _ = std::fs::remove_dir(&dir);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_ckpt(
        shard: usize,
        seq: u64,
        freq: u32,
        size: u64,
        cache: Vec<u8>,
        driver: Vec<u8>,
    ) -> ShardCheckpoint {
        ShardCheckpoint {
            shard,
            seq,
            policy: ThresholdPolicy::new(freq, size),
            cache,
            driver,
            restarts: (seq % 7) as u32,
            budget_marks: vec![seq / 4, seq / 2, seq],
        }
    }

    proptest! {
        /// Arbitrary checkpoints roundtrip bit-exactly through the frame.
        #[test]
        fn any_checkpoint_roundtrips(
            shard in 0usize..64,
            seq in 0u64..u64::MAX / 2,
            freq in 0u32..1_000,
            size in 0u64..1 << 40,
            cache in proptest::collection::vec(0u8..=255, 0..256),
            driver in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            let c = arb_ckpt(shard, seq, freq, size, cache, driver);
            let frame = c.to_frame();
            prop_assert_eq!(ShardCheckpoint::from_frame(&frame).unwrap(), c.clone());
            prop_assert_eq!(ShardCheckpoint::header(&frame), Ok((shard, seq)));
            prop_assert_eq!(c.to_frame(), frame);
        }

        /// Every truncation of a frame errors — never panics, never
        /// silently mis-restores.
        #[test]
        fn any_truncation_rejected(
            cache in proptest::collection::vec(0u8..=255, 0..64),
            driver in proptest::collection::vec(0u8..=255, 0..64),
            cut in 0.0f64..1.0,
        ) {
            let frame = arb_ckpt(1, 99, 2, 4096, cache, driver).to_frame();
            let keep = ((cut * frame.len() as f64) as usize).min(frame.len() - 1);
            let [decoded, header] = both_entry_points(&frame[..keep]);
            prop_assert!(decoded.is_err());
            prop_assert_eq!(header, decoded);
        }

        /// Every single-bit flip anywhere in a frame is caught by the CRC.
        #[test]
        fn any_bit_flip_rejected(
            cache in proptest::collection::vec(0u8..=255, 0..64),
            driver in proptest::collection::vec(0u8..=255, 0..64),
            pos in 0.0f64..1.0,
            bit in 0u8..8,
        ) {
            let frame = arb_ckpt(2, 7, 1, 100 * 1024, cache, driver).to_frame();
            let mut bad = frame.clone();
            let byte = ((pos * bad.len() as f64) as usize).min(bad.len() - 1);
            bad[byte] ^= 1 << bit;
            let [decoded, header] = both_entry_points(&bad);
            prop_assert!(decoded.is_err());
            prop_assert_eq!(header, decoded);
        }

        /// Arbitrary junk bytes never panic either frame opener, and
        /// neither lets through what the other refuses.
        #[test]
        fn junk_never_panics(junk in proptest::collection::vec(0u8..=255, 0..192)) {
            let [decoded, header] = both_entry_points(&junk);
            prop_assert_eq!(header, decoded);
        }
    }
}
