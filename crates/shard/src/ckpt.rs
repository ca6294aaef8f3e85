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
//! buffer — sealing the next frame in the allocation of the one two cuts
//! old, when nobody else holds it — and flips, so a panic mid-store can
//! never tear the buffer a restore will read) plus an optional on-disk
//! spill via write-to-temp + atomic rename, written off the worker by the
//! fleet's [`Spiller`] and settled before anything reads the file.
//! Restores walk [`CheckpointSlot::candidates`] newest-first and fall back
//! cold when every candidate fails validation — corruption is a detected,
//! counted event, never a panic.
//!
//! [`CacheServer::save_state`]: darwin_cache::CacheServer::save_state

use darwin::AdmissionDriver;
use darwin_cache::{CacheConfig, CacheServer, ThresholdPolicy};
use darwin_ckpt::rows::{Changes, Layout};
use darwin_ckpt::{open, peek, CkptError, Dec, Enc, HEADER_LEN};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Frame magic: `"DSCK"` (Darwin Shard ChecKpoint), little-endian.
pub const CKPT_MAGIC: u32 = 0x4453_434B;
/// Current frame format revision. v2 added the supervisor's restart-budget
/// state (`restarts` + in-window marks) so warm boots and restores cannot
/// launder a crash-looping shard's history back to a fresh budget. v3 holds
/// a cache image whose Exact-mode per-object table is one sequence of
/// `(id, last_ts, count)` rows, not an `(id, count)` and an `(id, last_ts)`
/// sequence; an older frame is refused, never misparsed.
pub const CKPT_VERSION: u16 = 3;

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
    /// The shard's request counts at the restarts still inside the budget's
    /// sliding window at the cut (oldest first) — the other half of the
    /// supervisor state a crash-looper must not shed.
    pub budget_marks: Vec<u64>,
}

impl ShardCheckpoint {
    /// Seals the checkpoint into a versioned, CRC-guarded frame.
    pub fn to_frame(&self) -> Vec<u8> {
        self.seal(Vec::new(), self.cache.len(), |enc| enc.bytes(&self.cache)).0
    }

    /// [`to_frame`](Self::to_frame) of this checkpoint with `server`'s
    /// [`save_state`](CacheServer::save_state) for its `cache` — which the
    /// caller leaves empty: the state is encoded where the frame holds it,
    /// never into a buffer of its own that the frame then copies.
    pub fn to_frame_of(&self, server: &mut CacheServer) -> Vec<u8> {
        self.cut_of(server, Vec::new()).0
    }

    /// [`to_frame_of`](Self::to_frame_of), sealed in the allocation of
    /// `buf` (its contents are discarded; a worker passes the slot's
    /// inactive frame, [`CheckpointSlot::take_inactive`]), and the rows of
    /// the frame's per-object tables that changed since the server's base
    /// ([`CacheServer::encode_state`]), for a row delta against the cut
    /// that holds that base.
    pub fn cut_of(&self, server: &mut CacheServer, buf: Vec<u8>) -> (Vec<u8>, Option<Changes>) {
        debug_assert!(self.cache.is_empty(), "the server's state stands in for `cache`");
        let len = server.state_len();
        self.seal(buf, len, |enc| {
            enc.usize(len);
            server.encode_state(enc)
        })
    }

    /// The frame, sealed in `buf`, around a cache image of `cache_len`
    /// bytes that `cache` writes as a byte string, and what `cache`
    /// returned.
    fn seal<R>(
        &self,
        buf: Vec<u8>,
        cache_len: usize,
        cache: impl FnOnce(&mut Enc) -> R,
    ) -> (Vec<u8>, R) {
        // The two blobs plus under a hundred bytes of fixed fields: sized
        // once, sealed where it lies.
        let mut enc =
            Enc::frame_in(buf, 96 + cache_len + self.driver.len() + 8 * self.budget_marks.len());
        enc.usize(self.shard);
        enc.u64(self.seq);
        self.policy.encode_state(&mut enc);
        let before = enc.len();
        let returned = cache(&mut enc);
        assert_eq!(enc.len() - before, 8 + cache_len, "cache image is not the size it declared");
        enc.bytes(&self.driver);
        enc.u32(self.restarts);
        enc.seq(&self.budget_marks, |e, &m| e.u64(m));
        (enc.seal(CKPT_MAGIC, CKPT_VERSION), returned)
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

    /// Where the per-object tables of `frame`'s cache image lie, as frame
    /// offsets ([`CacheServer::state_layout`], moved past the fields before
    /// the image) — the [`LayoutFn`](darwin_ckpt::rows::LayoutFn) a cut's
    /// row delta is shipped and applied under. Follows length prefixes
    /// only: the frame is not hashed and no row is decoded. `None` for a
    /// frame that does not lay out, which then ships whole.
    pub fn layout(frame: &[u8]) -> Option<Layout> {
        let body = peek(frame, CKPT_MAGIC, CKPT_VERSION).ok()?;
        let mut dec = Dec::new(body);
        dec.usize().ok()?;
        dec.u64().ok()?;
        ThresholdPolicy::decode_state(&mut dec).ok()?;
        let len = dec.usize().ok().filter(|&len| len <= dec.remaining())?;
        let at = HEADER_LEN + body.len() - dec.remaining();
        let mut tables = CacheServer::state_layout(&frame[at..at + len])?;
        tables.iter_mut().for_each(|t| t.offset += at);
        Some(tables)
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
        let budget_marks = dec.seq(8, |d| d.u64())?;
        dec.finish()?;
        Ok(Self { shard, seq, policy, cache, driver, restarts, budget_marks })
    }
}

/// Double-buffered checkpoint mailbox for one shard, with optional on-disk
/// spill. Shared between the shard's worker (writer) and its supervisor
/// (reader, on respawn).
///
/// The in-memory pair is the primary copy and is current when
/// [`store`](Self::store) returns. The spill file follows: `store` only
/// posts the frame as *unspilled* — latest wins — and the write (temp file +
/// atomic rename) is done by whoever settles the slot next: the fleet's
/// [`Spiller`] thread, woken by the store, or else the first caller that is
/// about to read, remove or damage the file — each of them settles first, so
/// none can observe the file behind the pair. A slot without a spiller
/// settles inside `store`.
#[derive(Debug)]
pub struct CheckpointSlot {
    shard: usize,
    bufs: [Mutex<Option<Arc<Vec<u8>>>>; 2],
    active: AtomicUsize,
    dir: Option<PathBuf>,
    /// The newest stored frame the spill file does not hold yet.
    unspilled: Mutex<Option<Arc<Vec<u8>>>>,
    /// Held across every access to the spill file, the settling write
    /// included.
    file: Mutex<()>,
    /// Wakes the fleet's spiller for this shard.
    spiller: Option<Sender<Option<usize>>>,
}

impl CheckpointSlot {
    /// An empty slot for `shard`. When `dir` is given, every store also
    /// spills the frame to `dir/shard-{shard}.ckpt` via temp-file +
    /// atomic rename; spill failures are ignored (the in-memory pair is
    /// the primary copy).
    pub fn new(shard: usize, dir: Option<PathBuf>) -> Self {
        Self {
            shard,
            bufs: [Mutex::new(None), Mutex::new(None)],
            active: AtomicUsize::new(0),
            dir,
            unspilled: Mutex::new(None),
            file: Mutex::new(()),
            spiller: None,
        }
    }

    /// The on-disk spill path, if spilling is configured.
    pub fn disk_path(&self) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("shard-{}.ckpt", self.shard)))
    }

    /// The inactive buffer's frame — the one before the active — for the
    /// writer to seal its next frame in, or an empty buffer when there is
    /// none or somebody still holds it: a server merging into it as its
    /// base, a spill still writing it, a restore reading it. Taking it
    /// leaves the active frame, the one a restore reads first, untouched;
    /// the next [`store`](Self::store) fills the inactive side again.
    pub fn take_inactive(&self) -> Vec<u8> {
        let inactive = 1 - self.active.load(Ordering::Acquire);
        let mut buf = self.bufs[inactive].lock().expect("checkpoint buffer poisoned");
        // A handle is only ever cloned from another handle, and the slot's
        // own is behind this lock: a frame nobody shares now stays so.
        match buf.as_mut().map(Arc::get_mut) {
            Some(Some(_)) => buf.take().and_then(Arc::into_inner).unwrap_or_default(),
            _ => Vec::new(),
        }
    }

    /// Publishes a new frame: fills the inactive buffer, then flips it
    /// active. The previously active frame survives as the second restore
    /// candidate, so a store torn by a crash never destroys the last good
    /// checkpoint. The disk spill is posted, not awaited (see the type's
    /// docs). Returns the frame as stored — shared, not copied — for a
    /// writer that goes on to feed it to a standby.
    pub fn store(&self, frame: Vec<u8>) -> Arc<Vec<u8>> {
        let inactive = 1 - self.active.load(Ordering::Acquire);
        let frame = Arc::new(frame);
        *self.bufs[inactive].lock().expect("checkpoint buffer poisoned") = Some(Arc::clone(&frame));
        self.active.store(inactive, Ordering::Release);
        if self.dir.is_some() {
            *self.unspilled.lock().expect("unspilled frame poisoned") = Some(Arc::clone(&frame));
            // Posted before the wake-up: a spiller that has stopped taking
            // wake-ups settles every slot once more after it said so.
            let woken = self.spiller.as_ref().is_some_and(|tx| tx.send(Some(self.shard)).is_ok());
            if !woken {
                drop(self.settle());
            }
        }
        frame
    }

    /// Brings the spill file up to the in-memory pair — writes the unspilled
    /// frame, if there is one, to a temp file and renames it into place, so
    /// readers only ever see complete frames — and returns the file lock.
    /// Best effort: a failed write leaves the previous file.
    fn settle(&self) -> MutexGuard<'_, ()> {
        let file = self.file.lock().expect("spill file lock poisoned");
        let unspilled = self.unspilled.lock().expect("unspilled frame poisoned").take();
        if let (Some(frame), Some(path)) = (unspilled, self.disk_path()) {
            let tmp = path.with_extension("ckpt.tmp");
            if std::fs::write(&tmp, &*frame).is_ok() {
                let _ = std::fs::rename(&tmp, &path);
            }
        }
        file
    }

    /// Restore candidates, best-first: the active in-memory frame, the
    /// previous in-memory frame, then the on-disk spill — shared, not
    /// copied, and the file is settled and read only if the walk gets that
    /// far. The restorer validates each in turn and goes cold if all fail.
    pub fn candidates(&self) -> impl Iterator<Item = Arc<Vec<u8>>> + '_ {
        let a = self.active.load(Ordering::Acquire);
        let held =
            [a, 1 - a].map(|idx| self.bufs[idx].lock().expect("checkpoint buffer poisoned").clone());
        let spilled = std::iter::once_with(|| {
            let path = self.disk_path()?;
            let _file = self.settle();
            std::fs::read(path).ok().map(Arc::new)
        });
        held.into_iter().chain(spilled).flatten()
    }

    /// True once at least one frame has been stored (in memory).
    pub fn has_checkpoint(&self) -> bool {
        self.bufs.iter().any(|b| b.lock().expect("checkpoint buffer poisoned").is_some())
    }

    /// Removes the shard's on-disk spill file (and any temp leftover), and
    /// forgets a frame still waiting to be spilled. The warm-boot path calls
    /// this only *after* a restore attempt has resolved detected-cold, so a
    /// valid spill is never destroyed before it had its chance to serve a
    /// boot.
    pub fn clear_disk(&self) {
        if let Some(path) = self.disk_path() {
            let _file = self.file.lock().expect("spill file lock poisoned");
            self.unspilled.lock().expect("unspilled frame poisoned").take();
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
            let _file = self.settle();
            if let Ok(mut f) = std::fs::read(&path) {
                damage(&mut f);
                let _ = std::fs::write(&path, &f);
            }
        }
    }
}

/// A fleet's one spill thread: takes the disk write of every checkpoint cut
/// off the shard worker that cut it (see [`CheckpointSlot`] for what that
/// does and does not change about the file).
#[derive(Debug)]
pub struct Spiller {
    /// `Some(shard)` wakes the thread for a shard; `None` stops it.
    tx: Sender<Option<usize>>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Spiller {
    /// Slots for shards `0..shards` spilling under `dir`, and the thread
    /// that settles them.
    pub fn start(shards: usize, dir: &Path) -> (Self, Vec<Arc<CheckpointSlot>>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let slots: Vec<_> = (0..shards)
            .map(|s| {
                let spiller = Some(tx.clone());
                Arc::new(CheckpointSlot { spiller, ..CheckpointSlot::new(s, Some(dir.to_path_buf())) })
            })
            .collect();
        let settled = slots.clone();
        let thread = std::thread::Builder::new()
            .name("ckpt-spill".into())
            .spawn(move || {
                while let Ok(Some(shard)) = rx.recv() {
                    drop(settled[shard].settle());
                }
                // From here a store finds the channel closed and settles on
                // its own thread; one that got its wake-up in before had
                // posted its frame before, so this last round writes it.
                drop(rx);
                for slot in &settled {
                    drop(slot.settle());
                }
            })
            .expect("spawn checkpoint spiller");
        (Self { tx, thread: Mutex::new(Some(thread)) }, slots)
    }

    /// Stops the thread once every posted frame is in its file. Idempotent;
    /// stores after this spill on the storing thread.
    pub fn join(&self) {
        let _ = self.tx.send(None);
        // A poisoned lock only means an earlier joiner panicked: join anyway.
        let thread = self.thread.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(thread) = thread {
            let _ = thread.join();
        }
    }
}

impl Drop for Spiller {
    fn drop(&mut self) {
        self.join();
    }
}

/// A warm restore: what [`try_restore`] rebuilt from the first checkpoint
/// candidate that validated.
pub(crate) struct Restored {
    /// The restored server, the frame it restored from recorded as its base.
    pub(crate) server: CacheServer,
    /// The policy deployed at the checkpoint boundary.
    pub(crate) policy: ThresholdPolicy,
    /// Which candidate validated: 0 = active buffer, 1 = previous buffer,
    /// 2 = disk spill.
    pub(crate) candidate: u8,
    /// The restored checkpoint's request-sequence boundary.
    pub(crate) checkpoint_seq: u64,
}

/// Attempts a warm restore of shard `shard` from the slot's best candidate.
/// When none validates, returns how many candidates there were to refuse.
pub(crate) fn try_restore<D: AdmissionDriver>(
    shard: usize,
    slot: &CheckpointSlot,
    cache: &CacheConfig,
    driver: &mut D,
) -> Result<Restored, usize> {
    let mut refused = 0;
    for (candidate, frame) in slot.candidates().enumerate() {
        refused = candidate + 1;
        let Ok(ckpt) = ShardCheckpoint::from_frame(&frame) else { continue };
        if ckpt.shard != shard {
            continue;
        }
        let Ok(mut server) = CacheServer::restore_state(cache.clone(), &ckpt.cache) else { continue };
        if !driver.load_state(&ckpt.driver) {
            continue;
        }
        let tables = ShardCheckpoint::layout(&frame);
        server.record_base(ckpt.seq, frame, tables);
        return Ok(Restored {
            server,
            policy: ckpt.policy,
            candidate: candidate as u8,
            checkpoint_seq: ckpt.seq,
        });
    }
    Err(refused)
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
                "v{found} frame must be rejected — only v{CKPT_VERSION} is read"
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

    fn frames(slot: &CheckpointSlot) -> Vec<Vec<u8>> {
        slot.candidates().map(|f| f.to_vec()).collect()
    }

    /// A private spill directory, removed (with whatever is in it) on drop.
    struct SpillDir(PathBuf);

    impl SpillDir {
        fn new(test: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("darwin-ckpt-{test}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }

    impl Drop for SpillDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn slot_store_flips_and_keeps_previous() {
        let slot = CheckpointSlot::new(0, None);
        assert!(!slot.has_checkpoint());
        assert!(slot.candidates().next().is_none());
        assert!(slot.take_inactive().is_empty(), "nothing stored, nothing to take");
        let f1 = sample(0, 100).to_frame();
        let f2 = sample(0, 200).to_frame();
        let f3 = sample(0, 300).to_frame();
        let stored = slot.store(f1.clone());
        assert_eq!(frames(&slot), vec![f1.clone()]);
        let at = stored.as_ptr();
        drop(stored);
        slot.store(f2.clone());
        // Newest first, previous frame retained as fallback.
        assert_eq!(frames(&slot), vec![f2.clone(), f1.clone()]);
        // The next frame is written over the previous one, in its pages —
        // unless somebody still holds it.
        let held = slot.candidates().nth(1);
        assert!(slot.take_inactive().is_empty(), "a frame somebody shares is not handed out");
        assert_eq!(frames(&slot), vec![f2.clone(), f1.clone()]);
        drop(held);
        let mut buf = slot.take_inactive();
        assert_eq!((buf.as_ptr(), &buf), (at, &f1));
        assert_eq!(frames(&slot), vec![f2.clone()], "the active frame is left as it was");
        buf.clear();
        buf.extend_from_slice(&f3);
        let stored = slot.store(buf);
        assert_eq!(stored.as_ptr(), at);
        assert_eq!(frames(&slot), vec![f3, f2]);
    }

    /// Shard 0's server after `to` requests over 3 000 objects, served from
    /// `from`.
    fn serve(server: &mut CacheServer, from: u64, to: u64) {
        for i in from..to {
            server.process(&darwin_trace::Request::new(i.wrapping_mul(2_654_435_761) % 3_000, 9_000, i));
        }
    }

    fn server() -> CacheServer {
        let config = darwin_cache::CacheConfig {
            dc_bytes: 4 * 1024 * 1024,
            expected_unique_objects: 4096,
            ..darwin_cache::CacheConfig::small_test()
        };
        let mut server = CacheServer::new(config);
        server.set_policy(ThresholdPolicy::new(1, 64 * 1024));
        server
    }

    /// What a worker's cut does: the server's checkpoint at `seq`, sealed
    /// over the slot's inactive frame, stored and recorded as the base.
    fn cut(slot: &CheckpointSlot, server: &mut CacheServer, seq: u64) -> Vec<u8> {
        let ckpt = ShardCheckpoint { cache: Vec::new(), ..sample(0, seq) };
        let (frame, _) = ckpt.cut_of(server, slot.take_inactive());
        let frame = slot.store(frame);
        server.record_base(seq, Arc::clone(&frame), ShardCheckpoint::layout(&frame));
        frame.to_vec()
    }

    /// The two ways somebody else still holds the inactive frame when the
    /// next cut is sealed — a server restored from it merges into it as its
    /// base, and a spill is still writing it — each keep it whole: the cut
    /// is sealed in a fresh buffer, and is the same bytes.
    #[test]
    fn a_shared_inactive_frame_is_never_taken() {
        let slot = CheckpointSlot::new(0, None);
        let mut live = server();
        serve(&mut live, 0, 2_000);
        let previous = cut(&slot, &mut live, 2_000);
        serve(&mut live, 2_000, 4_000);
        cut(&slot, &mut live, 4_000);
        // Restored from the previous buffer, as `try_restore` does when the
        // active frame fails.
        let frame = slot.candidates().nth(1).unwrap();
        assert_eq!(*frame, previous);
        let image = ShardCheckpoint::from_frame(&frame).unwrap().cache;
        let mut restored = CacheServer::restore_state(live.config().clone(), &image).unwrap();
        restored.set_policy(ThresholdPolicy::new(1, 64 * 1024));
        let tables = ShardCheckpoint::layout(&frame);
        restored.record_base(2_000, frame, tables);
        assert!(slot.take_inactive().is_empty(), "the restored server's base is the inactive frame");
        serve(&mut restored, 2_000, 5_000);
        let ckpt = ShardCheckpoint { cache: Vec::new(), ..sample(0, 5_000) };
        let (frame, changes) = ckpt.cut_of(&mut restored, Vec::new());
        assert_eq!(changes.map(|c| c.base_seq), Some(2_000));
        assert_eq!(frame, ckpt.to_frame_of(&mut restored), "merged into the base it kept");

        let dir = SpillDir::new("inactive");
        let (slot, _wakeups) = stalled(0, &dir.0);
        let f1 = sample(0, 100).to_frame();
        slot.store(f1.clone());
        // The spiller took the posted frame and is writing it.
        let writing = slot.unspilled.lock().unwrap().take().expect("a posted frame");
        slot.store(sample(0, 200).to_frame());
        assert!(slot.take_inactive().is_empty(), "a frame being spilled is not handed out");
        drop(writing);
        assert_eq!(slot.take_inactive(), f1);
    }

    /// While the next frame is written over the inactive one, the active
    /// frame — what a restore reads first — is not touched, byte for byte;
    /// and a cut sealed over an old frame is the cut sealed fresh.
    #[test]
    fn the_active_frame_is_untouched_while_the_next_is_written() {
        let slot = CheckpointSlot::new(0, None);
        let mut live = server();
        let mut fresh = server();
        for (k, seq) in [1_000u64, 2_500, 3_000, 6_000].into_iter().enumerate() {
            let from = [0, 1_000, 2_500, 3_000][k];
            serve(&mut live, from, seq);
            serve(&mut fresh, from, seq);
            let active = slot.candidates().next().map(|f| f.to_vec());
            let ckpt = ShardCheckpoint { cache: Vec::new(), ..sample(0, seq) };
            let buf = slot.take_inactive();
            let reused = !buf.is_empty();
            let (frame, _) = ckpt.cut_of(&mut live, buf);
            assert_eq!(slot.candidates().next().map(|f| f.to_vec()), active, "cut {seq}");
            assert_eq!(frame, ckpt.to_frame_of(&mut fresh), "cut {seq}");
            assert_eq!(reused, k >= 2, "cut {seq}: the frame two cuts old is written over");
            let frame = slot.store(frame);
            live.record_base(seq, Arc::clone(&frame), ShardCheckpoint::layout(&frame));
            assert_eq!(frames(&slot)[1..].to_vec(), active.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn corrupt_torn_and_bitflip_defeat_every_candidate() {
        for &torn in &[true, false] {
            let slot = CheckpointSlot::new(1, None);
            slot.store(sample(1, 100).to_frame());
            slot.store(sample(1, 200).to_frame());
            slot.corrupt(torn);
            let cands = frames(&slot);
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
        let dir = SpillDir::new("spill");
        let slot = CheckpointSlot::new(3, Some(dir.0.clone()));
        let frame = sample(3, 4_000).to_frame();
        slot.store(frame.clone());

        // No spiller: the file is there when `store` returns.
        let path = slot.disk_path().unwrap();
        assert!(path.exists(), "spill file missing");
        assert!(!path.with_extension("ckpt.tmp").exists(), "temp file left behind");
        assert_eq!(std::fs::read(&path).unwrap(), frame);

        // A *fresh* slot over the same dir (a restarted process) sees the
        // spilled frame as its only candidate.
        let reborn = CheckpointSlot::new(3, Some(dir.0.clone()));
        assert_eq!(frames(&reborn), vec![frame.clone()]);
        assert_eq!(ShardCheckpoint::from_frame(&frames(&reborn)[0]).unwrap(), sample(3, 4_000));

        // Corruption reaches the disk copy too.
        slot.corrupt(false);
        assert!(ShardCheckpoint::from_frame(&std::fs::read(&path).unwrap()).is_err());

        slot.clear_disk();
        assert!(!path.exists());
    }

    /// Slots whose spiller never runs (its thread is parked on a wake-up
    /// channel this test keeps but never reads): every spill stays posted
    /// until something settles it, which is the interleaving a busy disk
    /// produces.
    fn stalled(shard: usize, dir: &Path) -> (CheckpointSlot, std::sync::mpsc::Receiver<Option<usize>>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (CheckpointSlot { spiller: Some(tx), ..CheckpointSlot::new(shard, Some(dir.to_path_buf())) }, rx)
    }

    #[test]
    fn a_posted_spill_is_settled_before_the_file_is_read_damaged_or_removed() {
        let dir = SpillDir::new("settle");
        let (slot, wakeups) = stalled(2, &dir.0);
        let path = slot.disk_path().unwrap();
        let cuts: Vec<_> = [100, 200, 300].map(|seq| sample(2, seq).to_frame()).into();
        for frame in &cuts {
            slot.store(frame.clone());
        }
        assert_eq!(wakeups.try_iter().count(), 3, "one wake-up per store");
        assert!(!path.exists(), "nothing has settled the slot yet");
        // Reading the candidates reaches the file, so it is settled first —
        // to the last store, the only one still posted.
        assert_eq!(frames(&slot), vec![cuts[2].clone(), cuts[1].clone(), cuts[2].clone()]);
        assert_eq!(std::fs::read(&path).unwrap(), cuts[2]);
        assert!(!path.with_extension("ckpt.tmp").exists());
        assert_eq!(frames(&CheckpointSlot::new(2, Some(dir.0.clone()))), vec![cuts[2].clone()]);

        // Corruption with a spill posted: the file ends up the damaged new
        // frame, not a valid old one and not a valid new one written later.
        slot.store(sample(2, 400).to_frame());
        slot.corrupt(false);
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk.len(), sample(2, 400).to_frame().len());
        assert!(ShardCheckpoint::from_frame(&on_disk).is_err());
        drop(slot.settle());
        assert_eq!(std::fs::read(&path).unwrap(), on_disk, "nothing was left to write afterwards");

        // Removal forgets the posted frame instead of resurrecting the file.
        slot.store(sample(2, 500).to_frame());
        slot.clear_disk();
        drop(slot.settle());
        assert!(!path.exists());
    }

    #[test]
    fn the_spiller_writes_the_last_frame_and_joins() {
        let dir = SpillDir::new("spiller");
        let (spiller, slots) = Spiller::start(2, &dir.0);
        for seq in [100, 200, 300] {
            for (s, slot) in slots.iter().enumerate() {
                slot.store(sample(s, seq).to_frame());
            }
        }
        spiller.join();
        for (s, slot) in slots.iter().enumerate() {
            let fresh = CheckpointSlot::new(s, Some(dir.0.clone()));
            assert_eq!(frames(&fresh), vec![sample(s, 300).to_frame()]);
            // Joined twice, and stored into afterwards: the store spills.
            spiller.join();
            slot.store(sample(s, 400).to_frame());
            assert_eq!(std::fs::read(slot.disk_path().unwrap()).unwrap(), sample(s, 400).to_frame());
        }
    }

    #[test]
    fn a_vanished_spill_dir_costs_the_file_only() {
        let dir = SpillDir::new("vanished");
        let (spiller, slots) = Spiller::start(1, &dir.0);
        std::fs::remove_dir_all(&dir.0).unwrap();
        let frame = sample(0, 100).to_frame();
        slots[0].store(frame.clone());
        slots[0].corrupt(true);
        slots[0].clear_disk();
        slots[0].store(frame.clone());
        spiller.join();
        assert_eq!(frames(&slots[0])[0], frame, "the in-memory pair is the primary copy");
        assert_eq!(slots[0].candidates().count(), 2);
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
