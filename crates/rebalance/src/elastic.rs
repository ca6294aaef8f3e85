//! The elastic fleet: live resizes over a generation of `ShardedFleet`s.
//!
//! An [`ElasticFleet`] owns the serving generation behind an `RwLock`:
//! submitters hold the read side (so a whole frame lands in exactly one
//! generation), a [`resize`](ElasticFleet::resize) holds the write side.
//! Because submission uses [`Backpressure::Block`](darwin_shard::Backpressure)
//! semantics and the lock hands over atomically, a resize never answers
//! `Unavailable` and never drops a request — the exactly-once conservation
//! ledger (`processed + dropped + unavailable + shed == submitted`) holds
//! across any resize sequence, which `tests/resize.rs` checks.
//! Each submitter owns an [`ElasticProducer`]: per frame, one uncontended
//! read lock and a generation compare on top of the [`FleetProducer`] it
//! wraps, re-minted only on the first frame after a cutover — so a fleet
//! that is never resized is a [`ShardedFleet`] behind that one lock.
//!
//! A resize `N → M` drains the serving generation through the handoff state
//! machine, cuts every shard's final [`ShardCheckpoint`] at its
//! end-of-stream request-sequence boundary, ships each *surviving* shard's
//! cut to the successor generation in a [`CutRole::Handoff`] [`CutFrame`]
//! (a row delta against the shard's last periodic checkpoint when one
//! exists), and boots generation `g+1` with those frames as warm seeds.
//! Keyspace slices that *move* between shards arrive cold by design: a
//! [`JumpRouter`](darwin_shard::JumpRouter) bounds them to `|M−N|/max(N,M)`
//! of the keyspace, which is exactly the bounded post-resize hit-ratio dip
//! `tests/resize.rs::hit_ratio_dip_recovers_within_one_checkpoint_window`
//! measures. Any [`Router`] works — `route(id, shards)` takes the
//! shard count — the jump hash only keeps the moved slice small.

use darwin_cache::CacheConfig;
use darwin_ckpt::replica::{AppliedCut, CutError, CutFrame, CutRole, Held};
use darwin_shard::{
    CheckpointSlot, Envelope, EventKind, FaultPlan, FleetBoot, FleetConfig, FleetMetrics, FleetProducer,
    FleetReport, GenerationSummary, MetricsHandle, Router, ShardCheckpoint, ShardPhase, ShardedFleet,
};
use darwin_testbed::AdmissionDriver;
use darwin_trace::Request;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Factory shared across generations: every resize mints the new
/// generation's drivers from the same closure.
type DriverFactory<D> = Arc<Mutex<Box<dyn FnMut(usize) -> D + Send>>>;

/// The serving generation.
struct GenLive<D: AdmissionDriver + Send + 'static, E: Envelope> {
    fleet: Option<ShardedFleet<D, E>>,
    handle: MetricsHandle,
    generation: u32,
    shards: usize,
}

/// What one shard's handoff shipped at a cutover.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TransferStat {
    /// Shard index (same in source and destination generation).
    pub shard: usize,
    /// Generation drained.
    pub from_generation: u32,
    /// Generation booted.
    pub to_generation: u32,
    /// Request-sequence boundary of the final cut.
    pub seq: u64,
    /// Size of the full sealed checkpoint frame.
    pub full_bytes: u64,
    /// Bytes actually shipped in the transfer envelope payload.
    pub shipped_bytes: u64,
    /// True when the payload was a row delta against a pre-copied base.
    pub delta: bool,
    /// Why validation made this handoff fall back, `None` for a clean one.
    /// A refused *base* ships the final cut full; a refused or missing
    /// *final cut* ships nothing (`shipped_bytes == 0`) and the shard boots
    /// cold, journaling `RestoreCold` when there was a frame to refuse.
    #[serde(default)]
    pub refused: Option<String>,
}

/// Most shards a [`resize`](ElasticFleet::resize) will boot: every shard is
/// a worker thread, a queue and a cache server, so a hostile target must not
/// reach the allocator.
pub const MAX_SHARDS: usize = 256;

/// A resize refused before the serving generation was touched: the target
/// is zero, the serving shard count, or above [`MAX_SHARDS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizeRefused {
    /// Shard count asked for.
    pub target: usize,
    /// Shard count serving, unchanged.
    pub serving: usize,
}

impl std::fmt::Display for ResizeRefused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Self { target, serving } = self;
        write!(f, "resize target {target} refused: it must be within 1..={MAX_SHARDS} ")?;
        write!(f, "and differ from the {serving} shard(s) serving")
    }
}

impl std::error::Error for ResizeRefused {}

/// Final accounting for an elastic run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ElasticReport {
    /// Per-shard-id metrics merged across every generation, with the
    /// per-generation ledger attached.
    pub metrics: FleetMetrics,
    /// Transfer envelopes shipped by every resize, in order.
    pub transfers: Vec<TransferStat>,
    /// Requests submitted across the fleet's whole life.
    pub submitted: u64,
}

impl ElasticReport {
    /// The exactly-once conservation ledger.
    pub fn conserved(&self) -> bool {
        let m = &self.metrics;
        m.total_processed() + m.total_dropped() + m.total_unavailable() + m.total_shed()
            == self.submitted
    }
}

/// A fleet whose shard count can change under load. See the module docs.
///
/// Generic over the queue [`Envelope`] exactly like [`ShardedFleet`]: the
/// benchmark drives it with bare [`Request`]s (the default), the gateway
/// with its reply-routing envelopes.
pub struct ElasticFleet<D: AdmissionDriver + Send + 'static, E: Envelope = Request> {
    state: RwLock<GenLive<D, E>>,
    factory: DriverFactory<D>,
    cfg: FleetConfig,
    cache: CacheConfig,
    router: Arc<dyn Router>,
    checkpoint_dir: Option<PathBuf>,
    submitted: AtomicU64,
    /// Retired generations: exact post-drain snapshots, their ledger rows,
    /// and every transfer shipped.
    archive: Mutex<Archive>,
}

#[derive(Default)]
struct Archive {
    metrics: Vec<FleetMetrics>,
    generations: Vec<GenerationSummary>,
    transfers: Vec<TransferStat>,
}

impl<D: AdmissionDriver + Send + 'static, E: Envelope> ElasticFleet<D, E> {
    /// Boots generation 0 with `cfg.shards` shards; every generation routes
    /// with `router`. With `warm` set (and a checkpoint directory in
    /// place), each shard restores from its spill file — the cross-process
    /// warm-boot path. `fault` scripts generation 0 only: its per-shard
    /// request indices restart at a cutover, so later generations boot with
    /// the empty plan.
    pub fn new(
        cfg: FleetConfig,
        cache: CacheConfig,
        router: Box<dyn Router>,
        factory: impl FnMut(usize) -> D + Send + 'static,
        fault: FaultPlan,
        checkpoint_dir: Option<PathBuf>,
        warm: bool,
    ) -> Self {
        let factory: DriverFactory<D> = Arc::new(Mutex::new(Box::new(factory)));
        let router: Arc<dyn Router> = Arc::from(router);
        let fleet: ShardedFleet<D, E> = ShardedFleet::with_boot(
            cfg,
            cache.clone(),
            Box::new(Arc::clone(&router)),
            mint(&factory),
            fault,
            FleetBoot {
                checkpoint_dir: checkpoint_dir.clone(),
                warm_boot: warm,
                ..FleetBoot::default()
            },
        );
        let handle = fleet.metrics_handle();
        Self {
            state: RwLock::new(GenLive {
                fleet: Some(fleet),
                handle,
                generation: 0,
                shards: cfg.shards,
            }),
            factory,
            cfg,
            cache,
            router,
            checkpoint_dir,
            submitted: AtomicU64::new(0),
            archive: Mutex::new(Archive::default()),
        }
    }

    /// Current router generation.
    pub fn generation(&self) -> u32 {
        self.state.read().expect("elastic state poisoned").generation
    }

    /// Current shard count.
    pub fn shards(&self) -> usize {
        self.state.read().expect("elastic state poisoned").shards
    }

    /// Requests submitted so far, across every generation.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Metrics handle for the *serving* generation — live cells, journals
    /// and drain phases. A resize retires the cells behind a previously
    /// returned handle (their journals stay readable); grab a fresh handle
    /// after every cutover.
    pub fn metrics_handle(&self) -> MetricsHandle {
        self.state.read().expect("elastic state poisoned").handle.clone()
    }

    /// A submitter's private ingest front — one per connection reader or
    /// load-generator thread. See [`ElasticProducer`].
    pub fn producer(&self) -> ElasticProducer<'_, D, E> {
        ElasticProducer { fleet: self, generation: 0, inner: None }
    }

    /// One frame through a throwaway [`producer`](Self::producer): the
    /// convenience the bench and tests submit with.
    pub fn submit_frame(&self, reqs: impl IntoIterator<Item = E>) {
        self.producer().submit_frame(reqs);
    }

    /// Live metrics: the serving generation merged with every retired one,
    /// ledger rows attached. Waits out a resize in progress.
    pub fn metrics(&self) -> FleetMetrics {
        let live = self.state.read().expect("elastic state poisoned").handle.snapshot();
        self.merged(live)
    }

    fn merged(&self, live: FleetMetrics) -> FleetMetrics {
        let archive = self.archive.lock().expect("archive poisoned");
        let mut merged = archive.metrics.iter().cloned().fold(live, |acc, retired| acc.merge(retired));
        // Rows are pushed in generation order, one per retired generation.
        merged.generations = archive.generations.clone();
        merged
    }

    fn summarize(generation: u32, shards: usize, snap: &FleetMetrics) -> GenerationSummary {
        GenerationSummary {
            generation,
            shards: shards as u32,
            processed: snap.total_processed(),
            dropped: snap.total_dropped(),
            unavailable: snap.total_unavailable(),
            shed: snap.total_shed(),
            restarts: snap.total_restarts(),
            warm_restarts: snap.total_warm_restarts(),
            warm_boots: snap.total_warm_boots(),
        }
    }

    /// Resizes the fleet to `to_shards` shards: drains the serving
    /// generation — every shard `Serving → Draining → Transferring →
    /// Retired`, in that order — ships every surviving shard's final cut as
    /// a handoff [`CutFrame`] (a row delta when a pre-copied base exists)
    /// and boots the next generation warm from the
    /// resolved frames. Submitters blocked on the generation lock resume
    /// against the new generation; nothing is dropped or answered
    /// `Unavailable` by the resize itself. Concurrent resizes serialize on
    /// the lock.
    ///
    /// The target is checked before the fleet is touched (see
    /// [`ResizeRefused`]); past that point the successor generation always
    /// boots. A handoff that validation refuses degrades per shard — see
    /// [`TransferStat::refused`] — and never fails the resize.
    pub fn resize(&self, to_shards: usize) -> Result<Vec<TransferStat>, ResizeRefused> {
        let mut st = self.state.write().expect("elastic state poisoned");
        let from_shards = st.shards;
        if to_shards == 0 || to_shards == from_shards || to_shards > MAX_SHARDS {
            return Err(ResizeRefused { target: to_shards, serving: from_shards });
        }
        let from_gen = st.generation;
        let to_gen = from_gen + 1;
        let fleet = st.fleet.take().expect("fleet serving");
        let slots = fleet.checkpoint_slots();
        let old_handle = st.handle.clone();

        // Serving → Draining: the fleet flips its cells as it drains.
        drop(fleet.finish_with_cut(to_shards)); // drivers retire with their generation

        let survivors = from_shards.min(to_shards);
        let mut seeds: Vec<Option<Vec<u8>>> = vec![None; to_shards];
        let mut transfers = Vec::with_capacity(survivors);
        for (s, slot) in slots.iter().enumerate() {
            old_handle.cells()[s].set_phase(ShardPhase::Transferring);
            if s < survivors {
                let (stat, seed) = hand_off(s, slot, from_gen, to_gen);
                transfers.push(stat);
                seeds[s] = seed;
            } else {
                // Retired shard: its keyspace disperses across survivors;
                // its spill must not resurrect under a later warm boot.
                slot.clear_disk();
            }
            old_handle.cells()[s].set_phase(ShardPhase::Retired);
        }

        // Archive the drained generation (exact: the fleet is finished).
        let snap = old_handle.snapshot();
        {
            let mut archive = self.archive.lock().expect("archive poisoned");
            archive.generations.push(Self::summarize(from_gen, from_shards, &snap));
            archive.metrics.push(snap);
            archive.transfers.extend(transfers.iter().cloned());
        }

        // Boot the successor generation warm from the resolved transfers.
        let fleet = ShardedFleet::with_boot(
            FleetConfig { shards: to_shards, ..self.cfg },
            self.cache.clone(),
            Box::new(Arc::clone(&self.router)),
            mint(&self.factory),
            FaultPlan::default(),
            FleetBoot {
                checkpoint_dir: self.checkpoint_dir.clone(),
                warm_boot: true,
                seeds,
                generation: to_gen,
                handoff: true,
            },
        );
        let handle = fleet.metrics_handle();
        let journal = &handle.cells()[0].obs().journal;
        journal.record(
            0,
            EventKind::RingResize {
                from_shards: from_shards as u32,
                to_shards: to_shards as u32,
                generation: to_gen,
            },
        );
        journal.record(0, EventKind::Cutover { generation: to_gen });
        st.fleet = Some(fleet);
        st.handle = handle;
        st.generation = to_gen;
        st.shards = to_shards;
        Ok(transfers)
    }

    /// Drains the serving generation and closes the book, by reference —
    /// the seam for callers that hold the fleet behind an `Arc` (the
    /// gateway's shared state) and cannot move it out. Returns the serving
    /// generation's own report (drivers inside) beside the whole-life one.
    /// With `final_cut` set, every shard cuts a final checkpoint into the
    /// spill directory first — the artifact a successor process warm-boots
    /// from. Panics on a second call: the fleet serves (and finishes)
    /// exactly once.
    pub fn finish_live(&self, final_cut: bool) -> (FleetReport<D>, ElasticReport) {
        let mut st = self.state.write().expect("elastic state poisoned");
        let fleet = st.fleet.take().expect("fleet serving");
        let report = if final_cut { fleet.finish_with_cut(st.shards) } else { fleet.finish() };
        let snap = st.handle.snapshot();
        let transfers = {
            let mut archive = self.archive.lock().expect("archive poisoned");
            archive.generations.push(Self::summarize(st.generation, st.shards, &snap));
            archive.transfers.clone()
        };
        let metrics = self.merged(snap);
        (report, ElasticReport { metrics, transfers, submitted: self.submitted.load(Ordering::Relaxed) })
    }

    /// [`finish_live`](Self::finish_live) for an owned fleet: the
    /// whole-life report alone.
    pub fn finish(self, final_cut: bool) -> ElasticReport {
        self.finish_live(final_cut).1
    }
}

/// One submitter's ingest front onto an [`ElasticFleet`]: a
/// [`FleetProducer`] stamped with the generation it was minted in.
///
/// [`submit_frame`](Self::submit_frame) holds the generation lock (shared)
/// for the whole frame, so the frame lands in exactly one generation and a
/// concurrent resize waits for it. The inner producer is re-minted on the
/// first frame after a cutover — the stale one dropped first, so it stops
/// pinning the retired generation's lanes and checkpoint slots. A producer
/// idle since before a cutover keeps that pin until its next frame or drop.
pub struct ElasticProducer<'a, D: AdmissionDriver + Send + 'static, E: Envelope> {
    fleet: &'a ElasticFleet<D, E>,
    generation: u32,
    inner: Option<FleetProducer<D, E>>,
}

impl<D: AdmissionDriver + Send + 'static, E: Envelope> ElasticProducer<'_, D, E> {
    /// Routes one frame into the serving generation and flushes it; see
    /// [`FleetProducer::submit_frame`]. Allocates only when it re-mints.
    pub fn submit_frame(&mut self, envs: impl IntoIterator<Item = E>) {
        let st = self.fleet.state.read().expect("elastic state poisoned");
        if self.generation != st.generation {
            self.inner = None;
            self.generation = st.generation;
        }
        let inner = self
            .inner
            .get_or_insert_with(|| st.fleet.as_ref().expect("fleet serving").ingest().producer());
        let mut n = 0u64;
        inner.submit_frame(envs.into_iter().inspect(|_| n += 1));
        self.fleet.submitted.fetch_add(n, Ordering::Relaxed);
    }
}

/// A per-generation driver factory borrowing the shared closure.
fn mint<D: AdmissionDriver + Send + 'static>(
    factory: &DriverFactory<D>,
) -> impl FnMut(usize) -> D + Send + 'static {
    let factory = Arc::clone(factory);
    move |s| (factory.lock().expect("driver factory poisoned"))(s)
}

/// Wraps a state-machine violation (a bug, not an I/O condition) into the
/// cut error space so a handoff attempt has one error type.
fn state_err(msg: impl Into<String>) -> CutError {
    CutError::Frame(darwin_ckpt::CkptError::Malformed(msg.into()))
}

/// Validates `frame` as shard `shard`'s own checkpoint and returns the
/// boundary it was cut at — the `seq` a handoff is addressed with. A frame
/// that does not decode fails the attempt instead of shipping as boundary 0.
fn own_cut_seq(shard: usize, frame: &[u8]) -> Result<u64, CutError> {
    let (found, seq) = ShardCheckpoint::header(frame)?;
    if found != shard {
        return Err(CutError::WrongShard { expected: shard, found });
    }
    Ok(seq)
}

/// One attempt to ship shard `s`'s final cut — the newest frame in `slot` —
/// to generation `to_gen`; with `with_base`, as a row delta against the
/// "pre-copied" base: the slot's next candidate, the shard's last checkpoint
/// *before* the final cut, which a real destination would have replicated
/// while the source was still serving. (Read after the drain, so which
/// checkpoint that is depends on the request stream alone, never on how far
/// the worker had got when the resize was called.) Both ends of the shipment
/// run here: the final cut and the base are each opened once as this
/// shard's checkpoints, the cut goes through wire bytes, the destination
/// decodes, address-checks and resolves it against that base, and opens
/// the result once more as this shard's checkpoint at the final cut's
/// boundary — whose CRC trailer is the final cut's own, so only the final
/// cut's bytes pass — or the attempt fails loudly.
fn ship_final_cut(
    s: usize,
    slot: &CheckpointSlot,
    to_gen: u32,
    with_base: bool,
) -> Result<AppliedCut, CutError> {
    let mut candidates = slot.candidates();
    let final_frame =
        candidates.next().ok_or_else(|| state_err(format!("shard {s}: no final cut to hand off")))?;
    let seq = own_cut_seq(s, &final_frame)?;
    let base = candidates.next().filter(|b| with_base && *b != final_frame);
    let held = match &base {
        Some(base) => Some(Held { seq: own_cut_seq(s, base)?, image: base }),
        None => None,
    };
    let layout = ShardCheckpoint::layout;
    let wire = CutFrame::ship(s, to_gen, CutRole::Handoff, seq, &final_frame, held, layout);
    let cut = CutFrame::apply(&wire, s, to_gen, CutRole::Handoff, held, layout)?;
    if cut.seq != seq || own_cut_seq(s, &cut.image)? != seq {
        return Err(state_err(format!("shard {s}: resolved transfer diverges from the final cut")));
    }
    Ok(cut)
}

/// Hands shard `s` over, whatever validation says: the successor generation
/// must boot. The base is only an optimisation, so when the delta attempt is
/// refused the cut ships whole; when the final cut itself is refused (or was
/// never taken) nothing ships and the shard boots cold — seeded with the raw
/// frame, if any, so its worker refuses it and journals `RestoreCold` like
/// any detected-cold restore. Returns the transfer's accounting
/// ([`TransferStat::refused`] says which of those happened) and the seed.
fn hand_off(
    s: usize,
    slot: &CheckpointSlot,
    from_gen: u32,
    to_gen: u32,
) -> (TransferStat, Option<Vec<u8>>) {
    let mut stat = TransferStat {
        shard: s,
        from_generation: from_gen,
        to_generation: to_gen,
        ..Default::default()
    };
    let shipped = ship_final_cut(s, slot, to_gen, true).or_else(|refused| {
        stat.refused = Some(refused.to_string());
        ship_final_cut(s, slot, to_gen, false)
    });
    match shipped {
        Ok(cut) => {
            stat.seq = cut.seq;
            stat.full_bytes = cut.image.len() as u64;
            stat.shipped_bytes = cut.shipped_bytes;
            stat.delta = cut.base_seq.is_some();
            (stat, Some(cut.image))
        }
        Err(_) => (stat, slot.candidates().next().map(|frame| frame.to_vec())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_cache::{CacheServer, ThresholdPolicy};
    use darwin_ckpt::CkptError;

    /// A real cut: shard `shard`'s checkpoint after `seq` requests over a
    /// catalogue of 5 000 objects (more seen than resident, as in a serving
    /// shard).
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
            restarts: 0,
            budget_marks: Vec::new(),
        };
        ckpt.to_frame_of(&server)
    }

    fn slot_with(frames: &[Vec<u8>]) -> CheckpointSlot {
        let slot = CheckpointSlot::new(1, None);
        for f in frames {
            slot.store(f.clone());
        }
        slot
    }

    #[test]
    fn hand_off_ships_a_delta_at_the_decoded_boundaries() {
        let slot = slot_with(&[ckpt_frame(1, 20_000), ckpt_frame(1, 20_730)]);
        let (stat, seed) = hand_off(1, &slot, 4, 5);
        assert_eq!((stat.seq, stat.from_generation, stat.to_generation), (20_730, 4, 5));
        assert!(
            stat.delta && stat.shipped_bytes < stat.full_bytes / 2 && stat.refused.is_none(),
            "{stat:?}"
        );
        assert_eq!(seed.unwrap(), *slot.candidates().next().unwrap());
        // No earlier checkpoint, or one identical to the final cut (the
        // stream ended on a periodic boundary): the full image ships.
        for frames in [vec![ckpt_frame(1, 20_730)], vec![ckpt_frame(1, 20_730); 2]] {
            let (stat, _) = hand_off(1, &slot_with(&frames), 4, 5);
            assert!(!stat.delta && stat.shipped_bytes == stat.full_bytes && stat.refused.is_none());
        }
    }

    fn bit_flipped(mut frame: Vec<u8>) -> Vec<u8> {
        let mid = frame.len() / 2;
        frame[mid] ^= 0x10;
        frame
    }

    #[test]
    fn undecodable_cut_or_base_fails_the_handoff_instead_of_shipping_seq_zero() {
        // A damaged base: the final cut is fine, the boundary it would be
        // addressed against is unknowable.
        let slot = slot_with(&[bit_flipped(ckpt_frame(1, 500)), ckpt_frame(1, 730)]);
        assert_eq!(ship_final_cut(1, &slot, 5, true), Err(CutError::Frame(CkptError::BadCrc)));
        // Another shard's frame in this shard's slot is refused by name.
        let slot = slot_with(&[ckpt_frame(0, 500), ckpt_frame(1, 730)]);
        assert_eq!(
            ship_final_cut(1, &slot, 5, true),
            Err(CutError::WrongShard { expected: 1, found: 0 })
        );
        // The final cut corrupted in the slot after it was taken, torn or
        // bit-flipped: no boundary to address, so nothing ships.
        for torn in [true, false] {
            let slot = slot_with(&[ckpt_frame(1, 500), ckpt_frame(1, 730)]);
            slot.corrupt(torn);
            assert!(matches!(ship_final_cut(1, &slot, 5, true), Err(CutError::Frame(_))));
        }
    }

    #[test]
    fn a_refused_attempt_falls_back_to_a_full_shipment_then_to_a_cold_seed() {
        // A base that does not validate: the valid final cut ships whole.
        let final_cut = ckpt_frame(1, 730);
        let slot = slot_with(&[bit_flipped(ckpt_frame(1, 500)), final_cut.clone()]);
        let (stat, seed) = hand_off(1, &slot, 4, 5);
        assert_eq!((stat.seq, stat.delta, stat.shipped_bytes), (730, false, stat.full_bytes));
        assert_eq!(stat.refused, Some(CutError::Frame(CkptError::BadCrc).to_string()));
        assert_eq!(seed, Some(final_cut));
        // A final cut that does not validate: nothing ships, and the raw
        // frame is the seed the successor's worker will refuse and journal.
        let slot = slot_with(&[ckpt_frame(1, 500), ckpt_frame(1, 730)]);
        slot.corrupt(false);
        let (stat, seed) = hand_off(1, &slot, 4, 5);
        assert_eq!((stat.seq, stat.full_bytes, stat.shipped_bytes, stat.delta), (0, 0, 0, false));
        assert!(stat.refused.is_some());
        assert_eq!(seed.as_ref(), slot.candidates().next().as_deref());
        // No cut at all (a driver that cannot save its state): cold, unseeded.
        let (stat, seed) = hand_off(1, &slot_with(&[]), 4, 5);
        assert_eq!((stat.shipped_bytes, seed), (0, None));
        assert!(stat.refused.is_some_and(|why| why.contains("no final cut")));
    }
}
