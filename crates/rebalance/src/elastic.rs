//! The elastic fleet: live resizes over a generation of `ShardedFleet`s.
//!
//! An [`ElasticFleet`] owns the serving generation behind an `RwLock`:
//! submitters hold the read side (so a whole frame lands in exactly one
//! generation), a [`resize`](ElasticFleet::resize) holds the write side.
//! Because submission uses [`Backpressure::Block`](darwin_shard::Backpressure) semantics and the lock
//! hands over atomically, a resize never answers `Unavailable` and never
//! drops a request — the exactly-once conservation ledger
//! (`processed + dropped + unavailable + shed == submitted`) holds across any
//! resize sequence, which `experiments rebalance` certifies.
//!
//! A resize `N → M` drains the serving generation through the handoff state
//! machine, cuts every shard's final [`ShardCheckpoint`] at its
//! end-of-stream request-sequence boundary, ships each *surviving* shard's
//! cut to the successor generation in a [`CutRole::Handoff`] [`CutFrame`]
//! (delta-compressed against the shard's last periodic checkpoint when one
//! exists), and boots generation `g+1` with those frames as warm seeds.
//! Keyspace slices that *move* between shards arrive cold by design: the
//! ring bounds them to `|M−N|/max(N,M)` of the keyspace, which is exactly
//! the bounded post-resize hit-ratio dip the benchmark measures.

use crate::handoff::HandoffTracker;
use crate::ring::RingRouter;
use darwin_cache::CacheConfig;
use darwin_ckpt::replica::{CutError, CutFrame, CutRole, Held};
use darwin_shard::{
    CheckpointSlot, Envelope, EventKind, FaultPlan, FleetBoot, FleetConfig, FleetMetrics,
    GenerationSummary, MetricsHandle, ShardCheckpoint, ShardPhase, ShardedFleet,
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// True when the payload was a delta against a pre-copied base.
    pub delta: bool,
}

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
    ring: RingRouter,
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
    /// Boots generation 0 with `cfg.shards` shards routed by `ring`. With
    /// `warm` set (and a checkpoint directory in place), each shard
    /// restores from its spill file — the cross-process warm-boot path.
    pub fn new(
        cfg: FleetConfig,
        cache: CacheConfig,
        ring: RingRouter,
        factory: impl FnMut(usize) -> D + Send + 'static,
        checkpoint_dir: Option<PathBuf>,
        warm: bool,
    ) -> Self {
        let factory: DriverFactory<D> = Arc::new(Mutex::new(Box::new(factory)));
        let fleet: ShardedFleet<D, E> = ShardedFleet::with_boot(
            cfg,
            cache.clone(),
            Box::new(ring.clone()),
            mint(&factory),
            FaultPlan::default(),
            FleetBoot {
                checkpoint_dir: checkpoint_dir.clone(),
                warm_boot: warm,
                seeds: Vec::new(),
                generation: 0,
                handoff: false,
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
            ring,
            checkpoint_dir,
            submitted: AtomicU64::new(0),
            archive: Mutex::new(Archive::default()),
        }
    }

    /// The ring router every generation routes with.
    pub fn ring(&self) -> &RingRouter {
        &self.ring
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

    /// Routes one frame of requests into the serving generation. The whole
    /// frame lands in exactly one generation: the generation lock is held
    /// (shared) for the duration, so a concurrent resize waits for the
    /// frame and the frame never splits across a cutover.
    pub fn submit_frame(&self, reqs: impl IntoIterator<Item = E>) {
        let st = self.state.read().expect("elastic state poisoned");
        let fleet = st.fleet.as_ref().expect("fleet serving");
        let reqs: Vec<E> = reqs.into_iter().collect();
        self.submitted.fetch_add(reqs.len() as u64, Ordering::Relaxed);
        let mut producer = fleet.ingest().producer();
        producer.submit_frame(reqs);
    }

    /// Live metrics: the serving generation merged with every retired one,
    /// ledger rows attached.
    pub fn metrics(&self) -> FleetMetrics {
        let st = self.state.read().expect("elastic state poisoned");
        let live = st.handle.snapshot();
        drop(st);
        self.merged(live)
    }

    /// Metrics for the serving generation only (no archive folded in).
    pub fn live_metrics(&self) -> FleetMetrics {
        self.state.read().expect("elastic state poisoned").handle.snapshot()
    }

    fn merged(&self, live: FleetMetrics) -> FleetMetrics {
        let archive = self.archive.lock().expect("archive poisoned");
        let mut merged = archive.metrics.iter().cloned().fold(live, |acc, retired| acc.merge(retired));
        let mut generations = archive.generations.clone();
        merged.generations.clear();
        merged.generations.append(&mut generations);
        merged.generations.sort_by_key(|g| g.generation);
        merged.generations.dedup_by_key(|g| g.generation);
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
    /// generation through the handoff state machine, ships every surviving
    /// shard's final cut as a handoff [`CutFrame`] (delta-compressed when a
    /// pre-copied base exists) and boots the next generation warm from the
    /// resolved frames. Submitters blocked on the generation lock resume
    /// against the new generation; nothing is dropped or answered
    /// `Unavailable` by the resize itself.
    pub fn resize(&self, to_shards: usize) -> Result<Vec<TransferStat>, CutError> {
        assert!(to_shards > 0, "fleet needs at least one shard");
        let mut st = self.state.write().expect("elastic state poisoned");
        let from_shards = st.shards;
        let from_gen = st.generation;
        let to_gen = from_gen + 1;
        let fleet = st.fleet.take().expect("fleet serving");
        let slots = fleet.checkpoint_slots();
        let old_handle = st.handle.clone();

        let mut tracker = HandoffTracker::new(from_shards);
        // Serving → Draining happens inside finish_with_cut (the fleet
        // flips its cells); mirror it in the tracker so the order is
        // machine-checked end to end.
        for s in 0..from_shards {
            tracker.advance(s, ShardPhase::Draining).map_err(state_err)?;
        }
        let report = fleet.finish_with_cut(to_shards);
        drop(report); // drivers retire with their generation

        let survivors = from_shards.min(to_shards);
        let mut seeds: Vec<Option<Vec<u8>>> = vec![None; to_shards];
        let mut transfers = Vec::with_capacity(survivors);
        for (s, slot) in slots.iter().enumerate() {
            tracker.advance(s, ShardPhase::Transferring).map_err(state_err)?;
            old_handle.cells()[s].set_phase(ShardPhase::Transferring);
            if s < survivors {
                let (stat, seed) = hand_off(s, slot, from_gen, to_gen)?;
                transfers.push(stat);
                seeds[s] = Some(seed);
            } else {
                // Retired shard: its keyspace disperses across survivors;
                // its spill must not resurrect under a later warm boot.
                slot.clear_disk();
            }
            tracker.advance(s, ShardPhase::Retired).map_err(state_err)?;
            old_handle.cells()[s].set_phase(ShardPhase::Retired);
        }
        debug_assert!(tracker.all_at(ShardPhase::Retired));

        // Archive the drained generation (exact: the fleet is finished).
        let snap = old_handle.snapshot();
        {
            let mut archive = self.archive.lock().expect("archive poisoned");
            archive.generations.push(Self::summarize(from_gen, from_shards, &snap));
            archive.metrics.push(snap);
            archive.transfers.extend(transfers.iter().cloned());
        }

        // Boot the successor generation warm from the resolved transfers.
        let mut cfg = self.cfg;
        cfg.shards = to_shards;
        let fleet = ShardedFleet::with_boot(
            cfg,
            self.cache.clone(),
            Box::new(self.ring.clone()),
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
    /// gateway's shared state) and cannot move it out. With `final_cut`
    /// set, every shard cuts a final checkpoint into the spill directory
    /// first — the artifact a successor process warm-boots from. Panics on
    /// a second call: the fleet serves (and finishes) exactly once.
    pub fn finish_live(&self, final_cut: bool) -> ElasticReport {
        let mut st = self.state.write().expect("elastic state poisoned");
        let fleet = st.fleet.take().expect("fleet serving");
        let report = if final_cut { fleet.finish_with_cut(st.shards) } else { fleet.finish() };
        drop(report);
        let snap = st.handle.snapshot();
        let generation = st.generation;
        let shards = st.shards;
        drop(st);
        let transfers = {
            let mut archive = self.archive.lock().expect("archive poisoned");
            archive.generations.push(Self::summarize(generation, shards, &snap));
            archive.transfers.clone()
        };
        let metrics = self.merged(snap);
        ElasticReport { metrics, transfers, submitted: self.submitted.load(Ordering::Relaxed) }
    }

    /// Drains the serving generation and closes the book. With `final_cut`
    /// set, every shard cuts a final checkpoint into the spill directory
    /// first — the artifact a successor process warm-boots from.
    pub fn finish(self, final_cut: bool) -> ElasticReport {
        self.finish_live(final_cut)
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
/// cut error space so `resize` has one error type.
fn state_err(msg: impl Into<String>) -> CutError {
    CutError::Frame(darwin_ckpt::CkptError::Malformed(msg.into()))
}

/// Validates `frame` as shard `shard`'s own checkpoint and returns the
/// boundary it was cut at — the `seq` a handoff is addressed with. A frame
/// that does not decode fails the resize instead of shipping as boundary 0.
fn own_cut_seq(shard: usize, frame: &[u8]) -> Result<u64, CutError> {
    let (found, seq) = ShardCheckpoint::header(frame)?;
    if found != shard {
        return Err(CutError::WrongShard { expected: shard, found });
    }
    Ok(seq)
}

/// Hands shard `s`'s final cut — the newest frame in `slot` — to generation
/// `to_gen`, as a delta against the "pre-copied" base: the slot's next
/// candidate, the shard's last checkpoint *before* the final cut, which a
/// real destination would have replicated while the source was still
/// serving. (Read after the drain, so which checkpoint that is depends on
/// the request stream alone, never on how far the worker had got when the
/// resize was called.) Both ends of the shipment run here: the cut goes
/// through wire bytes, the destination decodes, address-checks and resolves
/// it against that base, and the image must be bitwise the validated final
/// cut at its boundary or the handoff fails loudly. Returns the transfer's
/// accounting and the seed to boot from.
fn hand_off(
    s: usize,
    slot: &CheckpointSlot,
    from_gen: u32,
    to_gen: u32,
) -> Result<(TransferStat, Vec<u8>), CutError> {
    let mut candidates = slot.candidates();
    let final_frame =
        candidates.next().ok_or_else(|| state_err(format!("shard {s}: no final cut to hand off")))?;
    let seq = own_cut_seq(s, &final_frame)?;
    let base = candidates.next().filter(|b| *b != final_frame);
    let held = match &base {
        Some(base) => Some(Held::new(own_cut_seq(s, base)?, base)),
        None => None,
    };
    let wire = CutFrame::ship(s, to_gen, CutRole::Handoff, seq, &final_frame, held);
    let cut = CutFrame::apply(&wire, s, to_gen, CutRole::Handoff, held)?;
    if cut.seq != seq || cut.image != *final_frame {
        return Err(state_err(format!("shard {s}: resolved transfer diverges from the final cut")));
    }
    let stat = TransferStat {
        shard: s,
        from_generation: from_gen,
        to_generation: to_gen,
        seq,
        full_bytes: final_frame.len() as u64,
        shipped_bytes: cut.shipped_bytes,
        delta: cut.base_seq.is_some(),
    };
    Ok((stat, cut.image))
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_cache::ThresholdPolicy;
    use darwin_ckpt::CkptError;

    fn ckpt_frame(shard: usize, seq: u64, fill: u8) -> Vec<u8> {
        ShardCheckpoint {
            shard,
            seq,
            policy: ThresholdPolicy::new(2, 64 * 1024),
            cache: vec![fill; 4096],
            driver: vec![fill ^ 0xFF; 128],
            restarts: 0,
            budget_marks: Vec::new(),
        }
        .to_frame()
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
        let slot = slot_with(&[ckpt_frame(1, 500, 7), ckpt_frame(1, 730, 7)]);
        let (stat, seed) = hand_off(1, &slot, 4, 5).unwrap();
        assert_eq!((stat.seq, stat.from_generation, stat.to_generation), (730, 4, 5));
        assert!(stat.delta && stat.shipped_bytes < stat.full_bytes);
        assert_eq!(seed, *slot.candidates().next().unwrap());
        // No earlier checkpoint, or one identical to the final cut (the
        // stream ended on a periodic boundary): the full image ships.
        for frames in [vec![ckpt_frame(1, 730, 7)], vec![ckpt_frame(1, 730, 7); 2]] {
            let (stat, _) = hand_off(1, &slot_with(&frames), 4, 5).unwrap();
            assert!(!stat.delta && stat.shipped_bytes == stat.full_bytes);
        }
    }

    #[test]
    fn undecodable_cut_or_base_fails_the_handoff_instead_of_shipping_seq_zero() {
        // A damaged base: the final cut is fine, the boundary it would be
        // addressed against is unknowable.
        let mut bad_base = ckpt_frame(1, 500, 7);
        let mid = bad_base.len() / 2;
        bad_base[mid] ^= 0x10;
        let slot = slot_with(&[bad_base, ckpt_frame(1, 730, 7)]);
        assert_eq!(hand_off(1, &slot, 4, 5), Err(CutError::Frame(CkptError::BadCrc)));
        // Another shard's frame in this shard's slot is refused by name.
        let slot = slot_with(&[ckpt_frame(0, 500, 7), ckpt_frame(1, 730, 7)]);
        assert_eq!(hand_off(1, &slot, 4, 5), Err(CutError::WrongShard { expected: 1, found: 0 }));
        // The final cut corrupted in the slot after it was taken, torn or
        // bit-flipped: no boundary to address, so nothing ships.
        for torn in [true, false] {
            let slot = slot_with(&[ckpt_frame(1, 500, 7), ckpt_frame(1, 730, 7)]);
            slot.corrupt(torn);
            assert!(matches!(hand_off(1, &slot, 4, 5), Err(CutError::Frame(_))));
        }
    }
}
