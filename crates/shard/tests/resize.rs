//! End-to-end elastic resize: the 4 → 8 → 4 acceptance scenario.
//!
//! A live fleet resized under load answers zero `Unavailable`, keeps the
//! exactly-once conservation ledger (`processed + dropped + unavailable +
//! shed == submitted`) across every cutover, journals the full
//! drain/handoff/cutover event sequence at deterministic request-sequence
//! boundaries, ships survivor state as delta-compressed transfer envelopes,
//! reproduces bit-for-bit when rerun from the same seed, and regains its
//! hit ratio within one fleet-wide checkpoint window of each resize.

use darwin_cache::{CacheConfig, ThresholdPolicy};
use darwin_shard::{
    Backpressure, ElasticFleet, EventKind, FaultEvent, FaultKind, FaultPlan, FleetConfig, JumpRouter,
    MetricsHandle, ResizeRefused, Router, ShardPhase, MAX_SHARDS,
};
use darwin_testbed::StaticDriver;
use darwin_trace::{MixSpec, Request, Trace, TraceGenerator, TrafficClass};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const CKPT_EVERY: u64 = 500;

fn cache_cfg() -> CacheConfig {
    CacheConfig { hoc_bytes: 2 * 1024 * 1024, ..CacheConfig::small_test() }
}

fn fleet_cfg(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        queue_capacity: 256,
        batch: 64,
        backpressure: Backpressure::Block,
        checkpoint_every: Some(CKPT_EVERY),
        ..Default::default()
    }
}

fn test_trace(len: usize) -> Trace {
    TraceGenerator::new(MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5), 99)
        .generate(len)
}

fn elastic(shards: usize, dir: Option<std::path::PathBuf>, warm: bool) -> ElasticFleet<StaticDriver> {
    elastic_with(fleet_cfg(shards), dir, warm)
}

fn elastic_with(
    cfg: FleetConfig,
    dir: Option<std::path::PathBuf>,
    warm: bool,
) -> ElasticFleet<StaticDriver> {
    elastic_faulty(cfg, FaultPlan::default(), dir, warm)
}

fn elastic_faulty(
    cfg: FleetConfig,
    fault: FaultPlan,
    dir: Option<std::path::PathBuf>,
    warm: bool,
) -> ElasticFleet<StaticDriver> {
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    ElasticFleet::new(
        cfg,
        cache_cfg(),
        Box::new(JumpRouter),
        move |_| StaticDriver::new(policy),
        fault,
        dir,
        warm,
    )
}

fn frames(trace: &Trace, frame_len: usize) -> Vec<Vec<Request>> {
    trace.requests().chunks(frame_len).map(|c| c.to_vec()).collect()
}

/// The acceptance scenario, single-threaded so every boundary is exact:
/// 4 shards → resize to 8 under a drained-but-live fleet → resize back
/// to 4 → finish. Every conservation, journal and transfer property the
/// issue pins is asserted here.
#[test]
fn resize_4_8_4_conserves_and_journals() {
    let dir = std::env::temp_dir().join(format!("darwin-resize-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let trace = test_trace(30_000);
    let fs = frames(&trace, 1_000);
    let fleet = elastic(4, Some(dir.clone()), false);

    for f in &fs[..10] {
        fleet.submit_frame(f.iter().cloned());
    }
    let gen0 = fleet.metrics_handle();
    let up = fleet.resize(8).expect("4 -> 8 resize");
    let gen1 = fleet.metrics_handle();

    // The drained generation journaled its drain at the cut boundary.
    for cell in gen0.cells() {
        let events = cell.obs().journal.snapshot().events;
        assert!(
            events.iter().any(|e| e.kind == EventKind::DrainStart { target_shards: 8 }),
            "gen0 shard {}: missing DrainStart",
            cell.shard_index()
        );
        let cut = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::HandoffCut { .. }))
            .expect("gen0 shard journals its final cut");
        match cut.kind {
            EventKind::HandoffCut { checkpoint_seq } => {
                assert_eq!(checkpoint_seq, cut.seq, "cut sits at its own sequence boundary")
            }
            _ => unreachable!(),
        }
        assert_eq!(cell.phase(), ShardPhase::Retired, "drained cells end Retired");
    }

    // Every survivor shipped exactly one envelope; bases existed (periodic
    // checkpoints ran), so the envelopes are delta-compressed.
    assert_eq!(up.len(), 4, "4 survivors of 4 -> 8");
    for t in &up {
        assert_eq!((t.from_generation, t.to_generation), (0, 1));
        assert!(t.seq > 0, "shard {} cut at a live boundary", t.shard);
        assert!(t.delta, "shard {}: periodic base exists, handoff ships a delta", t.shard);
        assert!(
            t.shipped_bytes < t.full_bytes,
            "shard {}: delta ({}) must undercut the full frame ({})",
            t.shard,
            t.shipped_bytes,
            t.full_bytes
        );
    }

    // The successor generation journaled the cutover and restored warm.
    let events = gen1.cells()[0].obs().journal.snapshot().events;
    assert!(events
        .iter()
        .any(|e| e.kind == EventKind::RingResize { from_shards: 4, to_shards: 8, generation: 1 }));
    assert!(events.iter().any(|e| e.kind == EventKind::Cutover { generation: 1 }));

    for f in &fs[10..20] {
        fleet.submit_frame(f.iter().cloned());
    }
    let down = fleet.resize(4).expect("8 -> 4 resize");

    // Generation 1 is fully drained now, so its journals are complete: the
    // survivors of 4 -> 8 recorded their warm handoff restores.
    for cell in &gen1.cells()[..4] {
        let events = cell.obs().journal.snapshot().events;
        assert!(
            events.iter().any(|e| matches!(e.kind, EventKind::HandoffRestore { warm_boot: false, .. })),
            "gen1 survivor {}: missing HandoffRestore",
            cell.shard_index()
        );
    }
    assert_eq!(down.len(), 4, "4 survivors of 8 -> 4");
    assert_eq!(fleet.generation(), 2);
    assert_eq!(fleet.shards(), 4);

    for f in &fs[20..] {
        fleet.submit_frame(f.iter().cloned());
    }
    let report = fleet.finish(false);

    assert_eq!(report.submitted, trace.len() as u64);
    assert!(report.conserved(), "processed + dropped + unavailable + shed == submitted");
    assert_eq!(report.metrics.total_unavailable(), 0, "Block backpressure: zero Unavailable");
    assert_eq!(report.metrics.total_dropped(), 0);
    assert_eq!(report.metrics.total_processed(), trace.len() as u64);

    // Per-generation ledger: three generations, the right widths, and the
    // windows partition the submitted total exactly.
    let gens = &report.metrics.generations;
    assert_eq!(
        gens.iter().map(|g| (g.generation, g.shards)).collect::<Vec<_>>(),
        vec![(0, 4), (1, 8), (2, 4)]
    );
    assert_eq!(gens.iter().map(|g| g.processed).sum::<u64>(), trace.len() as u64);
    assert_eq!(gens[1].warm_boots, 4, "4 -> 8: the 4 survivors restore warm");
    assert_eq!(gens[2].warm_boots, 4, "8 -> 4: the 4 survivors restore warm");
    assert_eq!(report.transfers.len(), 8);

    std::fs::remove_dir_all(&dir).ok();
}

/// The post-resize hit-ratio dip is bounded: after each resize of a
/// 4 → 8 → 4 schedule, the windowed HOC hit ratio regains 95 % of the
/// pre-resize steady state (the mean over the last quarter of the phase
/// before it) within one fleet-wide checkpoint window, `checkpoint_every ×
/// max(from, to)` requests. The curve is exact in request space: after
/// every window the live fleet is drained to the submission point and its
/// merged metrics sampled. The scenario is the benchmark-scale one (a
/// 200 k-request trace, 16 MiB of HOC per shard, a 4 000-request window
/// and cadence), since a shorter trace is still warming up when it resizes.
#[test]
fn hit_ratio_dip_recovers_within_one_checkpoint_window() {
    const RECOVERY_THRESHOLD: f64 = 0.95;
    const WINDOW: u64 = 4_000;
    let trace = TraceGenerator::new(
        MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5),
        2028,
    )
    .generate(200_000);
    let fs = frames(&trace, WINDOW as usize);
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let fleet = ElasticFleet::new(
        FleetConfig { checkpoint_every: Some(WINDOW), ..fleet_cfg(4) },
        CacheConfig { hoc_bytes: 16 * 1024 * 1024, ..cache_cfg() },
        Box::new(JumpRouter),
        move |_| StaticDriver::new(policy),
        FaultPlan::default(),
        None,
        false,
    );
    let resizes = [(fs.len() * 2 / 5, 4, 8), (fs.len() * 4 / 5, 8, 4)];

    // Per window: (requests submitted at its end, windowed hit ratio).
    let mut curve: Vec<(u64, f64)> = Vec::new();
    // Per resize: (first curve index after it, from, to, submitted at it).
    let mut cuts = Vec::new();
    let mut prev = (0u64, 0u64);
    for (i, f) in fs.iter().enumerate() {
        if let Some(&(_, from, to)) = resizes.iter().find(|r| r.0 == i) {
            cuts.push((curve.len(), from, to, fleet.submitted()));
            fleet.resize(to).expect("live resize");
        }
        fleet.submit_frame(f.iter().cloned());
        let submitted = fleet.submitted();
        let cache = loop {
            let m = fleet.metrics();
            if m.total_processed() + m.total_dropped() + m.total_unavailable() >= submitted {
                break m.fleet_cache();
            }
            std::thread::yield_now();
        };
        let (reqs, hits) = (cache.requests - prev.0, cache.hoc_hits - prev.1);
        curve.push((submitted, hits as f64 / reqs as f64));
        prev = (cache.requests, cache.hoc_hits);
    }
    assert!(fleet.finish(false).conserved());

    let mut phase_start = 0;
    for (cut, from, to, at) in cuts {
        let tail = &curve[phase_start..cut][(cut - phase_start) * 3 / 4..];
        let steady = tail.iter().map(|&(_, ohr)| ohr).sum::<f64>() / tail.len() as f64;
        let budget = WINDOW * from.max(to) as u64;
        let within: Vec<f64> = curve[cut..]
            .iter()
            .take_while(|&&(seq, _)| seq - at <= budget)
            .map(|&(_, ohr)| ohr)
            .collect();
        assert!(
            within.iter().any(|&ohr| ohr >= RECOVERY_THRESHOLD * steady),
            "{from} -> {to}: no window within {budget} requests regained 95 % of {steady:.4}: {within:?}"
        );
        phase_start = cut;
    }
}

/// The phase order a resize drives every drained shard through, watched
/// from outside while it runs: each shard's cell only ever moves forward,
/// one step at a time, `Serving → Draining → Transferring → Retired`
/// (a watcher may miss a step, never see one undone), the drain is
/// journaled before the final cut, and every shard ends `Retired` while
/// its successor serves.
#[test]
fn tracker_enforces_one_way_order() {
    let trace = test_trace(6_000);
    let fleet = Arc::new(elastic(4, None, false));
    fleet.submit_frame(trace.iter().cloned());
    let gen0 = fleet.metrics_handle();
    let resizing = {
        let fleet = Arc::clone(&fleet);
        std::thread::spawn(move || fleet.resize(2).expect("4 -> 2"))
    };
    let mut seen = vec![vec![ShardPhase::Serving]; 4];
    while !resizing.is_finished() {
        for (cell, seen) in gen0.cells().iter().zip(&mut seen) {
            let phase = cell.phase();
            if seen.last() != Some(&phase) {
                seen.push(phase);
            }
        }
        std::thread::yield_now();
    }
    resizing.join().unwrap();
    for (shard, (cell, seen)) in gen0.cells().iter().zip(&mut seen).enumerate() {
        if seen.last() != Some(&cell.phase()) {
            seen.push(cell.phase());
        }
        assert!(seen.windows(2).all(|w| w[0].code() < w[1].code()), "shard {shard} went {seen:?}");
        assert_eq!(seen.last(), Some(&ShardPhase::Retired), "shard {shard}");
        let kinds: Vec<_> = cell.obs().journal.snapshot().events.into_iter().map(|e| e.kind).collect();
        let drain = kinds.iter().position(|k| matches!(k, EventKind::DrainStart { target_shards: 2 }));
        let cut = kinds.iter().position(|k| matches!(k, EventKind::HandoffCut { .. }));
        assert!(drain.is_some() && drain < cut, "shard {shard}: drain then final cut, in {kinds:?}");
    }
    let gen1 = fleet.metrics_handle();
    assert!(gen1.cells().iter().all(|c| c.phase() == ShardPhase::Serving));
    let fleet = Arc::into_inner(fleet).expect("the resize thread is joined");
    assert!(fleet.finish(false).conserved());
}

/// Concurrent submitters across both resizes: nothing is refused, nothing
/// is lost. The generation lock hands frames over atomically, so the
/// ledger balances even with four threads racing the cutovers.
#[test]
fn live_submitters_see_zero_unavailable_across_resizes() {
    let dir = std::env::temp_dir().join(format!("darwin-resize-live-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let trace = test_trace(24_000);
    let fleet = Arc::new(elastic(4, Some(dir.clone()), false));
    let fs = Arc::new(frames(&trace, 250));
    let next = Arc::new(AtomicUsize::new(0));

    let submitters: Vec<_> = (0..4)
        .map(|_| {
            let fleet = Arc::clone(&fleet);
            let fs = Arc::clone(&fs);
            let next = Arc::clone(&next);
            std::thread::spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= fs.len() {
                    return;
                }
                fleet.submit_frame(fs[i].iter().cloned());
            })
        })
        .collect();

    // Resize twice while the submitters hammer the generation lock.
    fleet.resize(8).expect("4 -> 8 under load");
    std::thread::sleep(std::time::Duration::from_millis(20));
    fleet.resize(4).expect("8 -> 4 under load");

    for t in submitters {
        t.join().unwrap();
    }
    let fleet = Arc::into_inner(fleet).expect("submitters dropped their handles");
    let report = fleet.finish(false);

    assert_eq!(report.submitted, trace.len() as u64);
    assert!(report.conserved());
    assert_eq!(report.metrics.total_unavailable(), 0, "a resize never answers Unavailable");
    assert_eq!(report.metrics.total_dropped(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Overload shedding across a cutover: with a watermark armed, flooded
/// frames are answered `shed` in both generations. How many is up to the
/// scheduler; that every one of them is on the ledger — in the fleet total
/// and in its generation's row — is not.
#[test]
fn shed_requests_stay_on_the_ledger_across_a_resize() {
    let trace = test_trace(24_000);
    let fs = frames(&trace, 1_000);
    let fleet = elastic_with(FleetConfig { shed_watermark: Some(1), ..fleet_cfg(2) }, None, false);
    for f in &fs[..12] {
        fleet.submit_frame(f.iter().cloned());
    }
    fleet.resize(4).expect("2 -> 4 resize");
    for f in &fs[12..] {
        fleet.submit_frame(f.iter().cloned());
    }
    let report = fleet.finish(false);

    assert_eq!(report.submitted, trace.len() as u64);
    let shed = report.metrics.total_shed();
    assert!(shed > 0, "a 1-deep watermark under 1000-request frames must shed, or this checks nothing");
    assert!(report.conserved(), "processed + dropped + unavailable + shed == submitted");
    let gens = &report.metrics.generations;
    assert_eq!(gens.iter().map(|g| (g.generation, g.shards)).collect::<Vec<_>>(), vec![(0, 2), (1, 4)]);
    assert_eq!(
        gens.iter().map(|g| g.shed).sum::<u64>(),
        shed,
        "per-generation shed rows sum to the total"
    );
    for g in gens {
        assert_eq!(
            g.processed + g.dropped + g.unavailable + g.shed,
            12_000,
            "generation {} balances its own 12 frames",
            g.generation
        );
    }
}

/// Determinism certificate: the same seeded trace through the same resize
/// schedule produces byte-identical transfers (same cut sequences, same
/// frame sizes, same delta framing) and an identical per-generation
/// ledger — the property that makes a rebalance auditable after the fact.
#[test]
fn seeded_resize_runs_reproduce_bitwise() {
    let run = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("darwin-resize-det-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let trace = test_trace(16_000);
        let fs = frames(&trace, 1_000);
        let fleet = elastic(4, Some(dir.clone()), false);
        for f in &fs[..8] {
            fleet.submit_frame(f.iter().cloned());
        }
        fleet.resize(8).expect("grow");
        for f in &fs[8..] {
            fleet.submit_frame(f.iter().cloned());
        }
        fleet.resize(4).expect("shrink");
        let report = fleet.finish(false);
        std::fs::remove_dir_all(&dir).ok();
        report
    };
    let a = run("a");
    let b = run("b");
    assert_eq!(a.transfers, b.transfers, "transfer envelopes are bit-reproducible");
    assert_eq!(a.metrics.generations, b.metrics.generations, "ledger is bit-reproducible");
    assert_eq!(a.submitted, b.submitted);
}

/// Cross-process warm boot at the elastic layer: a second `ElasticFleet`
/// pointed at the first one's checkpoint directory restores every shard
/// warm and the combined ledger still balances.
#[test]
fn second_elastic_process_warm_boots() {
    let dir = std::env::temp_dir().join(format!("darwin-resize-warm-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let trace = test_trace(16_000);
    let fs = frames(&trace, 1_000);

    let first = elastic(4, Some(dir.clone()), false);
    for f in &fs[..8] {
        first.submit_frame(f.iter().cloned());
    }
    let head = first.finish(true); // final cut -> spill files for the successor
    assert!(head.conserved());

    let second = elastic(4, Some(dir.clone()), true);
    for f in &fs[8..] {
        second.submit_frame(f.iter().cloned());
    }
    let tail = second.finish(false);
    assert!(tail.conserved());
    assert_eq!(tail.metrics.total_warm_boots(), 4, "every shard restores from the spill");
    assert_eq!(tail.metrics.total_restarts(), 0, "a warm boot is not a restart");
    assert_eq!(head.metrics.total_processed() + tail.metrics.total_processed(), trace.len() as u64);
    std::fs::remove_dir_all(&dir).ok();
}

/// A shard a resize adds boots cold, never from a spill file an earlier
/// process left under its index. The first process serves 8 shards and
/// cuts a final checkpoint for each; the second warm-boots 4 from the same
/// directory, then grows to 8. Shards 4–7 of generation 1 have no handed-off
/// seed, and the spill files under their indices predate the resize.
#[test]
fn a_grown_shard_never_restores_a_stale_spill() {
    let dir = std::env::temp_dir().join(format!("darwin-resize-stale-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let trace = test_trace(16_000);
    let fs = frames(&trace, 1_000);

    let first = elastic(8, Some(dir.clone()), false);
    for f in &fs[..8] {
        first.submit_frame(f.iter().cloned());
    }
    assert!(first.finish(true).conserved());
    for s in 4..8 {
        assert!(dir.join(format!("shard-{s}.ckpt")).exists(), "shard {s} left a spill file");
    }

    let second = elastic(4, Some(dir.clone()), true);
    for f in &fs[8..12] {
        second.submit_frame(f.iter().cloned());
    }
    second.resize(8).expect("4 -> 8");
    let gen1 = second.metrics_handle();
    for f in &fs[12..] {
        second.submit_frame(f.iter().cloned());
    }
    let report = second.finish(false);
    assert!(report.conserved());
    assert_eq!(report.submitted, 8_000);
    assert_eq!(
        report.metrics.generations.iter().map(|g| g.warm_boots).collect::<Vec<_>>(),
        vec![4, 4],
        "4 shards boot from their spill files, 4 survivors from the handoff: 8 warm boots, not 12"
    );
    for cell in &gen1.cells()[4..] {
        let events = cell.obs().journal.snapshot().events;
        assert!(
            !events.iter().any(|e| matches!(e.kind, EventKind::HandoffRestore { .. })),
            "generation 1 shard {} restored a stale spill",
            cell.shard_index()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A target outside the input is refused before the serving generation is
/// touched: same generation, same shards, still serving.
#[test]
fn hostile_resize_targets_are_refused_and_leave_the_fleet_serving() {
    let trace = test_trace(4_000);
    let fleet = elastic(2, None, false);
    for target in [0, 2, MAX_SHARDS + 1, u32::MAX as usize] {
        assert_eq!(fleet.resize(target), Err(ResizeRefused { target, serving: 2 }));
        assert_eq!((fleet.generation(), fleet.shards()), (0, 2));
    }
    fleet.submit_frame(trace.iter().cloned());
    let report = fleet.finish(false);
    assert!(report.conserved());
    assert_eq!(report.metrics.total_processed(), trace.len() as u64);
    assert!(report.metrics.generations.len() == 1 && report.transfers.is_empty());
}

/// The successor generation boots whatever validation says about the cuts
/// it is handed. Scripted through generation 0's fault plan: shard 0's
/// checkpoints are damaged after its last periodic cut, so its (valid)
/// final cut has no base to delta against and ships full; shard 1 dies on
/// its last request with every checkpoint damaged, so it has no final cut,
/// nothing ships, and its successor refuses the damaged frame and boots
/// detected-cold. The ledger balances and every later request is served.
#[test]
fn a_damaged_base_ships_full_and_a_damaged_final_cut_boots_cold() {
    let trace = test_trace(12_000);
    let fs = frames(&trace, 1_000);
    let mut routed = [0u64; 2];
    for req in fs[..6].iter().flatten() {
        routed[JumpRouter.route(req.id, 2)] += 1;
    }
    assert!(
        routed.iter().all(|n| n % CKPT_EVERY != 0),
        "the final cuts must differ from the periodic ones"
    );
    let corrupt = FaultKind::CorruptCheckpoint { torn: false };
    let plan = FaultPlan::new(vec![
        FaultEvent { shard: 0, at: routed[0] - 1, kind: corrupt },
        FaultEvent { shard: 1, at: routed[1] - 1, kind: corrupt },
        FaultEvent { shard: 1, at: routed[1] - 1, kind: FaultKind::Panic },
    ]);
    let fleet = elastic_faulty(fleet_cfg(2), plan, None, false);
    for f in &fs[..6] {
        fleet.submit_frame(f.iter().cloned());
    }
    let transfers = fleet.resize(4).expect("the resize survives both refusals");
    let gen1 = fleet.metrics_handle();
    assert_eq!((fleet.generation(), fleet.shards()), (1, 4));

    let [full, cold] = &transfers[..] else { panic!("two survivors of 2 -> 4: {transfers:?}") };
    assert_eq!((full.shard, full.seq, full.delta), (0, routed[0], false));
    assert!(full.shipped_bytes == full.full_bytes && full.refused.is_some(), "{full:?}");
    assert_eq!((cold.shard, cold.seq, cold.shipped_bytes), (1, 0, 0));
    assert!(cold.refused.is_some(), "{cold:?}");

    for f in &fs[6..] {
        fleet.submit_frame(f.iter().cloned());
    }
    let report = fleet.finish(false);
    assert!(report.conserved());
    assert_eq!(report.submitted, trace.len() as u64);
    assert_eq!(report.metrics.total_dropped(), 1, "only the request the scripted panic fell on");
    assert_eq!(report.metrics.total_unavailable(), 0);
    assert_eq!(report.metrics.generations[1].warm_boots, 1, "shard 0 restored from its full shipment");
    let journal = |shard: usize| gen1.cells()[shard].obs().journal.snapshot().events;
    assert!(journal(0).iter().any(|e| matches!(e.kind, EventKind::HandoffRestore { .. })));
    assert!(journal(1).iter().any(|e| e.kind == EventKind::RestoreCold), "detected cold, journaled");
}

/// A producer that sat out two cutovers re-mints once, on its next frame,
/// and until then is the only thing keeping the generation it was minted
/// in alive; a generation it never submitted to is never pinned.
#[test]
fn an_idle_producer_re_mints_once_and_releases_its_retired_generation() {
    let trace = test_trace(4_000);
    let fs = frames(&trace, 1_000);
    let fleet = elastic(2, None, false);
    let holders = |gen: &MetricsHandle| Arc::strong_count(&gen.cells()[0]);

    let mut idle = fleet.producer();
    idle.submit_frame(fs[0].iter().cloned());
    let gen0 = fleet.metrics_handle();
    fleet.resize(4).expect("2 -> 4");
    let gen1 = fleet.metrics_handle();
    fleet.submit_frame(fs[1].iter().cloned());
    fleet.resize(2).expect("4 -> 2");
    assert_eq!(holders(&gen0), 2, "this handle and the idle producer's fleet core");
    assert_eq!(holders(&gen1), 1, "generation 1 is gone but for this handle");

    idle.submit_frame(fs[2].iter().cloned());
    assert_eq!(holders(&gen0), 1, "the stale inner producer was dropped at the re-mint");
    idle.submit_frame(fs[3].iter().cloned());
    drop(idle);
    let report = fleet.finish(false);
    assert!(report.conserved());
    assert_eq!(
        report.metrics.generations[2].processed, 2_000,
        "both late frames landed in generation 2"
    );
}
