//! Cross-process warm boot, enforced end to end.
//!
//! Regression for the startup bug where `ShardedFleet` unconditionally
//! wiped the checkpoint spill directory: a *second* fleet instance pointed
//! at the first instance's spill directory must restore every shard warm
//! and continue bitwise-identically to an uninterrupted run. The cold
//! fallback is pinned too — a truncated spill file is *detected* cold
//! (journaled `RestoreCold`, spill removed) while intact shards still boot
//! warm, and a spill of an older frame version is refused the same way.

use darwin_cache::{CacheConfig, CacheServer, ThresholdPolicy};
use darwin_ckpt::rows::Table;
use darwin_ckpt::{open, seal, CkptError, Enc};
use darwin_shard::{
    partition, run_partition, EventKind, FaultPlan, FleetBoot, FleetConfig, HashRouter, ShardCheckpoint,
    ShardedFleet, CKPT_MAGIC, CKPT_VERSION,
};
use darwin_testbed::StaticDriver;
use darwin_trace::{MixSpec, Trace, TraceGenerator, TrafficClass};

const CKPT_EVERY: u64 = 1_000;

fn cache_cfg() -> CacheConfig {
    CacheConfig { hoc_bytes: 2 * 1024 * 1024, ..CacheConfig::small_test() }
}

fn fleet_cfg(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        queue_capacity: 256,
        batch: 64,
        checkpoint_every: Some(CKPT_EVERY),
        ..FleetConfig::default()
    }
}

fn test_trace() -> Trace {
    TraceGenerator::new(MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5), 77)
        .generate(24_000)
}

fn split(trace: &Trace, at: usize) -> (Trace, Trace) {
    let reqs = trace.requests();
    (Trace::from_sorted(reqs[..at].to_vec()), Trace::from_sorted(reqs[at..].to_vec()))
}

fn policy() -> ThresholdPolicy {
    ThresholdPolicy::new(2, 100 * 1024)
}

/// Runs the first "process": a fleet over `head` that cuts a final
/// checkpoint into `dir` on shutdown. Returns its per-shard published
/// cache metrics.
fn first_instance(
    dir: &std::path::Path,
    shards: usize,
    head: &Trace,
) -> Vec<darwin_cache::CacheMetrics> {
    let p = policy();
    let mut fleet = ShardedFleet::with_boot(
        fleet_cfg(shards),
        cache_cfg(),
        Box::new(HashRouter),
        move |_| StaticDriver::new(p),
        FaultPlan::default(),
        FleetBoot { checkpoint_dir: Some(dir.to_path_buf()), ..FleetBoot::default() },
    );
    fleet.submit_trace(head);
    let report = fleet.finish_with_cut(shards);
    report.metrics().shards.iter().map(|s| s.cache).collect()
}

/// Keystone: a second fleet instance pointed at the first's spill directory
/// warm-boots every shard and its published window equals the uninterrupted
/// full run minus the first instance's window — the restore path is bitwise.
#[test]
fn second_instance_warm_boots_from_first_spill() {
    let dir = std::env::temp_dir().join(format!("darwin-warm-boot-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let shards = 4;
    let trace = test_trace();
    let (head, tail) = split(&trace, trace.len() / 2);
    let first = first_instance(&dir, shards, &head);

    let p = policy();
    let mut fleet = ShardedFleet::with_boot(
        fleet_cfg(shards),
        cache_cfg(),
        Box::new(HashRouter),
        move |_| StaticDriver::new(p),
        FaultPlan::default(),
        FleetBoot::warm_from(dir.clone()),
    );
    let handle = fleet.metrics_handle();
    fleet.submit_trace(&tail);
    let report = fleet.finish();
    let snap = handle.snapshot();

    assert_eq!(snap.total_warm_boots(), shards as u32, "every shard restores from the spill");
    assert_eq!(snap.total_restarts(), 0, "a warm boot is not a restart");

    // Bitwise restore certificate: the second instance continued the first's
    // cache servers, so full-run cumulative metrics minus the first window
    // must equal the second window exactly, per shard.
    let parts = partition(&trace, &HashRouter, shards);
    for (s, part) in parts.iter().enumerate() {
        let p = policy();
        let full = run_partition(cache_cfg(), StaticDriver::new(p), part);
        assert_eq!(
            report.metrics().shards[s].cache,
            full.cache.diff(&first[s]),
            "shard {s}: warm-booted window diverges from the uninterrupted run"
        );
    }

    // Journal: the boot restore is recorded as a warm boot (not a handoff).
    for cell in handle.cells() {
        let events = cell.obs().journal.snapshot().events;
        assert!(
            events.iter().any(|e| matches!(e.kind, EventKind::HandoffRestore { warm_boot: true, .. })),
            "shard {}: missing HandoffRestore journal entry",
            cell.shard_index()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Cold fallback: a truncated spill file never restores and never panics —
/// the shard detects cold, journals it, and drops the bad file; intact
/// shards on the same directory still boot warm.
#[test]
fn corrupt_spill_detects_cold_per_shard() {
    let dir = std::env::temp_dir().join(format!("darwin-warm-boot-cold-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let shards = 2;
    let trace = test_trace();
    let (head, tail) = split(&trace, trace.len() / 2);
    first_instance(&dir, shards, &head);

    // Truncate shard 0's spill mid-frame: CRC can no longer validate.
    let bad = dir.join("shard-0.ckpt");
    let bytes = std::fs::read(&bad).expect("first instance spilled shard 0");
    std::fs::write(&bad, &bytes[..bytes.len() / 2]).unwrap();

    let p = policy();
    let mut fleet = ShardedFleet::with_boot(
        fleet_cfg(shards),
        cache_cfg(),
        Box::new(HashRouter),
        move |_| StaticDriver::new(p),
        FaultPlan::default(),
        FleetBoot::warm_from(dir.clone()),
    );
    let handle = fleet.metrics_handle();
    fleet.submit_trace(&tail);
    fleet.finish();
    let snap = handle.snapshot();

    assert_eq!(snap.shards[0].warm_boots, 0, "truncated spill must not restore");
    assert_eq!(snap.shards[1].warm_boots, 1, "intact sibling still boots warm");
    // The invalid spill was dropped at boot; anything on disk now is a valid
    // frame cut by the cold restart itself (per-process sequence numbers).
    if bad.exists() {
        let frame = std::fs::read(&bad).unwrap();
        let ckpt = darwin_shard::ShardCheckpoint::from_frame(&frame)
            .expect("post-boot spill is a valid frame, not the truncated leftover");
        assert!(
            ckpt.seq <= tail.len() as u64,
            "spill seq {} must come from the fresh cold run, not the stale head run",
            ckpt.seq
        );
    }
    let events = handle.cells()[0].obs().journal.snapshot().events;
    assert!(
        events.iter().any(|e| e.kind == EventKind::RestoreCold),
        "shard 0 journals the detected-cold boot"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The pre-fix semantics stay pinned for cold boots: `with_boot` without
/// `warm_boot` clears stale spill files up front, so a rerun never
/// resurrects a previous run's state.
#[test]
fn cold_constructor_still_clears_stale_spills() {
    let dir = std::env::temp_dir().join(format!("darwin-warm-boot-clear-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let shards = 2;
    let trace = test_trace();
    let (head, _) = split(&trace, trace.len() / 2);
    first_instance(&dir, shards, &head);
    assert!(dir.join("shard-0.ckpt").exists());

    let p = policy();
    let fleet: ShardedFleet<_> = ShardedFleet::with_boot(
        fleet_cfg(shards),
        cache_cfg(),
        Box::new(HashRouter),
        move |_| StaticDriver::new(p),
        FaultPlan::default(),
        FleetBoot { checkpoint_dir: Some(dir.clone()), ..FleetBoot::default() },
    );
    let handle = fleet.metrics_handle();
    fleet.finish();
    assert_eq!(handle.snapshot().total_warm_boots(), 0, "cold constructor never warm-boots");
    std::fs::remove_dir_all(&dir).ok();
}

/// `frame` as a version-2 fleet spilled it: the same checkpoint, its cache
/// image's per-object table split back into an `(id, count)` and an
/// `(id, last_ts)` sequence, sealed at version 2.
fn version_2(frame: &[u8]) -> Vec<u8> {
    let ckpt = ShardCheckpoint::from_frame(frame).expect("a current frame");
    let image = &ckpt.cache;
    let layout = CacheServer::state_layout(image).expect("an image lays out");
    let [Table { offset, rows, width: 20 }] = layout[..] else { panic!("not one Exact table") };
    let table = &image[offset..offset + 20 * rows];
    let mut enc = Enc::new();
    enc.raw(&image[..offset - 8]);
    enc.usize(rows);
    table.chunks(20).for_each(|row| enc.raw(&[&row[..8], &row[16..]].concat()));
    enc.usize(rows);
    table.chunks(20).for_each(|row| enc.raw(&row[..16]));
    enc.raw(&image[offset + 20 * rows..]);
    let legacy = ShardCheckpoint { cache: enc.into_bytes(), ..ckpt }.to_frame();
    seal(CKPT_MAGIC, 2, open(&legacy, CKPT_MAGIC, CKPT_VERSION).unwrap())
}

/// A spill a version-2 fleet left behind is refused as `BadVersion`, never
/// misparsed: the shard journals `RestoreCold`, removes the file and
/// serves cold — bitwise the cold run of what it is sent — and its next cut
/// spills the current version.
#[test]
fn an_old_version_spill_boots_cold_and_is_never_misparsed() {
    let dir = std::env::temp_dir().join(format!("darwin-warm-boot-v2-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let trace = test_trace();
    let (head, tail) = split(&trace, trace.len() / 2);
    first_instance(&dir, 1, &head);
    let path = dir.join("shard-0.ckpt");
    let old = version_2(&std::fs::read(&path).expect("first instance spilled shard 0"));
    assert_eq!(
        ShardCheckpoint::from_frame(&old),
        Err(CkptError::BadVersion { expected: CKPT_VERSION, found: 2 })
    );
    assert_eq!(ShardCheckpoint::layout(&old), None, "an old frame does not lay out either");

    let boot = |requests: &Trace| {
        let p = policy();
        let mut fleet = ShardedFleet::with_boot(
            fleet_cfg(1),
            cache_cfg(),
            Box::new(HashRouter),
            move |_| StaticDriver::new(p),
            FaultPlan::default(),
            FleetBoot::warm_from(dir.clone()),
        );
        let handle = fleet.metrics_handle();
        fleet.submit_trace(requests);
        let report = fleet.finish();
        let events = handle.cells()[0].obs().journal.snapshot().events;
        assert_eq!(handle.snapshot().shards[0].warm_boots, 0, "a version-2 spill must not restore");
        assert!(events.iter().any(|e| e.kind == EventKind::RestoreCold), "the refusal is journaled");
        report.metrics().shards[0].cache
    };
    // Nothing sent, so nothing cut: the refused file is simply gone.
    std::fs::write(&path, &old).unwrap();
    boot(&Trace::default());
    assert!(!path.exists(), "the refused spill is removed");

    std::fs::write(&path, &old).unwrap();
    let served = boot(&tail);
    assert_eq!(served, run_partition(cache_cfg(), StaticDriver::new(policy()), &tail).cache);
    let spilled = std::fs::read(&path).expect("the cold run cut and spilled");
    assert_eq!(u16::from_le_bytes([spilled[4], spilled[5]]), CKPT_VERSION);
    let ckpt = ShardCheckpoint::from_frame(&spilled).expect("the new spill opens");
    assert!(ckpt.seq <= tail.len() as u64 && ckpt.seq.is_multiple_of(CKPT_EVERY), "seq {}", ckpt.seq);
    std::fs::remove_dir_all(&dir).ok();
}
