//! The checkpoint spill runs on the fleet's spiller thread, off the shard
//! workers: whatever the spill directory does, the fleet serves and ends.
//! (What the file holds once a reader gets to it is pinned where the file is
//! read: `ckpt.rs`'s unit tests, `restore.rs`, `warm_boot.rs`.)

use darwin::StaticDriver;
use darwin_cache::{CacheConfig, ThresholdPolicy};
use darwin_shard::{
    Backpressure, FaultEvent, FaultKind, FaultPlan, FleetBoot, FleetConfig, HashRouter, ShardedFleet,
};
use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};

/// The directory is gone before the first cut (so every spill fails), one
/// worker dies mid-run, and a checkpoint is damaged by script (which reads
/// and rewrites the file): every request is still answered, the death
/// restarts warm from the in-memory pair, and `finish` — which joins the
/// spiller — returns.
#[test]
fn a_vanished_spill_dir_neither_hangs_finish_nor_kills_a_worker() {
    let dir = std::env::temp_dir().join(format!("darwin-spill-vanished-{}", std::process::id()));
    let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 9).generate(20_000);
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let cfg = FleetConfig {
        shards: 2,
        queue_capacity: 256,
        batch: 64,
        backpressure: Backpressure::Block,
        checkpoint_every: Some(1_000),
        replicas: 1,
        ..FleetConfig::default()
    };
    let faults = FaultPlan::new(vec![
        FaultEvent { unit: 1, at: 2_500, kind: FaultKind::CorruptCheckpoint { torn: false } },
        FaultEvent { unit: 0, at: 4_500, kind: FaultKind::Panic },
    ]);
    let mut fleet = ShardedFleet::with_boot(
        cfg,
        CacheConfig::small_test(),
        Box::new(HashRouter),
        move |_| StaticDriver::new(policy),
        faults,
        FleetBoot { checkpoint_dir: Some(dir.clone()), ..FleetBoot::default() },
    );
    std::fs::remove_dir_all(&dir).expect("the fleet created its spill directory");
    fleet.submit_trace(&trace);
    let report = fleet.finish();
    assert!(!dir.exists(), "nothing may have recreated the directory");
    assert_eq!(report.total_processed() + report.total_dropped(), 20_000);
    assert_eq!(report.total_dropped(), 1, "only the request the scripted death was holding");
    assert_eq!((report.metrics().total_restarts(), report.metrics().total_warm_restarts()), (1, 1));
    assert_eq!(report.metrics().dead_shards(), 0);
}
