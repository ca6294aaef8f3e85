//! The journal determinism contract, enforced end to end: two runs with the
//! same trace seed and the same [`FaultPlan`] produce **byte-identical**
//! fleet event frames ([`darwin_obs::encode_fleet_events`]) — every event,
//! every payload, every sequence stamp. Latency histograms are wall-clock
//! and deliberately outside this contract; the journal carries only request
//! sequence numbers and integer/string payloads derived from the stream.
//!
//! Verified at 1, 2 and 8 shards with scripted deaths, warm restores and
//! checkpoint cuts (static drivers), and separately with per-shard Darwin
//! controllers so expert-switch, drift and switching-cost events are under
//! the gate too. `verify.sh` runs all of it.

use darwin::{DarwinModel, Expert, ExpertGrid, OfflineConfig, OfflineTrainer, OnlineConfig};
use darwin_cache::{CacheConfig, ThresholdPolicy};
use darwin_nn::TrainConfig;
use darwin_obs::{encode_fleet_events, EventKind, JournalSnapshot};
use darwin_shard::{
    FaultEvent, FaultKind, FaultPlan, FleetConfig, HashRouter, RestartBudget, ShardedFleet,
};
use darwin_testbed::{DarwinDriver, StaticDriver};
use darwin_trace::{MixSpec, Trace, TraceGenerator, TrafficClass};
use std::sync::{Arc, OnceLock};

fn trace(n: usize, seed: u64) -> Trace {
    TraceGenerator::new(MixSpec::single(TrafficClass::image()), seed).generate(n)
}

/// A plan that guarantees real journal traffic on shard 0: a mid-run death
/// (after at least one checkpoint, so the respawn restores warm), a delay
/// and a checkpoint corruption.
fn plan() -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent { shard: 0, at: 700, kind: FaultKind::Delay { spins: 50 } },
        FaultEvent { shard: 0, at: 900, kind: FaultKind::Panic },
        FaultEvent { shard: 0, at: 1_300, kind: FaultKind::CorruptCheckpoint { torn: true } },
        FaultEvent { shard: 0, at: 1_500, kind: FaultKind::Panic },
    ])
}

/// One seeded static-driver run: returns the sealed fleet event frame plus
/// the decoded journals for shape assertions.
fn static_run(shards: usize) -> (Vec<u8>, Vec<(u32, JournalSnapshot)>) {
    let t = trace(8_000, 42);
    let mut fleet: ShardedFleet<StaticDriver> = ShardedFleet::with_fault_plan(
        FleetConfig {
            shards,
            queue_capacity: 128,
            batch: 32,
            restart_budget: RestartBudget { max_restarts: 2, window_requests: 100_000 },
            checkpoint_every: Some(512),
            ..FleetConfig::default()
        },
        CacheConfig::small_test(),
        Box::new(HashRouter),
        |_| StaticDriver::new(ThresholdPolicy::new(1, 100 * 1024)),
        plan(),
    );
    let handle = fleet.metrics_handle();
    fleet.submit_trace(&t);
    fleet.finish();
    let journals = handle.journals();
    (encode_fleet_events(&journals), journals)
}

fn check_static_determinism(shards: usize) {
    let (frame_a, journals) = static_run(shards);
    let (frame_b, _) = static_run(shards);
    assert_eq!(frame_a, frame_b, "{shards}-shard journals must be byte-identical across runs");

    for (shard, j) in &journals {
        assert_eq!(j.dropped, 0, "shard {shard}: the journal must not shed events");
    }
    let events: Vec<&EventKind> =
        journals.iter().flat_map(|(_, j)| j.events.iter().map(|e| &e.kind)).collect();
    let has = |pred: fn(&&&EventKind) -> bool| events.iter().any(|k| pred(&k));
    assert!(!events.is_empty(), "the scripted plan must journal something");
    assert!(has(|k| matches!(k, EventKind::WorkerDeath)), "deaths journaled");
    assert!(has(|k| matches!(k, EventKind::RestartGranted { .. })), "restart verdicts journaled");
    assert!(has(|k| matches!(k, EventKind::CheckpointCut { .. })), "checkpoint cuts journaled");
    assert!(has(|k| matches!(k, EventKind::FaultInjected { .. })), "fault injections journaled");
    assert!(
        has(|k| matches!(k, EventKind::RestoreWarm { .. })),
        "a post-checkpoint death must restore warm"
    );
}

/// One seeded replicated run under a failover-forcing plan: a budgeted
/// death, a standby loss (detected and re-seeded at the next cut), then a
/// past-budget death answered by promotion. Exercises every replication
/// event tag — `ReplicaSeeded`, `ReplicaLag`, `StandbyLost`, `Failover` —
/// under the byte-determinism gate.
fn failover_run(shards: usize) -> (Vec<u8>, Vec<(u32, JournalSnapshot)>) {
    let t = trace(24_000, 42);
    let mut fleet: ShardedFleet<StaticDriver> = ShardedFleet::with_fault_plan(
        FleetConfig {
            shards,
            queue_capacity: 128,
            batch: 32,
            restart_budget: RestartBudget { max_restarts: 1, window_requests: 100_000 },
            checkpoint_every: Some(256),
            replicas: 1,
            ..FleetConfig::default()
        },
        CacheConfig::small_test(),
        Box::new(HashRouter),
        |_| StaticDriver::new(ThresholdPolicy::new(1, 100 * 1024)),
        FaultPlan::new(vec![
            FaultEvent { shard: 0, at: 512, kind: FaultKind::Panic },
            FaultEvent { shard: 0, at: 600, kind: FaultKind::CorruptStandby },
            FaultEvent { shard: 0, at: 1_024, kind: FaultKind::Panic },
        ]),
    );
    let handle = fleet.metrics_handle();
    fleet.submit_trace(&t);
    fleet.finish();
    let journals = handle.journals();
    (encode_fleet_events(&journals), journals)
}

fn check_failover_determinism(shards: usize) {
    let (frame_a, journals) = failover_run(shards);
    let (frame_b, _) = failover_run(shards);
    assert_eq!(frame_a, frame_b, "{shards}-shard failover journals must be byte-identical across runs");

    for (shard, j) in &journals {
        assert_eq!(j.dropped, 0, "shard {shard}: the journal must not shed events");
    }
    let events: Vec<&EventKind> =
        journals.iter().flat_map(|(_, j)| j.events.iter().map(|e| &e.kind)).collect();
    let has = |pred: fn(&&&EventKind) -> bool| events.iter().any(|k| pred(&k));
    assert!(has(|k| matches!(k, EventKind::ReplicaSeeded { .. })), "standby seeding journaled");
    assert!(has(|k| matches!(k, EventKind::ReplicaLag { .. })), "delta feeds journal their lag");
    assert!(has(|k| matches!(k, EventKind::StandbyLost { .. })), "the scripted loss is detected");
    assert!(
        has(|k| matches!(k, EventKind::Failover { checkpoint_seq: 1_024, .. })),
        "the past-budget death promotes at the boundary cut"
    );
}

#[test]
fn failover_journal_deterministic_at_1_shard() {
    check_failover_determinism(1);
}

#[test]
fn failover_journal_deterministic_at_2_shards() {
    check_failover_determinism(2);
}

#[test]
fn failover_journal_deterministic_at_8_shards() {
    check_failover_determinism(8);
}

#[test]
fn journal_deterministic_at_1_shard() {
    check_static_determinism(1);
}

#[test]
fn journal_deterministic_at_2_shards() {
    check_static_determinism(2);
}

#[test]
fn journal_deterministic_at_8_shards() {
    check_static_determinism(8);
}

/// Small offline model for the Darwin-controller variant (same shape as the
/// equivalence suite's).
fn model() -> Arc<DarwinModel> {
    static MODEL: OnceLock<Arc<DarwinModel>> = OnceLock::new();
    MODEL
        .get_or_init(|| {
            let cfg = OfflineConfig {
                grid: ExpertGrid::new(vec![
                    Expert::new(1, 20),
                    Expert::new(1, 500),
                    Expert::new(5, 20),
                    Expert::new(5, 500),
                ]),
                hoc_bytes: 2 * 1024 * 1024,
                nn_train: TrainConfig { epochs: 40, ..TrainConfig::default() },
                n_clusters: 2,
                ..OfflineConfig::default()
            };
            let traces: Vec<Trace> = (0..4)
                .map(|i| {
                    TraceGenerator::new(
                        MixSpec::two_class(
                            TrafficClass::image(),
                            TrafficClass::download(),
                            i as f64 / 3.0,
                        ),
                        10 + i as u64,
                    )
                    .generate(10_000)
                })
                .collect();
            Arc::new(OfflineTrainer::new(cfg).train(&traces))
        })
        .clone()
}

fn darwin_run() -> (Vec<u8>, Vec<(u32, JournalSnapshot)>) {
    let model = model();
    let t = TraceGenerator::new(
        MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5),
        4242,
    )
    .generate(48_000);
    let online = OnlineConfig {
        epoch_requests: 20_000,
        warmup_requests: 1_000,
        round_requests: 300,
        ..OnlineConfig::default()
    };
    let mut fleet = ShardedFleet::new(
        FleetConfig { shards: 2, queue_capacity: 256, batch: 64, ..FleetConfig::default() },
        CacheConfig { hoc_bytes: 2 * 1024 * 1024, ..CacheConfig::small_test() },
        Box::new(HashRouter),
        {
            let model = Arc::clone(&model);
            move |_| DarwinDriver::new(Arc::clone(&model), online)
        },
    );
    let handle = fleet.metrics_handle();
    fleet.submit_trace(&t);
    fleet.finish();
    let journals = handle.journals();
    (encode_fleet_events(&journals), journals)
}

#[test]
fn darwin_journal_deterministic_at_2_shards() {
    let (frame_a, journals) = darwin_run();
    let (frame_b, _) = darwin_run();
    assert_eq!(frame_a, frame_b, "controller journals must be byte-identical across runs");

    let events: Vec<&EventKind> =
        journals.iter().flat_map(|(_, j)| j.events.iter().map(|e| &e.kind)).collect();
    assert!(
        events.iter().any(|k| matches!(k, EventKind::ExpertSwitch { .. })),
        "controllers must journal expert switches"
    );
    assert!(
        events.iter().any(|k| matches!(k, EventKind::SwitchCost { .. })),
        "every switch opens a cost window that eventually closes"
    );
}
