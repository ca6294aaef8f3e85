//! The failover contract, enforced end to end.
//!
//! With one hot standby per shard ([`FleetConfig::replicas`] = 1) a shard
//! whose restart budget is exhausted is **promoted**, not buried: the
//! standby's last applied checkpoint frame is installed as the newest
//! restore candidate and the worker warm-restarts from it through the same
//! validated restore path every respawn uses. The result is
//! bitwise-identical — cumulative cache metrics, final HOC/DC occupancy,
//! and the full deployed-expert sequence — to an uninterrupted sequential
//! run of the partition (minus the one fatal request every scripted death
//! drops), with **zero** `Unavailable` verdicts. Verified at 1, 2 and 8
//! shards with the full per-shard Darwin controller; `verify.sh` runs all
//! three as the failover-equivalence gate.
//!
//! The fallback is pinned just as tightly: a standby lost right before the
//! budget-exhausting death is *detected* (journaled `StandbyLost`, counted
//! in the metrics) and the shard is buried exactly as an unreplicated
//! fleet would — degraded, conserved, never silent.

use darwin::{DarwinModel, Expert, ExpertGrid, OfflineConfig, OfflineTrainer, OnlineConfig};
use darwin_cache::{CacheConfig, ThresholdPolicy};
use darwin_nn::TrainConfig;
use darwin_obs::EventKind;
use darwin_shard::{
    partition, run_partition, FaultEvent, FaultKind, FaultPlan, FleetConfig, HashRouter, RestartBudget,
    ShardedFleet,
};
use darwin_testbed::{DarwinDriver, StaticDriver};
use darwin_trace::{MixSpec, Trace, TraceGenerator, TrafficClass};
use std::sync::{Arc, OnceLock};

/// Per-shard index of the first scripted death — within the restart budget,
/// so it warm-restarts. A multiple of [`CKPT_EVERY`].
const KILL1_AT: u64 = 2_000;
/// Per-shard index of the second death — past the budget, so it must
/// promote the standby. Also a checkpoint boundary: the dying incarnation
/// cuts (and feeds the standby) at exactly this sequence number right
/// before the fatal request arrives.
const KILL2_AT: u64 = 4_000;
/// Checkpoint cadence; both kill indices are boundaries of it.
const CKPT_EVERY: u64 = 1_000;

/// One small offline-trained model shared by every test in this file (same
/// shape as `tests/restore.rs`).
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

fn cache_cfg() -> CacheConfig {
    CacheConfig { hoc_bytes: 2 * 1024 * 1024, ..CacheConfig::small_test() }
}

fn online_cfg() -> OnlineConfig {
    OnlineConfig {
        epoch_requests: 20_000,
        warmup_requests: 1_000,
        round_requests: 300,
        ..OnlineConfig::default()
    }
}

fn test_trace() -> Trace {
    // Long enough that shard 0 holds well over `KILL2_AT` requests even at
    // 8 shards, with a real post-promotion tail.
    TraceGenerator::new(MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5), 4242)
        .generate(48_000)
}

/// One standby per shard, one in-window restart allowed: the second death
/// is past budget by construction.
fn fleet_cfg(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        queue_capacity: 256,
        batch: 64,
        restart_budget: RestartBudget { max_restarts: 1, window_requests: 100_000 },
        checkpoint_every: Some(CKPT_EVERY),
        replicas: 1,
        ..FleetConfig::default()
    }
}

/// `part` minus its elements at per-shard indices `at` (each the one fatal
/// request a scripted panic answers `Dropped`).
fn minus_fatal(part: &Trace, at: &[u64]) -> Trace {
    let mut reqs = part.requests().to_vec();
    let mut sorted = at.to_vec();
    sorted.sort_unstable();
    for &i in sorted.iter().rev() {
        reqs.remove(i as usize);
    }
    Trace::from_sorted(reqs)
}

/// A budget-exhausting plan on shard 0: one within-budget death, then a
/// checkpoint corruption immediately followed by a past-budget death. The
/// corruption damages every primary-side restore candidate, so the *only*
/// frame the promoted worker can restore is the one the standby applied —
/// the promotion path is load-bearing, not decorative.
fn exhausting_plan() -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent { shard: 0, at: KILL1_AT, kind: FaultKind::Panic },
        FaultEvent { shard: 0, at: KILL2_AT, kind: FaultKind::CorruptCheckpoint { torn: false } },
        FaultEvent { shard: 0, at: KILL2_AT, kind: FaultKind::Panic },
    ])
}

/// Keystone: the promoted shard is bitwise-identical to the uninterrupted
/// sequential run, with the full Darwin controller per shard, and nothing
/// is ever answered `Unavailable`.
fn check_promoted_failover_bitwise(shards: usize) {
    let model = model();
    let trace = test_trace();

    let mut fleet = ShardedFleet::with_fault_plan(
        fleet_cfg(shards),
        cache_cfg(),
        Box::new(HashRouter),
        {
            let model = Arc::clone(&model);
            move |_| DarwinDriver::new(Arc::clone(&model), online_cfg())
        },
        exhausting_plan(),
    );
    let handle = fleet.metrics_handle();
    fleet.submit_trace(&trace);
    let report = fleet.finish();

    let parts = partition(&trace, &HashRouter, shards);
    assert!(
        parts[0].len() as u64 > KILL2_AT + CKPT_EVERY,
        "trace too short for a meaningful post-promotion tail at {shards} shards"
    );
    let seq: Vec<_> = parts
        .iter()
        .enumerate()
        .map(|(s, part)| {
            let ground = if s == 0 { minus_fatal(part, &[KILL1_AT, KILL2_AT]) } else { part.clone() };
            run_partition(cache_cfg(), DarwinDriver::new(Arc::clone(&model), online_cfg()), &ground)
        })
        .collect();

    // The two deaths, as scripted: one budgeted warm restart, one
    // promotion (also warm — the standby frame restores through the normal
    // path), two dropped requests, zero Unavailable, exact conservation.
    let s0 = &report.metrics().shards[0];
    assert_eq!(s0.restarts, 2, "both deaths were answered with a running worker");
    assert_eq!(s0.warm_restarts, 2, "the budgeted restart and the promotion both restored warm");
    assert_eq!(s0.failovers, 1, "exactly one past-budget death promoted the standby");
    assert_eq!(s0.dropped, 2, "only the two fatal requests were lost");
    assert_eq!(report.total_unavailable(), 0, "zero Unavailable: the budget never buried anyone");
    assert_eq!(report.metrics().total_failovers(), 1);
    assert_eq!(report.metrics().dead_shards(), 0);
    assert_eq!(
        report.total_processed() + report.total_dropped(),
        trace.len() as u64,
        "conservation across the failover"
    );
    // The replication lane kept feeding after the promotion re-seeded it:
    // the last fed cut is the partition's final boundary (live snapshot —
    // the replica gauges are metrics-handle state, not report state).
    let snap = handle.snapshot();
    let final_boundary = (parts[0].len() as u64 / CKPT_EVERY) * CKPT_EVERY;
    assert_eq!(snap.shards[0].replica_seq, Some(final_boundary), "standby tracks the latest cut");
    assert!(snap.shards[0].replica_shipped_bytes > 0, "replication shipped real bytes");
    assert_eq!(snap.shards[0].standby_lost, 0, "the standby never failed");

    // The journal tells the same story, deterministically: a Failover stamp
    // at the promoted boundary, a ReplicaSeeded for the post-promotion
    // re-seed, and never a StandbyLost.
    let journals = handle.journals();
    let shard0: Vec<&EventKind> = journals
        .iter()
        .filter(|(s, _)| *s == 0)
        .flat_map(|(_, j)| j.events.iter().map(|e| &e.kind))
        .collect();
    assert!(
        shard0.iter().any(
            |k| matches!(k, EventKind::Failover { checkpoint_seq, .. } if *checkpoint_seq == KILL2_AT)
        ),
        "failover journaled at the promoted checkpoint boundary"
    );
    assert!(
        shard0.iter().any(|k| matches!(k, EventKind::ReplicaSeeded { .. })),
        "the standby's (re-)seeding is journaled"
    );
    assert!(
        !shard0.iter().any(|k| matches!(k, EventKind::StandbyLost { .. })),
        "no standby loss in the promotion run"
    );

    // Bitwise identity, shard by shard: metrics, occupancy, expert sequence.
    let mut switched_anywhere = false;
    let ledger = report.metrics().shards.clone();
    for ((f, m), s) in report.shards.into_iter().zip(&ledger).zip(seq) {
        let shard = f.shard;
        assert_eq!(m.processed, s.processed, "shard {shard}: processed");
        assert_eq!(m.cache, s.cache, "shard {shard}: cache metrics across the failover");
        assert_eq!(f.hoc_used_bytes, s.hoc_used_bytes, "shard {shard}: HOC occupancy");
        assert_eq!(f.dc_used_bytes, s.dc_used_bytes, "shard {shard}: DC occupancy");
        let fleet_seq =
            f.driver.expect("promoted shard keeps its driver").into_controller().expert_sequence();
        let replay_seq = s.driver.into_controller().expert_sequence();
        assert_eq!(fleet_seq, replay_seq, "shard {shard}: deployed-expert sequence");
        switched_anywhere |= fleet_seq.len() > 1;
    }
    assert!(
        switched_anywhere,
        "test must exercise real controller activity: no shard ever deployed a non-initial expert"
    );
}

#[test]
fn promoted_failover_bitwise_at_1_shard() {
    check_promoted_failover_bitwise(1);
}

#[test]
fn promoted_failover_bitwise_at_2_shards() {
    check_promoted_failover_bitwise(2);
}

#[test]
fn promoted_failover_bitwise_at_8_shards() {
    check_promoted_failover_bitwise(8);
}

/// The same budget-exhausting plan *without* replicas is the degraded
/// baseline the tentpole erases: the second death buries the shard and its
/// remaining requests are answered `Unavailable`.
#[test]
fn without_replicas_the_same_plan_buries_and_degrades() {
    let trace = test_trace();
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let mut fleet = ShardedFleet::with_fault_plan(
        FleetConfig { replicas: 0, ..fleet_cfg(2) },
        cache_cfg(),
        Box::new(HashRouter),
        move |_| StaticDriver::new(policy),
        exhausting_plan(),
    );
    fleet.submit_trace(&trace);
    let report = fleet.finish();

    let s0 = &report.metrics().shards[0];
    assert_eq!(s0.restarts, 1, "only the budgeted restart was granted");
    assert_eq!(s0.failovers, 0);
    assert!(s0.dead, "past-budget death without a standby buries the shard");
    assert_eq!(report.metrics().dead_shards(), 1);
    assert!(report.total_unavailable() > 0, "the buried shard's tail degrades");
    assert_eq!(
        report.total_processed() + report.total_dropped() + report.total_unavailable(),
        trace.len() as u64,
        "conservation still exact in degraded mode"
    );
    // Degradation is bounded by the buried shard's keyspace: every
    // `Unavailable` comes from it, and its own ledger covers its partition.
    let part0 = partition(&trace, &HashRouter, 2)[0].len() as u64;
    assert_eq!(s0.unavailable, report.total_unavailable(), "only the buried shard degrades");
    assert_eq!(s0.processed + s0.dropped + s0.unavailable, part0, "the buried shard's ledger");
}

/// Standby failure falls back to today's behavior — detected, journaled,
/// never silent: a standby poisoned right before the budget-exhausting
/// death leaves nothing to promote, so the shard is buried exactly as an
/// unreplicated fleet would be.
#[test]
fn lost_standby_falls_back_to_burial_detected() {
    let trace = test_trace();
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let mut fleet = ShardedFleet::with_fault_plan(
        fleet_cfg(2),
        cache_cfg(),
        Box::new(HashRouter),
        move |_| StaticDriver::new(policy),
        FaultPlan::new(vec![
            FaultEvent { shard: 0, at: KILL1_AT, kind: FaultKind::Panic },
            // The standby dies at the same index as the primary's fatal
            // request: no cut lands in between, so there is no re-seed and
            // nothing to promote.
            FaultEvent { shard: 0, at: KILL2_AT, kind: FaultKind::CorruptStandby },
            FaultEvent { shard: 0, at: KILL2_AT, kind: FaultKind::Panic },
        ]),
    );
    let handle = fleet.metrics_handle();
    fleet.submit_trace(&trace);
    let report = fleet.finish();

    let s0 = &report.metrics().shards[0];
    assert_eq!(s0.restarts, 1);
    assert_eq!(s0.failovers, 0, "a lost standby must not be promoted");
    assert!(s0.dead, "without a ready standby the past-budget death buries");
    assert!(report.total_unavailable() > 0);
    assert_eq!(
        report.total_processed() + report.total_dropped() + report.total_unavailable(),
        trace.len() as u64,
        "conservation exact through the fallback"
    );

    // Detected, never silent: the loss is journaled (either at the next
    // feed or at the failed promotion) and the denial is on the record.
    let journals = handle.journals();
    let shard0: Vec<&EventKind> = journals
        .iter()
        .filter(|(s, _)| *s == 0)
        .flat_map(|(_, j)| j.events.iter().map(|e| &e.kind))
        .collect();
    assert!(
        shard0.iter().any(|k| matches!(k, EventKind::RestartDenied { .. })),
        "the burial verdict is journaled"
    );
}
