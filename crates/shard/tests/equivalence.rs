//! The fleet determinism contract, enforced end to end: an N-shard
//! [`ShardedFleet`] over a hash-partitioned trace is **bitwise identical** —
//! per-shard cache metrics, final HOC/DC occupancy, deployed policy, and the
//! full per-shard Darwin deployed-expert sequence — to N sequential
//! single-shard runs of the same partitions (`replay::run_sequential`).
//!
//! Verified at 1, 2 and 8 shards (`verify.sh` runs all three), with the full
//! Darwin online controller per shard and, separately, with static experts
//! on a longer trace. At one shard the reference is also held against the
//! paper's runner, `darwin::run_darwin`, over the whole trace.

use darwin::{DarwinDriver, StaticDriver};
use darwin::{DarwinModel, Expert, ExpertGrid, OfflineConfig, OfflineTrainer, OnlineConfig};
use darwin_cache::{CacheConfig, ThresholdPolicy};
use darwin_nn::TrainConfig;
use darwin_shard::{run_sequential, FleetConfig, HashRouter, ShardedFleet};
use darwin_trace::{MixSpec, Trace, TraceGenerator, TrafficClass};
use std::sync::{Arc, OnceLock};

/// One small offline-trained model, shared by every test in this file (the
/// per-shard controllers each get their own `OnlineController` around it —
/// the model itself is immutable shared state, as in the paper's deployment).
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
    // Two-class mix so per-shard sub-workloads genuinely differ; long enough
    // that even at 8 shards each controller gets past warm-up and several
    // bandit rounds.
    TraceGenerator::new(MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5), 4242)
        .generate(48_000)
}

/// The contract, with per-shard Darwin controllers.
fn check_darwin_equivalence(shards: usize) {
    let model = model();
    let trace = test_trace();

    // Threaded fleet over small queues (so backpressure actually engages).
    let mut fleet = ShardedFleet::new(
        FleetConfig { shards, queue_capacity: 256, batch: 64, ..FleetConfig::default() },
        cache_cfg(),
        Box::new(HashRouter),
        {
            let model = Arc::clone(&model);
            move |_| DarwinDriver::new(Arc::clone(&model), online_cfg())
        },
    );
    fleet.submit_trace(&trace);
    let fleet_report = fleet.finish();

    // Ground truth: N sequential single-shard runs of the partitions.
    let seq = run_sequential(
        shards,
        cache_cfg(),
        &HashRouter,
        |_| DarwinDriver::new(Arc::clone(&model), online_cfg()),
        &trace,
    );

    assert_eq!(fleet_report.shards.len(), shards);
    assert_eq!(seq.len(), shards);
    assert_eq!(fleet_report.total_dropped(), 0, "Block backpressure is lossless");
    assert_eq!(fleet_report.total_processed(), trace.len() as u64);

    let mut switched_anywhere = false;
    let ledger = fleet_report.metrics().shards.clone();
    for ((f, m), s) in fleet_report.shards.into_iter().zip(&ledger).zip(seq) {
        let shard = f.shard;
        assert_eq!(m.processed, s.processed, "shard {shard}: processed");
        assert_eq!(m.cache, s.cache, "shard {shard}: cache metrics");
        assert_eq!(f.hoc_used_bytes, s.hoc_used_bytes, "shard {shard}: HOC occupancy");
        assert_eq!(f.dc_used_bytes, s.dc_used_bytes, "shard {shard}: DC occupancy");
        let fleet_seq =
            f.driver.expect("live shard keeps its driver").into_controller().expert_sequence();
        let replay = s.driver.into_controller();
        let replay_seq = replay.expert_sequence();
        assert_eq!(fleet_seq, replay_seq, "shard {shard}: deployed-expert sequence");
        switched_anywhere |= fleet_seq.len() > 1;

        // At one shard the partition is the whole trace, so the paper's
        // runner over it must be the same run as the fleet's reference.
        if shards == 1 {
            let paper = darwin::run_darwin(&model, &online_cfg(), &trace, &cache_cfg());
            assert_eq!(paper.metrics, s.cache, "run_darwin: cache metrics");
            assert_eq!(paper.switches, replay.switches(), "run_darwin: switch sequence");
            assert_eq!(paper.final_expert, replay.current_expert_index(), "run_darwin: final expert");
        }
    }
    assert!(
        switched_anywhere,
        "test must exercise real controller activity: no shard ever deployed a non-initial expert"
    );
}

#[test]
fn darwin_fleet_equivalent_at_1_shard() {
    check_darwin_equivalence(1);
}

#[test]
fn darwin_fleet_equivalent_at_2_shards() {
    check_darwin_equivalence(2);
}

#[test]
fn darwin_fleet_equivalent_at_8_shards() {
    check_darwin_equivalence(8);
}

#[test]
fn static_fleet_equivalent_at_8_shards_long_trace() {
    // Static experts are cheap: push a longer trace through tighter queues to
    // stress ordering under sustained backpressure.
    let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 77).generate(120_000);
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let mut fleet = ShardedFleet::new(
        FleetConfig {
            shards: 8,
            queue_capacity: 32,
            batch: 16,
            snapshot_every: Some(25_000),
            ..FleetConfig::default()
        },
        CacheConfig::small_test(),
        Box::new(HashRouter),
        move |_| StaticDriver::new(policy),
    );
    fleet.submit_trace(&trace);
    let report = fleet.finish();
    let seq =
        run_sequential(8, CacheConfig::small_test(), &HashRouter, |_| StaticDriver::new(policy), &trace);
    for ((f, m), s) in report.shards.iter().zip(&report.metrics().shards).zip(&seq) {
        assert_eq!(m.cache, s.cache, "shard {}: cache metrics", f.shard);
        assert_eq!(f.hoc_used_bytes, s.hoc_used_bytes);
        assert_eq!(f.dc_used_bytes, s.dc_used_bytes);
    }
    // Fleet-wide aggregate equals the merged sequential metrics too.
    let fleet_total = report.fleet_cache();
    let seq_total = darwin_cache::CacheMetrics::merge_all(seq.iter().map(|r| &r.cache));
    assert_eq!(fleet_total, seq_total);
}
