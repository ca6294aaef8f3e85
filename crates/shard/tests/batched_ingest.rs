//! The batched-ingest half of the determinism contract: routing whole frames
//! into per-shard runs and delivering each run with one `push_batch` — from
//! one submitter or from many concurrent [`FleetIngest`] producers — yields
//! **bitwise identical** per-shard results (cache metrics, final occupancy,
//! deployed-expert sequences) to the per-request sequential replay the
//! equivalence suite trusts.
//!
//! Multi-producer runs keep per-shard order deterministic by giving each
//! producer a disjoint shard group (every shard hears from exactly one
//! producer, so lane interleaving between producers cannot reorder any one
//! shard's stream) — the same topology a gateway reaches when connections
//! are sharded by keyspace. `verify.sh` runs the named gates below.

use darwin::{DarwinDriver, StaticDriver};
use darwin::{DarwinModel, Expert, ExpertGrid, OfflineConfig, OfflineTrainer, OnlineConfig};
use darwin_cache::{CacheConfig, ThresholdPolicy};
use darwin_nn::TrainConfig;
use darwin_shard::{partition, run_sequential, FleetConfig, FleetReport, HashRouter, ShardedFleet};
use darwin_trace::{MixSpec, Trace, TraceGenerator, TrafficClass};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn trace(n: usize, seed: u64) -> Trace {
    TraceGenerator::new(MixSpec::single(TrafficClass::image()), seed).generate(n)
}

fn static_driver(_shard: usize) -> StaticDriver {
    StaticDriver::new(ThresholdPolicy::new(1, 100 * 1024))
}

fn fleet_cfg(shards: usize, queue: usize, batch: usize) -> FleetConfig {
    FleetConfig { shards, queue_capacity: queue, batch, ..FleetConfig::default() }
}

/// Drives `t` through a fleet with `producers` concurrent [`FleetIngest`]
/// producers, each owning a disjoint shard group (shard `s` belongs to
/// producer `s % producers`) and submitting its shards' partitions in frames
/// of `frame` requests via `submit_frame`.
fn run_multi_producer(
    cfg: FleetConfig,
    cache: CacheConfig,
    producers: usize,
    frame: usize,
    t: &Trace,
) -> FleetReport<StaticDriver> {
    let fleet: ShardedFleet<StaticDriver> =
        ShardedFleet::new(cfg, cache, Box::new(HashRouter), static_driver);
    let parts = partition(t, &HashRouter, cfg.shards);
    let ingest = fleet.ingest();
    std::thread::scope(|scope| {
        for p in 0..producers.min(cfg.shards) {
            let mut producer = ingest.producer();
            let mine: Vec<&Trace> = parts.iter().skip(p).step_by(producers.min(cfg.shards)).collect();
            scope.spawn(move || {
                for part in mine {
                    for chunk in part.requests().chunks(frame) {
                        producer.submit_frame(chunk.iter().copied());
                    }
                }
            });
        }
    });
    fleet.finish()
}

fn check_static_equivalence(seed: u64, shards: usize, queue: usize, batch: usize, frame: usize) {
    let t = trace(4_000, seed);
    let cache = CacheConfig::small_test();
    let seq = run_sequential(shards, cache.clone(), &HashRouter, static_driver, &t);

    // Single submitter, per-request staging over push_batch delivery.
    let mut single: ShardedFleet<StaticDriver> = ShardedFleet::new(
        fleet_cfg(shards, queue, batch),
        cache.clone(),
        Box::new(HashRouter),
        static_driver,
    );
    single.submit_trace(&t);
    let single = single.finish();

    // Four concurrent producers over disjoint shard groups.
    let multi = run_multi_producer(fleet_cfg(shards, queue, batch), cache, 4, frame, &t);

    for report in [&single, &multi] {
        assert_eq!(report.total_dropped(), 0, "Block backpressure is lossless");
        assert_eq!(report.total_processed(), t.len() as u64);
        for ((f, m), s) in report.shards.iter().zip(&report.metrics().shards).zip(&seq) {
            assert_eq!(m.processed, s.processed, "shard {}: processed", f.shard);
            assert_eq!(m.cache, s.cache, "shard {}: cache metrics", f.shard);
            assert_eq!(f.hoc_used_bytes, s.hoc_used_bytes, "shard {}: HOC bytes", f.shard);
            assert_eq!(f.dc_used_bytes, s.dc_used_bytes, "shard {}: DC bytes", f.shard);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any (seed, queue, batch, frame) × {1, 2, 8} shards: batched single-
    /// submitter ingest and contended multi-producer ingest both reproduce
    /// the sequential replay bitwise.
    #[test]
    fn batched_and_multi_producer_ingest_match_replay(
        seed in 0u64..1_000,
        shard_sel in 0usize..3,
        queue_sel in 0usize..3,
        batch_sel in 0usize..3,
        frame_sel in 0usize..3,
    ) {
        let shards = [1usize, 2, 8][shard_sel];
        let queue = [16usize, 64, 256][queue_sel];
        let batch = [1usize, 7, 64][batch_sel];
        let frame = [1usize, 33, 256][frame_sel];
        check_static_equivalence(seed, shards, queue, batch, frame);
    }
}

/// A small offline-trained Darwin model shared by the expert-sequence gates
/// (smaller than the equivalence suite's: these tests add coverage for the
/// ingest path, not for controller behaviour).
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
                nn_train: TrainConfig { epochs: 20, ..TrainConfig::default() },
                n_clusters: 2,
                ..OfflineConfig::default()
            };
            let traces: Vec<Trace> = (0..2)
                .map(|i| {
                    TraceGenerator::new(
                        MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), i as f64),
                        10 + i as u64,
                    )
                    .generate(8_000)
                })
                .collect();
            Arc::new(OfflineTrainer::new(cfg).train(&traces))
        })
        .clone()
}

fn check_darwin_frames(shards: usize) {
    let model = model();
    let cache = CacheConfig { hoc_bytes: 2 * 1024 * 1024, ..CacheConfig::small_test() };
    let online = OnlineConfig {
        epoch_requests: 12_000,
        warmup_requests: 500,
        round_requests: 200,
        ..OnlineConfig::default()
    };
    let t = TraceGenerator::new(
        MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5),
        991,
    )
    .generate(30_000);

    let seq = run_sequential(
        shards,
        cache.clone(),
        &HashRouter,
        |_| DarwinDriver::new(Arc::clone(&model), online),
        &t,
    );

    // One producer per shard group, frames of 128, live Darwin controllers.
    let fleet: ShardedFleet<DarwinDriver> =
        ShardedFleet::new(fleet_cfg(shards, 128, 32), cache, Box::new(HashRouter), {
            let model = Arc::clone(&model);
            move |_| DarwinDriver::new(Arc::clone(&model), online)
        });
    let parts = partition(&t, &HashRouter, shards);
    let ingest = fleet.ingest();
    std::thread::scope(|scope| {
        for (s, part) in parts.iter().enumerate() {
            let mut producer = ingest.producer();
            scope.spawn(move || {
                for chunk in part.requests().chunks(128) {
                    producer.submit_frame(chunk.iter().copied());
                }
            });
            let _ = s;
        }
    });
    let report = fleet.finish();

    let mut switched_anywhere = false;
    let ledger = report.metrics().shards.clone();
    for ((f, m), s) in report.shards.into_iter().zip(&ledger).zip(seq) {
        let shard = f.shard;
        assert_eq!(m.processed, s.processed, "shard {shard}: processed");
        assert_eq!(m.cache, s.cache, "shard {shard}: cache metrics");
        assert_eq!(f.hoc_used_bytes, s.hoc_used_bytes, "shard {shard}: HOC occupancy");
        assert_eq!(f.dc_used_bytes, s.dc_used_bytes, "shard {shard}: DC occupancy");
        let fleet_seq =
            f.driver.expect("live shard keeps its driver").into_controller().expert_sequence();
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
fn darwin_expert_sequences_survive_frame_ingest_at_1_shard() {
    check_darwin_frames(1);
}

#[test]
fn darwin_expert_sequences_survive_frame_ingest_at_2_shards() {
    check_darwin_frames(2);
}

#[test]
fn darwin_expert_sequences_survive_frame_ingest_at_8_shards() {
    check_darwin_frames(8);
}
