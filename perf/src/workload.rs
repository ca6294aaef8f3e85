//! The four workloads and their inputs.
//!
//! Every workload is *fixed work*: `--seconds` scales a per-workload request
//! count that is frozen here, so the same `--seconds` always replays the same
//! number of requests and cuts checkpoints at the same positions. A run is
//! [`REPS`] repetitions of a workload, each a process of its own; the counts
//! are per repetition and sized so that, on the 2-core box the benchmark was
//! tuned on, `--seconds 15` times about five seconds of work in each
//! (README.md holds the sizing measurements).

use crate::procfs::splitmix;
use darwin::{DarwinModel, Expert, ExpertGrid, OfflineConfig, OfflineTrainer, OnlineConfig};
use darwin_bench::Scale;
use darwin_cache::{CacheConfig, ThresholdPolicy};
use darwin_nn::TrainConfig;
use darwin_shard::{Backpressure, FleetConfig};
use darwin_trace::{concat_traces, MixSpec, Request, Trace, TraceGenerator, TrafficClass};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shards behind every workload (= `nproc` of the box the sizes were taken on).
pub const SHARDS: usize = 2;
/// `--seconds` value the `requests_at_nominal` counts are stated for.
pub const NOMINAL_SECONDS: u64 = 15;
/// Repetitions of a workload in one run; a run reports each metric's median
/// over them.
pub const REPS: u64 = 3;
/// Requests replayed untimed before the timed phase.
const WARMUP_REQUESTS: u64 = 2_000_000;
/// Records per `GET` frame and frames in flight during the warm-up, which is
/// replayed bulk-style on every workload so that it stays short.
pub const WARMUP_FRAME: usize = 64;
pub const WARMUP_WINDOW: usize = 8;

/// How the load reaches the shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Over loopback TCP through the gateway, static `f2s100` drivers.
    Socket,
    /// `FleetProducer::submit_frame` straight into the shard lanes, full
    /// Darwin controller per shard.
    Lanes,
}

/// Where the bench process lets its threads run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Each shard worker on a core of its own, as a shard-per-core
    /// deployment runs; client and gateway threads wherever the scheduler
    /// puts them.
    ShardPerCore,
    /// The whole process on one core. Only for `socket-pingpong`, whose
    /// round trip is four thread hand-offs: across virtual cores each costs
    /// 15–20 µs of hypervisor wake-up and the result was bimodal (README.md).
    OneCore,
}

/// One workload's frozen shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub path: Path,
    pub placement: Placement,
    /// Timed requests of one repetition at `--seconds 15`.
    requests_at_nominal: u64,
    /// Records per frame in the timed phase.
    pub frame: usize,
    /// Frames in flight in the timed phase.
    pub window: usize,
    /// Per-shard checkpoint interval (with one hot standby and a disk spill).
    pub checkpoint_every: Option<u64>,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "socket-bulk",
        why: "wire decode, connection reader/writer, reply reorder and the shard lanes do most of the work; controller work is absent",
        path: Path::Socket,
        placement: Placement::ShardPerCore,
        requests_at_nominal: 8_000_000,
        frame: 64,
        window: 8,
        checkpoint_every: None,
    },
    Spec {
        name: "socket-pingpong",
        why: "one small frame in flight: per-frame cost (syscalls, thread hand-offs) dominates and per-record cost vanishes",
        path: Path::Socket,
        placement: Placement::OneCore,
        requests_at_nominal: 1_600_000,
        frame: 8,
        window: 1,
        checkpoint_every: None,
    },
    Spec {
        name: "socket-durable",
        why: "writes beside reads: cache save_state, checkpoint frame, CRC, block delta, standby feed and disk spill at fixed cuts",
        path: Path::Socket,
        placement: Placement::ShardPerCore,
        requests_at_nominal: 3_000_000,
        frame: 64,
        window: 8,
        checkpoint_every: Some(500_000),
    },
    Spec {
        name: "lanes-darwin",
        why: "no sockets: online controller, features, nn, bandit and cache do the work over three mix phases; the gap to socket-bulk is the network layer",
        path: Path::Lanes,
        placement: Placement::ShardPerCore,
        requests_at_nominal: 8_000_000,
        frame: 64,
        window: 8,
        checkpoint_every: None,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Request counts of one run: `--seconds` scales the timed count linearly,
/// `--scale` divides everything (the smoke test runs at 1/100).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub warmup: usize,
    pub timed: usize,
    pub scale: u64,
}

impl Spec {
    pub fn sizes(&self, seconds: u64, scale: u64) -> Sizes {
        let per_frame = self.frame.max(WARMUP_FRAME) as u64;
        // Whole frames only, so the frame count is exact.
        let whole = |n: u64| ((n / per_frame).max(1) * per_frame) as usize;
        Sizes {
            warmup: whole(WARMUP_REQUESTS / scale),
            timed: whole(self.requests_at_nominal * seconds / NOMINAL_SECONDS / scale),
            scale,
        }
    }

    /// The fleet every workload boots: 2 shards, blocking backpressure.
    pub fn fleet_config(&self, scale: u64) -> FleetConfig {
        FleetConfig {
            shards: SHARDS,
            queue_capacity: 8192,
            batch: 256,
            backpressure: Backpressure::Block,
            snapshot_every: None,
            restart_budget: Default::default(),
            checkpoint_every: self.checkpoint_every.map(|n| (n / scale).max(1)),
            shed_watermark: None,
            replicas: usize::from(self.checkpoint_every.is_some()),
        }
    }
}

/// The aggregate cache is fixed at `Scale::new(1).cache_config()` and split
/// evenly, so capacity does not grow with the shard count.
pub fn shard_cache() -> CacheConfig {
    let whole = Scale::new(1).cache_config();
    CacheConfig {
        hoc_bytes: whole.hoc_bytes / SHARDS as u64,
        dc_bytes: whole.dc_bytes / SHARDS as u64,
        ..whole
    }
}

/// The static expert of the socket workloads.
pub fn static_policy() -> ThresholdPolicy {
    ThresholdPolicy::new(2, 100 * 1024)
}

fn two_class(image_share: f64) -> MixSpec {
    MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), image_share)
}

/// Seed of the object catalogue (popularity ranks and object sizes).
///
/// `TraceGenerator` derives the catalogue from its seed, and the catalogue
/// decides the hit ratio: over ten generator seeds `hoc_ohr` ranged from
/// 0.138 to 0.250 and `rps` followed it. So the catalogue is fixed here and
/// `--seed` decides the order of arrival instead — see [`reorder`].
const CATALOGUE_SEED: u64 = 2025;

/// Requests that stay together when `--seed` reorders a trace.
const BLOCK: usize = 4096;

/// `--seed`'s effect on a stationary stretch of requests: the blocks of
/// [`BLOCK`] requests are put in a seeded random order (Fisher–Yates over
/// the block indices) while the sequence of timestamps stays as generated.
/// Every seed serves the same requests, in another order. (On
/// `lanes-darwin` only the warm-up is reordered; see [`build_trace`].)
fn reorder(reqs: &[Request], seed: u64) -> Trace {
    let mut order: Vec<usize> = (0..reqs.len().div_ceil(BLOCK)).collect();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        state = splitmix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let mut out = Vec::with_capacity(reqs.len());
    for block in order {
        let end = (block * BLOCK + BLOCK).min(reqs.len());
        for r in &reqs[block * BLOCK..end] {
            out.push(Request::new(r.id, r.size, reqs[out.len()].timestamp_us));
        }
    }
    Trace::from_sorted(out)
}

/// One mix generated in one go and cut into pieces; a piece with a seed is
/// reordered by it. The warm-up and the timed requests are pieces of their
/// own, so every seed times the same multiset of requests.
fn stretch(image_share: f64, catalogue: u64, pieces: &[(usize, Option<u64>)]) -> Vec<Trace> {
    let total = pieces.iter().map(|&(n, _)| n).sum();
    let whole = TraceGenerator::new(two_class(image_share), catalogue).generate(total);
    let mut rest = whole.requests();
    pieces
        .iter()
        .map(|&(n, seed)| {
            let (piece, tail) = rest.split_at(n);
            rest = tail;
            seed.map_or_else(|| Trace::from_sorted(piece.to_vec()), |seed| reorder(piece, seed))
        })
        .collect()
}

/// Warm-up plus timed requests in one trace, and how long building it took.
pub fn build_trace(spec: &Spec, sizes: Sizes, seed: u64) -> (Trace, Duration) {
    let started = Instant::now();
    let seeded = Some(seed);
    let parts = match spec.path {
        Path::Socket => stretch(0.5, CATALOGUE_SEED, &[(sizes.warmup, seeded), (sizes.timed, seeded)]),
        Path::Lanes => {
            // Three equal mix phases, so that the per-shard controllers
            // switch experts and restart on drift. The warm-up has the
            // first phase's mix. Only the warm-up is reordered: the bandits
            // amplify a change of order in the timed phase into other expert
            // choices (`hoc_ohr` 0.232 – 0.242 over 27 orders of 8 M
            // requests), while ten warm-up orders in front of one timed
            // order gave 0.238491 – 0.238493.
            let third = sizes.timed / 3;
            let mut parts = stretch(0.8, CATALOGUE_SEED, &[(sizes.warmup, seeded), (third, None)]);
            parts.extend(stretch(0.5, CATALOGUE_SEED + 1, &[(third, None)]));
            parts.extend(stretch(0.2, CATALOGUE_SEED + 2, &[(sizes.timed - 2 * third, None)]));
            parts
        }
    };
    (concat_traces(&parts), started.elapsed())
}

/// The online configuration of `lanes-darwin`: `Scale::new(1)`'s epoch
/// proportions plus the drift extension, so drift restarts can occur.
pub fn online_config(scale: u64) -> OnlineConfig {
    let base = Scale::new(1).online_config();
    let div = |n: usize| (n / scale as usize).max(50);
    OnlineConfig {
        epoch_requests: div(base.epoch_requests),
        warmup_requests: div(base.warmup_requests),
        round_requests: div(base.round_requests),
        drift_threshold: Some(0.5),
        ..base
    }
}

/// A trained model and the time its two offline stages took.
pub struct Trained {
    pub model: Arc<DarwinModel>,
    pub evaluate: Duration,
    pub train: Duration,
}

/// Trains the `lanes-darwin` model the way `experiments switching` does: a
/// contrasty four-expert grid over four mixes, on one thread. The training
/// corpus has its own fixed seeds; `--seed` varies only the served traffic.
pub fn train_model(scale: u64) -> Trained {
    let online = online_config(scale);
    let cfg = OfflineConfig {
        grid: ExpertGrid::new(vec![
            Expert::new(1, 20),
            Expert::new(4, 20),
            Expert::new(1, 1000),
            Expert::new(4, 1000),
        ]),
        hoc_bytes: shard_cache().hoc_bytes,
        nn_train: TrainConfig { epochs: 40, ..TrainConfig::default() },
        n_clusters: 2,
        // Train-time features must be what the online warm-up will estimate.
        feature_prefix_requests: online.warmup_requests,
        threads: 1,
        ..OfflineConfig::default()
    };
    let traces: Vec<Trace> = (0..4)
        .map(|i| {
            TraceGenerator::new(two_class(i as f64 / 3.0), 10 + i as u64)
                .generate((online.epoch_requests * 2).max(2_000))
        })
        .collect();
    let trainer = OfflineTrainer::new(cfg);
    let started = Instant::now();
    let evals = trainer.evaluate_corpus(&traces);
    let evaluate = started.elapsed();
    let started = Instant::now();
    let model = Arc::new(trainer.train_from_evaluations(&evals));
    Trained { model, evaluate, train: started.elapsed() }
}
