//! The traced run's second half: a sequential shadow replay of the same
//! trace in the bench process, with a span around each public call, and the
//! stand-alone kernels of `crates/bench/benches/` timed as spans.
//!
//! The replay routes, queues, processes and observes every request exactly
//! as a shard worker does, so its final `CacheMetrics` must equal the live
//! fleet's bit for bit — that equality is one of the run's output checks.

use crate::live::ControllerStats;
use crate::spans::{name_id, Spans};
use crate::workload::{self, Sizes, Spec, Trained, SHARDS};
use darwin_bandit::{GaussianEnv, SideInfo, TasConfig, TrackAndStopSideInfo};
use darwin_cache::{CacheMetrics, CacheServer};
use darwin_ckpt::crc64;
use darwin_ckpt::delta::DeltaFrame;
use darwin_features::FeatureExtractor;
use darwin_gateway::wire::{self, Message, WireVerdict};
use darwin_nn::{Mlp, OutputActivation};
use darwin_obs::Histogram;
use darwin_shard::{channel, FleetConfig, HashRouter, Router, ShardCheckpoint, ShardedFleet};
use darwin_testbed::{AdmissionDriver, DarwinDriver, StaticDriver};
use darwin_trace::{Request, Trace};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Requests per shadow frame (the bulk frame size, on every workload).
const FRAME: usize = 64;

/// What the shadow replay found.
pub struct Shadow {
    /// Final fleet-wide cache counters (sum over the shadow shards).
    pub cache: CacheMetrics,
    /// Slowest single `AdmissionDriver::observe` call.
    pub observe_max_ns: u64,
    /// `CacheServer::save_state` bytes at the end of the trace, all shards.
    pub cache_state_bytes: u64,
    /// `AdmissionDriver::save_state` bytes at the end of the trace, all shards.
    pub driver_state_bytes: u64,
    /// Checkpoint frames cut where the live fleet cuts them, and their bytes.
    pub live_cuts: u64,
    pub live_cut_bytes: u64,
    /// Bytes run through `crc64` and through `DeltaFrame::compute`.
    pub crc_bytes: u64,
    pub delta_bytes: u64,
    pub controllers: ControllerStats,
}

struct ShardState<D> {
    server: CacheServer,
    driver: D,
    policy: darwin_cache::ThresholdPolicy,
    seq: u64,
    prev_frame: Option<Vec<u8>>,
}

struct CutIds {
    driver_state: u8,
    cache_state: u8,
    to_frame: u8,
    delta: u8,
    crc: u8,
}

/// Byte counts of one cut.
struct CutSizes {
    frame: u64,
    cache: u64,
    driver: u64,
}

/// One checkpoint cut of shard `s`, kernel by kernel.
fn cut<D: AdmissionDriver>(
    s: usize,
    shard: &mut ShardState<D>,
    out: &mut Shadow,
    spans: &mut Spans,
    ids: &CutIds,
    fid: u32,
) -> CutSizes {
    let t0 = Instant::now();
    let driver = shard.driver.save_state().unwrap_or_default();
    let t1 = Instant::now();
    let cache = shard.server.save_state();
    let t2 = Instant::now();
    let mut sizes = CutSizes { frame: 0, cache: cache.len() as u64, driver: driver.len() as u64 };
    let frame = ShardCheckpoint {
        shard: s,
        seq: shard.seq,
        policy: shard.policy,
        cache,
        driver,
        restarts: 0,
        budget_marks: Vec::new(),
    }
    .to_frame();
    let t3 = Instant::now();
    sizes.frame = frame.len() as u64;
    spans.record(ids.driver_state, fid, t0, t1);
    spans.record(ids.cache_state, fid, t1, t2);
    spans.record(ids.to_frame, fid, t2, t3);
    if let Some(prev) = &shard.prev_frame {
        black_box(DeltaFrame::compute(prev, &frame));
        spans.record(ids.delta, fid, t3, Instant::now());
        out.delta_bytes += sizes.frame;
    }
    let t4 = Instant::now();
    black_box(crc64(&frame));
    spans.record(ids.crc, fid, t4, Instant::now());
    out.crc_bytes += sizes.frame;
    shard.prev_frame = Some(frame);
    sizes
}

fn replay<D: AdmissionDriver>(
    spec: &Spec,
    sizes: Sizes,
    trace: &Trace,
    spans: &mut Spans,
    mut make: impl FnMut(usize) -> D,
) -> (Shadow, Vec<D>) {
    let every = spec.fleet_config(sizes.scale).checkpoint_every;
    let mut shards: Vec<ShardState<D>> = (0..SHARDS)
        .map(|s| {
            let mut driver = make(s);
            let policy = driver.initial_policy();
            let mut server = CacheServer::new(workload::shard_cache());
            server.set_policy(policy);
            ShardState { server, driver, policy, seq: 0, prev_frame: None }
        })
        .collect();
    let mut out = Shadow {
        cache: CacheMetrics::default(),
        observe_max_ns: 0,
        cache_state_bytes: 0,
        driver_state_bytes: 0,
        live_cuts: 0,
        live_cut_bytes: 0,
        crc_bytes: 0,
        delta_bytes: 0,
        controllers: ControllerStats::default(),
    };
    let (frame_id, route_id, queue_id, process_id, observe_id) = (
        name_id("shadow.frame"),
        name_id("shard.router.route"),
        name_id("shard.queue.push_pop"),
        name_id("cache.process"),
        name_id("core.observe"),
    );
    let cut_ids = CutIds {
        driver_state: name_id("core.save_state"),
        cache_state: name_id("cache.save_state"),
        to_frame: name_id("shard.ckpt.to_frame"),
        delta: name_id("ckpt.delta"),
        crc: name_id("ckpt.crc64"),
    };
    let router = HashRouter;
    let (tx, rx) = channel::<Request>(8192);
    let mut staged: Vec<Request> = Vec::with_capacity(FRAME);
    let mut popped: Vec<Request> = Vec::with_capacity(FRAME);
    let mut routed = [0usize; FRAME];
    let frames = trace.len().div_ceil(FRAME);
    // Frames after which every shard is cut once more, so that the state
    // size and the checkpoint kernels are measured on every workload: the
    // end of the warm-up (the delta's base) and the end of the trace.
    let extra_cuts = [sizes.warmup / FRAME, frames];

    for (fid, frame) in trace.requests().chunks(FRAME).enumerate() {
        let id = fid as u32;
        let f0 = Instant::now();
        for (slot, r) in routed.iter_mut().zip(frame) {
            *slot = router.route(r.id, SHARDS);
        }
        let f1 = Instant::now();
        staged.extend_from_slice(frame);
        tx.push_batch(&mut staged);
        rx.pop_batch(&mut popped, FRAME);
        let f2 = Instant::now();
        let (mut process_ns, mut observe_ns) = (0u64, 0u64);
        for (req, &s) in popped.iter().zip(&routed) {
            let shard = &mut shards[s];
            let a = Instant::now();
            black_box(shard.server.process(req));
            let b = Instant::now();
            let metrics = shard.server.metrics();
            if let Some(policy) = shard.driver.observe(req, &metrics) {
                shard.policy = policy;
                shard.server.set_policy(policy);
            }
            black_box(shard.driver.drain_events());
            let c = Instant::now();
            process_ns += (b - a).as_nanos() as u64;
            let observed = (c - b).as_nanos() as u64;
            observe_ns += observed;
            out.observe_max_ns = out.observe_max_ns.max(observed);
            shard.seq += 1;
            if every.is_some_and(|n| shard.seq.is_multiple_of(n)) {
                let sizes = cut(s, shard, &mut out, spans, &cut_ids, id);
                out.live_cuts += 1;
                out.live_cut_bytes += sizes.frame;
            }
        }
        popped.clear();
        spans.record_ns(route_id, id, f0, (f1 - f0).as_nanos() as u64);
        spans.record_ns(queue_id, id, f1, (f2 - f1).as_nanos() as u64);
        spans.record_ns(process_id, id, f2, process_ns);
        spans.record_ns(observe_id, id, f2, observe_ns);
        if extra_cuts.contains(&(fid + 1)) {
            (out.cache_state_bytes, out.driver_state_bytes) = (0, 0);
            for (s, shard) in shards.iter_mut().enumerate() {
                let sizes = cut(s, shard, &mut out, spans, &cut_ids, id);
                out.cache_state_bytes += sizes.cache;
                out.driver_state_bytes += sizes.driver;
            }
        }
        spans.record(frame_id, id, f0, Instant::now());
    }
    out.cache = shards.iter().fold(CacheMetrics::default(), |sum, s| sum.merge(&s.server.metrics()));
    (out, shards.into_iter().map(|s| s.driver).collect())
}

/// Replays `trace` sequentially with the drivers the live run used.
pub fn run(
    spec: &Spec,
    sizes: Sizes,
    trace: &Trace,
    trained: Option<&Trained>,
    spans: &mut Spans,
) -> Shadow {
    match trained {
        None => replay(spec, sizes, trace, spans, |_| StaticDriver::new(workload::static_policy())).0,
        Some(trained) => {
            let online = workload::online_config(sizes.scale);
            let (mut out, drivers) = replay(spec, sizes, trace, spans, |_| {
                DarwinDriver::new(Arc::clone(&trained.model), online)
            });
            out.controllers = ControllerStats::of(&drivers);
            out
        }
    }
}

/// Times the stand-alone kernels, one span each (the span's id is the
/// number of operations it covers), and returns nanoseconds per operation.
pub fn kernels(trace: &Trace, spans: &mut Spans) -> Vec<(&'static str, f64)> {
    let reqs = &trace.requests()[..trace.len().min(1 << 18)];
    let mut per_op = Vec::new();
    let mut timed = |name: &'static str, body: &mut dyn FnMut() -> usize| {
        let started = Instant::now();
        let ops = body();
        let ended = Instant::now();
        spans.record(name_id(name), ops as u32, started, ended);
        per_op.push((name, (ended - started).as_nanos() as f64 / ops.max(1) as f64));
    };

    // Wire codec: GET frames of 64 records, and their VERDICTS replies.
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(reqs.len() / FRAME + 1);
    timed("kernel.wire.encode_get", &mut || {
        for frame in reqs.chunks(FRAME) {
            let mut buf = Vec::with_capacity(wire::HEADER_LEN + FRAME * wire::GET_RECORD_LEN);
            wire::encode_get(frame, &mut buf);
            encoded.push(buf);
        }
        reqs.len()
    });
    timed("kernel.wire.decode_get", &mut || {
        for buf in &encoded {
            black_box(wire::decode(buf).expect("own frame decodes"));
        }
        reqs.len()
    });
    let verdicts = Message::Verdicts(
        (0..FRAME)
            .map(|i| {
                WireVerdict::from_byte((i % 3) as u8).expect("outcomes 0..3 are valid verdict bytes")
            })
            .collect(),
    );
    let mut buf = Vec::with_capacity(wire::HEADER_LEN + FRAME);
    let rounds = reqs.len() / FRAME;
    timed("kernel.wire.verdicts", &mut || {
        for _ in 0..rounds {
            buf.clear();
            wire::encode(black_box(&verdicts), &mut buf);
            black_box(wire::decode(&buf).expect("own frame decodes"));
        }
        rounds * FRAME
    });

    // Producer side of the ingest path: route + stage + one queue operation
    // per shard per frame, into a fleet of static shards.
    let fleet: ShardedFleet<StaticDriver> = ShardedFleet::new(
        FleetConfig { shards: SHARDS, queue_capacity: 8192, ..FleetConfig::default() },
        workload::shard_cache(),
        Box::new(HashRouter),
        |_| StaticDriver::new(workload::static_policy()),
    );
    let mut producer = fleet.ingest().producer();
    timed("kernel.shard.submit_frame", &mut || {
        for frame in reqs.chunks(FRAME) {
            producer.submit_frame(frame.iter().copied());
        }
        reqs.len()
    });
    drop(producer);
    fleet.finish();

    timed("kernel.features.extract", &mut || {
        let mut fx = FeatureExtractor::paper_default();
        for r in reqs {
            fx.observe(r);
        }
        black_box(fx.features());
        reqs.len()
    });

    let net = Mlp::new(22, 8, 2, OutputActivation::Sigmoid, 3);
    let x: Vec<f64> = (0..22).map(|i| (i as f64 / 22.0) - 0.5).collect();
    timed("kernel.nn.predict", &mut || {
        for _ in 0..1 << 18 {
            black_box(net.forward(black_box(&x)));
        }
        1 << 18
    });

    // Twenty rounds of Track-and-Stop with side information over ten arms.
    let k = 10;
    let sigma = SideInfo::two_level(k, 0.05, 0.1);
    let mu: Vec<f64> = (0..k).map(|i| 0.6 - 0.02 * i as f64).collect();
    timed("kernel.bandit.round", &mut || {
        let mut rounds = 0;
        for _ in 0..40 {
            let mut env = GaussianEnv::new(mu.clone(), sigma.clone(), 1);
            let cfg = TasConfig { max_rounds: 30, stability_rounds: None, ..TasConfig::default() };
            let mut tas = TrackAndStopSideInfo::new(sigma.clone(), 0.05, cfg);
            for _ in 0..20 {
                if tas.finished() {
                    break;
                }
                let arm = tas.next_arm();
                let y = env.pull(arm);
                tas.observe(arm, &y);
                rounds += 1;
            }
            black_box(tas.recommend());
        }
        rounds
    });

    let hist = Histogram::new();
    timed("kernel.obs.hist_record", &mut || {
        for i in 0..1u64 << 22 {
            hist.record(black_box(i.wrapping_mul(2_654_435_761) & 0xF_FFFF));
        }
        1 << 22
    });
    black_box(hist.snapshot());
    per_op
}
