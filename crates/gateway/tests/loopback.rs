//! End-to-end loopback tests: a trace served through a real TCP gateway on
//! 127.0.0.1 (port 0 — always ephemeral) must behave exactly like the
//! in-process fleet, and the serving layer must stay live and consistent
//! under shutdown, worker panics, shedding and client disconnects.

use darwin::{DarwinModel, Expert, ExpertGrid, OfflineConfig, OfflineTrainer, OnlineConfig};
use darwin_cache::{CacheConfig, CacheMetrics, ThresholdPolicy};
use darwin_gateway::wire::{encode_get, FrameReader, Message};
use darwin_gateway::{loadgen, Gateway, LoadgenConfig};
use darwin_nn::TrainConfig;
use darwin_shard::{partition, run_sequential, Backpressure, FleetConfig, FleetMetrics, HashRouter};
use darwin_testbed::{AdmissionDriver, DarwinDriver, StaticDriver};
use darwin_trace::{MixSpec, Request, Trace, TraceGenerator, TrafficClass};
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};

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

fn fleet_cfg(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        queue_capacity: 256,
        batch: 64,
        backpressure: Backpressure::Block,
        ..Default::default()
    }
}

fn test_trace(n: usize) -> Trace {
    TraceGenerator::new(MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5), 4242)
        .generate(n)
}

/// The tentpole contract: a trace replayed through the loopback gateway on a
/// single connection (which preserves trace order exactly) is bitwise
/// identical — per-shard cache metrics, occupancy — to the sequential
/// per-partition replay, and the verdict stream the client saw agrees with
/// the server's own counters.
#[test]
fn static_gateway_equivalent_to_sequential_replay() {
    let trace = test_trace(30_000);
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let gateway =
        Gateway::bind("127.0.0.1:0", fleet_cfg(2), cache_cfg(), Box::new(HashRouter), move |_| {
            StaticDriver::new(policy)
        })
        .expect("bind loopback gateway");
    let addr = gateway.local_addr();

    let report = loadgen::run(
        addr,
        &trace,
        LoadgenConfig { connections: 1, batch: 64, window: 8, ..Default::default() },
    )
    .expect("loadgen replay");
    gateway.shutdown();
    let fleet_report = gateway.finish().expect("clean gateway shutdown");

    let seq = run_sequential(2, cache_cfg(), &HashRouter, |_| StaticDriver::new(policy), &trace);
    for ((f, m), s) in fleet_report.shards.iter().zip(&fleet_report.metrics().shards).zip(&seq) {
        assert_eq!(m.cache, s.cache, "shard {}: cache metrics", f.shard);
        assert_eq!(f.hoc_used_bytes, s.hoc_used_bytes, "shard {}: HOC occupancy", f.shard);
        assert_eq!(f.dc_used_bytes, s.dc_used_bytes, "shard {}: DC occupancy", f.shard);
        assert_eq!(m.dropped, 0, "Block backpressure is lossless");
    }

    // The client's verdict tally is the fleet's cache metrics, seen from the
    // other end of the wire.
    let fleet_cache: CacheMetrics = fleet_report.fleet_cache();
    let t = report.tally;
    assert_eq!(t.total(), trace.len() as u64);
    assert_eq!(t.dropped, 0);
    assert_eq!(t.hoc_hits, fleet_cache.hoc_hits);
    assert_eq!(t.dc_hits, fleet_cache.dc_hits);
    assert_eq!(t.origin_fetches, fleet_cache.origin_fetches);
    assert_eq!(t.admitted, fleet_cache.hoc_writes);
}

/// Same contract with the full per-shard Darwin controllers: the deployed
/// expert sequences must also match the sequential replay exactly.
#[test]
fn darwin_gateway_equivalent_to_sequential_replay() {
    let model = model();
    let trace = test_trace(48_000);
    let gateway = {
        let model = Arc::clone(&model);
        Gateway::bind("127.0.0.1:0", fleet_cfg(2), cache_cfg(), Box::new(HashRouter), move |_| {
            DarwinDriver::new(Arc::clone(&model), online_cfg())
        })
        .expect("bind loopback gateway")
    };
    let addr = gateway.local_addr();

    let report = loadgen::run(
        addr,
        &trace,
        LoadgenConfig { connections: 1, batch: 64, window: 8, ..Default::default() },
    )
    .expect("loadgen replay");
    assert_eq!(report.tally.total(), trace.len() as u64);
    gateway.shutdown();
    let fleet_report = gateway.finish().expect("clean gateway shutdown");

    let seq = run_sequential(
        2,
        cache_cfg(),
        &HashRouter,
        |_| DarwinDriver::new(Arc::clone(&model), online_cfg()),
        &trace,
    );
    let mut switched_anywhere = false;
    let ledger = fleet_report.metrics().shards.clone();
    for ((f, m), s) in fleet_report.shards.into_iter().zip(&ledger).zip(seq) {
        let shard = f.shard;
        assert_eq!(m.processed, s.processed, "shard {shard}: processed");
        assert_eq!(m.cache, s.cache, "shard {shard}: cache metrics");
        assert_eq!(f.hoc_used_bytes, s.hoc_used_bytes, "shard {shard}: HOC occupancy");
        assert_eq!(f.dc_used_bytes, s.dc_used_bytes, "shard {shard}: DC occupancy");
        let gw_seq = f.driver.expect("live shard keeps its driver").into_controller().expert_sequence();
        let replay_seq = s.driver.into_controller().expert_sequence();
        assert_eq!(gw_seq, replay_seq, "shard {shard}: deployed-expert sequence");
        switched_anywhere |= gw_seq.len() > 1;
    }
    assert!(switched_anywhere, "trace must exercise real controller switches");
}

/// Multiple connections interleave at the fleet, so bitwise equivalence no
/// longer applies — but every request must still get exactly one verdict and
/// nothing may be shed under blocking backpressure.
#[test]
fn multi_connection_replay_answers_every_request() {
    let trace = test_trace(20_000);
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let gateway =
        Gateway::bind("127.0.0.1:0", fleet_cfg(4), cache_cfg(), Box::new(HashRouter), move |_| {
            StaticDriver::new(policy)
        })
        .expect("bind loopback gateway");
    let addr = gateway.local_addr();

    let report = loadgen::run(
        addr,
        &trace,
        LoadgenConfig { connections: 4, batch: 32, window: 4, ..Default::default() },
    )
    .expect("loadgen replay");
    assert_eq!(report.tally.total(), trace.len() as u64);
    assert_eq!(report.tally.dropped, 0);

    let fleet_report = {
        gateway.shutdown();
        gateway.finish().expect("clean gateway shutdown")
    };
    assert_eq!(fleet_report.total_processed(), trace.len() as u64);
    assert_eq!(fleet_report.total_dropped(), 0);
}

/// Four connections hammering tiny shard queues under blocking backpressure:
/// the per-connection producers contend on the per-shard lanes, yet the
/// router still determines the partition exactly — each shard processes
/// precisely the requests whose IDs route to it, whatever the interleaving —
/// and every request is answered exactly once with nothing shed.
#[test]
fn contended_connections_preserve_per_shard_partition() {
    let trace = test_trace(24_000);
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let cfg = FleetConfig {
        shards: 2,
        queue_capacity: 32, // small enough that Block backpressure engages
        batch: 16,
        backpressure: Backpressure::Block,
        ..Default::default()
    };
    let gateway = Gateway::bind("127.0.0.1:0", cfg, cache_cfg(), Box::new(HashRouter), move |_| {
        StaticDriver::new(policy)
    })
    .expect("bind loopback gateway");
    let addr = gateway.local_addr();

    let report = loadgen::run(
        addr,
        &trace,
        LoadgenConfig { connections: 4, batch: 48, window: 4, ..Default::default() },
    )
    .expect("contended replay");
    assert_eq!(report.tally.total(), trace.len() as u64, "exactly-once answering");
    assert_eq!(report.tally.dropped, 0, "Block backpressure is lossless");
    assert_eq!(report.tally.unavailable, 0);

    gateway.shutdown();
    let fleet_report = gateway.finish().expect("clean gateway shutdown");
    assert_eq!(fleet_report.total_processed(), trace.len() as u64);
    assert_eq!(fleet_report.total_dropped(), 0);
    let parts = partition(&trace, &HashRouter, 2);
    for ((outcome, m), part) in
        fleet_report.shards.iter().zip(&fleet_report.metrics().shards).zip(&parts)
    {
        assert_eq!(
            m.processed,
            part.len() as u64,
            "shard {}: processed exactly its partition",
            outcome.shard
        );
        assert_eq!(m.cache.requests, part.len() as u64);
        assert!(
            outcome.queue_high_water <= 32,
            "shard {}: high-water {} exceeds queue capacity",
            outcome.shard,
            outcome.queue_high_water
        );
    }
    // The verdict tally and the fleet's cache metrics agree across the wire.
    let fleet_cache = fleet_report.fleet_cache();
    assert_eq!(
        report.tally.hoc_hits + report.tally.dc_hits + report.tally.origin_fetches,
        fleet_cache.requests
    );
}

/// `STATS` answers with a parseable [`FleetMetrics`] JSON document carrying
/// the gateway's own counters — the same snapshot `Gateway::metrics` returns.
#[test]
fn stats_frame_returns_parseable_snapshot() {
    let trace = test_trace(5_000);
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let gateway =
        Gateway::bind("127.0.0.1:0", fleet_cfg(2), cache_cfg(), Box::new(HashRouter), move |_| {
            StaticDriver::new(policy)
        })
        .expect("bind loopback gateway");
    let addr = gateway.local_addr();

    loadgen::run(addr, &trace, LoadgenConfig::default()).expect("loadgen replay");
    let json = loadgen::fetch_stats(addr).expect("stats fetch");
    let snapshot = FleetMetrics::from_json(&json).expect("stats reply parses as FleetMetrics");
    let gw = snapshot.gateway.expect("gateway counters folded into the snapshot");
    assert!(gw.connections_accepted >= 2, "replay + stats connections");
    assert_eq!(gw.requests_in, trace.len() as u64);
    assert!(gw.stats_served >= 1);
    assert!(gw.bytes_in > 0 && gw.bytes_out > 0);

    // In-process and over-the-wire snapshots use the same code path; the
    // cache-side numbers of a quiesced fleet agree exactly.
    let local = gateway.metrics();
    assert_eq!(local.fleet_cache(), snapshot.fleet_cache());
    gateway.shutdown();
    gateway.finish().expect("clean gateway shutdown");
}

/// A fleet whose journals are full still answers `STATS` within the frame
/// bound: the reply is compact and leaves the journals to `EVENTS`, whose
/// reply keeps the newest events that fit. Eight shards cutting a
/// checkpoint every 10 requests fill each 1 024-event journal; pretty JSON
/// of those journals is about 1.45 MB, past `MAX_BODY_LEN`.
#[test]
fn stats_fits_the_wire_with_full_journals() {
    use darwin_gateway::wire::MAX_BODY_LEN;

    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let cfg = FleetConfig { checkpoint_every: Some(10), ..fleet_cfg(8) };
    let gateway = Gateway::bind("127.0.0.1:0", cfg, cache_cfg(), Box::new(HashRouter), move |_| {
        StaticDriver::new(policy)
    })
    .expect("bind loopback gateway");
    let addr = gateway.local_addr();
    let trace = test_trace(88_000);
    loadgen::run(addr, &trace, LoadgenConfig::default()).expect("loadgen replay");

    let journals = loadgen::fetch_events(addr).expect("events fetch");
    assert_eq!(journals.len(), 9, "eight shards and the gateway");
    let json = loadgen::fetch_stats(addr).expect("stats fetch");
    assert!(json.len() <= MAX_BODY_LEN, "{} bytes", json.len());
    let snapshot = FleetMetrics::from_json(&json).expect("stats reply parses as FleetMetrics");
    assert_eq!(snapshot.shards.len(), 8);
    assert!(snapshot.shards.iter().all(|s| s.events.is_empty()), "journals ride EVENTS, not STATS");
    assert!(snapshot.shards.iter().any(|s| s.events_dropped > 0), "journals overflowed");
    for shard in &snapshot.shards {
        let journal = &journals.iter().find(|(s, _)| *s as usize == shard.shard).expect("journal").1;
        assert!(!journal.events.is_empty());
        // A worker may still cut one checkpoint after its last verdict.
        assert!(
            (0..=1).contains(&(shard.events_dropped - journal.dropped)),
            "STATS still counts the journal's drops: {} vs {}",
            shard.events_dropped,
            journal.dropped
        );
    }

    gateway.shutdown();
    gateway.finish().expect("no connection panicked");
}

/// The reply counters are published as each reply is written, not when its
/// connection closes: a `STATS` on a second connection counts every reply
/// the first connection has read, while the first is still open.
#[test]
fn stats_counts_the_replies_of_a_connection_still_open() {
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let gateway =
        Gateway::bind("127.0.0.1:0", fleet_cfg(2), cache_cfg(), Box::new(HashRouter), move |_| {
            StaticDriver::new(policy)
        })
        .expect("bind loopback gateway");
    let addr = gateway.local_addr();
    let trace = test_trace(640);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut buf = Vec::new();
    for frame in trace.requests().chunks(64) {
        encode_get(frame, &mut buf);
    }
    stream.write_all(&buf).expect("write frames");
    let mut reader = FrameReader::new(stream.try_clone().expect("clone stream"));
    let mut verdicts = 0u64;
    for _ in 0..trace.len() / 64 {
        match reader.recv().expect("reply") {
            Some(Message::Verdicts(vs)) => verdicts += vs.len() as u64,
            other => panic!("expected verdicts, got {other:?}"),
        }
    }
    assert_eq!(verdicts, trace.len() as u64);

    let json = loadgen::fetch_stats(addr).expect("stats fetch");
    let gw =
        FleetMetrics::from_json(&json).expect("stats reply parses").gateway.expect("gateway counters");
    assert_eq!(gw.connections_active, 2, "the replay connection is still open");
    assert_eq!(gw.verdicts_out, verdicts);
    assert_eq!(gw.bytes_out, reader.bytes_read(), "every reply byte the client read is counted");
    drop((stream, reader));
    gateway.shutdown();
    gateway.finish().expect("clean gateway shutdown");
}

/// `EVENTS` answers with the fleet's per-shard journals: a scripted
/// mid-run panic must show up as fault-injection, death and restart events
/// with monotonically increasing sequence stamps, and serving the frame
/// bumps the gateway's `events_served` counter.
#[test]
fn events_frame_returns_fleet_journals() {
    use darwin_gateway::GatewayConfig;
    use darwin_obs::EventKind;
    use darwin_shard::{FaultEvent, FaultKind, FaultPlan};

    let trace = test_trace(4_000);
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let gateway = Gateway::bind_with(
        "127.0.0.1:0",
        fleet_cfg(2),
        cache_cfg(),
        Box::new(HashRouter),
        GatewayConfig {
            fault_plan: FaultPlan::new(vec![FaultEvent { shard: 0, at: 500, kind: FaultKind::Panic }]),
            ..GatewayConfig::default()
        },
        move |_| StaticDriver::new(policy),
    )
    .expect("bind loopback gateway");
    let addr = gateway.local_addr();

    loadgen::run(addr, &trace, LoadgenConfig::default()).expect("loadgen replay");
    let journals = loadgen::fetch_events(addr).expect("events fetch");
    assert_eq!(journals.len(), 3, "one journal per shard plus the gateway pseudo-shard");
    assert!(
        journals.iter().any(|(s, _)| *s == darwin_gateway::GATEWAY_JOURNAL_SHARD),
        "gateway journal rides along under the pseudo-shard id"
    );
    let shard0 = &journals.iter().find(|(s, _)| *s == 0).expect("shard 0 journal").1;
    let kinds: Vec<&EventKind> = shard0.events.iter().map(|e| &e.kind).collect();
    assert!(kinds.iter().any(|k| matches!(k, EventKind::FaultInjected { .. })));
    assert!(kinds.iter().any(|k| matches!(k, EventKind::WorkerDeath)));
    assert!(kinds.iter().any(|k| matches!(k, EventKind::RestartGranted { .. })));
    assert!(
        shard0.events.windows(2).all(|w| w[0].seq <= w[1].seq),
        "journal sequence stamps are monotone"
    );

    let gw = gateway.metrics().gateway.expect("gateway counters");
    assert!(gw.events_served >= 1, "EVENTS frames are counted");
    gateway.shutdown();
    gateway.finish().expect("clean gateway shutdown");
}

/// A client `SHUTDOWN` frame is acknowledged and leaves the gateway ready to
/// finish without any local shutdown call.
#[test]
fn shutdown_frame_drains_gateway() {
    let trace = test_trace(2_000);
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let gateway =
        Gateway::bind("127.0.0.1:0", fleet_cfg(1), cache_cfg(), Box::new(HashRouter), move |_| {
            StaticDriver::new(policy)
        })
        .expect("bind loopback gateway");
    let addr = gateway.local_addr();

    loadgen::run(addr, &trace, LoadgenConfig::default()).expect("loadgen replay");
    loadgen::send_shutdown(addr).expect("shutdown acked");
    assert!(gateway.shutdown_requested());
    gateway.wait_shutdown();
    let report = gateway.finish().expect("clean gateway shutdown");
    assert_eq!(report.total_processed(), trace.len() as u64);
}

/// A driver that panics mid-run, killing its shard worker.
#[derive(Debug)]
struct PanickyDriver {
    seen: u64,
    fuse: u64,
}

impl AdmissionDriver for PanickyDriver {
    fn initial_policy(&mut self) -> ThresholdPolicy {
        ThresholdPolicy::new(2, 100 * 1024)
    }
    fn observe(&mut self, _req: &Request, _m: &CacheMetrics) -> Option<ThresholdPolicy> {
        self.seen += 1;
        assert!(self.seen < self.fuse, "injected shard worker panic");
        None
    }
    fn label(&self) -> String {
        "panicky".into()
    }
}

/// Repeated shard-worker panics no longer collapse the gateway: the
/// supervisor cold-restarts the worker while its budget lasts (each fresh
/// `PanickyDriver` burns through another fuse), then buries the shard, after
/// which its requests are answered `Unavailable`. The client's replay
/// completes, every request is answered exactly once, and `finish()` reports
/// the damage instead of failing.
#[test]
fn worker_panics_are_supervised_and_degrade_gracefully() {
    let trace = test_trace(4_000);
    let gateway = Gateway::bind("127.0.0.1:0", fleet_cfg(1), cache_cfg(), Box::new(HashRouter), |_| {
        PanickyDriver { seen: 0, fuse: 500 }
    })
    .expect("bind loopback gateway");
    let addr = gateway.local_addr();

    let report = loadgen::run(
        addr,
        &trace,
        LoadgenConfig { connections: 1, batch: 128, window: 2, ..Default::default() },
    )
    .expect("replay must survive supervised worker deaths");
    assert_eq!(report.tally.total(), trace.len() as u64, "exactly-once answering");
    assert!(report.tally.unavailable > 0, "the buried shard answers Unavailable");

    gateway.shutdown();
    let fleet = gateway.finish().expect("supervised fleet finishes cleanly");
    assert_eq!(fleet.metrics().total_restarts(), 3, "default budget grants three restarts");
    assert_eq!(fleet.metrics().dead_shards(), 1, "the fourth death buries the only shard");
    assert_eq!(
        fleet.total_processed() + fleet.total_dropped() + fleet.total_unavailable(),
        trace.len() as u64,
        "conservation: processed + dropped + unavailable == submitted"
    );
    assert_eq!(report.tally.unavailable, fleet.total_unavailable());
    assert_eq!(report.tally.dropped, fleet.total_dropped());
}

/// A driver slow enough that a tiny `DropNewest` queue must shed load.
struct SlowDriver;

impl AdmissionDriver for SlowDriver {
    fn initial_policy(&mut self) -> ThresholdPolicy {
        ThresholdPolicy::new(2, 100 * 1024)
    }
    fn observe(&mut self, _req: &Request, _m: &CacheMetrics) -> Option<ThresholdPolicy> {
        std::thread::sleep(std::time::Duration::from_micros(200));
        None
    }
    fn label(&self) -> String {
        "slow".into()
    }
}

/// A client that writes a burst and vanishes without reading replies: the
/// connection worker must exit cleanly, shed requests must be counted (not
/// lost), and queue gauges must respect the configured capacity.
#[test]
fn client_disconnect_mid_stream_keeps_counters_consistent() {
    let trace = test_trace(8_000);
    let cfg = FleetConfig {
        shards: 2,
        queue_capacity: 64,
        batch: 16,
        backpressure: Backpressure::DropNewest,
        ..Default::default()
    };
    let gateway = Gateway::bind("127.0.0.1:0", cfg, cache_cfg(), Box::new(HashRouter), |_| SlowDriver)
        .expect("bind loopback gateway");
    let addr = gateway.local_addr();

    {
        // Raw client: stream every frame, read nothing, hang up.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut buf = Vec::new();
        for frame in trace.requests().chunks(128) {
            buf.clear();
            encode_get(frame, &mut buf);
            if stream.write_all(&buf).is_err() {
                break; // gateway already noticed the overload — fine
            }
        }
        // Dropping the stream closes both halves with replies unread.
    }

    // Give the reader time to drain what reached the socket, then stop.
    std::thread::sleep(std::time::Duration::from_millis(300));
    gateway.shutdown();
    let metrics = gateway.metrics();
    let report = gateway.finish().expect("disconnect must not poison the gateway");

    let gw = metrics.gateway.expect("gateway counters");
    assert_eq!(
        report.total_processed() + report.total_dropped(),
        gw.requests_in,
        "every decoded request is either processed or counted as shed"
    );
    assert!(report.total_dropped() > 0, "tiny DropNewest queue over a slow worker must shed");
    for s in &report.shards {
        assert!(
            s.queue_high_water <= 64,
            "shard {}: high-water {} exceeds queue capacity",
            s.shard,
            s.queue_high_water
        );
    }
    assert_eq!(gw.connections_active, 0, "connection worker exited");
}

/// Pipelined mixed traffic on one connection: replies come back in frame
/// order regardless of opcode mix.
#[test]
fn pipelined_mixed_frames_reply_in_order() {
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let gateway =
        Gateway::bind("127.0.0.1:0", fleet_cfg(2), cache_cfg(), Box::new(HashRouter), move |_| {
            StaticDriver::new(policy)
        })
        .expect("bind loopback gateway");
    let addr = gateway.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let reqs: Vec<Request> = (0..10).map(|i| Request::new(i, 1000, i)).collect();
    let mut burst = Vec::new();
    encode_get(&reqs[..4], &mut burst);
    darwin_gateway::wire::encode(&Message::Stats, &mut burst);
    encode_get(&reqs[4..], &mut burst);
    stream.write_all(&burst).expect("write burst");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");

    let mut reader = FrameReader::new(stream);
    match reader.recv().expect("first reply") {
        Some(Message::Verdicts(vs)) => assert_eq!(vs.len(), 4),
        other => panic!("expected 4 verdicts first, got {other:?}"),
    }
    assert!(
        matches!(reader.recv().expect("second reply"), Some(Message::StatsReply(_))),
        "stats reply must come second"
    );
    match reader.recv().expect("third reply") {
        Some(Message::Verdicts(vs)) => assert_eq!(vs.len(), 6),
        other => panic!("expected 6 verdicts last, got {other:?}"),
    }
    assert!(reader.recv().expect("clean EOF").is_none());

    gateway.shutdown();
    gateway.finish().expect("clean gateway shutdown");
}

/// A `RESIZE` frame over a real socket re-shards a live gateway: the ack
/// carries the new generation plus the retired-generation ledger, later
/// frames are served by the successor generation, and the fleet's
/// exactly-once conservation ledger holds across the cutover.
#[test]
fn resize_frame_reshards_a_ring_gateway() {
    use darwin_shard::JumpRouter;

    let policy = ThresholdPolicy::new(2, 100 * 1024);
    // Periodic cuts give the handoff a pre-copied base to delta against.
    let cfg = FleetConfig { checkpoint_every: Some(512), ..fleet_cfg(2) };
    let gateway = Gateway::bind("127.0.0.1:0", cfg, cache_cfg(), Box::new(JumpRouter), move |_| {
        StaticDriver::new(policy)
    })
    .expect("bind loopback gateway");
    let addr = gateway.local_addr();

    let before = test_trace(6_000);
    let first = loadgen::run(addr, &before, LoadgenConfig::default()).expect("replay before resize");
    assert_eq!(first.tally.total(), before.len() as u64);
    assert_eq!(first.tally.unavailable, 0);

    let ack = loadgen::send_resize(addr, 4).expect("resize acked");
    assert_eq!(ack.error, None, "the gateway performs the resize");
    assert_eq!((ack.generation, ack.shards), (1, 4));
    assert_eq!((ack.transferred_shards, ack.cold_shards), (2, 0), "both source shards survive a grow");
    assert_eq!(ack.ledger.len(), 1, "generation 0 retired into the ledger");
    assert_eq!(ack.ledger[0].generation, 0);
    assert_eq!(ack.ledger[0].shards, 2);
    assert_eq!(ack.ledger[0].processed, before.len() as u64);

    // The successor generation serves — and STATS shows 4 shards plus the
    // retired generation's ledger row.
    let after = TraceGenerator::new(
        MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5),
        777,
    )
    .generate(6_000);
    let second = loadgen::run(addr, &after, LoadgenConfig::default()).expect("replay after resize");
    assert_eq!(second.tally.total(), after.len() as u64);
    assert_eq!(second.tally.unavailable, 0);
    let snapshot = FleetMetrics::from_json(&loadgen::fetch_stats(addr).expect("stats"))
        .expect("stats reply parses");
    assert_eq!(snapshot.shards.len(), 4, "STATS reports the serving generation");
    assert_eq!(snapshot.generations.len(), 1, "ledger rides the snapshot");
    assert_eq!(snapshot.gateway.as_ref().expect("gateway counters").resizes_served, 1);

    let (serving, life) = gateway.finish_with_ledger().expect("clean shutdown");
    assert_eq!(serving.shards.len(), 4, "the fleet report is the serving generation's");
    assert!(life.conserved(), "processed + dropped + unavailable + shed == submitted across the resize");
    assert_eq!(life.submitted, (before.len() + after.len()) as u64);
    assert_eq!(life.metrics.total_unavailable(), 0);
    assert_eq!(life.transfers.len(), 2);
}

/// Any gateway can be resized, under load: a plain hash-routed `bind`
/// gateway goes 2 → 4 while a connection is mid-replay. The resize is sent
/// once the fleet has demonstrably started on the replay, and the ack's
/// ledger proves it landed before the replay ended.
#[test]
fn hash_gateway_resizes_under_a_live_connection() {
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let cfg = FleetConfig { checkpoint_every: Some(4_096), ..fleet_cfg(2) };
    let gateway = Gateway::bind("127.0.0.1:0", cfg, cache_cfg(), Box::new(HashRouter), move |_| {
        StaticDriver::new(policy)
    })
    .expect("bind loopback gateway");
    let addr = gateway.local_addr();
    let trace = test_trace(200_000);

    let (report, ack) = std::thread::scope(|scope| {
        let replay = scope.spawn(|| loadgen::run(addr, &trace, LoadgenConfig::default()));
        while gateway.metrics().total_processed() < 10_000 {
            std::thread::yield_now();
        }
        let ack = loadgen::send_resize(addr, 4).expect("resize acked");
        (replay.join().expect("replay thread").expect("replay survives the cutover"), ack)
    });

    assert_eq!(ack.error, None);
    assert_eq!((ack.generation, ack.shards, ack.transferred_shards), (1, 4, 2));
    let retired = ack.ledger[0].processed;
    assert!(0 < retired && retired < trace.len() as u64, "resized mid-replay, not around it: {retired}");
    assert_eq!(report.tally.total(), trace.len() as u64, "every verdict arrives");
    assert_eq!(report.tally.unavailable, 0, "a resize never answers Unavailable");

    let (_, life) = gateway.finish_with_ledger().expect("clean shutdown");
    assert!(life.conserved());
    assert_eq!(life.submitted, trace.len() as u64);
    assert_eq!(life.metrics.total_processed(), trace.len() as u64);
}

/// `RESIZE` targets outside the input — zero, the serving shard count, one
/// past the ceiling, `u32::MAX` — are each answered with an error ack
/// before the fleet is touched, and the connection that sent them keeps
/// being served.
#[test]
fn hostile_resize_targets_get_error_acks_and_the_connection_keeps_serving() {
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let gateway =
        Gateway::bind("127.0.0.1:0", fleet_cfg(2), cache_cfg(), Box::new(HashRouter), move |_| {
            StaticDriver::new(policy)
        })
        .expect("bind loopback gateway");
    let reqs = test_trace(64).requests().to_vec();
    let mut stream = TcpStream::connect(gateway.local_addr()).expect("connect");
    let mut reader = FrameReader::new(stream.try_clone().expect("clone stream"));

    for target in [0, 2, darwin_shard::MAX_SHARDS as u32 + 1, u32::MAX] {
        let mut burst = Vec::new();
        darwin_gateway::wire::encode(&Message::Resize(target), &mut burst);
        encode_get(&reqs, &mut burst);
        stream.write_all(&burst).expect("write burst");
        let ack: darwin_gateway::ResizeAck = match reader.recv().expect("ack") {
            Some(Message::ResizeAck(json)) => serde_json::from_str(&json).expect("ack parses"),
            other => panic!("RESIZE {target}: expected an ack, got {other:?}"),
        };
        assert!(ack.error.is_some(), "RESIZE {target} must be refused: {ack:?}");
        assert_eq!((ack.generation, ack.shards, ack.transferred_shards), (0, 2, 0));
        match reader.recv().expect("verdicts") {
            Some(Message::Verdicts(vs)) => assert_eq!(vs.len(), reqs.len()),
            other => panic!("RESIZE {target}: the connection stopped serving: {other:?}"),
        }
    }
    drop((stream, reader));
    let (_, life) = gateway.finish_with_ledger().expect("clean shutdown");
    assert!(life.conserved() && life.metrics.generations.len() == 1 && life.transfers.is_empty());
}

/// The boot generation's fault plan and a later `RESIZE` compose: a shard
/// worker dies mid-replay (supervised, restarted), the fleet is then
/// resized, and the whole-life ledger still balances to the request.
#[test]
fn scripted_panic_then_resize_conserves_the_ledger() {
    use darwin_gateway::GatewayConfig;
    use darwin_shard::{FaultEvent, FaultKind, FaultPlan};

    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let gateway = Gateway::bind_with(
        "127.0.0.1:0",
        fleet_cfg(2),
        cache_cfg(),
        Box::new(HashRouter),
        GatewayConfig {
            fault_plan: FaultPlan::new(vec![FaultEvent { shard: 0, at: 500, kind: FaultKind::Panic }]),
            ..Default::default()
        },
        move |_| StaticDriver::new(policy),
    )
    .expect("bind loopback gateway");
    let addr = gateway.local_addr();
    let trace = test_trace(6_000);

    let first = loadgen::run(addr, &trace, LoadgenConfig::default()).expect("replay over the panic");
    assert_eq!(first.tally.total(), trace.len() as u64);
    let ack = loadgen::send_resize(addr, 4).expect("resize acked");
    assert_eq!((ack.error, ack.generation, ack.shards), (None, 1, 4));
    assert_eq!(ack.ledger[0].restarts, 1, "generation 0 retired with its restart on the books");
    let second = loadgen::run(addr, &trace, LoadgenConfig::default()).expect("replay after resize");
    assert_eq!(second.tally.total(), trace.len() as u64);
    assert_eq!(second.tally.dropped + second.tally.unavailable, 0, "generation 1 runs fault-free");

    let (_, life) = gateway.finish_with_ledger().expect("clean shutdown");
    assert!(life.conserved(), "processed + dropped + unavailable + shed == submitted");
    assert_eq!(life.submitted, 2 * trace.len() as u64);
    assert_eq!(life.metrics.total_dropped(), first.tally.dropped, "client and fleet agree on the loss");
    assert_eq!(life.metrics.total_dropped(), 1, "only the request the panic fell on");
}
