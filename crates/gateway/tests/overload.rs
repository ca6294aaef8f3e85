//! Flash-crowd behaviour over real sockets: per-connection throttling
//! answers `Busy` without losing anyone's requests, a greedy client is held
//! near its fair share while a fair cohort completes, slow clients are
//! evicted without collateral damage, and scripted network faults (resets,
//! stalls, corruption, accept pauses) are survived by the client's
//! reconnect protocol and journaled byte-identically run to run.

use darwin::{AdmissionDriver, StaticDriver};
use darwin_cache::{CacheConfig, CacheMetrics, ThresholdPolicy};
use darwin_gateway::netfault::{NetFaultEvent, NetFaultKind, NetFaultPlan};
use darwin_gateway::wire::{encode, encode_get, FrameReader, Message};
use darwin_gateway::{
    loadgen, Gateway, GatewayConfig, LoadgenConfig, VerdictOutcome, GATEWAY_JOURNAL_SHARD,
};
use darwin_obs::{encode_fleet_events, EventKind};
use darwin_shard::{FaultEvent, FaultKind, FaultPlan, FleetConfig, HashRouter};
use darwin_trace::{
    compress_window, flash_crowd, popularity_inversion, MixSpec, Request, Trace, TraceGenerator,
    TrafficClass,
};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn fleet_cfg(shards: usize) -> FleetConfig {
    FleetConfig { shards, queue_capacity: 256, batch: 64, ..FleetConfig::default() }
}

fn test_trace(n: usize, seed: u64) -> Trace {
    TraceGenerator::new(MixSpec::single(TrafficClass::image()), seed).generate(n)
}

fn static_gateway(cfg: GatewayConfig, shards: usize) -> Gateway<StaticDriver> {
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    Gateway::bind_with(
        "127.0.0.1:0",
        fleet_cfg(shards),
        CacheConfig::small_test(),
        Box::new(HashRouter),
        cfg,
        move |_| StaticDriver::new(policy),
    )
    .expect("bind loopback gateway")
}

/// A connection that writes requests but never reads its replies must be
/// evicted once the writer exhausts its stall budget — counted in
/// `slow_closed`, journaled, and without disturbing sibling connections.
#[test]
fn slow_client_is_evicted_and_siblings_survive() {
    let gateway = static_gateway(
        GatewayConfig { write_stall: Some(Duration::from_millis(50)), ..GatewayConfig::default() },
        1,
    );
    let addr = gateway.local_addr();

    // The slow client: a firehose of STATS frames (each reply is a sizeable
    // JSON document) with the reply stream never read, so the gateway's send
    // buffer fills and its writer hits the stall budget.
    let mut stream = TcpStream::connect(addr).expect("connect slow client");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_write_timeout(Some(Duration::from_millis(200))).expect("write timeout");
    let mut stats_frame = Vec::new();
    encode(&Message::Stats, &mut stats_frame);

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut evicted = false;
    'firehose: while Instant::now() < deadline {
        for _ in 0..32 {
            if stream.write_all(&stats_frame).is_err() {
                // The gateway shut the socket down under us — expected once
                // the eviction fires; confirm via the counter below.
                break;
            }
        }
        if gateway.metrics().gateway.expect("gateway counters").slow_closed >= 1 {
            evicted = true;
            break 'firehose;
        }
    }
    assert!(evicted, "non-reading client must be evicted within the deadline");
    drop(stream);

    // A sibling connection opened after the eviction is served in full.
    let trace = test_trace(2_000, 7);
    let report = loadgen::run(addr, &trace, LoadgenConfig::default()).expect("sibling replay");
    assert_eq!(report.tally.total(), trace.len() as u64, "sibling fully answered");
    assert_eq!(report.errors.total_failures(), 0, "sibling untouched by the eviction");

    // The eviction is first-class observable: counter and journal agree.
    let journals = loadgen::fetch_events(addr).expect("events fetch");
    let gw_journal =
        &journals.iter().find(|(s, _)| *s == GATEWAY_JOURNAL_SHARD).expect("gateway journal").1;
    let slow_events = gw_journal
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SlowClientClosed { .. }))
        .count();
    assert_eq!(slow_events, 1, "exactly one slow-client eviction journaled");

    gateway.shutdown();
    gateway.finish().expect("clean gateway shutdown");
}

/// A greedy connection pushing far past its token-bucket fair share gets
/// `Busy` verdicts — flow control, not failures — and, with the loadgen's
/// backed-off resends, still ends with every request answered exactly once.
#[test]
fn throttled_connection_retries_to_completion() {
    let gateway =
        static_gateway(GatewayConfig { conn_rate: Some(1_000), ..GatewayConfig::default() }, 2);
    let addr = gateway.local_addr();

    // 3k requests against a 1k-records/second bucket: the initial burst
    // alone overruns the one-second burst budget.
    let trace = test_trace(3_000, 11);
    let report = loadgen::run(
        addr,
        &trace,
        LoadgenConfig { connections: 1, batch: 64, window: 8, ..Default::default() },
    )
    .expect("throttled replay");

    assert_eq!(report.tally.total(), trace.len() as u64, "every request answered exactly once");
    assert!(report.errors.shed > 0, "the bucket must actually throttle");
    assert_eq!(report.errors.total_failures(), 0, "Busy is flow control, not a failure");

    gateway.shutdown();
    let metrics = gateway.metrics();
    let fleet = gateway.finish().expect("clean gateway shutdown");
    let gw = metrics.gateway.expect("gateway counters");
    assert!(gw.throttled > 0, "gateway counted the throttled records");
    assert_eq!(gw.throttled, gw.shed, "all sheds here came from the token bucket");
    assert_eq!(
        fleet.total_processed(),
        trace.len() as u64,
        "throttled records never reached the fleet until their resend"
    );
}

/// A hostile-network script — accept pause, stall, reset, corruption — is
/// survived end to end: the loadgen reconnects and resubmits, every request
/// still earns exactly one verdict, and all four faults are counted and
/// journaled with their deterministic labels. The faults key off frame
/// sequence numbers, never the wall clock, so two runs with a seeded
/// loadgen fetch journals that re-encode byte-identically.
#[test]
fn scripted_network_faults_are_survived_and_journaled() {
    let run = || {
        let plan = NetFaultPlan::new(vec![
            NetFaultEvent { unit: 0, at: 0, kind: NetFaultKind::AcceptPause { spins: 50_000 } },
            NetFaultEvent { unit: 0, at: 1, kind: NetFaultKind::Stall { spins: 100_000 } },
            NetFaultEvent { unit: 0, at: 3, kind: NetFaultKind::Reset },
            NetFaultEvent { unit: 1, at: 2, kind: NetFaultKind::Corrupt },
        ]);
        let gateway =
            static_gateway(GatewayConfig { net_fault_plan: plan, ..GatewayConfig::default() }, 2);
        let addr = gateway.local_addr();

        let trace = test_trace(4_000, 13);
        let report = loadgen::run(
            addr,
            &trace,
            LoadgenConfig { connections: 1, batch: 64, window: 4, seed: 0xFA57, ..Default::default() },
        )
        .expect("replay must survive the hostile network");

        assert_eq!(report.tally.total(), trace.len() as u64, "exactly-once answering");
        assert!(report.errors.resets >= 2, "reset + corruption both sever the transport");
        assert!(report.errors.reconnects >= 2, "the client reconnected past both");
        assert!(report.errors.resubmitted > 0, "in-flight frames were recovered");

        // The gateway's own journal rides the EVENTS opcode as a pseudo-shard.
        let journals = loadgen::fetch_events(addr).expect("events fetch");
        let gw_journal =
            &journals.iter().find(|(s, _)| *s == GATEWAY_JOURNAL_SHARD).expect("gateway journal").1;
        let labels: Vec<&str> = gw_journal
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::NetFault { fault, .. } => Some(fault.as_str()),
                _ => None,
            })
            .collect();
        for expect in ["accept-pause(50000)", "stall(100000)", "reset", "corrupt"] {
            assert!(labels.contains(&expect), "journal records {expect}: {labels:?}");
        }
        assert_eq!(labels.len(), 4, "every scripted fault fired exactly once");

        gateway.shutdown();
        let metrics = gateway.metrics();
        gateway.finish().expect("clean gateway shutdown");
        let gw = metrics.gateway.expect("gateway counters");
        assert_eq!(gw.net_faults, 4, "counter agrees with the journal");
        assert!(gw.frames_rejected >= 1, "corruption counted as a rejected frame");
        (encode_fleet_events(&journals), gw.net_faults)
    };
    let (journal_a, faults_a) = run();
    let (journal_b, faults_b) = run();
    assert_eq!(faults_a, faults_b, "reruns fire identically");
    assert_eq!(journal_a, journal_b, "seeded reruns re-encode byte-identical journals");
}

/// A driver that spins a little per request, so a flash crowd outruns the
/// drain and the shed watermark has work to do.
struct SpinDriver(ThresholdPolicy);

impl AdmissionDriver for SpinDriver {
    fn initial_policy(&mut self) -> ThresholdPolicy {
        self.0
    }
    fn observe(&mut self, _req: &Request, _m: &CacheMetrics) -> Option<ThresholdPolicy> {
        for _ in 0..400 {
            std::hint::spin_loop();
        }
        None
    }
    fn label(&self) -> String {
        "spin".into()
    }
}

/// Floods the gateway from one connection as fast as the socket allows,
/// reading every reply, for at least `min_run` and until `stop` is set.
/// Returns `(admitted, busy, elapsed_secs)`.
fn greedy_client(addr: SocketAddr, stop: &AtomicBool, min_run: Duration) -> (u64, u64, f64) {
    let stream = TcpStream::connect(addr).expect("greedy connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone greedy stream");
    let mut reader = FrameReader::new(stream);
    // Ids far from the generator's id space.
    let frame: Vec<Request> = (0..256u64).map(|i| Request::new((1 << 60) | i, 64 * 1024, i)).collect();
    let mut buf = Vec::new();
    encode_get(&frame, &mut buf);
    let started = Instant::now();
    let (mut admitted, mut busy) = (0u64, 0u64);
    while writer.write_all(&buf).is_ok() {
        let Ok(Some(Message::Verdicts(verdicts))) = reader.recv() else { break };
        for v in &verdicts {
            if v.outcome == VerdictOutcome::Busy {
                busy += 1;
            } else {
                admitted += 1;
            }
        }
        if stop.load(Ordering::Relaxed) && started.elapsed() >= min_run {
            break;
        }
    }
    (admitted, busy, started.elapsed().as_secs_f64())
}

/// A flash crowd with both overload valves open: a four-connection fair
/// cohort replays a burst trace (popularity inversion, a hot object, the
/// window's arrivals compressed 4×) while a greedy fifth connection floods
/// a 2-shard gateway, and scripted worker stalls make the queue watermark
/// engage. No fair connection starves and none fails on the transport, the
/// extended ledger balances, both the fleet and the gateway shed, and the
/// greedy client is answered `Busy` and admitted at no more than twice its
/// token share while the fair cohort's p99 stays bounded.
#[test]
fn greedy_flood_is_throttled_while_a_fair_cohort_completes() {
    const CONN_RATE: u64 = 4_000;
    const SHED_WATERMARK: usize = 32;
    const SHARDS: usize = 2;
    // Long enough that the bucket's one-second burst alone cannot lift the
    // greedy client's admitted rate to 2× its share.
    const GREEDY_MIN_RUN: Duration = Duration::from_millis(1_500);

    let base = TraceGenerator::new(
        MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5),
        4_217,
    )
    .generate(25_000);
    let hot = flash_crowd(&popularity_inversion(&base, 0.5, 99), 0.4, 0.8, 0.5, 4 * 1024 * 1024, 7);
    let trace = compress_window(&hot, 0.4, 0.8, 4.0);
    let stall = FaultKind::Delay { spins: 500_000 };
    let stalls =
        (0..SHARDS).flat_map(|shard| (0..8).map(move |at| FaultEvent { unit: shard, at, kind: stall }));
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let gateway = Gateway::bind_with(
        "127.0.0.1:0",
        FleetConfig {
            queue_capacity: 4 * SHED_WATERMARK,
            batch: 32,
            shed_watermark: Some(SHED_WATERMARK),
            ..fleet_cfg(SHARDS)
        },
        CacheConfig::small_test(),
        Box::new(HashRouter),
        GatewayConfig {
            fault_plan: FaultPlan::new(stalls.collect()),
            conn_rate: Some(CONN_RATE),
            ..GatewayConfig::default()
        },
        move |_| SpinDriver(policy),
    )
    .expect("bind loopback gateway");
    let addr = gateway.local_addr();

    let stop = AtomicBool::new(false);
    let (report, (admitted, busy, elapsed)) = std::thread::scope(|scope| {
        let greedy = scope.spawn(|| greedy_client(addr, &stop, GREEDY_MIN_RUN));
        let report = loadgen::run(
            addr,
            &trace,
            LoadgenConfig { connections: 4, batch: 64, window: 8, ..Default::default() },
        )
        .expect("fair cohort replay");
        stop.store(true, Ordering::Relaxed);
        (report, greedy.join().expect("greedy client"))
    });
    let metrics = gateway.metrics();
    gateway.shutdown();
    let fleet = gateway.finish().expect("clean gateway shutdown");
    let gw = metrics.gateway.expect("gateway counters");

    assert_eq!(report.tally.total(), trace.len() as u64, "fair cohort answered exactly once");
    let starved = report.per_connection.iter().filter(|c| c.tally.total() != c.requests).count();
    assert_eq!(starved, 0, "no fair connection starves");
    assert_eq!(report.errors.total_failures(), 0, "Busy is flow control, not failure");
    assert_eq!(
        fleet.total_processed() + fleet.total_dropped() + fleet.total_unavailable() + fleet.total_shed(),
        gw.requests_in,
        "extended ledger processed + dropped + unavailable + shed == submitted"
    );
    assert!(fleet.total_shed() > 0, "the queue watermark must engage");
    assert!(gw.shed > 0, "the token bucket must throttle the greedy flood");
    assert!(busy > 0, "the greedy flood must see Busy verdicts");
    let greedy_rate = admitted as f64 / elapsed;
    assert!(
        greedy_rate <= 2.0 * CONN_RATE as f64,
        "greedy admitted {greedy_rate:.0} rec/s, over 2x its share ({CONN_RATE})"
    );
    let p99_ms = report.latency.quantile(99.0) as f64 / 1e6;
    assert!(p99_ms < 2_000.0, "fair p99 {p99_ms:.1} ms is unbounded");
}
