//! The TCP gateway: acceptor, connection workers, graceful shutdown.
//!
//! ```text
//!            ┌──────────────────────────── Gateway ───────────────────────┐
//!            │ acceptor thread (nonblocking accept + shutdown flag)       │
//!            │   ├─ conn 0: reader ─▶ ElasticProducer 0 ─┐  ElasticFleet   │
//! clients ──▶│   │          writer ◀── ConnSink ◀────────┼─ generation g ──┼── verdicts
//!            │   └─ conn k: reader ─▶ ElasticProducer k ─┘  per-shard lanes│
//!            │ STATS / EVENTS / SHUTDOWN bypass the ingest path entirely  │
//!            │ RESIZE drains generation g and boots g+1 on its reader     │
//!            └────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every gateway serves through one [`ElasticFleet`]; one that is never
//! sent a `RESIZE` is a plain [`ShardedFleet`](darwin_shard::ShardedFleet)
//! behind the fleet's generation lock. Each connection reader owns a private
//! [`ElasticProducer`](darwin_shard::ElasticProducer): per `GET` frame
//! it takes the generation lock shared (one uncontended read lock and a
//! generation compare), routes the whole frame into per-shard runs and
//! delivers each run with one batched queue operation, so N connections
//! contend per *shard* (on that shard's lane), never on a fleet-wide
//! exclusive lock. Backpressure (a full shard queue under
//! [`Backpressure::Block`](darwin_shard::Backpressure::Block)) therefore
//! stalls only the submitting connections, never monitoring: `STATS` and
//! `EVENTS` read the shard cells and answer even while every submitter is
//! blocked. Only a resize holds the lock exclusively — frames and `STATS`
//! that arrive during one wait out the cutover.

use crate::conn::{
    writer_loop, ConnSink, GatewayEnvelope, PendingBatch, Reply, ReplyCounters, SinkGuard,
};
use crate::netfault::{spin, NetFaultKind, NetFaultPlan};
use crate::wire::{FrameReader, Message, RecvError, WireVerdict, MAX_BODY_LEN};
use darwin_cache::CacheConfig;
use darwin_obs::{EventKind, Journal};
use darwin_shard::{
    ElasticFleet, ElasticReport, FaultPlan, FleetConfig, FleetMetrics, FleetReport, GatewaySnapshot,
    GenerationSummary, Router,
};
use darwin_testbed::AdmissionDriver;
use serde::{Deserialize, Serialize};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pseudo-shard id the gateway's own event journal travels under in an
/// `EVENTS` reply, alongside the real shards (whose ids are dense from 0).
pub const GATEWAY_JOURNAL_SHARD: u32 = u32::MAX;

/// How a gateway shut down unhappily.
///
/// A shard worker dying is *not* in this list: the fleet's supervisor
/// restarts it (or buries the shard once its restart budget is spent), and
/// the final [`FleetReport`] carries the restart and dead-shard counts —
/// degraded service, not an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// The acceptor thread panicked.
    AcceptorPanicked,
    /// This many connection workers panicked (a writer failure the reader
    /// could not absorb).
    ConnectionPanicked(usize),
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::AcceptorPanicked => write!(f, "gateway acceptor thread panicked"),
            GatewayError::ConnectionPanicked(n) => {
                write!(f, "{n} gateway connection worker(s) panicked")
            }
        }
    }
}

impl std::error::Error for GatewayError {}

/// Gateway-side tuning knobs, separate from the fleet's [`FleetConfig`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Per-connection socket read timeout. This is the gateway's
    /// shutdown-latency / idle-cost dial: a quiet connection only notices a
    /// shutdown request (or its idle deadline) when a read times out, so
    /// smaller values make shutdown and the idle cutoff more responsive at
    /// the price of more wakeups per quiet connection; larger values are
    /// cheaper but let quiet connections linger after
    /// [`Gateway::shutdown`]. It does **not** bound how long a client may
    /// take to send a frame — timeouts without a shutdown or idle deadline
    /// pending simply re-arm the read.
    pub read_timeout: Duration,
    /// Close a connection after this long without a decoded frame (`None` =
    /// never). Resolution is bounded below by `read_timeout`: the idle clock
    /// is only consulted when a read times out.
    pub idle_timeout: Option<Duration>,
    /// Scripted faults threaded into the boot generation's shard workers
    /// (per-shard request indices restart at a cutover, so generations
    /// booted by a `RESIZE` run fault-free). The empty plan is the
    /// identity; production paths leave it empty.
    pub fault_plan: FaultPlan,
    /// Directory for on-disk warm-restart checkpoint spills
    /// (`shard-{s}.ckpt`, written via atomic rename): every periodic cut
    /// (the fleet's `checkpoint_every`), every resize handoff, and — when
    /// set — a final cut per shard at [`Gateway::finish`], the artifact a
    /// successor process warm-boots from. `None` keeps checkpoints in
    /// memory only and shuts down without a final cut.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// With `checkpoint_dir` set, restore each shard from its spill file at
    /// startup (the cross-process warm boot) instead of clearing the
    /// directory. A spill that fails validation is detected cold per shard:
    /// the shard journals `RestoreCold`, drops the bad file and starts
    /// empty. `false` restores the historical cold-start semantics (the
    /// `--cold-boot` flag).
    pub warm_boot: bool,
    /// Per-connection fair-share rate limit, in records per second (`None` =
    /// unlimited). Enforced by a token bucket with a one-second burst
    /// allowance: a `GET` frame that would overdraw the bucket is answered
    /// `Busy` for every record — without touching the fleet — so one greedy
    /// client cannot starve its well-behaved neighbours (the `--conn-rate`
    /// flag).
    pub conn_rate: Option<u64>,
    /// How long a reply write may sit in the socket buffer before the
    /// connection is declared a slow client and evicted (`None` = wait
    /// forever, the historical behaviour; the `--write-stall-ms` flag).
    pub write_stall: Option<Duration>,
    /// Bound on a connection's reply backlog, in frames: decoded frames
    /// whose reply has not yet been written. At the bound, new `GET` frames
    /// are answered `Busy` without fleet submission, so a client that
    /// pipelines faster than it reads cannot grow the sink's reorder/reply
    /// memory without bound.
    pub sink_backlog: u64,
    /// Scripted transport-layer faults (resets, stalls, frame corruption,
    /// accept pauses), keyed off connection ids and frame sequence numbers —
    /// deterministic, no wall clock. The empty plan is the identity.
    pub net_fault_plan: NetFaultPlan,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_millis(50),
            idle_timeout: None,
            fault_plan: FaultPlan::default(),
            checkpoint_dir: None,
            warm_boot: true,
            conn_rate: None,
            write_stall: None,
            sink_backlog: 1024,
            net_fault_plan: NetFaultPlan::default(),
        }
    }
}

/// The gateway's own counters (see [`GatewaySnapshot`] for field meanings).
#[derive(Debug, Default)]
struct Counters {
    connections_accepted: AtomicU64,
    connections_active: AtomicU64,
    idle_closed: AtomicU64,
    frames_in: AtomicU64,
    frames_rejected: AtomicU64,
    requests_in: AtomicU64,
    verdicts_out: AtomicU64,
    stats_served: AtomicU64,
    events_served: AtomicU64,
    resizes_served: AtomicU64,
    shed: AtomicU64,
    throttled: AtomicU64,
    slow_closed: AtomicU64,
    net_faults: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl Counters {
    fn add(counter: &AtomicU64, n: u64) {
        if n > 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> GatewaySnapshot {
        GatewaySnapshot {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_rejected: self.frames_rejected.load(Ordering::Relaxed),
            requests_in: self.requests_in.load(Ordering::Relaxed),
            verdicts_out: self.verdicts_out.load(Ordering::Relaxed),
            stats_served: self.stats_served.load(Ordering::Relaxed),
            events_served: self.events_served.load(Ordering::Relaxed),
            resizes_served: self.resizes_served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            throttled: self.throttled.load(Ordering::Relaxed),
            slow_closed: self.slow_closed.load(Ordering::Relaxed),
            net_faults: self.net_faults.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

/// Decrements the active-connection gauge even when the reader panics.
struct ActiveGuard(Arc<Counters>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.connections_active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The JSON body of a `RESIZE_ACK` frame: the performed resize's ledger,
/// or an `error` explaining the refusal (a target of zero, of the serving
/// shard count, or above [`MAX_SHARDS`](darwin_shard::MAX_SHARDS)).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResizeAck {
    /// `Some` when the resize was refused; the remaining fields then
    /// describe the unchanged serving fleet.
    #[serde(default)]
    pub error: Option<String>,
    /// Serving router generation after the ack.
    pub generation: u32,
    /// Serving shard count after the ack.
    pub shards: u32,
    /// Shards whose final cut was shipped into the new generation by this
    /// resize (0 on a refusal).
    pub transferred_shards: u32,
    /// Surviving shards that shipped nothing — their final cut was missing
    /// or failed validation — and booted the new generation cold.
    #[serde(default)]
    pub cold_shards: u32,
    /// Retired generations' ledger rows, oldest first — the
    /// [`GenerationSummary`] audit trail `STATS` also carries.
    pub ledger: Vec<GenerationSummary>,
}

struct Shared<D: AdmissionDriver + Send + 'static> {
    fleet: ElasticFleet<D, GatewayEnvelope>,
    /// The knobs the gateway was bound with (its fault plan went into the
    /// fleet).
    cfg: GatewayConfig,
    counters: Arc<Counters>,
    /// The gateway's own event journal (shed episodes, net faults, evicted
    /// slow clients). Rides the `EVENTS` reply as pseudo-shard
    /// [`GATEWAY_JOURNAL_SHARD`].
    journal: Journal,
    shutdown: AtomicBool,
}

impl<D: AdmissionDriver + Send + 'static> Shared<D> {
    /// Fleet snapshot (every generation merged, ledger rows attached) with
    /// the gateway counters folded in. Reads shard cells and atomics behind
    /// the generation lock's shared side: blocked submitters never delay
    /// it, a resize in progress does.
    fn fleet_metrics(&self) -> FleetMetrics {
        self.fleet.metrics().with_gateway(self.counters.snapshot())
    }

    /// The `STATS` reply: the fleet snapshot as compact JSON without the
    /// shards' journals (`EVENTS` ships those; `events_dropped` stays). A
    /// snapshot still past [`MAX_BODY_LEN`] is answered `{"error": …}`, as
    /// a refused resize is.
    fn stats_reply(&self) -> String {
        let mut metrics = self.fleet_metrics();
        metrics.shards.iter_mut().for_each(|s| s.events.clear());
        let json = serde_json::to_string(&metrics).expect("fleet metrics serialization cannot fail");
        if json.len() <= MAX_BODY_LEN {
            return json;
        }
        format!("{{\"error\": \"stats reply of {} bytes exceeds {MAX_BODY_LEN}\"}}", json.len())
    }

    /// Answers one `RESIZE` frame by *performing* the resize inline on the
    /// connection's reader thread (concurrent resizes serialize on the
    /// generation lock) and acking with the new generation plus the
    /// retired-generation ledger; a target the fleet refuses is acked with
    /// `{"error": …}` and changes nothing. The reply is always a
    /// `RESIZE_ACK`: a refused resize is a protocol answer, not a dropped
    /// connection.
    fn handle_resize(&self, target: u32) -> String {
        let outcome = self.fleet.resize(target as usize);
        let transfers = outcome.as_deref().unwrap_or_default();
        let cold = transfers.iter().filter(|t| t.shipped_bytes == 0).count();
        let ack = ResizeAck {
            transferred_shards: (transfers.len() - cold) as u32,
            cold_shards: cold as u32,
            error: outcome.as_ref().err().map(ToString::to_string),
            generation: self.fleet.generation(),
            shards: self.fleet.shards() as u32,
            ledger: self.fleet.metrics().generations,
        };
        serde_json::to_string(&ack).expect("resize ack serialization cannot fail")
    }
}

/// A running TCP gateway over an [`ElasticFleet`].
///
/// Bind with [`Gateway::bind`], point clients (e.g. the `loadgen` binary or
/// [`crate::loadgen`]) at [`local_addr`](Self::local_addr), then
/// [`finish`](Self::finish) to drain connections, join the shard workers and
/// collect the final [`FleetReport`].
pub struct Gateway<D: AdmissionDriver + Send + 'static> {
    shared: Arc<Shared<D>>,
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    addr: SocketAddr,
}

impl<D: AdmissionDriver + Send + 'static> Gateway<D> {
    /// Binds `addr` (use port 0 for an ephemeral port) and spawns the fleet
    /// plus the acceptor thread with default [`GatewayConfig`] knobs.
    /// `factory(s)` builds shard `s`'s admission driver, exactly as in
    /// [`ShardedFleet::new`](darwin_shard::ShardedFleet::new).
    pub fn bind(
        addr: impl ToSocketAddrs,
        cfg: FleetConfig,
        cache: CacheConfig,
        router: Box<dyn Router>,
        factory: impl FnMut(usize) -> D + Send + 'static,
    ) -> std::io::Result<Self> {
        Self::bind_with(addr, cfg, cache, router, GatewayConfig::default(), factory)
    }

    /// [`bind`](Self::bind) with explicit gateway knobs: connection
    /// deadlines, the checkpoint directory and (for chaos tests) a scripted
    /// fault plan. Every generation routes with `router`; a client `RESIZE`
    /// frame re-shards the fleet live (drain, final cuts, delta-shipped
    /// handoff, warm boot — answered with a `RESIZE_ACK` carrying the
    /// generation ledger), moving as much of the keyspace as that router
    /// moves between the two shard counts.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        cfg: FleetConfig,
        cache: CacheConfig,
        router: Box<dyn Router>,
        mut gateway: GatewayConfig,
        factory: impl FnMut(usize) -> D + Send + 'static,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let fleet = ElasticFleet::new(
            cfg,
            cache,
            router,
            factory,
            std::mem::take(&mut gateway.fault_plan),
            gateway.checkpoint_dir.clone(),
            gateway.warm_boot,
        );
        let shared = Arc::new(Shared {
            fleet,
            cfg: gateway,
            counters: Arc::new(Counters::default()),
            journal: Journal::default(),
            shutdown: AtomicBool::new(false),
        });
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("gw-accept".into())
            .spawn(move || acceptor_loop(listener, acceptor_shared))?;
        Ok(Self { shared, acceptor: Some(acceptor), addr })
    }

    /// The address the gateway is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Non-blocking fleet + gateway metrics snapshot (the same document a
    /// `STATS` frame returns).
    pub fn metrics(&self) -> FleetMetrics {
        self.shared.fleet_metrics()
    }

    /// Requests a graceful shutdown: stop accepting, let connections drain.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }

    /// True once shutdown was requested (by [`shutdown`](Self::shutdown) or
    /// a client's `SHUTDOWN` frame).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Blocks until shutdown is requested.
    pub fn wait_shutdown(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Graceful shutdown: stops accepting, drains and joins every
    /// connection, joins the shard workers, and returns the serving
    /// generation's final report. Gateway-thread panics surface as `Err`;
    /// shard-worker deaths do not — the supervisor has already absorbed
    /// them, and the report's [`metrics`](FleetReport::metrics) say how
    /// bumpy the ride was.
    pub fn finish(self) -> Result<FleetReport<D>, GatewayError> {
        self.finish_with_ledger().map(|(report, _)| report)
    }

    /// [`finish`](Self::finish), also returning the whole-life
    /// [`ElasticReport`] the same drain closes: metrics merged across every
    /// generation with the per-generation ledger, the transfers every
    /// resize shipped, and the submitted total. With a checkpoint directory
    /// configured, every shard cuts a final checkpoint into it first.
    pub fn finish_with_ledger(mut self) -> Result<(FleetReport<D>, ElasticReport), GatewayError> {
        self.shutdown();
        let conns = self
            .acceptor
            .take()
            .expect("finish consumes the gateway")
            .join()
            .map_err(|_| GatewayError::AcceptorPanicked)?;
        let panicked = conns.into_iter().map(|c| c.join()).filter(Result::is_err).count();
        let reports = self.shared.fleet.finish_live(self.shared.cfg.checkpoint_dir.is_some());
        if panicked > 0 {
            return Err(GatewayError::ConnectionPanicked(panicked));
        }
        Ok(reports)
    }
}

fn acceptor_loop<D: AdmissionDriver + Send + 'static>(
    listener: TcpListener,
    shared: Arc<Shared<D>>,
) -> Vec<JoinHandle<()>> {
    let mut conns = Vec::new();
    let mut next_id = 0u64;
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                Counters::add(&shared.counters.connections_accepted, 1);
                shared.counters.connections_active.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(&shared);
                let id = next_id;
                next_id += 1;
                // Scripted listen-queue stall: spin before handing the
                // connection to its worker, so every later frame on every
                // connection observes the same accept ordering.
                if let Some(spins) = shared.cfg.net_fault_plan.accept_pause(id) {
                    Counters::add(&shared.counters.net_faults, 1);
                    shared.journal.record(
                        id,
                        EventKind::NetFault {
                            conn: id,
                            frame: 0,
                            fault: NetFaultKind::AcceptPause { spins }.label(),
                        },
                    );
                    spin(spins);
                }
                let handle = std::thread::Builder::new()
                    .name(format!("gw-conn-{id}"))
                    .spawn(move || connection(id, stream, conn_shared))
                    .expect("spawn gateway connection worker");
                conns.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    conns
}

/// The per-connection fair-share limiter: a token bucket holding up to one
/// second's worth of records, refilled continuously at `rate` records per
/// second. A `GET` frame is admitted whole or shed whole — partial frames
/// would break the one-reply-per-frame protocol invariant.
struct TokenBucket {
    rate: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(rate: u64) -> Self {
        let rate = rate.max(1) as f64;
        Self { rate, tokens: rate, last: Instant::now() }
    }

    fn admit(&mut self, records: u64) -> bool {
        let now = Instant::now();
        self.tokens =
            (self.tokens + now.duration_since(self.last).as_secs_f64() * self.rate).min(self.rate);
        self.last = now;
        if self.tokens >= records as f64 {
            self.tokens -= records as f64;
            true
        } else {
            false
        }
    }
}

/// One connection's reader: decodes frames, submits `GET` records through
/// the fleet, answers `STATS`/`SHUTDOWN` off the metrics handle, and on exit
/// either drains (clean EOF / shutdown: every accepted frame still gets its
/// reply) or aborts (protocol violation / transport error).
fn connection<D: AdmissionDriver + Send + 'static>(id: u64, stream: TcpStream, shared: Arc<Shared<D>>) {
    let counters = Arc::clone(&shared.counters);
    let _active = ActiveGuard(Arc::clone(&counters));
    let _ = stream.set_nodelay(true);
    // The read timeout bounds how long a quiet connection takes to notice a
    // gateway-side shutdown request or its idle deadline (see
    // `GatewayConfig::read_timeout` for the tradeoff).
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let sink = Arc::new(ConnSink::new());
    let sink_guard = SinkGuard(Arc::clone(&sink));
    let writer = {
        let sink = Arc::clone(&sink);
        let writer_shared = Arc::clone(&shared);
        let write_stall = shared.cfg.write_stall;
        std::thread::Builder::new()
            .name("gw-write".into())
            .spawn(move || {
                let counters = &writer_shared.counters;
                let replies = ReplyCounters {
                    bytes_out: &counters.bytes_out,
                    verdicts_out: &counters.verdicts_out,
                };
                if writer_loop(&sink, write_half, write_stall, replies) {
                    Counters::add(&counters.slow_closed, 1);
                    writer_shared.journal.record(id, EventKind::SlowClientClosed { conn: id });
                }
            })
            .expect("spawn gateway connection writer")
    };

    let mut reader = FrameReader::new(stream);
    // This connection's private ingest front. Routing and staging touch no
    // shared state but the generation lock's read side; delivery serializes
    // per shard on the shard's lane. Every frame is flushed before
    // `submit_frame` returns, and the reader exits before `finish` can join
    // this thread — no envelope outlives its connection unanswered.
    let mut producer = shared.fleet.producer();
    let mut seq = 0u64;
    let mut bytes_seen = 0u64;
    let mut last_frame = Instant::now();
    let mut bucket = shared.cfg.conn_rate.map(TokenBucket::new);
    // `ConnThrottled` journals once per connection; the `throttled` counter
    // keeps counting records.
    let mut throttled_logged = false;
    let mut faults = shared.cfg.net_fault_plan.cursor(id);
    let mut frames_decoded = 0u64;
    // True ⇒ drain replies through `seq` before closing; false ⇒ abort now.
    let drain = loop {
        let next = reader.recv();
        let bytes = reader.bytes_read();
        Counters::add(&counters.bytes_in, bytes - bytes_seen);
        bytes_seen = bytes;
        if matches!(next, Ok(Some(_))) {
            last_frame = Instant::now();
            // Scripted transport faults fire between decoding a frame and
            // handling it, keyed off this connection's frame count — a
            // wall-clock-free stand-in for a hostile network.
            let frame = frames_decoded;
            frames_decoded += 1;
            let mut severed = false;
            while let Some(kind) = faults.take(frame) {
                Counters::add(&counters.net_faults, 1);
                shared
                    .journal
                    .record(frame, EventKind::NetFault { conn: id, frame, fault: kind.label() });
                match kind {
                    NetFaultKind::Stall { spins } => spin(spins),
                    NetFaultKind::Corrupt => {
                        // Damaged in flight: reject the frame and close, as
                        // the codec does for genuinely malformed bytes.
                        Counters::add(&counters.frames_rejected, 1);
                        severed = true;
                    }
                    NetFaultKind::Reset => severed = true,
                    NetFaultKind::AcceptPause { .. } => {}
                }
                if severed {
                    break;
                }
            }
            if severed {
                break false;
            }
        }
        match next {
            Ok(Some(Message::Get(records))) => {
                Counters::add(&counters.frames_in, 1);
                // Overload control, cheapest check first: a client that
                // pipelines past its reply backlog or its fair-share rate is
                // answered `Busy` for the whole frame without touching the
                // fleet. The reply still occupies the frame's sequence slot,
                // so pipelining clients keep their reply-order guarantee.
                let backlogged = sink.backlog(seq) >= shared.cfg.sink_backlog.max(1);
                let throttled =
                    !backlogged && !bucket.as_mut().is_none_or(|b| b.admit(records.len() as u64));
                if throttled {
                    Counters::add(&counters.throttled, records.len() as u64);
                    if !throttled_logged {
                        throttled_logged = true;
                        shared.journal.record(seq, EventKind::ConnThrottled { conn: id });
                    }
                }
                if backlogged || throttled {
                    Counters::add(&counters.shed, records.len() as u64);
                    let busy = WireVerdict::busy(1).to_byte();
                    sink.push(seq, Reply::Verdicts(vec![busy; records.len()]));
                    seq += 1;
                    continue;
                }
                Counters::add(&counters.requests_in, records.len() as u64);
                let batch = PendingBatch::new(seq, Arc::clone(&sink), records.len());
                seq += 1;
                // Route the whole frame into per-shard runs and deliver each
                // run with one queue operation. The client is waiting on this
                // frame's verdicts, so `submit_frame` flushes immediately
                // instead of pooling toward the batch threshold.
                let envelopes = records
                    .into_iter()
                    .enumerate()
                    .map(|(index, req)| GatewayEnvelope::new(req, Arc::clone(&batch), index));
                producer.submit_frame(envelopes);
            }
            Ok(Some(Message::Stats)) => {
                Counters::add(&counters.frames_in, 1);
                Counters::add(&counters.stats_served, 1);
                sink.push(seq, Reply::Stats(shared.stats_reply()));
                seq += 1;
            }
            Ok(Some(Message::Events)) => {
                Counters::add(&counters.frames_in, 1);
                Counters::add(&counters.events_served, 1);
                // Journal rings are drained off the serving generation's
                // shard cells (a retired generation's rings retire with it)
                // — like STATS, this answers even under full backpressure.
                // The gateway's own journal rides along as the final
                // pseudo-shard entry. Journals too large for one frame keep
                // their newest events.
                let mut journals = shared.fleet.metrics_handle().journals();
                journals.push((GATEWAY_JOURNAL_SHARD, shared.journal.snapshot()));
                let frame = darwin_obs::encode_fleet_events_within(&mut journals, MAX_BODY_LEN);
                sink.push(seq, Reply::Events(frame));
                seq += 1;
            }
            Ok(Some(Message::Resize(target))) => {
                Counters::add(&counters.frames_in, 1);
                Counters::add(&counters.resizes_served, 1);
                // Performed inline on this reader: the connection's later
                // frames observe the post-resize fleet, and concurrent
                // resizes serialize on the generation lock. Other
                // connections' in-flight `GET` frames block on that lock's
                // read side, so no frame splits across the cutover.
                sink.push(seq, Reply::ResizeAck(shared.handle_resize(target)));
                seq += 1;
            }
            Ok(Some(Message::Shutdown)) => {
                Counters::add(&counters.frames_in, 1);
                // Flag first: the writer may deliver the ack the instant it is
                // pushed, and a client that has the ack in hand must observe
                // `shutdown_requested() == true`.
                shared.shutdown.store(true, Ordering::Release);
                sink.push(seq, Reply::ShutdownAck);
                seq += 1;
                break true;
            }
            Ok(Some(
                Message::Verdicts(_)
                | Message::StatsReply(_)
                | Message::ShutdownAck
                | Message::EventsReply(_)
                | Message::ResizeAck(_),
            )) => {
                // Server-to-client opcodes are illegal from a client.
                Counters::add(&counters.frames_rejected, 1);
                break false;
            }
            Ok(None) => break true,
            Err(e) if e.is_timeout() => {
                if shared.shutdown.load(Ordering::Acquire) {
                    break true;
                }
                if shared.cfg.idle_timeout.is_some_and(|idle| last_frame.elapsed() >= idle) {
                    Counters::add(&counters.idle_closed, 1);
                    break true;
                }
            }
            Err(RecvError::Wire(_)) => {
                Counters::add(&counters.frames_rejected, 1);
                break false;
            }
            Err(RecvError::Io(_)) => break false,
        }
    };
    if drain {
        sink.finish_at(seq);
    } else {
        sink.abort();
    }
    if writer.join().is_err() {
        // Keep the guard alive through the unwinding panic below; its abort
        // is a no-op since the writer is already gone.
        panic!("gateway connection writer panicked");
    }
    drop(sink_guard);
}
