//! The live run: boot the fleet (behind a loopback gateway, or bare lanes)
//! in this process, replay the warm-up untimed, then replay the timed
//! requests from one client thread and measure from outside.
//!
//! The client is closed-loop: it sends while fewer than `window` frames are
//! in flight and otherwise blocks for a reply, so a slower system receives
//! less load. One thread, one connection.

use crate::alloc::{self, HeapMark};
use crate::procfs::{self, ProcMark};
use crate::spans::{name_id, Spans};
use crate::workload::{self, Path, Placement, Sizes, Spec, Trained, WARMUP_FRAME, WARMUP_WINDOW};
use darwin_cache::RequestOutcome;
use darwin_gateway::wire::{self, Message, VerdictOutcome};
use darwin_gateway::{Gateway, GatewayConfig};
use darwin_shard::{
    Envelope, FleetMetrics, FleetProducer, FleetReport, GatewaySnapshot, HashRouter, ShardedFleet,
    Verdict,
};
use darwin_testbed::{DarwinDriver, StaticDriver};
use darwin_trace::{Request, Trace};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Verdicts the client saw, by outcome. `other` is everything that is not a
/// served request: `Dropped`, `Unavailable`, `Busy`, or an envelope released
/// unanswered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub hoc: u64,
    pub dc: u64,
    pub origin: u64,
    pub other: u64,
}

impl Tally {
    pub fn answered(&self) -> u64 {
        self.hoc + self.dc + self.origin + self.other
    }
}

/// Client-side span recording for the traced run.
pub struct ClientSpans {
    pub spans: Spans,
    frame: u8,
    encode: u8,
    send: u8,
    wait: u8,
    decode: u8,
}

impl ClientSpans {
    pub fn new() -> Self {
        Self {
            spans: Spans::new(),
            frame: name_id("frame"),
            encode: name_id("client.encode"),
            send: name_id("client.send"),
            wait: name_id("client.wait"),
            decode: name_id("client.decode"),
        }
    }
}

/// One answered frame.
struct Reply {
    seq: usize,
    rtt_ns: u64,
}

/// How frames reach the fleet and replies come back.
trait Transport {
    /// Sends frame `seq`. Must not block on a reply.
    fn send(&mut self, seq: usize, frame: &[Request], rec: Option<&mut ClientSpans>) -> io::Result<()>;
    /// Blocks until one more in-flight frame is fully answered.
    fn recv(&mut self, rec: Option<&mut ClientSpans>) -> io::Result<Reply>;
    fn tally(&self) -> Tally;
    /// Socket reads and writes issued so far (zero without a socket).
    fn syscalls(&self) -> u64;
}

/// Loopback TCP client speaking the gateway's wire protocol.
struct SocketClient {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    consumed: usize,
    /// (write-of-frame instant, sequence, records) of frames in flight.
    in_flight: VecDeque<(Instant, usize, usize)>,
    tally: Tally,
    syscalls: u64,
}

impl SocketClient {
    fn connect(addr: std::net::SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A reply that never comes is a failed run, not a hung one.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            stream,
            out: Vec::with_capacity(wire::HEADER_LEN + 64 * wire::GET_RECORD_LEN),
            inbuf: Vec::with_capacity(64 * 1024),
            consumed: 0,
            in_flight: VecDeque::with_capacity(WARMUP_WINDOW),
            tally: Tally::default(),
            syscalls: 0,
        })
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Transport for SocketClient {
    fn send(&mut self, seq: usize, frame: &[Request], rec: Option<&mut ClientSpans>) -> io::Result<()> {
        let encode_at = rec.is_some().then(Instant::now);
        self.out.clear();
        wire::encode_get(frame, &mut self.out);
        let write_at = Instant::now();
        self.stream.write_all(&self.out)?;
        self.syscalls += 1;
        self.in_flight.push_back((write_at, seq, frame.len()));
        if let (Some(rec), Some(encode_at)) = (rec, encode_at) {
            let id = seq as u32;
            rec.spans.record(rec.encode, id, encode_at, write_at);
            rec.spans.record(rec.send, id, write_at, Instant::now());
        }
        Ok(())
    }

    fn recv(&mut self, mut rec: Option<&mut ClientSpans>) -> io::Result<Reply> {
        let (sent_at, seq, records) = *self.in_flight.front().expect("recv with nothing in flight");
        let mut waited: Option<(Instant, u64)> = None;
        loop {
            let decode_at = rec.is_some().then(Instant::now);
            let decoded =
                wire::decode(&self.inbuf[self.consumed..]).map_err(|e| invalid(e.to_string()))?;
            if let Some((msg, used)) = decoded {
                let done_at = Instant::now();
                self.consumed += used;
                if self.consumed == self.inbuf.len() {
                    self.inbuf.clear();
                    self.consumed = 0;
                } else if self.consumed > 64 * 1024 {
                    self.inbuf.drain(..self.consumed);
                    self.consumed = 0;
                }
                let Message::Verdicts(verdicts) = msg else {
                    return Err(invalid(format!("expected VERDICTS, got {msg:?}")));
                };
                if verdicts.len() != records {
                    return Err(invalid(format!(
                        "frame of {records} records answered with {} verdicts",
                        verdicts.len()
                    )));
                }
                for v in &verdicts {
                    match v.outcome {
                        VerdictOutcome::HocHit => self.tally.hoc += 1,
                        VerdictOutcome::DcHit => self.tally.dc += 1,
                        VerdictOutcome::OriginFetch => self.tally.origin += 1,
                        _ => self.tally.other += 1,
                    }
                }
                self.in_flight.pop_front();
                if let (Some(rec), Some(decode_at)) = (rec.as_deref_mut(), decode_at) {
                    let id = seq as u32;
                    if let Some((wait_at, wait_ns)) = waited {
                        rec.spans.record_ns(rec.wait, id, wait_at, wait_ns);
                    }
                    rec.spans.record(rec.decode, id, decode_at, done_at);
                    rec.spans.record(rec.frame, id, sent_at, done_at);
                }
                return Ok(Reply { seq, rtt_ns: done_at.duration_since(sent_at).as_nanos() as u64 });
            }
            let read_at = rec.is_some().then(Instant::now);
            let mut chunk = [0u8; 16 * 1024];
            let n = match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            self.inbuf.extend_from_slice(&chunk[..n]);
            self.syscalls += 1;
            if let Some(read_at) = read_at {
                let ns = read_at.elapsed().as_nanos() as u64;
                let w = waited.get_or_insert((read_at, 0));
                w.1 += ns;
            }
        }
    }

    fn tally(&self) -> Tally {
        self.tally
    }

    fn syscalls(&self) -> u64 {
        self.syscalls
    }
}

/// What one frame's envelopes share: the completion count-down and the
/// verdict counts, reported to the producer thread when the last envelope
/// of the frame is released.
struct FrameState {
    seq: usize,
    sent_at: Instant,
    remaining: AtomicU32,
    hoc: AtomicU32,
    dc: AtomicU32,
    origin: AtomicU32,
    other: AtomicU32,
    done: mpsc::Sender<(Reply, Tally)>,
}

/// The bench's own envelope: answers are counted, not sent anywhere.
struct BenchEnvelope {
    req: Request,
    frame: Arc<FrameState>,
    answered: bool,
}

impl Envelope for BenchEnvelope {
    fn request(&self) -> &Request {
        &self.req
    }

    fn complete(mut self, verdict: Verdict) {
        self.answered = true;
        let counter = match verdict.outcome {
            RequestOutcome::HocHit => &self.frame.hoc,
            RequestOutcome::DcHit => &self.frame.dc,
            RequestOutcome::OriginFetch => &self.frame.origin,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for BenchEnvelope {
    fn drop(&mut self) {
        let f = &self.frame;
        if !self.answered {
            // Unavailable, shed, or stranded by a worker death.
            f.other.fetch_add(1, Ordering::Relaxed);
        }
        // AcqRel: the thread that takes the count to zero must see every
        // other thread's verdict counts.
        if f.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let tally = Tally {
                hoc: f.hoc.load(Ordering::Relaxed) as u64,
                dc: f.dc.load(Ordering::Relaxed) as u64,
                origin: f.origin.load(Ordering::Relaxed) as u64,
                other: f.other.load(Ordering::Relaxed) as u64,
            };
            let rtt_ns = f.sent_at.elapsed().as_nanos() as u64;
            // The receiver only goes away when the run already failed.
            let _ = f.done.send((Reply { seq: f.seq, rtt_ns }, tally));
        }
    }
}

/// `FleetProducer::submit_frame` straight into the shard lanes.
struct LanesClient {
    producer: FleetProducer<DarwinDriver, BenchEnvelope>,
    done_tx: mpsc::Sender<(Reply, Tally)>,
    done_rx: mpsc::Receiver<(Reply, Tally)>,
    tally: Tally,
}

impl Transport for LanesClient {
    fn send(&mut self, seq: usize, frame: &[Request], rec: Option<&mut ClientSpans>) -> io::Result<()> {
        let sent_at = Instant::now();
        let state = Arc::new(FrameState {
            seq,
            sent_at,
            remaining: AtomicU32::new(frame.len() as u32),
            hoc: AtomicU32::new(0),
            dc: AtomicU32::new(0),
            origin: AtomicU32::new(0),
            other: AtomicU32::new(0),
            done: self.done_tx.clone(),
        });
        self.producer.submit_frame(frame.iter().map(|&req| BenchEnvelope {
            req,
            frame: Arc::clone(&state),
            answered: false,
        }));
        if let Some(rec) = rec {
            rec.spans.record(rec.send, seq as u32, sent_at, Instant::now());
        }
        Ok(())
    }

    fn recv(&mut self, rec: Option<&mut ClientSpans>) -> io::Result<Reply> {
        let wait_at = Instant::now();
        let (reply, tally) = self
            .done_rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|e| io::Error::new(io::ErrorKind::TimedOut, e.to_string()))?;
        self.tally.hoc += tally.hoc;
        self.tally.dc += tally.dc;
        self.tally.origin += tally.origin;
        self.tally.other += tally.other;
        if let Some(rec) = rec {
            let now = Instant::now();
            let id = reply.seq as u32;
            rec.spans.record(rec.wait, id, wait_at, now);
            // The frame ended on the worker thread, `rtt_ns` after it was sent.
            rec.spans.record_ns(rec.frame, id, now - Duration::from_nanos(reply.rtt_ns), reply.rtt_ns);
        }
        Ok(reply)
    }

    fn tally(&self) -> Tally {
        self.tally
    }

    fn syscalls(&self) -> u64 {
        0
    }
}

/// Per-frame timings of the timed phase, in pre-sized vectors.
pub struct FrameTimes {
    /// Round-trip of frame `i`, nanoseconds.
    pub rtt_ns: Vec<u64>,
    /// When frame `i`'s reply was complete, nanoseconds after the first
    /// timed send.
    pub done_ns: Vec<u64>,
}

/// Closed-loop replay of `reqs` in frames of `frame` records with at most
/// `window` frames in flight. Returns the wall time from first send to last
/// reply.
fn replay(
    t: &mut dyn Transport,
    reqs: &[Request],
    frame: usize,
    window: usize,
    mut times: Option<&mut FrameTimes>,
    mut rec: Option<&mut ClientSpans>,
) -> io::Result<(Instant, Duration)> {
    let frames: Vec<&[Request]> = reqs.chunks(frame).collect();
    let (mut sent, mut done) = (0usize, 0usize);
    let started = Instant::now();
    while done < frames.len() {
        if sent < frames.len() && sent - done < window {
            t.send(sent, frames[sent], rec.as_deref_mut())?;
            sent += 1;
            continue;
        }
        let reply = t.recv(rec.as_deref_mut())?;
        done += 1;
        if let Some(times) = times.as_deref_mut() {
            times.rtt_ns[reply.seq] = reply.rtt_ns;
            times.done_ns[reply.seq] = started.elapsed().as_nanos() as u64;
        }
    }
    Ok((started, started.elapsed()))
}

/// Blocks until the fleet has published `requests` processed requests (the
/// worker publishes a request's metrics just after completing it).
fn quiesce(snapshot: &dyn Fn() -> FleetMetrics, requests: u64) -> io::Result<FleetMetrics> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = snapshot();
        if snap.fleet_cache().requests >= requests && snap.total_processed() >= requests {
            return Ok(snap);
        }
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "fleet never published the last request",
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// What the per-shard controllers did (`lanes-darwin` only; zeros otherwise).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    pub switches: u64,
    pub epochs: u64,
    pub drift_restarts: u64,
}

impl ControllerStats {
    /// Sums over the drivers a fleet (or the shadow replay) hands back.
    pub fn of<'a>(drivers: impl IntoIterator<Item = &'a DarwinDriver>) -> Self {
        let mut sum = Self::default();
        for c in drivers.into_iter().map(DarwinDriver::controller) {
            sum.switches += c.switches().len() as u64;
            sum.epochs += c.epochs().len() as u64;
            sum.drift_restarts += c.drift_restarts() as u64;
        }
        sum
    }
}

/// What the timed phase measured, before teardown.
pub struct Timed {
    /// Shard workers pinned to a core of their own (`Placement::ShardPerCore`).
    pub shards_pinned: usize,
    /// Process start → first timed request.
    pub setup: Duration,
    /// First timed send → last timed reply.
    pub wall: Duration,
    pub times: FrameTimes,
    /// Client-side verdicts over warm-up and timed phase together.
    pub tally: Tally,
    pub transport_error: Option<String>,
    /// Peak live heap in the timed phase above the live heap at its start.
    pub heap_peak_bytes: usize,
    pub heap_before: HeapMark,
    pub heap_after: HeapMark,
    pub proc: ProcMark,
    /// Socket reads and writes the client issued in the timed phase.
    pub client_syscalls: u64,
    /// Fleet snapshots at the start and end of the timed phase.
    pub before: FleetMetrics,
    pub after: FleetMetrics,
    pub spans: Option<ClientSpans>,
}

/// Everything the live run measured: the timed phase, then the final state
/// after the fleet was joined.
pub struct Live {
    pub timed: Timed,
    pub timed_requests: u64,
    pub submitted: u64,
    pub report_cache: darwin_cache::CacheMetrics,
    pub processed: u64,
    pub dropped: u64,
    pub unavailable: u64,
    pub shed: u64,
    pub queue_high_water: usize,
    pub gateway: Option<GatewaySnapshot>,
    pub controllers: ControllerStats,
}

/// Warm-up, quiesce, marks, timed replay, quiesce.
fn measure(
    process_start: Instant,
    spec: &Spec,
    sizes: Sizes,
    trace: &Trace,
    t: &mut dyn Transport,
    snapshot: &dyn Fn() -> FleetMetrics,
    traced: bool,
) -> io::Result<Timed> {
    let (warm, timed) = trace.requests().split_at(sizes.warmup);
    let frames = timed.len().div_ceil(spec.frame);
    // Everything the timed phase writes into exists before it starts.
    let mut times = FrameTimes { rtt_ns: vec![0; frames], done_ns: vec![0; frames] };
    let mut spans = traced.then(ClientSpans::new);
    // The fleet is up, so its workers exist and can be placed.
    let shards_pinned = match spec.placement {
        Placement::ShardPerCore => procfs::pin_shard_workers(workload::SHARDS),
        Placement::OneCore => 0,
    };

    replay(t, warm, WARMUP_FRAME, WARMUP_WINDOW, None, None)?;
    let before = quiesce(snapshot, warm.len() as u64)?;
    let proc_before = ProcMark::now();
    let heap_before = alloc::mark();
    let syscalls_before = t.syscalls();

    let run = replay(t, timed, spec.frame, spec.window, Some(&mut times), spans.as_mut());
    let heap_peak = alloc::peak_since_mark();
    let heap_after = alloc::read();
    let proc = ProcMark::now().since(&proc_before);
    let (started, wall, error) = match run {
        Ok((started, wall)) => (started, wall, None),
        Err(e) => (Instant::now(), Duration::from_nanos(1), Some(e.to_string())),
    };
    let after = match &error {
        None => quiesce(snapshot, trace.len() as u64)?,
        Some(_) => snapshot(),
    };
    Ok(Timed {
        shards_pinned,
        setup: started.duration_since(process_start),
        wall,
        times,
        tally: t.tally(),
        transport_error: error,
        heap_peak_bytes: heap_peak.saturating_sub(heap_before.live),
        heap_before,
        heap_after,
        proc,
        client_syscalls: t.syscalls() - syscalls_before,
        before,
        after,
        spans,
    })
}

fn finish<D>(
    timed: Timed,
    sizes: Sizes,
    report: &FleetReport<D>,
    gateway: Option<GatewaySnapshot>,
) -> Live {
    Live {
        timed,
        timed_requests: sizes.timed as u64,
        submitted: (sizes.warmup + sizes.timed) as u64,
        report_cache: report.fleet_cache(),
        processed: report.total_processed(),
        dropped: report.total_dropped(),
        unavailable: report.total_unavailable(),
        shed: report.total_shed(),
        queue_high_water: report.shards.iter().map(|s| s.queue_high_water).max().unwrap_or(0),
        gateway,
        controllers: ControllerStats::default(),
    }
}

/// Runs `spec` live. `spill` is the run's private directory for checkpoint
/// spill files (used by `socket-durable` only).
pub fn run(
    process_start: Instant,
    spec: &Spec,
    sizes: Sizes,
    trace: &Trace,
    trained: Option<&Trained>,
    spill: PathBuf,
    traced: bool,
) -> io::Result<Live> {
    let fleet_cfg = spec.fleet_config(sizes.scale);
    match spec.path {
        Path::Socket => {
            let gateway = Gateway::bind_with(
                "127.0.0.1:0",
                fleet_cfg,
                workload::shard_cache(),
                Box::new(HashRouter),
                GatewayConfig {
                    checkpoint_dir: spec.checkpoint_every.map(|_| spill),
                    warm_boot: false,
                    ..GatewayConfig::default()
                },
                |_| StaticDriver::new(workload::static_policy()),
            )?;
            let mut client = SocketClient::connect(gateway.local_addr())?;
            let phase =
                measure(process_start, spec, sizes, trace, &mut client, &|| gateway.metrics(), traced);
            // Closing the connection lets its reader drain and its writer
            // post the byte counters.
            drop(client);
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut counters = gateway.metrics().gateway;
            while counters.is_some_and(|g| g.connections_active > 0) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
                counters = gateway.metrics().gateway;
            }
            let report = gateway.finish().map_err(|e| io::Error::other(e.to_string()))?;
            Ok(finish(phase?, sizes, &report, counters))
        }
        Path::Lanes => {
            let trained = trained.expect("lanes-darwin needs a trained model");
            let online = workload::online_config(sizes.scale);
            let model = Arc::clone(&trained.model);
            let fleet: ShardedFleet<DarwinDriver, BenchEnvelope> =
                ShardedFleet::new(fleet_cfg, workload::shard_cache(), Box::new(HashRouter), move |_| {
                    DarwinDriver::new(Arc::clone(&model), online)
                });
            let handle = fleet.metrics_handle();
            let (done_tx, done_rx) = mpsc::channel();
            let mut client = LanesClient {
                producer: fleet.ingest().producer(),
                done_tx,
                done_rx,
                tally: Tally::default(),
            };
            let phase =
                measure(process_start, spec, sizes, trace, &mut client, &|| handle.snapshot(), traced);
            drop(client);
            let report = fleet.finish();
            let mut live = finish(phase?, sizes, &report, None);
            live.controllers =
                ControllerStats::of(report.shards.iter().filter_map(|s| s.driver.as_ref()));
            Ok(live)
        }
    }
}
