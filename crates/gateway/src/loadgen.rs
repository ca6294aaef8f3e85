//! Load-generator client: replays a trace over N concurrent connections.
//!
//! The trace is split into contiguous per-connection chunks; each connection
//! streams its chunk as pipelined `GET` frames, keeping up to `window` frames
//! in flight, and records one round-trip latency sample per frame. A single
//! connection therefore preserves trace order exactly — the configuration the
//! end-to-end equivalence tests use — while multiple connections trade
//! ordering for throughput, as a real CDN front-end would.
//!
//! ## Resilience
//!
//! A broken transport (refused connect, read timeout, reset, early EOF) does
//! not abort the replay: the connection reconnects with exponential backoff
//! plus seeded jitter and resubmits every frame whose reply it has not yet
//! tallied. Replies arrive strictly in frame order on a connection, so "the
//! answered prefix" is exactly the frames that are done — resubmission never
//! double-counts a verdict. Each failure is classified into [`ErrorStats`].
//!
//! ## Overload
//!
//! A record answered `Busy` (wire v4) was shed by an overloaded gateway and
//! is the client's to resubmit: it joins a retry queue, counted in
//! [`ErrorStats::shed`], and is resent — after a full-jitter backoff scaled
//! by the largest `retry_after` hint received — once every outstanding reply
//! is in. Retries repeat until the record earns a final verdict, so
//! [`VerdictTally::total`] still equals the trace length: shedding defers
//! work, it never loses it.

use crate::wire::{encode_get, FrameReader, Message, RecvError, VerdictOutcome, WireVerdict};
use darwin_obs::{decode_fleet_events, Histogram, HistogramSnapshot, JournalSnapshot};
use darwin_shard::mix64;
use darwin_trace::{Request, Trace};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// How a [`run`] replays its trace.
#[derive(Debug, Clone, Copy)]
pub struct LoadgenConfig {
    /// Concurrent connections; the trace is split contiguously across them.
    pub connections: usize,
    /// Requests per `GET` frame.
    pub batch: usize,
    /// Frames each connection keeps in flight before reading a reply.
    pub window: usize,
    /// Consecutive transport failures a connection tolerates (reconnecting
    /// after each) before the run gives up. Progress — any answered frame —
    /// resets the count.
    pub retries: u32,
    /// Backoff before the first reconnect attempt; doubles per consecutive
    /// failure.
    pub backoff: Duration,
    /// Ceiling on the (pre-jitter) backoff delay.
    pub backoff_cap: Duration,
    /// Socket read timeout while awaiting replies (`None` = block forever).
    /// A timed-out read counts as a transport failure and triggers a
    /// reconnect-and-resubmit.
    pub read_timeout: Option<Duration>,
    /// Seed for the backoff jitter (per-connection streams are derived from
    /// it, so a fixed seed gives a reproducible retry schedule).
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            connections: 1,
            batch: 64,
            window: 8,
            retries: 3,
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            read_timeout: None,
            seed: 0x5EED,
        }
    }
}

/// Typed transport-error counters accumulated over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorStats {
    /// `connect()` attempts that failed.
    pub connect_failures: u64,
    /// Reads that hit the configured `read_timeout`.
    pub timeouts: u64,
    /// Connections reset, aborted, broken-piped, or closed before every
    /// in-flight frame was answered.
    pub resets: u64,
    /// Any other I/O failure.
    pub other_io: u64,
    /// Successful re-connections after a transport failure.
    pub reconnects: u64,
    /// Requests resubmitted because their frame was sent but unanswered
    /// when the transport failed.
    pub resubmitted: u64,
    /// Records answered `Busy` by an overloaded gateway and queued for a
    /// backed-off resend. Flow control, not a transport failure: disjoint
    /// from `resets`/`timeouts`, excluded from
    /// [`total_failures`](ErrorStats::total_failures), and every shed
    /// record is retried until it earns a final verdict.
    pub shed: u64,
}

impl ErrorStats {
    fn merge(&mut self, other: ErrorStats) {
        self.connect_failures += other.connect_failures;
        self.timeouts += other.timeouts;
        self.resets += other.resets;
        self.other_io += other.other_io;
        self.reconnects += other.reconnects;
        self.resubmitted += other.resubmitted;
        self.shed += other.shed;
    }

    /// Total transport failures (reconnects and resubmissions are recovery
    /// actions, not failures, and are excluded).
    pub fn total_failures(&self) -> u64 {
        self.connect_failures + self.timeouts + self.resets + self.other_io
    }

    fn classify(&mut self, e: &io::Error) {
        match e.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => self.timeouts += 1,
            io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof => self.resets += 1,
            _ => self.other_io += 1,
        }
    }
}

/// Counts of the verdicts a run received.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictTally {
    /// Requests served from the Hot Object Cache.
    pub hoc_hits: u64,
    /// Requests served from the Disk Cache.
    pub dc_hits: u64,
    /// Requests that went to the origin.
    pub origin_fetches: u64,
    /// Requests shed before processing.
    pub dropped: u64,
    /// Requests answered `Unavailable` by a degraded gateway (their shard
    /// was permanently dead).
    pub unavailable: u64,
    /// Requests whose object was admitted into the HOC.
    pub admitted: u64,
}

impl VerdictTally {
    fn absorb(&mut self, v: WireVerdict) {
        match v.outcome {
            VerdictOutcome::HocHit => self.hoc_hits += 1,
            VerdictOutcome::DcHit => self.dc_hits += 1,
            VerdictOutcome::OriginFetch => self.origin_fetches += 1,
            VerdictOutcome::Dropped => self.dropped += 1,
            VerdictOutcome::Unavailable => self.unavailable += 1,
            // `Busy` is not a final verdict: callers route it to the retry
            // queue (ErrorStats::shed) instead of tallying it.
            VerdictOutcome::Busy => debug_assert!(false, "Busy must be retried, not tallied"),
        }
        if v.admitted {
            self.admitted += 1;
        }
    }

    fn merge(&mut self, other: VerdictTally) {
        self.hoc_hits += other.hoc_hits;
        self.dc_hits += other.dc_hits;
        self.origin_fetches += other.origin_fetches;
        self.dropped += other.dropped;
        self.unavailable += other.unavailable;
        self.admitted += other.admitted;
    }

    /// Total verdicts received.
    pub fn total(&self) -> u64 {
        self.hoc_hits + self.dc_hits + self.origin_fetches + self.dropped + self.unavailable
    }
}

/// One connection's share of a replay — the unit the fairness audits work
/// in: under per-connection rate limiting, no well-behaved connection's
/// served total should fall far below its fair share.
#[derive(Debug, Clone, Copy)]
pub struct ConnReport {
    /// Requests assigned to this connection (its contiguous trace chunk).
    pub requests: u64,
    /// Final verdicts this connection received (retried `Busy` excluded).
    pub tally: VerdictTally,
    /// Transport/overload counters for this connection alone.
    pub errors: ErrorStats,
}

/// What a [`run`] measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests sent (= trace length).
    pub requests: u64,
    /// Wall-clock of the whole replay.
    pub elapsed: Duration,
    /// Per-outcome verdict counts, summed over connections.
    pub tally: VerdictTally,
    /// Transport-error counters, summed over connections.
    pub errors: ErrorStats,
    /// Per-frame round-trip latencies as a merged log-bucketed histogram
    /// (one sample per answered frame; see [`darwin_obs`] for the bucket
    /// scheme and its ≈3.1% relative error bound).
    pub latency: HistogramSnapshot,
    /// Per-connection breakdown, in connection order.
    pub per_connection: Vec<ConnReport>,
}

impl LoadgenReport {
    /// Requests per second over the whole replay.
    pub fn rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.requests as f64 / secs
        } else {
            0.0
        }
    }

    /// The `p`-th percentile frame round-trip — nearest-rank over the
    /// histogram buckets ([`HistogramSnapshot::quantile`]), so the reported
    /// value is the bucket lower bound: never above the true sample,
    /// below it by at most the ≈3.1% bucket width. Zero when no frames
    /// were measured.
    ///
    /// # Panics
    ///
    /// If `p` is not a number in `[0, 100]`.
    pub fn latency_percentile(&self, p: f64) -> Duration {
        Duration::from_nanos(self.latency.quantile(p))
    }
}

fn contiguous_chunks(trace: &[Request], parts: usize) -> Vec<&[Request]> {
    let n = trace.len();
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut at = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(&trace[at..at + len]);
        at += len;
    }
    out
}

/// Exponential backoff with full jitter: uniform in
/// `(0, min(cap, backoff · 2^failures)]`, so concurrent reconnecting
/// connections spread out instead of stampeding.
fn backoff_delay(cfg: &LoadgenConfig, consecutive_failures: u32, rng: &mut u64) -> Duration {
    let ceiling = cfg
        .backoff
        .saturating_mul(1u32 << consecutive_failures.saturating_sub(1).min(20))
        .min(cfg.backoff_cap)
        .as_nanos() as u64;
    if ceiling == 0 {
        return Duration::ZERO;
    }
    // One SplitMix64 step over the router's mix.
    let draw = mix64(*rng);
    *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
    Duration::from_nanos(draw % ceiling + 1)
}

/// What one connection accumulated.
struct ChunkOutcome {
    tally: VerdictTally,
    errors: ErrorStats,
    latency: Histogram,
}

/// What a sent frame carried — an original trace frame (by index) or a
/// resend of previously shed records (owned, since shed records from
/// different frames get re-chunked together).
enum Sent {
    Original(usize),
    Retry(Vec<Request>),
}

/// One connection's replay: pipelined writes with a bounded in-flight
/// window, reconnecting (and resubmitting the unanswered suffix) on
/// transport failure.
///
/// Replies on a connection arrive strictly in frame order, so frames split
/// into an *answered prefix* (tallied, never resent) and an unanswered
/// suffix; after a reconnect the replay resumes at the first unanswered
/// frame. Records answered `Busy` join a retry queue and are resent after a
/// backoff scaled by the gateway's `retry_after` hint, once every
/// outstanding reply is in — shed work is deferred, never lost. Protocol
/// violations (a malformed or unexpected reply) are not transport failures
/// and abort the run — retrying a server that talks garbage only makes more
/// garbage.
fn replay_chunk(
    addr: &SocketAddr,
    chunk: &[Request],
    cfg: &LoadgenConfig,
    conn_index: usize,
) -> io::Result<ChunkOutcome> {
    let batch = cfg.batch.max(1);
    let frames: Vec<&[Request]> = chunk.chunks(batch).collect();
    let mut answered = 0usize; // original frames fully answered (prefix length)
    let mut sent_high = 0usize; // highest original frame index ever sent + 1
    let mut out = ChunkOutcome {
        tally: VerdictTally::default(),
        errors: ErrorStats::default(),
        latency: Histogram::new(),
    };
    let mut rng = cfg.seed ^ (conn_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut failures = 0u32; // consecutive, reset on progress
    let mut buf = Vec::with_capacity(batch * crate::wire::GET_RECORD_LEN + crate::wire::HEADER_LEN);
    let mut first_session = true;
    // Shed (`Busy`) records awaiting their backed-off resend, the largest
    // retry hint seen since the last resend, and resend frames ready to go.
    let mut retry: Vec<Request> = Vec::new();
    let mut retry_hint = 0u32;
    let mut resend: VecDeque<Vec<Request>> = VecDeque::new();
    let mut inflight: VecDeque<(Instant, Sent)> = VecDeque::with_capacity(cfg.window);

    'session: while answered < frames.len() || !retry.is_empty() || !resend.is_empty() {
        if !first_session {
            std::thread::sleep(backoff_delay(cfg, failures, &mut rng));
        }
        let mut stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => {
                out.errors.connect_failures += 1;
                failures += 1;
                if failures > cfg.retries {
                    return Err(e);
                }
                first_session = false;
                continue 'session;
            }
        };
        if !first_session {
            out.errors.reconnects += 1;
            // Everything sent but unanswered on the dead connection goes
            // again on this one: unanswered original frames are re-derived
            // from the answered prefix, in-flight resend frames give their
            // records back to the retry queue.
            let mut resubmit: usize = frames[answered..sent_high].iter().map(|f| f.len()).sum();
            for (_, what) in inflight.drain(..) {
                if let Sent::Retry(reqs) = what {
                    resubmit += reqs.len();
                    retry.extend(reqs);
                }
            }
            out.errors.resubmitted += resubmit as u64;
        }
        inflight.clear();
        first_session = false;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(cfg.read_timeout);
        let mut reader = match stream.try_clone() {
            Ok(read_half) => FrameReader::new(read_half),
            Err(e) => {
                out.errors.classify(&e);
                failures += 1;
                if failures > cfg.retries {
                    return Err(e);
                }
                continue 'session;
            }
        };
        let mut next_send = answered;
        sent_high = sent_high.max(answered);

        loop {
            // Top the window up — original frames first, then resends of
            // shed records — then (or when everything is sent) read.
            if inflight.len() < cfg.window.max(1) {
                if next_send < frames.len() {
                    buf.clear();
                    encode_get(frames[next_send], &mut buf);
                    if let Err(e) = stream.write_all(&buf) {
                        out.errors.classify(&e);
                        failures += 1;
                        if failures > cfg.retries {
                            return Err(e);
                        }
                        continue 'session;
                    }
                    inflight.push_back((Instant::now(), Sent::Original(next_send)));
                    next_send += 1;
                    sent_high = sent_high.max(next_send);
                    continue;
                }
                if let Some(reqs) = resend.pop_front() {
                    buf.clear();
                    encode_get(&reqs, &mut buf);
                    if let Err(e) = stream.write_all(&buf) {
                        resend.push_front(reqs);
                        out.errors.classify(&e);
                        failures += 1;
                        if failures > cfg.retries {
                            return Err(e);
                        }
                        continue 'session;
                    }
                    inflight.push_back((Instant::now(), Sent::Retry(reqs)));
                    continue;
                }
                if inflight.is_empty() && !retry.is_empty() {
                    // Every outstanding reply is in: honour the gateway's
                    // largest retry hint with a full-jitter backoff, then
                    // re-frame the shed records for resending.
                    std::thread::sleep(backoff_delay(cfg, retry_hint.clamp(1, 7), &mut rng));
                    retry_hint = 0;
                    for shed in retry.chunks(batch) {
                        resend.push_back(shed.to_vec());
                    }
                    retry.clear();
                    continue;
                }
            }
            if inflight.is_empty() {
                break; // all frames sent and answered, nothing left to retry
            }
            match reader.recv() {
                Ok(Some(Message::Verdicts(vs))) => {
                    let (sent, what) = inflight.pop_front().expect("verdicts with no frame in flight");
                    out.latency.record_duration(sent.elapsed());
                    let records: &[Request] = match &what {
                        Sent::Original(idx) => frames[*idx],
                        Sent::Retry(reqs) => reqs,
                    };
                    if vs.len() != records.len() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "frame of {} records answered with {} verdicts",
                                records.len(),
                                vs.len()
                            ),
                        ));
                    }
                    for (v, req) in vs.iter().zip(records) {
                        if v.outcome == VerdictOutcome::Busy {
                            out.errors.shed += 1;
                            retry_hint = retry_hint.max(u32::from(v.retry_after));
                            retry.push(*req);
                        } else {
                            out.tally.absorb(*v);
                        }
                    }
                    if matches!(what, Sent::Original(_)) {
                        answered += 1;
                    }
                    failures = 0;
                }
                Ok(None) => {
                    // EOF with frames still in flight: the gateway closed on
                    // us (shutdown or a torn connection) — reconnect.
                    out.errors.resets += 1;
                    failures += 1;
                    if failures > cfg.retries {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "gateway closed with frames unanswered",
                        ));
                    }
                    continue 'session;
                }
                Ok(Some(other)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("expected VERDICTS reply, got {other:?}"),
                    ));
                }
                Err(RecvError::Wire(e)) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
                }
                Err(RecvError::Io(e)) => {
                    out.errors.classify(&e);
                    failures += 1;
                    if failures > cfg.retries {
                        return Err(e);
                    }
                    continue 'session;
                }
            }
        }
    }
    Ok(out)
}

/// Replays `trace` against a gateway at `addr` and reports throughput,
/// latency percentiles and the verdict tally.
pub fn run(addr: impl ToSocketAddrs, trace: &Trace, cfg: LoadgenConfig) -> io::Result<LoadgenReport> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved for gateway"))?;
    let requests = trace.len() as u64;
    let chunks = contiguous_chunks(trace.requests(), cfg.connections.max(1));
    let started = Instant::now();
    let results: Vec<io::Result<ChunkOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| scope.spawn(move || replay_chunk(&addr, chunk, &cfg, i)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| panic!("loadgen connection thread panicked")))
            .collect()
    });
    let elapsed = started.elapsed();
    let mut tally = VerdictTally::default();
    let mut errors = ErrorStats::default();
    let mut latency = HistogramSnapshot::default();
    let mut per_connection = Vec::with_capacity(chunks.len());
    for (r, chunk) in results.into_iter().zip(&chunks) {
        let out = r?;
        tally.merge(out.tally);
        errors.merge(out.errors);
        latency.merge(&out.latency.snapshot());
        per_connection.push(ConnReport {
            requests: chunk.len() as u64,
            tally: out.tally,
            errors: out.errors,
        });
    }
    Ok(LoadgenReport { requests, elapsed, tally, errors, latency, per_connection })
}

/// Asks a gateway for its JSON fleet-metrics snapshot (`STATS`).
pub fn fetch_stats(addr: impl ToSocketAddrs) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(&crate::wire::encoded(&Message::Stats))?;
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut reader = FrameReader::new(stream);
    match reader.recv() {
        Ok(Some(Message::StatsReply(json))) => Ok(json),
        Ok(other) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected STATS_REPLY, got {other:?}"),
        )),
        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
    }
}

/// Asks a gateway for its per-shard event journals (`EVENTS`), decoded
/// into `(shard, journal)` pairs.
pub fn fetch_events(addr: impl ToSocketAddrs) -> io::Result<Vec<(u32, JournalSnapshot)>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(&crate::wire::encoded(&Message::Events))?;
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut reader = FrameReader::new(stream);
    match reader.recv() {
        Ok(Some(Message::EventsReply(frame))) => decode_fleet_events(&frame)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        Ok(other) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected EVENTS_REPLY, got {other:?}"),
        )),
        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
    }
}

/// Asks a gateway to re-shard to `shards` shards (`RESIZE`) and returns the
/// parsed `RESIZE_ACK`. The ack arrives after the cutover completes; a
/// refused target is answered with `error` set (the wire exchange itself
/// still succeeds).
pub fn send_resize(addr: impl ToSocketAddrs, shards: u32) -> io::Result<crate::ResizeAck> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(&crate::wire::encoded(&Message::Resize(shards)))?;
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut reader = FrameReader::new(stream);
    match reader.recv() {
        Ok(Some(Message::ResizeAck(json))) => serde_json::from_str(&json)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        Ok(other) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected RESIZE_ACK, got {other:?}"),
        )),
        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
    }
}

/// Sends a graceful-shutdown request and waits for its acknowledgement.
pub fn send_shutdown(addr: impl ToSocketAddrs) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(&crate::wire::encoded(&Message::Shutdown))?;
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut reader = FrameReader::new(stream);
    match reader.recv() {
        Ok(Some(Message::ShutdownAck)) => Ok(()),
        Ok(other) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected SHUTDOWN_ACK, got {other:?}"),
        )),
        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_trace_contiguously() {
        let reqs: Vec<Request> = (0..10).map(|i| Request::new(i, 1, i)).collect();
        let chunks = contiguous_chunks(&reqs, 3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), 10);
        let flat: Vec<Request> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
        assert_eq!(flat, reqs);
    }

    #[test]
    fn backoff_is_bounded_jittered_and_reproducible() {
        let cfg = LoadgenConfig {
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(80),
            ..LoadgenConfig::default()
        };
        for failures in 1..=10u32 {
            let ceiling = cfg.backoff.saturating_mul(1 << (failures - 1)).min(cfg.backoff_cap);
            let mut rng = 7;
            let d = backoff_delay(&cfg, failures, &mut rng);
            assert!(d > Duration::ZERO && d <= ceiling, "failures={failures}: {d:?} vs {ceiling:?}");
        }
        let (mut a, mut b) = (42u64, 42u64);
        for failures in 1..=5 {
            assert_eq!(backoff_delay(&cfg, failures, &mut a), backoff_delay(&cfg, failures, &mut b));
        }
    }

    /// A server that answers one frame then slams the door forces the client
    /// through its reconnect path; the second session answers everything.
    /// Every request must end up tallied exactly once.
    #[test]
    fn reconnect_resubmits_the_unanswered_suffix() {
        use crate::wire::encode_verdict_bytes;
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let answer = |stream: &TcpStream, records: usize| {
                let bytes = vec![WireVerdict::DROPPED.to_byte(); records];
                let mut out = Vec::new();
                encode_verdict_bytes(&bytes, &mut out);
                (&mut &*stream).write_all(&out).unwrap();
            };
            // Session 1: one answer, then disconnect mid-conversation.
            let (s, _) = listener.accept().unwrap();
            let mut reader = FrameReader::new(s.try_clone().unwrap());
            if let Ok(Some(Message::Get(recs))) = reader.recv() {
                answer(&s, recs.len());
            }
            drop(reader);
            drop(s);
            // Session 2: answer until the client is done.
            let (s, _) = listener.accept().unwrap();
            let mut reader = FrameReader::new(s.try_clone().unwrap());
            while let Ok(Some(msg)) = reader.recv() {
                if let Message::Get(recs) = msg {
                    answer(&s, recs.len());
                }
            }
        });

        let reqs: Vec<Request> = (0..12).map(|i| Request::new(i, 100, i)).collect();
        let trace = Trace::from_requests(reqs);
        let cfg = LoadgenConfig {
            connections: 1,
            batch: 3,
            window: 8,
            retries: 5,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            ..LoadgenConfig::default()
        };
        let report = run(addr, &trace, cfg).expect("replay should survive the disconnect");
        server.join().unwrap();
        assert_eq!(report.tally.total(), 12, "every request answered exactly once");
        assert_eq!(report.errors.reconnects, 1);
        assert!(report.errors.resets >= 1, "the slammed door must be classified: {:?}", report.errors);
        assert!(report.errors.resubmitted >= 3, "at least one frame resent: {:?}", report.errors);
    }

    /// A gateway that sheds the first `GET` frame (every record `Busy`)
    /// must see those records again: the client backs off, resends, and
    /// still tallies every request exactly once — no reconnect involved.
    #[test]
    fn busy_records_are_resent_until_answered() {
        use crate::wire::encode_verdict_bytes;
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut reader = FrameReader::new(s.try_clone().unwrap());
            let mut first = true;
            let mut shed = 0u64;
            while let Ok(Some(Message::Get(recs))) = reader.recv() {
                let byte = if first {
                    shed = recs.len() as u64;
                    WireVerdict::busy(2).to_byte()
                } else {
                    WireVerdict::DROPPED.to_byte()
                };
                first = false;
                let mut out = Vec::new();
                encode_verdict_bytes(&vec![byte; recs.len()], &mut out);
                (&mut &s).write_all(&out).unwrap();
            }
            shed
        });

        let reqs: Vec<Request> = (0..6).map(|i| Request::new(i, 100, i)).collect();
        let trace = Trace::from_requests(reqs);
        let cfg = LoadgenConfig {
            connections: 1,
            batch: 3,
            window: 1,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            ..LoadgenConfig::default()
        };
        let report = run(addr, &trace, cfg).expect("shedding is not a failure");
        let shed = server.join().unwrap();
        assert_eq!(shed, 3, "the first frame was shed whole");
        assert_eq!(report.errors.shed, 3, "shed records counted: {:?}", report.errors);
        assert_eq!(report.errors.total_failures(), 0, "shedding is flow control, not failure");
        assert_eq!(report.tally.total(), 6, "every request still answered exactly once");
        assert_eq!(report.per_connection.len(), 1);
        assert_eq!(report.per_connection[0].requests, 6);
    }

    /// A report whose latency histogram was fed the given millisecond
    /// samples.
    fn report_with_latencies(samples_ms: &[u64]) -> LoadgenReport {
        let h = Histogram::new();
        for &ms in samples_ms {
            h.record_duration(Duration::from_millis(ms));
        }
        LoadgenReport {
            requests: samples_ms.len() as u64,
            elapsed: Duration::from_secs(2),
            tally: VerdictTally::default(),
            errors: ErrorStats::default(),
            latency: h.snapshot(),
            per_connection: Vec::new(),
        }
    }

    /// A bucketed quantile reports the bucket lower bound: never above the
    /// true sample, below it by at most the ≈3.1% bucket width.
    fn assert_within_bucket(got: Duration, sample: Duration) {
        assert!(got <= sample, "bucket floor {got:?} above sample {sample:?}");
        let floor = sample - Duration::from_nanos(sample.as_nanos() as u64 / 32);
        assert!(got >= floor, "{got:?} undershoots {sample:?} by more than a bucket");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let report = report_with_latencies(&[1, 2, 3, 4]);
        assert_eq!(report.rps(), 2.0);
        assert_within_bucket(report.latency_percentile(0.0), Duration::from_millis(1));
        // Nearest-rank: ⌈50/100 · 4⌉ = rank 2, i.e. the 2ms sample — *not*
        // the rounded-interpolation 3ms the old implementation returned.
        // The histogram reports the sample's bucket floor, so the regression
        // assertion is the bucket error bound around 2ms.
        assert_within_bucket(report.latency_percentile(50.0), Duration::from_millis(2));
        assert_within_bucket(report.latency_percentile(75.0), Duration::from_millis(3));
        assert_within_bucket(report.latency_percentile(99.0), Duration::from_millis(4));
        assert_within_bucket(report.latency_percentile(100.0), Duration::from_millis(4));
        // Odd-length sanity: p50 of [1..=5] is the middle sample.
        let odd = report_with_latencies(&[1, 2, 3, 4, 5]);
        assert_within_bucket(odd.latency_percentile(50.0), Duration::from_millis(3));
        // No samples: zero, regardless of p.
        let empty = report_with_latencies(&[]);
        assert_eq!(empty.latency_percentile(99.0), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "outside [0, 100]")]
    fn percentile_above_100_is_rejected() {
        let _ = report_with_latencies(&[1]).latency_percentile(100.5);
    }

    #[test]
    #[should_panic(expected = "outside [0, 100]")]
    fn negative_percentile_is_rejected() {
        let _ = report_with_latencies(&[1]).latency_percentile(-1.0);
    }
}
