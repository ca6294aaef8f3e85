//! Per-connection reply plumbing.
//!
//! Each connection runs two threads: the *reader* decodes frames and submits
//! requests into the fleet, the *writer* streams replies back. In between
//! sits a [`ConnSink`]: frames are numbered in arrival order, each frame's
//! reply is pushed under its sequence number as soon as it is complete, and
//! the writer emits replies strictly in sequence — so clients can pipeline
//! and still match the *k*-th reply to the *k*-th frame they sent.
//!
//! A `GET` frame's reply is assembled by a [`PendingBatch`]: its records
//! travel through the shard queues as [`GatewayEnvelope`]s, each completing
//! (or being dropped — shedding fills a `Dropped` verdict from the
//! envelope's `Drop` impl) into its slot of the batch; the last arrival
//! pushes the assembled `VERDICTS` reply into the sink. Record order is
//! preserved no matter how shards interleave.
//!
//! The writer polls while a reply is owed and parks only when none is, as
//! a shard worker does with its queue: creating a `PendingBatch` tells the
//! sink that its frame's reply will come, and a writer that finds the next
//! reply missing while one is owed looks again, [`EMPTY_POLLS`] times one
//! `yield_now` apart, before it parks. A push wakes the writer only when it
//! is parked, so a pipelined connection's frames cost the shard workers no
//! futex wake; a lone frame's writer owes nothing once its reply is written
//! and parks at once.

use crate::wire::{encode, encode_verdict_bytes, Message, WireVerdict};
use darwin_shard::{Envelope, Verdict, EMPTY_POLLS};
use darwin_trace::Request;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One frame's reply, keyed in the sink by the frame's sequence number.
pub(crate) enum Reply {
    /// Assembled verdict bytes of a `GET` frame, in record order.
    Verdicts(Vec<u8>),
    /// JSON snapshot answering a `STATS` frame.
    Stats(String),
    /// Sealed fleet-events frame answering an `EVENTS` frame.
    Events(Vec<u8>),
    /// JSON ledger (or `{"error": …}`) answering a `RESIZE` frame.
    ResizeAck(String),
    /// Acknowledges a `SHUTDOWN` frame.
    ShutdownAck,
}

struct SinkState {
    ready: BTreeMap<u64, Reply>,
    next_write: u64,
    end_seq: Option<u64>,
    aborted: bool,
    /// The writer waits on the condvar. Set by the writer as it parks and
    /// cleared by the push that wakes it, both under this lock, so no
    /// wake-up can be lost.
    parked: bool,
    /// Poll rounds the writer has spent, for the tests.
    #[cfg(test)]
    polls: u32,
}

/// The ordered reply buffer between a connection's frame decoding (and the
/// shard workers completing its batches) and its writer thread.
pub(crate) struct ConnSink {
    state: Mutex<SinkState>,
    cv: Condvar,
    /// One past the highest frame whose reply is owed: the reader has
    /// numbered it and the shard workers will push its reply.
    owed_below: AtomicU64,
}

impl ConnSink {
    pub(crate) fn new() -> Self {
        Self {
            state: Mutex::new(SinkState {
                ready: BTreeMap::new(),
                next_write: 0,
                end_seq: None,
                aborted: false,
                parked: false,
                #[cfg(test)]
                polls: 0,
            }),
            cv: Condvar::new(),
            owed_below: AtomicU64::new(0),
        }
    }

    /// Reader side: frame `seq`'s reply is owed and will be pushed later.
    /// Frames are owed in sequence order.
    fn owe(&self, seq: u64) {
        self.owed_below.store(seq + 1, Ordering::Release);
    }

    /// Queues `reply` as the answer to frame `seq`, waking the writer if it
    /// is parked. No-op after abort.
    pub(crate) fn push(&self, seq: u64, reply: Reply) {
        let mut st = self.state.lock().expect("sink poisoned");
        if st.aborted {
            return;
        }
        st.ready.insert(seq, reply);
        // Cleared here, so that the pushes made before the writer runs
        // again wake it once.
        if std::mem::take(&mut st.parked) {
            self.cv.notify_one();
        }
    }

    /// Declares the stream complete: the writer exits once every reply below
    /// `end_seq` has been written.
    pub(crate) fn finish_at(&self, end_seq: u64) {
        let mut st = self.state.lock().expect("sink poisoned");
        st.end_seq = Some(end_seq);
        self.cv.notify_one();
    }

    /// Tears the sink down immediately (client gone, protocol error, or a
    /// panicking reader): pending replies are discarded, the writer wakes
    /// and exits, later pushes are ignored.
    pub(crate) fn abort(&self) {
        let mut st = self.state.lock().expect("sink poisoned");
        st.aborted = true;
        st.ready.clear();
        self.cv.notify_one();
    }

    /// Reader side: how many frames are still unanswered or unwritten if
    /// the next frame gets sequence number `seq`. This bounds the sink's
    /// reorder/reply memory: when the backlog reaches the gateway's cap the
    /// reader answers new `GET` frames `Busy` without submitting them, so a
    /// client that pipelines faster than it reads cannot grow the reply
    /// buffer without bound.
    pub(crate) fn backlog(&self, seq: u64) -> u64 {
        seq - self.state.lock().expect("sink poisoned").next_write
    }

    /// Writer side: blocks for the next run of consecutive ready replies.
    /// Returns `None` once the sink is aborted or drained through `end_seq`.
    /// While the next reply is owed it polls up to `EMPTY_POLLS` times
    /// before it parks.
    fn next_run(&self) -> Option<Vec<Reply>> {
        let mut polls = 0;
        let mut st = self.state.lock().expect("sink poisoned");
        loop {
            if st.aborted {
                return None;
            }
            let mut run = Vec::new();
            loop {
                let next = st.next_write;
                match st.ready.remove(&next) {
                    Some(r) => {
                        run.push(r);
                        st.next_write += 1;
                    }
                    None => break,
                }
            }
            if !run.is_empty() {
                return Some(run);
            }
            if st.end_seq.is_some_and(|end| st.next_write >= end) {
                return None;
            }
            if polls < EMPTY_POLLS && st.next_write < self.owed_below.load(Ordering::Acquire) {
                polls += 1;
                #[cfg(test)]
                {
                    st.polls += 1;
                }
                drop(st);
                std::thread::yield_now();
                st = self.state.lock().expect("sink poisoned");
                continue;
            }
            st.parked = true;
            st = self.cv.wait(st).expect("sink poisoned");
            st.parked = false;
        }
    }
}

/// Aborts the sink when dropped — placed in the reader thread so that even a
/// panic (e.g. a dead shard detected mid-submit) releases the writer and
/// closes the socket instead of wedging the connection.
pub(crate) struct SinkGuard(pub(crate) Arc<ConnSink>);

impl Drop for SinkGuard {
    fn drop(&mut self) {
        self.0.abort();
    }
}

/// The gateway counters the writer publishes to as it writes.
pub(crate) struct ReplyCounters<'a> {
    /// Bytes handed to client sockets.
    pub(crate) bytes_out: &'a AtomicU64,
    /// Verdicts handed to client sockets.
    pub(crate) verdicts_out: &'a AtomicU64,
}

/// The writer loop: drains the sink in sequence order, encoding each run of
/// ready replies into one buffer and writing it with a single syscall (the
/// protocol's batched-write path). Exits on sink abort/drain or the first
/// write error (client disconnected).
///
/// Each run's bytes and verdicts are added to `counters` (one relaxed add
/// each) just before its write, so a `STATS` snapshot taken after a client
/// has read a reply — on any connection — already counts that reply. A
/// write that fails has been counted whole, though the peer may have
/// received none or part of it.
///
/// With `write_stall` set, writes carry a socket timeout: a client that
/// stops reading replies (slowloris) stalls the write until the OS buffers
/// fill and the timeout expires, at which point the writer aborts the sink
/// and shuts the whole socket down — which also
/// unblocks the reader, so one stuck client cannot pin its connection
/// threads or grow reply memory forever.
///
/// Returns true when the writer gave up on a stalled client: a reply write
/// sat in the socket buffer past the write-stall budget because the peer
/// stopped reading, and the connection was torn down (slow-client
/// eviction).
pub(crate) fn writer_loop(
    sink: &ConnSink,
    mut stream: TcpStream,
    write_stall: Option<std::time::Duration>,
    counters: ReplyCounters<'_>,
) -> bool {
    if write_stall.is_some() {
        let _ = stream.set_write_timeout(write_stall);
    }
    let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
    while let Some(run) = sink.next_run() {
        out.clear();
        let mut verdicts = 0u64;
        for reply in run {
            match reply {
                Reply::Verdicts(bytes) => {
                    verdicts += bytes.len() as u64;
                    encode_verdict_bytes(&bytes, &mut out);
                }
                Reply::Stats(json) => encode(&Message::StatsReply(json), &mut out),
                Reply::Events(frame) => encode(&Message::EventsReply(frame), &mut out),
                Reply::ResizeAck(json) => encode(&Message::ResizeAck(json), &mut out),
                Reply::ShutdownAck => encode(&Message::ShutdownAck, &mut out),
            }
        }
        counters.bytes_out.fetch_add(out.len() as u64, Ordering::Relaxed);
        if verdicts > 0 {
            counters.verdicts_out.fetch_add(verdicts, Ordering::Relaxed);
        }
        if let Err(e) = stream.write_all(&out) {
            let stalled =
                matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut);
            sink.abort();
            if stalled {
                // Evict the slow client: closing both directions makes the
                // reader's next recv fail, tearing the connection down.
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            return stalled;
        }
    }
    // Drained (or aborted): signal end-of-replies to a still-reading client.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    false
}

/// Assembles one `GET` frame's `VERDICTS` reply from its records' verdicts,
/// which arrive concurrently from the shard workers.
pub(crate) struct PendingBatch {
    seq: u64,
    sink: Arc<ConnSink>,
    verdicts: Vec<AtomicU8>,
    remaining: AtomicUsize,
}

impl PendingBatch {
    /// A batch for frame `seq`, whose reply `sink` now owes.
    pub(crate) fn new(seq: u64, sink: Arc<ConnSink>, records: usize) -> Arc<Self> {
        debug_assert!(records > 0);
        sink.owe(seq);
        Arc::new(Self {
            seq,
            sink,
            verdicts: (0..records).map(|_| AtomicU8::new(WireVerdict::DROPPED.to_byte())).collect(),
            remaining: AtomicUsize::new(records),
        })
    }

    fn fill(&self, index: usize, byte: u8) {
        self.verdicts[index].store(byte, Ordering::Relaxed);
        // The release of this fetch_sub publishes the store above to the
        // thread that observes the count hit zero (acquire side), so the
        // assembling thread sees every slot.
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let bytes = self.verdicts.iter().map(|v| v.load(Ordering::Relaxed)).collect();
            self.sink.push(self.seq, Reply::Verdicts(bytes));
        }
    }
}

/// The envelope a gateway request travels the shard queue in: completion
/// routes the verdict into slot `index` of the originating frame's batch.
/// If the envelope is shed before reaching a worker (queue overflow under
/// `DropNewest`, or in flight when a shard worker dies) its `Drop` impl
/// files a `Dropped` verdict instead, and a request routed to a permanently
/// dead shard files `Unavailable` via [`Envelope::unavailable`] — every
/// record of every accepted frame is answered exactly once.
pub(crate) struct GatewayEnvelope {
    req: Request,
    slot: Option<(Arc<PendingBatch>, usize)>,
}

impl GatewayEnvelope {
    pub(crate) fn new(req: Request, batch: Arc<PendingBatch>, index: usize) -> Self {
        Self { req, slot: Some((batch, index)) }
    }
}

impl Envelope for GatewayEnvelope {
    fn request(&self) -> &Request {
        &self.req
    }

    fn complete(mut self, verdict: Verdict) {
        if let Some((batch, index)) = self.slot.take() {
            batch.fill(index, WireVerdict::from(verdict).to_byte());
        }
    }

    fn unavailable(mut self) {
        // Taking the slot defuses the `Drop` impl below, so the record is
        // answered `Unavailable`, not `Dropped`.
        if let Some((batch, index)) = self.slot.take() {
            batch.fill(index, WireVerdict::UNAVAILABLE.to_byte());
        }
    }

    fn shed(mut self, retry_after: u8) {
        // Overload shedding: the record is answered `Busy` with the fleet's
        // retry hint, not `Dropped` — the client is expected to resubmit.
        if let Some((batch, index)) = self.slot.take() {
            batch.fill(index, WireVerdict::busy(retry_after).to_byte());
        }
    }
}

impl Drop for GatewayEnvelope {
    fn drop(&mut self) {
        if let Some((batch, index)) = self.slot.take() {
            batch.fill(index, WireVerdict::DROPPED.to_byte());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_ready(sink: &ConnSink) -> Vec<Reply> {
        sink.finish_at(u64::MAX);
        let mut out = Vec::new();
        // end_seq = MAX keeps the writer-side wait alive, so only pull runs
        // that are already consecutive-ready.
        let mut st = sink.state.lock().unwrap();
        loop {
            let next = st.next_write;
            match st.ready.remove(&next) {
                Some(r) => {
                    out.push(r);
                    st.next_write += 1;
                }
                None => break,
            }
        }
        out
    }

    #[test]
    fn batch_assembles_in_record_order_regardless_of_fill_order() {
        let sink = Arc::new(ConnSink::new());
        let batch = PendingBatch::new(0, Arc::clone(&sink), 3);
        batch.fill(2, 2);
        batch.fill(0, 0);
        assert!(drain_ready(&sink).is_empty(), "incomplete batch must not be pushed");
        batch.fill(1, 1);
        match drain_ready(&sink).as_slice() {
            [Reply::Verdicts(bytes)] => assert_eq!(bytes, &vec![0, 1, 2]),
            _ => panic!("expected exactly one assembled verdict reply"),
        }
    }

    #[test]
    fn dropped_envelope_files_dropped_verdict() {
        let sink = Arc::new(ConnSink::new());
        let batch = PendingBatch::new(0, Arc::clone(&sink), 2);
        let env0 = GatewayEnvelope::new(Request::new(1, 10, 0), Arc::clone(&batch), 0);
        let env1 = GatewayEnvelope::new(Request::new(2, 10, 1), Arc::clone(&batch), 1);
        env0.complete(Verdict {
            shard: 0,
            outcome: darwin_cache::RequestOutcome::HocHit,
            admitted: false,
        });
        drop(env1); // shed at the queue
        match drain_ready(&sink).as_slice() {
            [Reply::Verdicts(bytes)] => {
                assert_eq!(
                    WireVerdict::from_byte(bytes[0]).unwrap().outcome,
                    crate::wire::VerdictOutcome::HocHit
                );
                assert_eq!(WireVerdict::from_byte(bytes[1]).unwrap(), WireVerdict::DROPPED);
            }
            _ => panic!("expected one reply"),
        }
    }

    #[test]
    fn shed_envelope_files_busy_verdict_with_hint() {
        let sink = Arc::new(ConnSink::new());
        let batch = PendingBatch::new(0, Arc::clone(&sink), 1);
        let env = GatewayEnvelope::new(Request::new(1, 10, 0), Arc::clone(&batch), 0);
        env.shed(3);
        match drain_ready(&sink).as_slice() {
            [Reply::Verdicts(bytes)] => {
                let v = WireVerdict::from_byte(bytes[0]).unwrap();
                assert_eq!(v, WireVerdict::busy(3));
                assert_eq!(v.retry_after, 3);
            }
            _ => panic!("expected one reply"),
        }
    }

    #[test]
    fn unavailable_envelope_files_unavailable_verdict() {
        let sink = Arc::new(ConnSink::new());
        let batch = PendingBatch::new(0, Arc::clone(&sink), 1);
        let env = GatewayEnvelope::new(Request::new(1, 10, 0), Arc::clone(&batch), 0);
        env.unavailable();
        match drain_ready(&sink).as_slice() {
            [Reply::Verdicts(bytes)] => {
                assert_eq!(WireVerdict::from_byte(bytes[0]).unwrap(), WireVerdict::UNAVAILABLE);
            }
            _ => panic!("expected one reply"),
        }
    }

    #[test]
    fn aborted_sink_ignores_pushes_and_releases_writer() {
        let sink = Arc::new(ConnSink::new());
        sink.push(0, Reply::ShutdownAck);
        sink.abort();
        sink.push(1, Reply::ShutdownAck);
        assert!(sink.next_run().is_none(), "aborted sink releases the writer");
    }

    /// Runs `next_run` on a thread of its own, sending what each call
    /// returned (the run's length, or `None` at the end) until the end.
    fn spawn_writer(sink: &Arc<ConnSink>) -> std::sync::mpsc::Receiver<Option<usize>> {
        let (tx, rx) = std::sync::mpsc::channel();
        let sink = Arc::clone(sink);
        std::thread::spawn(move || loop {
            let run = sink.next_run();
            let end = run.is_none();
            if tx.send(run.map(|r| r.len())).is_err() || end {
                return;
            }
        });
        rx
    }

    const BOUND: std::time::Duration = std::time::Duration::from_secs(10);

    /// Waits (within `BOUND`) until the writer is parked on the condvar.
    fn until_parked(sink: &ConnSink) {
        let start = std::time::Instant::now();
        while !sink.state.lock().unwrap().parked {
            assert!(start.elapsed() < BOUND, "the writer never parked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_parked_writer_wakes_for_push_finish_and_abort() {
        let sink = Arc::new(ConnSink::new());
        let writer = spawn_writer(&sink);
        until_parked(&sink);
        sink.push(0, Reply::ShutdownAck);
        assert_eq!(writer.recv_timeout(BOUND), Ok(Some(1)), "push wakes the writer");
        until_parked(&sink);
        sink.finish_at(1);
        assert_eq!(writer.recv_timeout(BOUND), Ok(None), "finish_at wakes the writer");

        let sink = Arc::new(ConnSink::new());
        let writer = spawn_writer(&sink);
        until_parked(&sink);
        sink.abort();
        assert_eq!(writer.recv_timeout(BOUND), Ok(None), "abort wakes the writer");
    }

    #[test]
    fn a_writer_polls_only_while_a_reply_is_owed() {
        let sink = Arc::new(ConnSink::new());
        let writer = spawn_writer(&sink);
        until_parked(&sink);
        assert_eq!(sink.state.lock().unwrap().polls, 0, "nothing owed: park at once");

        // Frame 0 answered inline, frame 1 owed: once 0 is written the
        // writer polls for 1, then parks.
        let batch = PendingBatch::new(1, Arc::clone(&sink), 1);
        sink.push(0, Reply::ShutdownAck);
        assert_eq!(writer.recv_timeout(BOUND), Ok(Some(1)));
        until_parked(&sink);
        assert_eq!(sink.state.lock().unwrap().polls, EMPTY_POLLS, "owed: poll, then park");
        batch.fill(0, 0);
        assert_eq!(writer.recv_timeout(BOUND), Ok(Some(1)), "the parked writer wakes for it");
        until_parked(&sink);
        assert_eq!(sink.state.lock().unwrap().polls, EMPTY_POLLS, "nothing owed once written");
        sink.abort();
    }

    #[test]
    fn shuffled_pushes_from_many_threads_are_written_once_in_order() {
        const FRAMES: u64 = 4000;
        const THREADS: u64 = 4;
        let sink = Arc::new(ConnSink::new());
        sink.owe(FRAMES - 1);
        sink.finish_at(FRAMES);
        let writer = {
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || {
                let mut written = Vec::new();
                while let Some(run) = sink.next_run() {
                    for reply in run {
                        match reply {
                            Reply::Verdicts(bytes) => {
                                written.push(u64::from_le_bytes(bytes.try_into().unwrap()))
                            }
                            _ => panic!("only verdicts were pushed"),
                        }
                    }
                }
                written
            })
        };
        let pushers: Vec<_> = (0..THREADS)
            .map(|t| {
                let sink = Arc::clone(&sink);
                std::thread::spawn(move || {
                    let mut seqs: Vec<u64> = (t..FRAMES).step_by(THREADS as usize).collect();
                    // A seeded shuffle (Fisher–Yates over an LCG).
                    let mut x = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    for i in (1..seqs.len()).rev() {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        seqs.swap(i, (x >> 33) as usize % (i + 1));
                    }
                    for seq in seqs {
                        sink.push(seq, Reply::Verdicts(seq.to_le_bytes().to_vec()));
                    }
                })
            })
            .collect();
        for p in pushers {
            p.join().unwrap();
        }
        let written = writer.join().unwrap();
        assert_eq!(written, (0..FRAMES).collect::<Vec<_>>());
    }

    #[test]
    fn next_run_collects_consecutive_replies() {
        let sink = Arc::new(ConnSink::new());
        sink.push(1, Reply::ShutdownAck);
        sink.push(0, Reply::Stats("{}".into()));
        let run = sink.next_run().expect("two consecutive replies ready");
        assert_eq!(run.len(), 2);
        assert!(matches!(run[0], Reply::Stats(_)));
        assert!(matches!(run[1], Reply::ShutdownAck));
        sink.finish_at(2);
        assert!(sink.next_run().is_none(), "drained through end_seq");
    }
}
