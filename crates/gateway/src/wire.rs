//! The binary wire protocol spoken between the gateway and its clients.
//!
//! Every frame is a fixed 8-byte header followed by an opcode-specific body,
//! all integers little-endian:
//!
//! ```text
//! offset  size  field
//!      0     2  magic     0xDA57
//!      2     1  version   5
//!      3     1  opcode
//!      4     4  body_len  (≤ MAX_BODY_LEN)
//!      8     …  body
//! ```
//!
//! Version 2 widened the verdict byte from a 2-bit to a 3-bit outcome field
//! to make room for the degraded-mode `Unavailable` answer; version 3 added
//! the `EVENTS` opcode pair for draining the fleet's per-shard event
//! journals; version 4 added the overload-control `Busy` outcome with its
//! `retry_after` hint in the previously reserved bits 4–6 of the verdict
//! byte; version 5 added the `RESIZE` opcode pair driving a live fleet
//! resize over the wire. Older versions are rejected with
//! [`WireError::BadVersion`] (both ends of this repo speak v5).
//!
//! Client → server opcodes:
//!
//! | opcode | name       | body |
//! |--------|------------|------|
//! | `0x01` | `GET`      | 1..=`MAX_GET_BATCH` records of 24 bytes: `id:u64 size:u64 timestamp_us:u64` |
//! | `0x02` | `STATS`    | empty |
//! | `0x03` | `SHUTDOWN` | empty |
//! | `0x04` | `EVENTS`   | empty |
//! | `0x05` | `RESIZE`   | exactly 4 bytes: `target_shards:u32` (1..=`MAX_SHARDS` = 256, and not the serving shard count) |
//!
//! Server → client opcodes:
//!
//! | opcode | name           | body |
//! |--------|----------------|------|
//! | `0x81` | `VERDICTS`     | one byte per `GET` record: bits 0–2 outcome (0 = HOC hit, 1 = DC hit, 2 = origin fetch, 3 = dropped, 4 = unavailable, 5 = busy), bit 3 admitted-to-HOC, bits 4–6 `retry_after` backoff exponent (zero unless busy), bit 7 zero |
//! | `0x82` | `STATS_REPLY`  | UTF-8 compact JSON of a `FleetMetrics` snapshot with every shard's `events` empty (journals ride `EVENTS_REPLY`), or `{"error": …}` when the snapshot would exceed `MAX_BODY_LEN` |
//! | `0x83` | `SHUTDOWN_ACK` | empty |
//! | `0x84` | `EVENTS_REPLY` | a sealed `darwin_obs` fleet-events frame (CRC-guarded, decodable with [`darwin_obs::decode_fleet_events`]); past `MAX_BODY_LEN` each journal keeps its newest events that fit and counts the rest in `dropped` |
//! | `0x85` | `RESIZE_ACK`   | UTF-8 JSON: the resize's `GenerationSummary` ledger on success, or `{"error": …}` when the target was refused before the fleet was touched (zero, the serving shard count, or above `MAX_SHARDS`). Concurrent resizes serialize; none is refused as "in flight" |
//!
//! Each `GET` frame is answered by exactly one `VERDICTS` frame carrying one
//! verdict per record, in record order; replies on a connection are emitted
//! in the order the frames arrived, so clients may pipeline freely. The
//! `timestamp_us` field rides the wire because admission controllers are
//! time-aware (recency features, epoch boundaries): replaying a trace through
//! the gateway is bit-identical to replaying it in-process only if the
//! server sees the original timestamps.
//!
//! [`decode`] never panics on hostile input: malformed, truncated-at-EOF and
//! oversized frames all surface as [`WireError`]s (checked by the
//! `wire_codec` proptest suite).

use darwin_cache::RequestOutcome;
use darwin_trace::Request;
use std::io::Read;
use std::time::Duration;

/// First two header bytes of every frame.
pub const MAGIC: u16 = 0xDA57;
/// Protocol version this module speaks.
pub const VERSION: u8 = 5;
/// Fixed header size, bytes.
pub const HEADER_LEN: usize = 8;
/// Upper bound on a frame body; larger `body_len` headers are rejected
/// before any allocation happens.
pub const MAX_BODY_LEN: usize = 1 << 20;
/// Size of one `GET` record on the wire.
pub const GET_RECORD_LEN: usize = 24;
/// Most requests a single `GET` frame can carry.
pub const MAX_GET_BATCH: usize = MAX_BODY_LEN / GET_RECORD_LEN;

const OP_GET: u8 = 0x01;
const OP_STATS: u8 = 0x02;
const OP_SHUTDOWN: u8 = 0x03;
const OP_EVENTS: u8 = 0x04;
const OP_RESIZE: u8 = 0x05;
const OP_VERDICTS: u8 = 0x81;
const OP_STATS_REPLY: u8 = 0x82;
const OP_SHUTDOWN_ACK: u8 = 0x83;
const OP_EVENTS_REPLY: u8 = 0x84;
const OP_RESIZE_ACK: u8 = 0x85;

/// Body size of a `RESIZE` frame (one little-endian u32).
const RESIZE_BODY_LEN: usize = 4;

/// Where a request ended up, as reported on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictOutcome {
    /// Served from the Hot Object Cache.
    HocHit,
    /// Served from the Disk Cache.
    DcHit,
    /// Fetched from the origin (full miss).
    OriginFetch,
    /// Never processed: shed at a full shard queue (`DropNewest`
    /// backpressure) or in flight when a shard worker died.
    Dropped,
    /// Never processed: the request's shard was permanently dead (restart
    /// budget exhausted) when it arrived — the gateway's degraded mode.
    Unavailable,
    /// Never processed: the gateway shed the request under overload (queue
    /// watermark, per-connection rate limit, or reply-backlog bound). The
    /// client should retry after a backoff keyed to `retry_after`.
    Busy,
}

/// One request's reply: outcome plus the admission decision, plus the
/// overload backoff hint for `Busy` answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireVerdict {
    /// Where the request was served from.
    pub outcome: VerdictOutcome,
    /// True if the request's object was written into the HOC.
    pub admitted: bool,
    /// Backoff exponent hint (0–7) carried by `Busy` verdicts: the server's
    /// estimate of overload severity, fed into the client's exponential
    /// backoff. A hint `h` ≥ 1 asks the client to back off for up to
    /// [`RETRY_UNIT`]` · 2^(h − 1)` — 10 ms at 1, doubling to 640 ms at 7 —
    /// the scale the loadgen's backoff reads it on (its default base,
    /// `RETRY_UNIT`, doubled `h − 1` times, full jitter). Always 0 for every
    /// other outcome.
    pub retry_after: u8,
}

/// The wait a `retry_after` hint of 1 asks for; each step up doubles it.
pub const RETRY_UNIT: Duration = Duration::from_millis(10);

/// The greatest `retry_after` hint, all three bits of its field.
pub const RETRY_HINT_MAX: u8 = 7;

/// The wait a `retry_after` hint `hint` ≥ 1 asks for: [`RETRY_UNIT`]` ·
/// 2^(hint − 1)`, 640 ms at [`RETRY_HINT_MAX`].
pub const fn retry_wait(hint: u8) -> Duration {
    Duration::from_nanos((RETRY_UNIT.as_nanos() as u64) << (hint - 1))
}

/// The `retry_after` hint that asks for a wait of `wait`: the smallest
/// whose wait ([`retry_wait`]) covers it. A longer wait never gets a
/// smaller hint. The hint saturates: every wait past 640 ms gets 7, which
/// asks for 640 ms, so a client told 7 may be refused again.
pub fn retry_after_for(wait: Duration) -> u8 {
    (1..RETRY_HINT_MAX).find(|&h| retry_wait(h) >= wait).unwrap_or(RETRY_HINT_MAX)
}

impl WireVerdict {
    /// The verdict a shed request reports.
    pub const DROPPED: WireVerdict =
        WireVerdict { outcome: VerdictOutcome::Dropped, admitted: false, retry_after: 0 };

    /// The verdict a request routed to a permanently dead shard reports.
    pub const UNAVAILABLE: WireVerdict =
        WireVerdict { outcome: VerdictOutcome::Unavailable, admitted: false, retry_after: 0 };

    /// The verdict an overloaded gateway sheds a request with, carrying a
    /// backoff exponent hint (clamped to the 3-bit wire field).
    pub fn busy(retry_after: u8) -> WireVerdict {
        WireVerdict {
            outcome: VerdictOutcome::Busy,
            admitted: false,
            retry_after: retry_after.min(RETRY_HINT_MAX),
        }
    }

    /// Wire encoding (bits 0–2 outcome, bit 3 admitted, bits 4–6
    /// `retry_after`).
    pub fn to_byte(self) -> u8 {
        let outcome = match self.outcome {
            VerdictOutcome::HocHit => 0,
            VerdictOutcome::DcHit => 1,
            VerdictOutcome::OriginFetch => 2,
            VerdictOutcome::Dropped => 3,
            VerdictOutcome::Unavailable => 4,
            VerdictOutcome::Busy => 5,
        };
        debug_assert!(self.retry_after <= 7, "retry_after exceeds the 3-bit wire field");
        debug_assert!(
            self.retry_after == 0 || self.outcome == VerdictOutcome::Busy,
            "retry_after rides only on Busy verdicts"
        );
        outcome | u8::from(self.admitted) << 3 | (self.retry_after & 0b111) << 4
    }

    /// Parses a wire byte, rejecting anything with the reserved bit set, an
    /// unassigned outcome, a `retry_after` hint on a non-`Busy` outcome, or
    /// the impossible never-processed-yet-admitted combinations.
    pub fn from_byte(b: u8) -> Result<Self, WireError> {
        if b & 0b1000_0000 != 0 {
            return Err(WireError::BadVerdictByte(b));
        }
        let admitted = b & 0b1000 != 0;
        let retry_after = (b >> 4) & 0b111;
        let outcome = match b & 0b111 {
            0 => VerdictOutcome::HocHit,
            1 => VerdictOutcome::DcHit,
            2 => VerdictOutcome::OriginFetch,
            3 => VerdictOutcome::Dropped,
            4 => VerdictOutcome::Unavailable,
            5 => VerdictOutcome::Busy,
            _ => return Err(WireError::BadVerdictByte(b)),
        };
        let never_processed = matches!(
            outcome,
            VerdictOutcome::Dropped | VerdictOutcome::Unavailable | VerdictOutcome::Busy
        );
        if never_processed && admitted {
            return Err(WireError::BadVerdictByte(b));
        }
        if retry_after != 0 && outcome != VerdictOutcome::Busy {
            return Err(WireError::BadVerdictByte(b));
        }
        Ok(WireVerdict { outcome, admitted, retry_after })
    }
}

impl From<darwin_shard::Verdict> for WireVerdict {
    fn from(v: darwin_shard::Verdict) -> Self {
        let outcome = match v.outcome {
            RequestOutcome::HocHit => VerdictOutcome::HocHit,
            RequestOutcome::DcHit => VerdictOutcome::DcHit,
            RequestOutcome::OriginFetch => VerdictOutcome::OriginFetch,
        };
        WireVerdict { outcome, admitted: v.admitted, retry_after: 0 }
    }
}

/// A decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client: process this batch of requests, answer with one `VERDICTS`.
    Get(Vec<Request>),
    /// Client: reply with a JSON fleet-metrics snapshot.
    Stats,
    /// Client: begin graceful gateway shutdown.
    Shutdown,
    /// Client: reply with the fleet's per-shard event journals.
    Events,
    /// Client: resize the fleet to this many shards (drain, cut, remap,
    /// warm-restore), then answer with one `RESIZE_ACK`.
    Resize(u32),
    /// Server: one verdict per record of the corresponding `GET`.
    Verdicts(Vec<WireVerdict>),
    /// Server: the JSON `FleetMetrics` snapshot a `STATS` asked for.
    StatsReply(String),
    /// Server: shutdown acknowledged; the connection closes after this.
    ShutdownAck,
    /// Server: the sealed fleet-events frame an `EVENTS` asked for (decode
    /// with `darwin_obs::decode_fleet_events`).
    EventsReply(Vec<u8>),
    /// Server: the JSON outcome of a `RESIZE` — the generation ledger on
    /// success, an `{"error": …}` object on refusal.
    ResizeAck(String),
}

/// Why a frame (or byte stream) was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Header magic was not [`MAGIC`].
    BadMagic(u16),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Opcode not in the protocol table.
    UnknownOpcode(u8),
    /// `body_len` exceeded [`MAX_BODY_LEN`].
    Oversized {
        /// Opcode of the offending frame.
        opcode: u8,
        /// Advertised body length.
        len: usize,
    },
    /// Body length illegal for the opcode (empty `GET`, non-empty `STATS`,
    /// a `GET` body not a multiple of the record size, …).
    BadBodyLen {
        /// Opcode of the offending frame.
        opcode: u8,
        /// Advertised body length.
        len: usize,
    },
    /// A verdict byte with reserved bits set or an impossible combination.
    BadVerdictByte(u8),
    /// A `STATS_REPLY` body that is not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::Oversized { opcode, len } => {
                write!(f, "oversized frame (opcode {opcode:#04x}, body {len} > {MAX_BODY_LEN})")
            }
            WireError::BadBodyLen { opcode, len } => {
                write!(f, "illegal body length {len} for opcode {opcode:#04x}")
            }
            WireError::BadVerdictByte(b) => write!(f, "malformed verdict byte {b:#04x}"),
            WireError::BadUtf8 => write!(f, "stats reply is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

fn push_header(opcode: u8, body_len: usize, out: &mut Vec<u8>) {
    debug_assert!(body_len <= MAX_BODY_LEN, "frame body exceeds protocol bound");
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(opcode);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
}

/// Encodes a `GET` frame straight from a request slice (the allocation-free
/// path the load generator uses).
///
/// # Panics
/// Panics if `records` is empty or longer than [`MAX_GET_BATCH`] — those
/// frames could never be decoded.
pub fn encode_get(records: &[Request], out: &mut Vec<u8>) {
    assert!(!records.is_empty(), "GET frames carry at least one record");
    assert!(records.len() <= MAX_GET_BATCH, "GET batch exceeds MAX_GET_BATCH");
    push_header(OP_GET, records.len() * GET_RECORD_LEN, out);
    for r in records {
        out.extend_from_slice(&r.id.to_le_bytes());
        out.extend_from_slice(&r.size.to_le_bytes());
        out.extend_from_slice(&r.timestamp_us.to_le_bytes());
    }
}

/// Encodes a `VERDICTS` frame from already-encoded verdict bytes (the
/// server's batched-write path).
pub(crate) fn encode_verdict_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    debug_assert!(!bytes.is_empty());
    push_header(OP_VERDICTS, bytes.len(), out);
    out.extend_from_slice(bytes);
}

/// Appends the frame encoding of `msg` to `out`.
///
/// # Panics
/// Panics on frames the protocol cannot express (empty `GET`/`VERDICTS`,
/// bodies beyond [`MAX_BODY_LEN`]) — constructing those is a caller bug.
pub fn encode(msg: &Message, out: &mut Vec<u8>) {
    match msg {
        Message::Get(records) => encode_get(records, out),
        Message::Stats => push_header(OP_STATS, 0, out),
        Message::Shutdown => push_header(OP_SHUTDOWN, 0, out),
        Message::Verdicts(vs) => {
            assert!(!vs.is_empty(), "VERDICTS frames carry at least one verdict");
            assert!(vs.len() <= MAX_BODY_LEN, "VERDICTS batch exceeds MAX_BODY_LEN");
            push_header(OP_VERDICTS, vs.len(), out);
            out.extend(vs.iter().map(|v| v.to_byte()));
        }
        Message::StatsReply(json) => {
            assert!(json.len() <= MAX_BODY_LEN, "stats reply exceeds MAX_BODY_LEN");
            push_header(OP_STATS_REPLY, json.len(), out);
            out.extend_from_slice(json.as_bytes());
        }
        Message::ShutdownAck => push_header(OP_SHUTDOWN_ACK, 0, out),
        Message::Events => push_header(OP_EVENTS, 0, out),
        Message::EventsReply(frame) => {
            assert!(frame.len() <= MAX_BODY_LEN, "events reply exceeds MAX_BODY_LEN");
            push_header(OP_EVENTS_REPLY, frame.len(), out);
            out.extend_from_slice(frame);
        }
        Message::Resize(target) => {
            push_header(OP_RESIZE, RESIZE_BODY_LEN, out);
            out.extend_from_slice(&target.to_le_bytes());
        }
        Message::ResizeAck(json) => {
            assert!(json.len() <= MAX_BODY_LEN, "resize ack exceeds MAX_BODY_LEN");
            push_header(OP_RESIZE_ACK, json.len(), out);
            out.extend_from_slice(json.as_bytes());
        }
    }
}

/// The frame encoding of `msg` as a fresh buffer.
pub fn encoded(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    encode(msg, &mut out);
    out
}

/// Tries to decode one frame from the front of `buf`.
///
/// Returns `Ok(Some((message, consumed)))` on a complete frame,
/// `Ok(None)` when `buf` holds only a prefix of a valid frame (read more
/// bytes and retry), and `Err` as soon as the prefix is provably invalid.
pub fn decode(buf: &[u8]) -> Result<Option<(Message, usize)>, WireError> {
    if buf.len() < HEADER_LEN {
        // Validate what we can see so garbage fails fast even when short.
        if buf.len() >= 2 {
            let magic = u16::from_le_bytes([buf[0], buf[1]]);
            if magic != MAGIC {
                return Err(WireError::BadMagic(magic));
            }
        }
        if buf.len() >= 3 && buf[2] != VERSION {
            return Err(WireError::BadVersion(buf[2]));
        }
        return Ok(None);
    }
    let magic = u16::from_le_bytes([buf[0], buf[1]]);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if buf[2] != VERSION {
        return Err(WireError::BadVersion(buf[2]));
    }
    let opcode = buf[3];
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    if len > MAX_BODY_LEN {
        return Err(WireError::Oversized { opcode, len });
    }
    let body_ok = match opcode {
        OP_GET => len > 0 && len.is_multiple_of(GET_RECORD_LEN),
        OP_VERDICTS => len > 0,
        OP_STATS | OP_SHUTDOWN | OP_SHUTDOWN_ACK | OP_EVENTS => len == 0,
        OP_RESIZE => len == RESIZE_BODY_LEN,
        OP_STATS_REPLY | OP_EVENTS_REPLY | OP_RESIZE_ACK => true,
        other => return Err(WireError::UnknownOpcode(other)),
    };
    if !body_ok {
        return Err(WireError::BadBodyLen { opcode, len });
    }
    if buf.len() < HEADER_LEN + len {
        return Ok(None);
    }
    let body = &buf[HEADER_LEN..HEADER_LEN + len];
    let msg = match opcode {
        OP_GET => {
            let mut records = Vec::with_capacity(len / GET_RECORD_LEN);
            for rec in body.chunks_exact(GET_RECORD_LEN) {
                let word = |i: usize| {
                    u64::from_le_bytes(rec[i * 8..(i + 1) * 8].try_into().expect("8-byte chunk"))
                };
                records.push(Request::new(word(0), word(1), word(2)));
            }
            Message::Get(records)
        }
        OP_STATS => Message::Stats,
        OP_SHUTDOWN => Message::Shutdown,
        OP_VERDICTS => {
            // Sized up front: collecting a `Result` iterator cannot see the
            // length and regrows the `Vec` several times per reply.
            let mut vs = Vec::with_capacity(len);
            for &b in body {
                vs.push(WireVerdict::from_byte(b)?);
            }
            Message::Verdicts(vs)
        }
        OP_STATS_REPLY => {
            Message::StatsReply(std::str::from_utf8(body).map_err(|_| WireError::BadUtf8)?.to_owned())
        }
        OP_SHUTDOWN_ACK => Message::ShutdownAck,
        OP_EVENTS => Message::Events,
        OP_EVENTS_REPLY => Message::EventsReply(body.to_vec()),
        OP_RESIZE => {
            Message::Resize(u32::from_le_bytes(body.try_into().expect("length validated above")))
        }
        OP_RESIZE_ACK => {
            Message::ResizeAck(std::str::from_utf8(body).map_err(|_| WireError::BadUtf8)?.to_owned())
        }
        _ => unreachable!("opcode validated above"),
    };
    Ok(Some((msg, HEADER_LEN + len)))
}

/// Why [`FrameReader::recv`] failed.
#[derive(Debug)]
pub enum RecvError {
    /// The underlying transport failed (including `WouldBlock`/`TimedOut`
    /// on sockets with a read timeout — retryable — and `UnexpectedEof`
    /// when the peer vanished mid-frame).
    Io(std::io::Error),
    /// The byte stream violated the protocol.
    Wire(WireError),
}

impl RecvError {
    /// True when the error is a read-timeout expiry: no bytes were lost and
    /// the caller may simply call [`FrameReader::recv`] again.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            RecvError::Io(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
        )
    }
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Io(e) => write!(f, "transport error: {e}"),
            RecvError::Wire(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Incremental frame decoder over any [`Read`] stream.
///
/// Keeps partial frames buffered across calls, so it composes with socket
/// read timeouts: a timed-out [`recv`](Self::recv) can be retried without
/// losing stream position.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    start: usize,
    bytes_read: u64,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        Self { inner, buf: Vec::with_capacity(16 * 1024), start: 0, bytes_read: 0 }
    }

    /// Total bytes consumed from the underlying stream.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Reads the next frame. `Ok(None)` means the peer closed the stream
    /// cleanly at a frame boundary; closing mid-frame is `UnexpectedEof`.
    pub fn recv(&mut self) -> Result<Option<Message>, RecvError> {
        loop {
            match decode(&self.buf[self.start..]).map_err(RecvError::Wire)? {
                Some((msg, used)) => {
                    self.start += used;
                    if self.start == self.buf.len() {
                        self.buf.clear();
                        self.start = 0;
                    } else if self.start > 64 * 1024 {
                        self.buf.drain(..self.start);
                        self.start = 0;
                    }
                    return Ok(Some(msg));
                }
                None => {
                    let mut chunk = [0u8; 16 * 1024];
                    let n = match self.inner.read(&mut chunk) {
                        Ok(n) => n,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(RecvError::Io(e)),
                    };
                    if n == 0 {
                        if self.start == self.buf.len() {
                            return Ok(None);
                        }
                        return Err(RecvError::Io(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "peer closed mid-frame",
                        )));
                    }
                    self.bytes_read += n as u64;
                    self.buf.extend_from_slice(&chunk[..n]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_layout_is_stable() {
        let bytes = encoded(&Message::Stats);
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(u16::from_le_bytes([bytes[0], bytes[1]]), MAGIC);
        assert_eq!(bytes[2], VERSION);
        assert_eq!(bytes[3], OP_STATS);
        assert_eq!(&bytes[4..8], &[0, 0, 0, 0]);
    }

    #[test]
    fn events_frames_roundtrip() {
        let (msg, used) = decode(&encoded(&Message::Events)).unwrap().unwrap();
        assert_eq!((msg, used), (Message::Events, HEADER_LEN));

        let frame = vec![0xAB; 37];
        let bytes = encoded(&Message::EventsReply(frame.clone()));
        let (msg, used) = decode(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(msg, Message::EventsReply(frame));

        // An EVENTS request must carry no body.
        let mut bad = encoded(&Message::Events);
        bad[4] = 1;
        bad.push(0);
        assert_eq!(decode(&bad), Err(WireError::BadBodyLen { opcode: OP_EVENTS, len: 1 }));
    }

    #[test]
    fn resize_frames_roundtrip() {
        for target in [1u32, 8, u32::MAX] {
            let bytes = encoded(&Message::Resize(target));
            assert_eq!(bytes.len(), HEADER_LEN + RESIZE_BODY_LEN);
            let (msg, used) = decode(&bytes).unwrap().unwrap();
            assert_eq!((msg, used), (Message::Resize(target), bytes.len()));
        }
        let ack = Message::ResizeAck(r#"{"generation":2}"#.into());
        let bytes = encoded(&ack);
        let (msg, used) = decode(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(msg, ack);

        // A RESIZE body must be exactly 4 bytes.
        for bad_len in [0usize, 3, 5, 8] {
            let mut bad = encoded(&Message::Resize(2));
            bad.truncate(HEADER_LEN);
            bad[4..8].copy_from_slice(&(bad_len as u32).to_le_bytes());
            bad.extend(std::iter::repeat_n(0u8, bad_len));
            assert_eq!(
                decode(&bad),
                Err(WireError::BadBodyLen { opcode: OP_RESIZE, len: bad_len }),
                "body of {bad_len} bytes"
            );
        }
        // A RESIZE_ACK body must be UTF-8.
        let mut bad = encoded(&Message::ResizeAck("ok".into()));
        bad[HEADER_LEN] = 0xFF;
        assert_eq!(decode(&bad), Err(WireError::BadUtf8));
    }

    #[test]
    fn get_roundtrip_preserves_records() {
        let reqs = vec![Request::new(7, 1234, 0), Request::new(u64::MAX, 1, 99)];
        let bytes = encoded(&Message::Get(reqs.clone()));
        let (msg, used) = decode(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(msg, Message::Get(reqs));
    }

    #[test]
    fn verdict_bytes_roundtrip() {
        for outcome in [VerdictOutcome::HocHit, VerdictOutcome::DcHit, VerdictOutcome::OriginFetch] {
            for admitted in [false, true] {
                let v = WireVerdict { outcome, admitted, retry_after: 0 };
                assert_eq!(WireVerdict::from_byte(v.to_byte()).unwrap(), v);
            }
        }
        for v in [WireVerdict::DROPPED, WireVerdict::UNAVAILABLE] {
            assert_eq!(WireVerdict::from_byte(v.to_byte()).unwrap(), v);
        }
        for hint in 0..=7 {
            let v = WireVerdict::busy(hint);
            assert_eq!(WireVerdict::from_byte(v.to_byte()).unwrap(), v);
        }
        assert_eq!(WireVerdict::busy(200).retry_after, 7, "hints clamp to the wire field");
    }

    #[test]
    fn decoded_verdicts_are_allocated_once() {
        for len in [64, 37] {
            let vs = vec![WireVerdict::busy(1); len];
            let (msg, _) = decode(&encoded(&Message::Verdicts(vs.clone()))).unwrap().unwrap();
            match msg {
                Message::Verdicts(decoded) => {
                    assert_eq!(decoded, vs);
                    assert_eq!(decoded.capacity(), len);
                }
                other => panic!("expected verdicts, got {other:?}"),
            }
        }
        // The first bad byte still names the error.
        let mut bad = encoded(&Message::Verdicts(vec![WireVerdict::busy(1); 64]));
        bad[HEADER_LEN + 3] = 0x80;
        bad[HEADER_LEN + 9] = 0xFF;
        assert_eq!(decode(&bad), Err(WireError::BadVerdictByte(0x80)));
    }

    #[test]
    fn impossible_verdict_bytes_are_rejected() {
        // Dropped/Unavailable/Busy + admitted, unassigned outcomes, a
        // retry_after hint on a non-Busy outcome, and the reserved bit 7.
        for b in [0b1011u8, 0b1100, 0b1101, 0b110, 0b111, 0b1_0000, 0b111_0100, 0x80, 0xFF] {
            assert_eq!(WireVerdict::from_byte(b), Err(WireError::BadVerdictByte(b)), "byte {b:#b}");
        }
    }

    #[test]
    fn truncated_frames_ask_for_more() {
        let bytes = encoded(&Message::Get(vec![Request::new(1, 2, 3)]));
        for cut in 0..bytes.len() {
            assert_eq!(decode(&bytes[..cut]).unwrap(), None, "prefix of {cut} bytes");
        }
    }

    #[test]
    fn bad_magic_fails_before_full_header() {
        assert_eq!(decode(&[0x00, 0x00]), Err(WireError::BadMagic(0)));
    }

    #[test]
    fn frame_reader_reassembles_split_frames() {
        let mut stream = Vec::new();
        let reqs = vec![Request::new(1, 10, 0), Request::new(2, 20, 5)];
        encode(&Message::Get(reqs.clone()), &mut stream);
        encode(&Message::Stats, &mut stream);
        // A reader over a one-byte-at-a-time source.
        struct Dribble<'a>(&'a [u8], usize);
        impl Read for Dribble<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                out[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let mut r = FrameReader::new(Dribble(&stream, 0));
        assert_eq!(r.recv().unwrap(), Some(Message::Get(reqs)));
        assert_eq!(r.recv().unwrap(), Some(Message::Stats));
        assert_eq!(r.recv().unwrap(), None);
        assert_eq!(r.bytes_read(), stream.len() as u64);
    }

    #[test]
    fn frame_reader_flags_mid_frame_eof() {
        let bytes = encoded(&Message::Get(vec![Request::new(1, 2, 3)]));
        let mut r = FrameReader::new(&bytes[..bytes.len() - 1]);
        match r.recv() {
            Err(RecvError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }
}
