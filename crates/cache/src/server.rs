//! The two-level cache server and the standalone HOC simulator.
//!
//! [`CacheServer`] wires together the HOC (with a swappable admission
//! policy — the Darwin control point), the DC (with its second-request Bloom
//! admission), frequency tracking and metrics, implementing the request flow
//! of Figure 1. [`HocSim`] is a lighter HOC-only simulator — a bank of expert
//! lanes over one per-object table — used for shadow caches (HillClimbing)
//! and for offline expert evaluation where only HOC hit/miss sequences
//! matter.

use crate::bloom::BloomFilter;
use crate::eviction::{EvictionKind, Store};
use crate::idmap::{segment_of, IdMap, Key, SEGMENTS};
use crate::metrics::CacheMetrics;
use crate::policy::{Admission, ObjectView, ThresholdPolicy};
use darwin_ckpt::rows::{Changes, Layout, Table, TableChanges};
use darwin_ckpt::{CkptError, Dec, Enc};
use darwin_trace::{ObjectId, Request};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Where a request was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Served from the Hot Object Cache.
    HocHit,
    /// Served from the Disk Cache.
    DcHit,
    /// Fetched from the origin (full miss).
    OriginFetch,
}

impl RequestOutcome {
    /// True if the HOC served the request (the per-request indicator Darwin's
    /// cross-expert predictor training conditions on).
    pub fn is_hoc_hit(self) -> bool {
        matches!(self, RequestOutcome::HocHit)
    }
}

/// Static configuration of a [`CacheServer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// HOC capacity in bytes (paper default: 100 MB).
    pub hoc_bytes: u64,
    /// DC capacity in bytes (paper default: 10 GB in simulation).
    pub dc_bytes: u64,
    /// HOC eviction policy (paper: LRU).
    pub hoc_eviction: EvictionKind,
    /// DC eviction policy (paper: LRU).
    pub dc_eviction: EvictionKind,
    /// Sizing hint for the DC's one-hit-wonder Bloom filter.
    pub expected_unique_objects: usize,
}

impl CacheConfig {
    /// The paper's simulator setup: 100 MB HOC, 10 GB DC, LRU everywhere.
    pub fn paper_default() -> Self {
        Self {
            hoc_bytes: 100 * 1024 * 1024,
            dc_bytes: 10 * 1024 * 1024 * 1024,
            hoc_eviction: EvictionKind::Lru,
            dc_eviction: EvictionKind::Lru,
            expected_unique_objects: 1_000_000,
        }
    }

    /// A deliberately small configuration for fast unit tests (1 MB / 64 MB).
    pub fn small_test() -> Self {
        Self {
            hoc_bytes: 1024 * 1024,
            dc_bytes: 64 * 1024 * 1024,
            hoc_eviction: EvictionKind::Lru,
            dc_eviction: EvictionKind::Lru,
            expected_unique_objects: 100_000,
        }
    }

    /// Scales HOC and DC capacity by `factor` (for the 200 MB / 500 MB
    /// studies).
    pub fn scaled(&self, factor: u64) -> Self {
        Self { hoc_bytes: self.hoc_bytes * factor, dc_bytes: self.dc_bytes * factor, ..self.clone() }
    }
}

/// What the server remembers about one object it has seen. Packed to
/// 4-byte alignment, so that with its id it fills a 20-byte bucket — the
/// bytes of the row the image saves — and not a 24-byte one (fields are
/// read and written by value, never borrowed).
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct ObjectMeta {
    /// Timestamp of the latest request (the recency knob's input).
    last_ts: u64,
    /// Requests seen, saturating (the frequency knob's input).
    count: u32,
}

const _: () = assert!(std::mem::size_of::<ObjectMeta>() == 12, "a time and a count, no padding");
const _: () = assert!(std::mem::align_of::<ObjectMeta>() == 4, "a bucket aligned to its key");

/// Encoded bytes of one `(id, last_ts, count)` row of the saved per-object
/// table.
const ROW: usize = 8 + 8 + 4;

/// The image's frequency-tracker tag, always written: the per-object table
/// is the one tracker. (A `1` tagged a counting sketch the server no longer
/// has; such an image is refused.)
const FREQUENCY_TAG: u8 = 0;

/// Reads the frequency-tracker tag, refusing any but [`FREQUENCY_TAG`].
fn frequency_tag(dec: &mut Dec<'_>) -> Result<(), CkptError> {
    match dec.u8()? {
        FREQUENCY_TAG => Ok(()),
        t => Err(CkptError::Malformed(format!("frequency tracker tag {t}"))),
    }
}

/// Buckets a segment of a [`CacheServer`]'s per-object table stops at.
const SEGMENT_BUCKETS: usize = 1 << 14;

/// Rows a [`CacheServer`]'s per-object table keeps in each of its map's
/// [`SEGMENTS`] segments: ⅞ of a 2¹⁴-bucket table, the most it holds
/// before it doubles, less one. The one is the newcomer's room: a new
/// object's row is inserted before the segment forgets, so a full segment
/// holds the bound and one more for a moment, and a bound of the whole ⅞
/// (14 336) doubles every segment to 2¹⁵ buckets at its first forget. So
/// the table never passes 2¹⁹ buckets (≈ 10.5 MiB) however many objects
/// it sees.
pub const SEGMENT_ROWS: usize = SEGMENT_BUCKETS / 8 * 7 - 1;

/// The per-object table both simulators keep, one probe per request for
/// frequency and recency together.
///
/// **Forgetting.** The [`HocSim`] table keeps one entry per object ever
/// requested. A [`CacheServer`]'s keeps at most `bound` rows in each
/// segment of its map ([`SEGMENT_ROWS`]) between requests: when a new
/// object's row overflows its segment, the segment forgets its least
/// recently requested rows, ordered by `(last_ts, id)`, down to ¾ of the
/// bound — a quarter of them, and one more — and a forgotten object reads
/// as never seen. The newcomer's row is inserted before the segment
/// forgets, so for a moment the segment holds the bound and one more:
/// [`SEGMENT_ROWS`] leaves that room under the ⅞ at which a segment
/// doubles. The rows forgotten are a pure function of the rows
/// held and the request, so a table restored from an image forgets
/// exactly as the one that wrote it would have, and the image needs no
/// byte for it. The segment is emptied and refilled with the rows it
/// keeps ([`IdMap::drain_segment`]), not thinned in place: in place, the
/// tombstones left behind made the table double after a few million
/// requests.
///
/// With a base recorded the table also lists the objects whose rows may
/// differ from the base's: the rows a merged encode sorts. `base_ts` is
/// the greatest timestamp recorded when the base was, so each row the base
/// holds was last requested at or before `base_ts`. The first request for
/// an object since the base therefore finds it new or last requested at or
/// before `base_ts` — and exactly such requests are listed. Later ones find
/// it requested after `base_ts` and are not, unless time went back to
/// `base_ts` or before, which lists an object twice (the sort in place
/// drops the repeat). No base, no list: a server that never cuts keeps
/// none.
///
/// A base row whose object is not listed is the table's row unchanged,
/// unless a forget since the base dropped it — and then its `(last_ts,
/// id)` is at or below the greatest a forget of its segment dropped, which
/// `forgot` keeps per segment. So the rows forgotten since the base are
/// found from 32 numbers at the next cut, not listed one by one.
#[derive(Debug, Default)]
struct ObjectTable {
    map: IdMap<ObjectMeta>,
    /// Rows each segment keeps; `None` keeps every row.
    bound: Option<usize>,
    /// The greatest timestamp recorded (on a restore, the greatest among
    /// the rows).
    high_water: u64,
    /// [`high_water`](Self::high_water) when the base was recorded; `None`
    /// without a base.
    base_ts: Option<u64>,
    /// Objects requested since the base, as described above.
    changed: Vec<ObjectId>,
    /// Per segment, the greatest [`rank`] a forget since the base dropped.
    forgot: [Option<u128>; SEGMENTS],
    /// Rows forgotten since the base.
    forgotten: usize,
    /// An overflowing segment's rows while it forgets: sized at the first forget
    /// (the bound and the newcomer, ≈ 287 KB at [`SEGMENT_ROWS`]) and reused
    /// until the next base is recorded.
    draining: Vec<(Key, ObjectMeta)>,
}

/// A row's place in the order a segment forgets in: least recently
/// requested first, ties by id.
#[inline]
fn rank(id: ObjectId, last_ts: u64) -> u128 {
    (u128::from(last_ts) << 64) | u128::from(id)
}

impl ObjectTable {
    /// A table that keeps at most `rows` rows in each segment.
    fn bounded(rows: usize) -> Self {
        Self { bound: Some(rows), ..Self::default() }
    }

    /// Records a request for `id` at `now_us`. Returns the object's request
    /// count including this one, and the time since its previous request
    /// (`None` on first sight). Always inlined: the forget's call made the
    /// compiler stop inlining this, the request path's one probe of the
    /// table, into [`CacheServer::process`], at 16–26 ns a request.
    #[inline(always)]
    fn record(&mut self, id: ObjectId, now_us: u64) -> (u32, Option<u64>) {
        self.high_water = self.high_water.max(now_us);
        let (count, previous) = match self.map.entry(id) {
            Entry::Occupied(mut e) => {
                let meta = e.get_mut();
                let previous = meta.last_ts;
                meta.last_ts = now_us;
                meta.count = meta.count.saturating_add(1);
                (meta.count, Some(previous))
            }
            Entry::Vacant(slot) => {
                slot.insert(ObjectMeta { last_ts: now_us, count: 1 });
                if self.bound.is_some_and(|rows| self.map.segment_len(id) > rows) {
                    self.forget(id);
                }
                (1, None)
            }
        };
        if let Some(base_ts) = self.base_ts {
            if previous.is_none_or(|last| last <= base_ts) {
                self.list(id);
            }
        }
        (count, previous.map(|last| now_us.saturating_sub(last)))
    }

    /// Lists `id` as changed since the base. Out of line: a push inlined
    /// into [`record`](Self::record) kept that from inlining into the
    /// request path, and most requests list nothing.
    #[cold]
    #[inline(never)]
    fn list(&mut self, id: ObjectId) {
        self.changed.push(id);
    }

    /// Makes room in `id`'s overflowing segment: forgets its least recently
    /// requested rows, down to ¾ of the bound (see the type's docs). The
    /// segment's rows are ranked in the buffer the last forget left — made
    /// at the first forget, and again at the first after a cut drops it —
    /// and the rows kept go back into the segment's own table, so a forget
    /// allocates nothing else.
    #[cold]
    #[inline(never)]
    fn forget(&mut self, id: ObjectId) {
        let keep = self.bound.map_or(usize::MAX, |rows| rows - rows.div_ceil(4));
        let rows = &mut self.draining;
        rows.clear();
        self.map.drain_segment(id, rows);
        let forgotten = rows.len().saturating_sub(keep);
        if forgotten > 0 {
            // The rows ranked up to the one at `forgotten - 1` go; the rest
            // rank above it.
            let by_rank = |&(key, meta): &(Key, ObjectMeta)| rank(key.id(), meta.last_ts);
            let (_, last, _) = rows.select_nth_unstable_by_key(forgotten - 1, by_rank);
            let last = by_rank(last);
            if self.base_ts.is_some() {
                let forgot = &mut self.forgot[segment_of(id)];
                *forgot = (*forgot).max(Some(last));
                self.forgotten += forgotten;
            }
        }
        for &(key, meta) in &rows[forgotten..] {
            self.map.insert(key.id(), meta);
        }
    }

    /// Whether the base row `row` is one a forget since the base dropped —
    /// true only of a row whose object is not listed (see the type's docs).
    #[inline]
    fn dropped_since_base(&self, row: &[u8]) -> bool {
        let id = row_id(row);
        let last_ts = u64::from_le_bytes(row[8..16].try_into().expect("8 bytes"));
        self.forgot[segment_of(id)].is_some_and(|last| rank(id, last_ts) <= last)
    }

    /// Rebuilds the table from the saved sequence, walked where it lies in
    /// the frame: `rows` over `(id, last_ts, count)` rows strictly ascending
    /// by id, which is what [`CacheServer::encode_state`] writes; anything
    /// else is a corrupt image. The table keeps `bound` rows a segment.
    fn from_rows(mut rows: Dec<'_>, bound: Option<usize>) -> Result<Self, CkptError> {
        /// Rows decoded and checked between two runs of inserts. An insert
        /// is a cache miss the processor overlaps with its neighbours' only
        /// when nothing else sits between them: decoding row by row between
        /// the inserts made a 1 M-object restore 115 ms, a block at a time
        /// 78 ms (two whole vectors first, as it used to be: 99 ms).
        const BLOCK: usize = 1024;
        let objects = rows.remaining() / ROW;
        let mut map = IdMap::with_capacity(objects);
        let mut block = Vec::with_capacity(BLOCK.min(objects));
        let (mut previous, mut high_water) = (None, 0);
        for start in (0..objects).step_by(BLOCK) {
            block.clear();
            for _ in start..objects.min(start + BLOCK) {
                let (id, last_ts, count) = (rows.u64()?, rows.u64()?, rows.u32()?);
                if previous.is_some_and(|p| p >= id) {
                    return Err(CkptError::Malformed("per-object ids not strictly ascending".into()));
                }
                previous = Some(id);
                high_water = high_water.max(last_ts);
                block.push((id, ObjectMeta { last_ts, count }));
            }
            for &(id, meta) in &block {
                map.insert(id, meta);
            }
        }
        Ok(Self { map, bound, high_water, ..Self::default() })
    }

    /// Sorts the list of objects requested since the base by id, where it
    /// lies, and drops its repeats: the ids a merged encode writes itself.
    /// Sorting 8-byte ids in place allocates nothing; the rows are read
    /// from the table as they are written ([`merge_rows`]).
    fn sort_listed(&mut self) {
        self.changed.sort_unstable();
        self.changed.dedup();
    }

    /// Every row the table holds, sorted by id: what a full encode writes.
    /// Read off the map's iterator, not looked up id by id: a full encode
    /// of a 1 M-object table took 125–136 ms through sorted ids and one
    /// lookup a row, and takes 75–87 this way.
    fn sorted_rows(&self) -> Vec<[u8; ROW]> {
        // Sized up front: the map's iterator chains its segments and has
        // no exact size hint, so a `collect` would double its way up to as
        // much as twice the rows it holds.
        let mut rows = Vec::with_capacity(self.map.len());
        rows.extend(self.map.iter().map(|(id, meta)| row(id, meta)));
        rows.sort_unstable_by_key(|row| row_id(row));
        rows
    }
}

/// `id`'s row as the image holds it: `id u64, last_ts u64, count u32`.
#[inline]
fn row(id: ObjectId, meta: &ObjectMeta) -> [u8; ROW] {
    let mut bytes = [0; ROW];
    bytes[..8].copy_from_slice(&id.to_le_bytes());
    bytes[8..16].copy_from_slice(&meta.last_ts.to_le_bytes());
    bytes[16..].copy_from_slice(&meta.count.to_le_bytes());
    bytes
}

/// The id a row of the image's per-object table holds.
#[inline]
fn row_id(row: &[u8]) -> ObjectId {
    u64::from_le_bytes(row[..8].try_into().expect("8 bytes"))
}

/// Writes the id-sorted table's rows ([`ROW`] bytes each) onto `enc`: the
/// rows of `base` — the same table as a base image holds it — with the
/// rows of `ids` (sorted, no repeats) merged in, each read from `objects`
/// as it is written and replacing the base row of its id or going in
/// where its id sorts, and the runs of base rows between them copied as
/// they are. A listed id the table no longer holds was forgotten: its base
/// row, if the base has one, is dropped, and so are the base rows between
/// that a forget since the base dropped
/// ([`ObjectTable::dropped_since_base`]). Fills
/// `changes` with the positions of the rows written whose bytes `base`
/// does not hold, and of the base rows dropped.
fn merge_rows(
    enc: &mut Enc,
    base: &[u8],
    ids: &[ObjectId],
    objects: &ObjectTable,
    changes: &mut TableChanges,
) {
    let held = base.len() / ROW;
    let base_row = |i: usize| &base[i * ROW..(i + 1) * ROW];
    let key = |i: usize| row_id(base_row(i));
    let position = |i: usize| u32::try_from(i).expect("fewer than 2^32 rows");
    // Each listed id upserts at most one row, and each row dropped was
    // forgotten since the base: both lists sized once, not doubled.
    changes.upserts.reserve_exact(ids.len());
    changes.removals.reserve_exact(objects.forgotten.min(held));
    let forgets = objects.forgotten > 0;
    // Writes the base rows `from..to`, which no listed id names; with no
    // forget since the base, all of them in one copy.
    let kept = |enc: &mut Enc, from: usize, to: usize, removals: &mut Vec<u32>| {
        if !forgets {
            enc.raw(&base[from * ROW..to * ROW]);
            return to - from;
        }
        let (mut run, mut dropped) = (from, 0);
        for i in from..to {
            if objects.dropped_since_base(base_row(i)) {
                enc.raw(&base[run * ROW..i * ROW]);
                removals.push(position(i));
                (run, dropped) = (i + 1, dropped + 1);
            }
        }
        enc.raw(&base[run * ROW..to * ROW]);
        to - from - dropped
    };
    // Base rows passed so far, and target rows written.
    let (mut b, mut written) = (0, 0);
    // The rows are read from the table a block at a time, ahead of the
    // merge that writes them: a lookup is a cache miss, which the processor
    // overlaps with its neighbours' only when nothing else sits between
    // them. On benchmark cuts of ≈ 170 k listed rows the merge took 26 ms
    // with the rows looked up one by one between its copies, and takes
    // 16–20 a block at a time.
    const BLOCK: usize = 1024;
    let (mut rows, mut found) = ([[0; ROW]; BLOCK], [false; BLOCK]);
    for block in ids.chunks(BLOCK) {
        for ((new, found), &id) in rows.iter_mut().zip(&mut found).zip(block) {
            let meta = objects.map.get(id);
            *found = meta.is_some();
            if let Some(meta) = meta {
                *new = row(id, meta);
            }
        }
        for ((&id, new), &found) in block.iter().zip(&rows).zip(&found) {
            let from = b;
            while b < held && key(b) < id {
                b += 1;
            }
            if b > from {
                written += kept(enc, from, b, &mut changes.removals);
            }
            let holds = b < held && key(b) == id;
            if found {
                if !holds || base_row(b) != new {
                    changes.upserts.push(position(written));
                }
                enc.raw(new);
                written += 1;
            } else if holds {
                changes.removals.push(position(b));
            }
            // Neither found nor held: requested since the base, then
            // forgotten, and never written.
            b += usize::from(holds);
        }
    }
    kept(enc, b, held, &mut changes.removals);
}

/// The image of a cut this server's state was at: the base its next encode
/// merges into ([`CacheServer::record_base`]).
#[derive(Debug)]
struct Base {
    /// Boundary the cut was taken at, handed back with the changes.
    seq: u64,
    /// The frame that holds the image.
    frame: Arc<Vec<u8>>,
    /// Where the image's per-object table lies in `frame`.
    table: Table,
}

impl Base {
    /// The rows of the image's per-object table.
    fn rows(&self) -> &[u8] {
        let t = self.table;
        &self.frame[t.offset..t.offset + t.rows * t.width]
    }
}

/// The two-level CDN cache server.
pub struct CacheServer {
    config: CacheConfig,
    hoc: Store,
    dc: Store,
    policy: Admission,
    /// Request count and last request timestamp per object (the frequency
    /// and recency knobs' inputs), for at most [`SEGMENT_ROWS`] objects in
    /// each segment of its map: the least recently requested are forgotten.
    objects: ObjectTable,
    /// One-hit-wonder filter in front of the DC.
    dc_filter: BloomFilter,
    metrics: CacheMetrics,
    /// The last cut's image, which the next encode merges into.
    base: Option<Base>,
}

impl CacheServer {
    /// Creates a server with the default expert (f=2, s=100 KB) installed;
    /// call [`CacheServer::set_policy`] to choose another.
    pub fn new(config: CacheConfig) -> Self {
        let hoc = Store::new(config.hoc_bytes, config.hoc_eviction);
        let dc = Store::new(config.dc_bytes, config.dc_eviction);
        let dc_filter = BloomFilter::with_capacity(config.expected_unique_objects);
        Self {
            config,
            hoc,
            dc,
            policy: ThresholdPolicy::new(2, 100 * 1024).into(),
            objects: ObjectTable::bounded(SEGMENT_ROWS),
            dc_filter,
            metrics: CacheMetrics::default(),
            base: None,
        }
    }

    /// Installs a new HOC admission policy (takes effect on the next
    /// request). This is Darwin's actuation point: deploying an expert is
    /// exactly this call.
    pub fn set_policy(&mut self, policy: impl Into<Admission>) {
        self.policy = policy.into();
    }

    /// The configuration this server was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Cumulative metrics since construction.
    pub fn metrics(&self) -> CacheMetrics {
        self.metrics
    }

    /// Bytes currently resident in the HOC.
    pub fn hoc_used_bytes(&self) -> u64 {
        self.hoc.used_bytes()
    }

    /// Bytes currently resident in the DC.
    pub fn dc_used_bytes(&self) -> u64 {
        self.dc.used_bytes()
    }

    /// Processes one request through the two-level hierarchy, returning where
    /// it was served from.
    pub fn process(&mut self, req: &Request) -> RequestOutcome {
        let (frequency, recency_us) = self.objects.record(req.id, req.timestamp_us);

        self.metrics.requests += 1;
        self.metrics.bytes_total += req.size;

        // Level 1: HOC.
        if self.hoc.touch(req.id) {
            self.metrics.hoc_hits += 1;
            self.metrics.bytes_hoc_hit += req.size;
            return RequestOutcome::HocHit;
        }

        // Level 2: DC (and possible promotion into the HOC).
        let outcome = if self.dc.touch(req.id) {
            self.metrics.dc_hits += 1;
            self.metrics.bytes_dc_hit += req.size;
            RequestOutcome::DcHit
        } else {
            self.metrics.origin_fetches += 1;
            self.metrics.bytes_origin += req.size;
            // DC admission: only on a repeat request (Bloom-filtered).
            if self.dc_filter.insert(req.id) {
                let (inserted, evicted) = self.dc.insert(req.id, req.size);
                if inserted {
                    self.metrics.dc_writes += 1;
                    self.metrics.dc_write_bytes += req.size;
                }
                self.metrics.dc_evictions += evicted as u64;
            }
            RequestOutcome::OriginFetch
        };

        // HOC admission (promotion) — the expert decision.
        let view =
            ObjectView { id: req.id, size: req.size, frequency, recency_us, now_us: req.timestamp_us };
        if self.policy.admit(&view) {
            let (inserted, evicted) = self.hoc.insert(req.id, req.size);
            if inserted {
                self.metrics.hoc_writes += 1;
                self.metrics.hoc_write_bytes += req.size;
            }
            self.metrics.hoc_evictions += evicted as u64;
        }
        outcome
    }

    /// Processes a whole trace, returning the metrics accumulated over it
    /// (cumulative metrics minus the pre-trace snapshot).
    pub fn process_trace(&mut self, trace: &darwin_trace::Trace) -> CacheMetrics {
        let before = self.metrics;
        for r in trace {
            self.process(r);
        }
        self.metrics.diff(&before)
    }

    /// Serializes the server's full mutable state — both store levels, the
    /// per-object table (request count and last request time), the DC's
    /// one-hit wonder filter, and cumulative metrics — prefixed with a
    /// fingerprint of the static [`CacheConfig`].
    ///
    /// The deployed admission policy is deliberately *not* included: the
    /// controller that deploys experts owns that state, and the shard
    /// checkpoint layer records it alongside these bytes. Encoding is
    /// canonical (hash maps sorted by key), so identical state always
    /// yields identical bytes.
    pub fn save_state(&self) -> Vec<u8> {
        // The exact size is known before a byte is written, so the image —
        // megabytes of it — is written once, never regrown.
        let mut enc = Enc::with_capacity(self.state_len());
        self.encode(&mut enc, None);
        enc.into_bytes()
    }

    /// Exactly how many bytes [`encode_state`](Self::encode_state) writes
    /// (and [`save_state`](Self::save_state) returns), so a caller that
    /// embeds the state in a larger encoding sizes that once.
    pub fn state_len(&self) -> usize {
        (8 + config_fingerprint(&self.config).len())
            + self.hoc.encoded_len()
            + self.dc.encoded_len()
            + (1 + 8 + ROW * self.objects.map.len())
            + self.dc_filter.encoded_len()
            + CacheMetrics::ENCODED_LEN
    }

    /// Writes the bytes of [`save_state`](Self::save_state) onto `enc` —
    /// straight into a checkpoint frame, say, instead of into a buffer the
    /// frame then copies.
    ///
    /// With a base recorded ([`record_base`](Self::record_base)), the
    /// per-object table is the base's with the rows requested since
    /// merged in: only their ids are sorted — the table's own list of
    /// them, in place, so a steady cut allocates no sorted copy — and the
    /// rest are copied from the base as they lie, but for those forgotten
    /// since. The bytes are the same (debug builds check that against the
    /// full sort at every encode), and the positions of the rows that
    /// differ from the base's and of the base rows forgotten come back as
    /// the [`Changes`] a row delta against that base ships. `None` without
    /// a base.
    pub fn encode_state(&mut self, enc: &mut Enc) -> Option<Changes> {
        let start = enc.len();
        let changes = match &self.base {
            Some(base) => {
                self.objects.sort_listed();
                let mut table = TableChanges::default();
                self.encode(enc, Some((base, &mut table)));
                Some(Changes { base_seq: base.seq, tables: vec![table] })
            }
            None => {
                self.encode(enc, None);
                None
            }
        };
        debug_assert!(
            self.base.is_none() || enc.as_bytes()[start..] == self.save_state()[..],
            "the image merged into the base is not the full sort's"
        );
        changes
    }

    /// The one encoder: into `base` when there is one — the rows listed
    /// since it, sorted in place by [`encode_state`](Self::encode_state),
    /// merged in, and the rows that changed written to the table's lists —
    /// from a full sort of the table when there is not.
    fn encode(&self, enc: &mut Enc, base: Option<(&Base, &mut TableChanges)>) {
        enc.bytes(&config_fingerprint(&self.config));
        self.hoc.encode_state(enc);
        self.dc.encode_state(enc);
        // The frequency tracker's tag, kept so that no image byte moves.
        enc.u8(FREQUENCY_TAG);
        // The table is saved as one id-sorted sequence of rows.
        enc.usize(self.objects.map.len());
        match base {
            Some((base, changes)) => {
                merge_rows(enc, base.rows(), &self.objects.changed, &self.objects, changes)
            }
            None => enc.raw(self.objects.sorted_rows().as_flattened()),
        }
        self.dc_filter.encode_state(enc);
        self.metrics.encode_state(enc);
    }

    /// Records `frame` as the base the next [`encode_state`](Self::encode_state)
    /// merges into: a frame that holds the image of this server's state as
    /// it is now — the cut at `seq` it just encoded, or the image it was
    /// restored from — with its per-object table where `tables` says (the
    /// image's [`state_layout`](Self::state_layout), as offsets into
    /// `frame`). Starts the table's list of changed objects over in the
    /// same call, so the base and the rows merged into it cannot drift
    /// apart: from here, the objects requested are merged. A base that is
    /// never recorded costs no correctness — the objects listed since the
    /// last one are a superset of what changed since — and tables that do
    /// not fit this state (another number of tables, another width or row
    /// count) record none: the next encode sorts every row, and no object
    /// is listed until a base is recorded.
    pub fn record_base(&mut self, seq: u64, frame: Arc<Vec<u8>>, tables: Option<Layout>) {
        let rows = self.objects.map.len();
        let table = match tables.as_deref() {
            Some(&[t])
                if t.width == ROW
                    && t.rows == rows
                    && t.offset.saturating_add(rows * ROW) <= frame.len() =>
            {
                Some(t)
            }
            _ => None,
        };
        self.base = table.map(|table| Base { seq, frame, table });
        let objects = &mut self.objects;
        objects.base_ts = self.base.is_some().then_some(objects.high_water);
        (objects.forgot, objects.forgotten) = Default::default();
        // The forget buffer goes with the window: the cut's feed is the
        // heap's peak, and the next forget makes it again.
        objects.draining = Vec::new();
        // Kept allocated: the last window's list sizes the next one's.
        objects.changed.clear();
    }

    /// Where [`encode_state`](Self::encode_state) put the per-object table
    /// in `image`: one table of rows sorted by id, `id u64, last_ts u64,
    /// count u32` — what a cut's row delta diffs, while the rest of the
    /// image ships whole. Follows the length prefixes only: no row is
    /// decoded and nothing is hashed, so a damaged image may still lay out
    /// (the seal around it is what refuses it). `None` when the prefixes do
    /// not add up to `image`, or the frequency tracker's tag byte before
    /// the table is not `0`.
    pub fn state_layout(image: &[u8]) -> Option<Layout> {
        let mut dec = Dec::new(image);
        let mut walk = || -> Result<Table, CkptError> {
            dec.bytes()?; // config fingerprint
            Store::skip_state(&mut dec)?; // HOC
            Store::skip_state(&mut dec)?; // DC
            frequency_tag(&mut dec)?;
            let rows = dec.seq_len(ROW)?;
            let offset = image.len() - dec.remaining();
            dec.sub(rows * ROW)?;
            BloomFilter::skip_state(&mut dec)?;
            dec.sub(CacheMetrics::ENCODED_LEN)?;
            Ok(Table { offset, rows, width: ROW })
        };
        let table = walk().ok()?;
        dec.is_empty().then(|| vec![table])
    }

    /// Rebuilds a server from bytes written by [`CacheServer::save_state`].
    ///
    /// `config` must match the configuration the state was saved under
    /// (compared by fingerprint — restoring a checkpoint into a differently
    /// sized cache would silently violate capacity invariants). The restored
    /// server has the default policy installed; the caller re-deploys the
    /// policy that was active at save time.
    pub fn restore_state(config: CacheConfig, bytes: &[u8]) -> Result<Self, CkptError> {
        let mut dec = Dec::new(bytes);
        let found = dec.bytes()?;
        if found != config_fingerprint(&config) {
            return Err(CkptError::Malformed("cache config fingerprint mismatch".into()));
        }
        let hoc = Store::decode_state(&mut dec)?;
        let dc = Store::decode_state(&mut dec)?;
        if hoc.capacity() != config.hoc_bytes || dc.capacity() != config.dc_bytes {
            return Err(CkptError::Malformed("store capacity does not match config".into()));
        }
        frequency_tag(&mut dec)?;
        // The per-object table is not decoded into a vector of its own: it
        // is checked to fit, then walked in place.
        let rows = dec.seq_len(ROW)?;
        let objects = ObjectTable::from_rows(dec.sub(ROW * rows)?, Some(SEGMENT_ROWS))?;
        let dc_filter = BloomFilter::decode_state(&mut dec)?;
        let metrics = CacheMetrics::decode_state(&mut dec)?;
        dec.finish()?;
        Ok(Self {
            config,
            hoc,
            dc,
            policy: ThresholdPolicy::new(2, 100 * 1024).into(),
            objects,
            dc_filter,
            metrics,
            base: None,
        })
    }
}

/// Canonical byte fingerprint of a [`CacheConfig`], used to refuse restoring
/// a checkpoint into a server with different static configuration.
fn config_fingerprint(cfg: &CacheConfig) -> Vec<u8> {
    fn kind(enc: &mut Enc, k: EvictionKind) {
        match k {
            EvictionKind::Lru => enc.u8(0),
            EvictionKind::Fifo => enc.u8(1),
            EvictionKind::Lfu => enc.u8(2),
            EvictionKind::SegmentedLru { segments } => {
                enc.u8(3);
                enc.u8(segments);
            }
        }
    }
    let mut enc = Enc::new();
    enc.u64(cfg.hoc_bytes);
    enc.u64(cfg.dc_bytes);
    kind(&mut enc, cfg.hoc_eviction);
    kind(&mut enc, cfg.dc_eviction);
    // The byte the frequency mode took, kept so that no fingerprint moves.
    enc.u8(0);
    enc.usize(cfg.expected_unique_objects);
    enc.into_bytes()
}

/// A standalone HOC-only simulator: a bank of K ≥ 1 expert lanes fed one
/// request stream.
///
/// Shadow caches (HillClimbing baseline) and offline expert evaluation need
/// HOC hit/miss behaviour only; omitting the DC makes them several times
/// cheaper and — because HOC admission depends only on per-object frequency,
/// size and recency, not on DC state — exactly as accurate for HOC metrics.
/// For the same reason the lanes share one per-object table: it counts
/// requests, not admissions, so it is the same table in every lane. A
/// request is recorded once, then each lane's HOC and expert decide, and
/// each lane's hits and metrics are those of a simulator of its own.
pub struct HocSim {
    objects: ObjectTable,
    lanes: Vec<Lane>,
    /// Each lane's verdict on the last request: a HOC hit or not.
    hits: Vec<bool>,
}

/// One expert lane of a [`HocSim`]: its HOC, the expert that admits to
/// it, and its metrics.
struct Lane {
    hoc: Store,
    policy: ThresholdPolicy,
    metrics: CacheMetrics,
}

impl Lane {
    /// Serves `req`, which `view` describes; true on a HOC hit.
    #[inline]
    fn process(&mut self, req: &Request, view: &ObjectView) -> bool {
        self.metrics.requests += 1;
        self.metrics.bytes_total += req.size;

        if self.hoc.touch(req.id) {
            self.metrics.hoc_hits += 1;
            self.metrics.bytes_hoc_hit += req.size;
            return true;
        }
        self.metrics.origin_fetches += 1;
        self.metrics.bytes_origin += req.size;

        if self.policy.admit(view) {
            let (inserted, evicted) = self.hoc.insert(req.id, req.size);
            if inserted {
                self.metrics.hoc_writes += 1;
                self.metrics.hoc_write_bytes += req.size;
            }
            self.metrics.hoc_evictions += evicted as u64;
        }
        false
    }
}

impl HocSim {
    /// One lane: a HOC of the given capacity and eviction, and its expert.
    pub fn new(hoc_bytes: u64, eviction: EvictionKind, policy: ThresholdPolicy) -> Self {
        Self::bank([(hoc_bytes, eviction, policy)])
    }

    /// One lane per `(hoc_bytes, eviction, policy)`, in order.
    ///
    /// # Panics
    ///
    /// If `lanes` is empty.
    pub fn bank(lanes: impl IntoIterator<Item = (u64, EvictionKind, ThresholdPolicy)>) -> Self {
        let lanes: Vec<Lane> = lanes
            .into_iter()
            .map(|(hoc_bytes, eviction, policy)| Lane {
                hoc: Store::new(hoc_bytes, eviction),
                policy,
                metrics: CacheMetrics::default(),
            })
            .collect();
        assert!(!lanes.is_empty(), "a simulator has at least one lane");
        Self { objects: ObjectTable::default(), hits: vec![false; lanes.len()], lanes }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The expert installed in `lane`.
    pub fn policy(&self, lane: usize) -> ThresholdPolicy {
        self.lanes[lane].policy
    }

    /// Swaps `lane`'s expert in place (state is retained — this is what
    /// deploying a new expert on a warm cache does).
    pub fn set_policy(&mut self, lane: usize, policy: ThresholdPolicy) {
        self.lanes[lane].policy = policy;
    }

    /// `lane`'s cumulative metrics. Only HOC-related counters are
    /// populated; requests not served by the HOC are counted as origin
    /// fetches.
    pub fn metrics(&self, lane: usize) -> CacheMetrics {
        self.lanes[lane].metrics
    }

    /// Processes one request; returns, per lane, whether its HOC hit.
    #[inline]
    pub fn process(&mut self, req: &Request) -> &[bool] {
        let (frequency, recency_us) = self.objects.record(req.id, req.timestamp_us);
        let view =
            ObjectView { id: req.id, size: req.size, frequency, recency_us, now_us: req.timestamp_us };
        for (lane, hit) in self.lanes.iter_mut().zip(&mut self.hits) {
            *hit = lane.process(req, &view);
        }
        &self.hits
    }

    /// Runs a whole trace, returning each lane's metrics window for it.
    pub fn run_trace(&mut self, trace: &darwin_trace::Trace) -> Vec<CacheMetrics> {
        let before: Vec<CacheMetrics> = self.lanes.iter().map(|l| l.metrics).collect();
        for r in trace {
            self.process(r);
        }
        self.lanes.iter().zip(&before).map(|(l, b)| l.metrics.diff(b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_trace::{MixSpec, Trace, TraceGenerator, TrafficClass};

    fn req(id: u64, size: u64, ts: u64) -> Request {
        Request::new(id, size, ts)
    }

    #[test]
    fn second_request_admits_to_dc_not_first() {
        let mut s = CacheServer::new(CacheConfig::small_test());
        s.set_policy(ThresholdPolicy::new(100, 1)); // effectively never admit to HOC
        assert_eq!(s.process(&req(1, 100, 0)), RequestOutcome::OriginFetch);
        assert_eq!(s.metrics().dc_writes, 0, "one-hit wonder must not be written to DC");
        assert_eq!(s.process(&req(1, 100, 1)), RequestOutcome::OriginFetch);
        assert_eq!(s.metrics().dc_writes, 1, "second request admits to DC");
        assert_eq!(s.process(&req(1, 100, 2)), RequestOutcome::DcHit);
    }

    #[test]
    fn hoc_promotion_respects_f_threshold() {
        let mut s = CacheServer::new(CacheConfig::small_test());
        s.set_policy(ThresholdPolicy::new(2, 1024 * 1024));
        // Requests 1 and 2: freq 1,2 ≤ f=2 ⇒ no promotion.
        s.process(&req(7, 100, 0));
        s.process(&req(7, 100, 1));
        assert_eq!(s.metrics().hoc_writes, 0);
        // Request 3: freq 3 > 2 ⇒ promoted.
        let out = s.process(&req(7, 100, 2));
        assert_eq!(out, RequestOutcome::DcHit);
        assert_eq!(s.metrics().hoc_writes, 1);
        // Request 4: HOC hit.
        assert_eq!(s.process(&req(7, 100, 3)), RequestOutcome::HocHit);
    }

    #[test]
    fn hoc_promotion_respects_size_threshold() {
        let mut s = CacheServer::new(CacheConfig::small_test());
        s.set_policy(ThresholdPolicy::new(0, 50));
        s.process(&req(1, 51, 0));
        s.process(&req(1, 51, 1));
        assert_eq!(s.metrics().hoc_writes, 0, "oversized object promoted");
        s.process(&req(2, 50, 2));
        assert_eq!(s.metrics().hoc_writes, 1, "size-threshold object not promoted");
    }

    #[test]
    fn promotion_can_happen_from_origin_fetch_path() {
        // f=1: the 2nd request admits; the 2nd request is also the one that
        // admits into the DC, so HOC promotion happens on the origin path.
        let mut s = CacheServer::new(CacheConfig::small_test());
        s.set_policy(ThresholdPolicy::new(1, 1024));
        s.process(&req(3, 10, 0));
        assert_eq!(s.process(&req(3, 10, 1)), RequestOutcome::OriginFetch);
        assert_eq!(s.metrics().hoc_writes, 1);
        assert_eq!(s.process(&req(3, 10, 2)), RequestOutcome::HocHit);
    }

    #[test]
    fn metrics_accounting_is_consistent() {
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 3).generate(30_000);
        let mut s = CacheServer::new(CacheConfig::small_test());
        s.set_policy(ThresholdPolicy::new(1, 200 * 1024));
        let m = s.process_trace(&trace);
        assert_eq!(m.requests as usize, trace.len());
        assert_eq!(m.hoc_hits + m.dc_hits + m.origin_fetches, m.requests);
        assert_eq!(m.bytes_hoc_hit + m.bytes_dc_hit + m.bytes_origin, m.bytes_total);
        assert!(m.hoc_ohr() > 0.0, "some HOC hits expected");
        assert!(s.hoc_used_bytes() <= s.config().hoc_bytes);
        assert!(s.dc_used_bytes() <= s.config().dc_bytes);
    }

    #[test]
    fn always_admit_gives_upper_bound_hoc_traffic() {
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::download()), 4).generate(20_000);
        let mut strict = CacheServer::new(CacheConfig::small_test());
        strict.set_policy(ThresholdPolicy::new(50, 10));
        let m_strict = strict.process_trace(&trace);

        let mut open = CacheServer::new(CacheConfig::small_test());
        open.set_policy(ThresholdPolicy::new(0, u64::MAX));
        let m_open = open.process_trace(&trace);

        assert!(m_open.hoc_writes > m_strict.hoc_writes);
    }

    #[test]
    fn hocsim_matches_cacheserver_hoc_behaviour() {
        // With a DC large enough to never evict, HOC hit sequences of the
        // full server and the HOC-only sim must be identical.
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 5).generate(20_000);
        let policy = ThresholdPolicy::new(2, 100 * 1024);

        let mut full =
            CacheServer::new(CacheConfig { dc_bytes: u64::MAX / 2, ..CacheConfig::small_test() });
        full.set_policy(policy);
        let full_hits: Vec<bool> = trace.iter().map(|r| full.process(r).is_hoc_hit()).collect();

        let mut sim = HocSim::new(1024 * 1024, EvictionKind::Lru, policy);
        let sim_hits: Vec<bool> = trace.iter().map(|r| sim.process(r)[0]).collect();

        assert_eq!(full_hits, sim_hits);
    }

    #[test]
    fn policy_swap_retains_cache_state() {
        let mut sim = HocSim::new(10_000, EvictionKind::Lru, ThresholdPolicy::new(0, 10_000));
        sim.process(&req(1, 100, 0)); // admitted (f=0 ⇒ first request admits)
        sim.set_policy(0, ThresholdPolicy::new(100, 1)); // never admit from now on
        assert!(sim.process(&req(1, 100, 1))[0], "object admitted earlier must still hit");
    }

    #[test]
    fn recency_knob_requires_recent_rerequest() {
        let mut sim =
            HocSim::new(10_000, EvictionKind::Lru, ThresholdPolicy::with_recency(0, 10_000, 100));
        sim.process(&req(1, 10, 0)); // first sighting: no recency ⇒ no admit
        assert!(!sim.process(&req(1, 10, 500))[0], "gap 500 > r=100 ⇒ not admitted before");
        // gap 50 ≤ 100 ⇒ admitted now.
        assert!(!sim.process(&req(1, 10, 550))[0]);
        assert!(sim.process(&req(1, 10, 560))[0], "admitted on previous request ⇒ hit");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A bank of K lanes is K simulators of one lane each: the same
        /// hit bits request by request and the same metrics, under every
        /// eviction kind, with experts that differ in all three knobs and
        /// one swapped mid-stream in every lane.
        #[test]
        fn a_bank_is_its_lanes_run_alone(
            seed in 0u64..1_000,
            experts in proptest::collection::vec((0u32..5, 1u64..400, 0u64..20_000), 1..6),
            kind in 0usize..4,
            hoc_kb in 64u64..2_048,
        ) {
            let eviction = [
                EvictionKind::Lru,
                EvictionKind::Fifo,
                EvictionKind::Lfu,
                EvictionKind::SegmentedLru { segments: 4 },
            ][kind];
            let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), seed).generate(3_000);
            // A recency of 0 leaves the recency knob off.
            let policy = |&(f, s_kb, r): &(u32, u64, u64)| match r {
                0 => ThresholdPolicy::new(f, s_kb * 1024),
                r => ThresholdPolicy::with_recency(f, s_kb * 1024, r),
            };
            let swapped = |p: ThresholdPolicy| ThresholdPolicy { freq_threshold: p.freq_threshold + 1, ..p };
            let hoc = hoc_kb * 1024;
            let mut bank = HocSim::bank(experts.iter().map(|e| (hoc, eviction, policy(e))));
            let mut alone: Vec<HocSim> = experts.iter().map(|e| HocSim::new(hoc, eviction, policy(e))).collect();
            for (i, r) in trace.iter().enumerate() {
                if i == trace.len() / 2 {
                    for (lane, sim) in alone.iter_mut().enumerate() {
                        bank.set_policy(lane, swapped(bank.policy(lane)));
                        sim.set_policy(0, swapped(sim.policy(0)));
                    }
                }
                let hits = bank.process(r).to_vec();
                let want: Vec<bool> = alone.iter_mut().map(|sim| sim.process(r)[0]).collect();
                proptest::prop_assert_eq!(hits, want, "request {}", i);
            }
            for (lane, sim) in alone.iter().enumerate() {
                proptest::prop_assert_eq!(bank.metrics(lane), sim.metrics(0));
            }
        }
    }

    /// A HOC image whose residents' sizes wrap their sum is refused,
    /// typed: in a debug build the sum used to panic the restoring thread,
    /// in a release build it was accepted as an empty 1 TiB cache.
    #[test]
    fn restore_refuses_resident_sizes_that_overflow() {
        let cfg = || CacheConfig { hoc_bytes: 1 << 40, ..CacheConfig::small_test() };
        let mut s = CacheServer::new(cfg());
        s.set_policy(ThresholdPolicy::new(0, u64::MAX));
        s.process(&req(1, 10, 0));
        s.process(&req(2, 20, 1));
        assert_eq!(s.hoc_used_bytes(), 30);
        let mut image = s.save_state();
        // The HOC (an LRU store) follows the config fingerprint; a row's
        // size follows the store's kind, capacity, clock, segment count and
        // chain length, and the row's id.
        let hoc = 8 + config_fingerprint(&cfg()).len();
        for row in 0..2 {
            let at = hoc + 1 + 3 * 8 + 8 + row * 32 + 8;
            image[at..at + 8].copy_from_slice(&(1u64 << 63).to_le_bytes());
        }
        match CacheServer::restore_state(cfg(), &image) {
            Err(CkptError::Malformed(why)) => assert!(why.contains("overflows"), "{why}"),
            other => panic!("accepted or misreported: {:?}", other.map(|s| s.hoc_used_bytes())),
        }
    }

    #[test]
    fn empty_trace_yields_zero_window() {
        let mut s = CacheServer::new(CacheConfig::small_test());
        let m = s.process_trace(&Trace::default());
        assert_eq!(m, CacheMetrics::default());
    }

    #[test]
    fn save_restore_resumes_bitwise_identically() {
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 9).generate(20_000);
        let policy = ThresholdPolicy::new(2, 100 * 1024);
        let mut original = CacheServer::new(CacheConfig::small_test());
        original.set_policy(policy);
        let (head, tail) = (&trace.requests()[..12_000], &trace.requests()[12_000..]);
        for r in head {
            original.process(r);
        }

        let bytes = original.save_state();
        assert_eq!(bytes.capacity(), bytes.len(), "the image is sized exactly, up front");
        let mut restored = CacheServer::restore_state(CacheConfig::small_test(), &bytes).unwrap();
        restored.set_policy(policy);
        assert_eq!(restored.metrics(), original.metrics());
        assert_eq!(restored.hoc_used_bytes(), original.hoc_used_bytes());
        assert_eq!(restored.dc_used_bytes(), original.dc_used_bytes());
        // Re-saving the restored server is bit-identical (canonical codec).
        assert_eq!(restored.save_state(), bytes);

        // Both servers process the tail identically, outcome by outcome.
        for r in tail {
            assert_eq!(original.process(r), restored.process(r), "diverged at {}", r.id);
        }
        assert_eq!(restored.metrics(), original.metrics());
        assert_eq!(restored.hoc_used_bytes(), original.hoc_used_bytes());
        assert_eq!(restored.dc_used_bytes(), original.dc_used_bytes());
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let mut s = CacheServer::new(CacheConfig::small_test());
        s.process(&req(1, 100, 0));
        let bytes = s.save_state();
        let bigger = CacheConfig { hoc_bytes: 2 * 1024 * 1024, ..CacheConfig::small_test() };
        assert!(matches!(
            CacheServer::restore_state(bigger, &bytes),
            Err(darwin_ckpt::CkptError::Malformed(_))
        ));
    }

    /// The table lists changed objects only while a base is held: a
    /// server that never cuts and the HOC-only simulator list none, a base
    /// that does not fit ends the list, and a server based on the image it
    /// was restored from lists the objects requested since, once each.
    #[test]
    fn no_list_without_a_base() {
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 11).generate(10_000);
        let mut server = CacheServer::new(CacheConfig::small_test());
        server.process_trace(&trace);
        let mut sim = HocSim::new(1024 * 1024, EvictionKind::Lru, ThresholdPolicy::new(2, 100 * 1024));
        sim.run_trace(&trace);
        assert_eq!(server.objects.changed.capacity(), 0, "a server that never cuts");
        assert_eq!(sim.objects.changed.capacity(), 0, "the HOC-only simulator");

        let (head, tail) = trace.requests().split_at(6_000);
        let mut server = CacheServer::new(CacheConfig::small_test());
        for r in head {
            server.process(r);
        }
        let image = server.save_state();
        let based = |s: &mut CacheServer, image: &[u8]| {
            s.record_base(1, Arc::new(image.to_vec()), CacheServer::state_layout(image));
            assert!(s.base.is_some(), "the image fits");
        };

        // A base that does not fit: the list empties and stays empty.
        let mut unfit = CacheServer::restore_state(CacheConfig::small_test(), &image).unwrap();
        based(&mut unfit, &image);
        for r in &tail[..100] {
            unfit.process(r);
        }
        assert!(!unfit.objects.changed.is_empty());
        unfit.record_base(2, Arc::new(image.clone()), None);
        assert!(unfit.base.is_none() && unfit.objects.changed.is_empty());
        for r in tail {
            unfit.process(r);
        }
        assert!(unfit.objects.changed.is_empty(), "listed without a base");

        // Based on its restore image: the tail's objects, each once.
        let mut restored = CacheServer::restore_state(CacheConfig::small_test(), &image).unwrap();
        based(&mut restored, &image);
        for r in tail {
            restored.process(r);
        }
        let mut seen = std::collections::HashSet::new();
        let requested: Vec<ObjectId> = tail.iter().map(|r| r.id).filter(|&id| seen.insert(id)).collect();
        assert_eq!(restored.objects.changed, requested);
    }

    /// The merge reads its rows from the table by the listed ids, which it
    /// sorts where they lie: a list out of id order that names an object
    /// twice — time went back to the base's high water — encodes the full
    /// sort's bytes and the positions of the rows the base lacks or holds
    /// with other bytes. (Debug builds check the bytes at every encode;
    /// this holds them in release too.)
    #[test]
    fn an_unsorted_list_with_a_repeat_merges_as_the_full_sort() {
        let mut s = CacheServer::new(CacheConfig::small_test());
        for (i, id) in [40u64, 10, 30, 20].into_iter().enumerate() {
            s.process(&req(id, 100, 100 + i as u64));
        }
        let base = s.save_state();
        s.record_base(7, Arc::new(base.clone()), CacheServer::state_layout(&base));
        // The base's high water is 103: a tie lists 30, a new object lists
        // 50, an earlier time lists 10, and time back below 103 lists 30
        // again.
        for (id, ts) in [(30, 103), (50, 104), (10, 101), (30, 99)] {
            s.process(&req(id, 100, ts));
        }
        assert_eq!(s.objects.changed, [30, 50, 10, 30]);

        let mut enc = Enc::new();
        let changes = s.encode_state(&mut enc).expect("a base is recorded");
        let image = enc.into_bytes();
        assert!(image == s.save_state(), "the merge wrote other bytes than the full sort");
        // Rows 10, 20, 30, 40, 50: the first, third and fifth changed.
        let tables = vec![TableChanges { upserts: vec![0, 2, 4], removals: Vec::new() }];
        assert_eq!(changes, Changes { base_seq: 7, tables });
        assert_eq!(s.objects.changed, [10, 30, 50], "sorted in place, the repeat dropped");
    }

    /// A server's table is bounded, the HOC-only simulator's is not: fig2's
    /// pinned grids run through the simulator.
    #[test]
    fn only_the_server_forgets() {
        assert_eq!(CacheServer::new(CacheConfig::small_test()).objects.bound, Some(SEGMENT_ROWS));
        let image = CacheServer::new(CacheConfig::small_test()).save_state();
        let restored = CacheServer::restore_state(CacheConfig::small_test(), &image).unwrap();
        assert_eq!(restored.objects.bound, Some(SEGMENT_ROWS));
        let sim = HocSim::new(1024, EvictionKind::Lru, ThresholdPolicy::new(2, 1024));
        assert_eq!(sim.objects.bound, None);
        assert_eq!(SEGMENT_ROWS + 1, (1 << 14) / 8 * 7, "⅞ of a 2¹⁴-bucket segment, less one");
    }

    /// The server's geometry: fed distinct ids until every segment has
    /// forgotten twice, a table bounded at [`SEGMENT_ROWS`] never gives a
    /// segment more room than its 2¹⁴ buckets hold. The newcomer a segment
    /// takes before it forgets is what the bound's −1 makes room for: at a
    /// bound of 14 336 every segment doubles at its first forget.
    #[test]
    fn a_server_segment_stops_at_its_bucket_count() {
        use crate::idmap::{segment_of, SEGMENTS};
        use darwin_trace::generator::object_id;
        /// What a 2¹⁴-bucket segment holds before it must grow.
        const ROOM: usize = (1 << 14) / 8 * 7;
        let mut table = ObjectTable::bounded(SEGMENT_ROWS);
        let mut forgets = [0u32; SEGMENTS];
        let mut i = 0;
        while forgets.iter().any(|&f| f < 2) {
            let id = object_id(i % 3, (i / 3) as u64);
            let held = table.map.segment_len(id);
            table.record(id, i as u64);
            let segment = segment_of(id);
            forgets[segment] += u32::from(table.map.segment_len(id) < held);
            let room = table.map.segment_capacities()[segment];
            assert!(room <= ROOM, "segment {segment} grew to {room} at {i} ids");
            i += 1;
        }
    }

    /// The plateau: fed forty times its bound in distinct ids, a bounded
    /// table never holds more than the bound in a segment, and a segment
    /// whose table has grown to the 2¹⁰ buckets the bound fits in keeps
    /// exactly that room from then on, through about 160 forgets each. A
    /// segment thinned in place (`HashMap::remove`, `retain`) fails this:
    /// its tombstones eat the room `capacity` reports, and when none is
    /// left the table doubles.
    #[test]
    fn a_full_table_stops_growing() {
        use crate::idmap::SEGMENTS;
        use darwin_trace::generator::object_id;
        /// ⅞ of a 2¹⁰-bucket segment, less one: the server's geometry at a
        /// sixteenth of its size.
        const BOUND: usize = 895;
        /// What a 2¹⁰-bucket segment holds before it must grow.
        const ROOM: usize = 896;
        let mut table = ObjectTable::bounded(BOUND);
        let ids = 40 * BOUND * SEGMENTS;
        // Ids shaped like the catalogue's, each requested twice, 1 000 apart,
        // so that counts and times vary.
        let id = |i: usize| object_id(i % 3, (i / 3) as u64);
        let mut full = [false; SEGMENTS];
        for i in 0..ids {
            table.record(id(i), 2 * i as u64);
            if let Some(again) = i.checked_sub(1_000) {
                table.record(id(again), 2 * i as u64 + 1);
            }
            if i % 1_024 == 0 {
                let capacities = table.map.segment_capacities();
                for (segment, &room) in capacities.iter().enumerate() {
                    assert!(room <= ROOM, "segment {segment} grew at {i} ids: {capacities:?}");
                    assert!(!full[segment] || room == ROOM, "segment {segment} lost room at {i} ids");
                    full[segment] |= room == ROOM;
                }
            }
        }
        assert_eq!(full, [true; SEGMENTS], "every segment filled");
        assert!(table.map.keys().all(|id| table.map.segment_len(id) <= BOUND));
        assert!(table.map.len() >= BOUND * SEGMENTS * 3 / 4);
    }

    /// A segment that a new object overflows forgets its least recently
    /// requested rows down to ¾ of its bound, ties broken by id, the
    /// newcomer among them; a forgotten object reads as never seen, and
    /// the rows kept are untouched.
    #[test]
    fn a_full_segment_forgets_its_least_recent_quarter() {
        const BOUND: usize = 8;
        let mut table = ObjectTable::bounded(BOUND);
        // Eight ids of one segment, by rank.
        let segment = crate::idmap::segment_of(0);
        let ids: Vec<ObjectId> =
            (0u64..).filter(|&id| crate::idmap::segment_of(id) == segment).take(9).collect();
        // Times 10, 10, 20, 30, …: the first two tie.
        for (i, &id) in ids[..8].iter().enumerate() {
            table.record(id, 10 * i.max(1) as u64);
        }
        table.record(ids[0], 100); // the first is now the most recent
        assert_eq!(table.map.segment_len(ids[0]), BOUND);
        table.record(ids[8], 200);
        // The ninth row overflowed the segment: down to six, least recent
        // first — ids[1] (10, tied with nothing now), ids[2] and ids[3].
        let held: Vec<bool> = ids.iter().map(|&id| table.map.contains_key(id)).collect();
        assert_eq!(held, [true, false, false, false, true, true, true, true, true]);
        assert_eq!(table.record(ids[1], 300), (1, None), "forgotten reads as never seen");
        assert_eq!(table.record(ids[0], 400), (3, Some(300)), "a kept row is untouched");
        // Ties: rows of the same time go by id, and a newcomer that ranks
        // lowest — time went back — is forgotten at once.
        let mut tied = ObjectTable::bounded(4);
        for &id in &ids[..4] {
            tied.record(id, 5);
        }
        tied.record(ids[4], 6);
        let held: Vec<bool> = ids[..5].iter().map(|&id| tied.map.contains_key(id)).collect();
        assert_eq!(held, [false, false, true, true, true]);
        tied.record(ids[5], 6);
        assert_eq!(tied.record(ids[6], 1), (1, None));
        assert!(!tied.map.contains_key(ids[6]) && tied.map.segment_len(ids[6]) == 3);
    }

    /// A server that has forgotten restores to one that re-saves the same
    /// bytes and forgets as it would have: both process a tail that keeps
    /// forgetting to the same outcomes and the same image.
    #[test]
    fn restore_after_a_forget_resaves_the_same_bytes() {
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 21).generate(30_000);
        let bounded = |mut s: CacheServer| {
            s.objects.bound = Some(16);
            s.set_policy(ThresholdPolicy::new(1, 100 * 1024));
            s
        };
        let mut original = bounded(CacheServer::new(CacheConfig::small_test()));
        let (head, tail) = trace.requests().split_at(15_000);
        for r in head {
            original.process(r);
        }
        assert!(original.objects.map.len() <= 16 * crate::idmap::SEGMENTS);
        let bytes = original.save_state();
        let mut restored =
            bounded(CacheServer::restore_state(CacheConfig::small_test(), &bytes).unwrap());
        assert_eq!(restored.save_state(), bytes);
        for r in tail {
            assert_eq!(original.process(r), restored.process(r), "diverged at {}", r.id);
        }
        assert_eq!(restored.save_state(), original.save_state());
    }

    /// Where `s`'s saved `image` holds its per-object table: from the
    /// length prefix to the Bloom filter after the rows.
    fn table_span(s: &CacheServer, image: &[u8]) -> std::ops::Range<usize> {
        let end = image.len() - s.dc_filter.encoded_len() - CacheMetrics::ENCODED_LEN;
        end - (8 + ROW * s.objects.map.len())..end
    }

    /// `image` with its per-object table replaced by a length prefix of
    /// `rows` and the bytes `table`. The table sits between the stores and
    /// the Bloom filter, so everything around it is kept.
    fn with_table(s: &CacheServer, image: &[u8], rows: u64, table: &[u8]) -> Vec<u8> {
        let span = table_span(s, image);
        [&image[..span.start], &rows.to_le_bytes(), table, &image[span.end..]].concat()
    }

    /// `rows`, each `(id, last_ts, count)`, as the table holds them.
    fn table_of(rows: &[(ObjectId, u64, u32)]) -> Vec<u8> {
        let row = |&(id, ts, count): &(ObjectId, u64, u32)| {
            [&id.to_le_bytes()[..], &ts.to_le_bytes(), &count.to_le_bytes()].concat()
        };
        rows.iter().flat_map(row).collect()
    }

    /// `image` with the frequency-tracker tag, the byte just before the
    /// table's length prefix, set to `tag`.
    fn with_frequency_tag(s: &CacheServer, image: &[u8], tag: u8) -> Vec<u8> {
        let mut tagged = image.to_vec();
        tagged[table_span(s, image).start - 1] = tag;
        tagged
    }

    #[test]
    fn restore_rejects_per_object_sequences_that_disagree() {
        let cfg = CacheConfig::small_test;
        let mut s = CacheServer::new(cfg());
        for (i, id) in [3u64, 1, 2, 3, 2, 3].into_iter().enumerate() {
            s.process(&req(id, 100, 10 * i as u64));
        }
        let image = s.save_state();
        let rows = [(1, 10, 1), (2, 40, 2), (3, 50, 3)];
        let table = table_of(&rows);
        assert_eq!(with_table(&s, &image, 3, &table), image, "the splice reproduces the image");

        // One table cannot name different objects for counts and times, as
        // two sequences could; what it can still get wrong is refused, typed,
        // without a panic.
        let refused = |bad: &[u8], why: &str| {
            let restored = CacheServer::restore_state(cfg(), bad);
            assert!(
                matches!(restored, Err(CkptError::Malformed(_) | CkptError::Truncated)),
                "{why}: {:?}",
                restored.err()
            );
        };
        let unsorted = table_of(&[(2, 40, 2), (1, 10, 1), (3, 50, 3)]);
        refused(&with_table(&s, &image, 3, &unsorted), "unsorted ids");
        let repeated = table_of(&[(1, 10, 1), (2, 40, 2), (2, 50, 3)]);
        refused(&with_table(&s, &image, 3, &repeated), "a repeated id");
        let short = &table[..table.len() - 4];
        refused(&with_table(&s, &image, 3, short), "a last row without its count");
        refused(&image[..table_span(&s, &image).end - 4], "an image that ends in its last row");
        assert_eq!(with_frequency_tag(&s, &image, FREQUENCY_TAG), image, "the tag is where it is read");
        // The tag the counting sketch had: its bytes would follow, and
        // there is no sketch left to read them.
        refused(&with_frequency_tag(&s, &image, 1), "the sketch's frequency tracker tag");
    }

    /// `state_layout` finds the per-object table exactly where
    /// `encode_state` wrote it, row for row, under every store policy — and
    /// nothing in what does not lay out, so a cut of such an image ships
    /// whole and is never read as a row delta.
    #[test]
    fn state_layout_ranges_are_where_encode_state_wrote_the_sequences() {
        for eviction in [
            EvictionKind::Lru,
            EvictionKind::Fifo,
            EvictionKind::Lfu,
            EvictionKind::SegmentedLru { segments: 4 },
        ] {
            let cfg = CacheConfig {
                hoc_eviction: eviction,
                dc_eviction: eviction,
                ..CacheConfig::small_test()
            };
            let mut s = CacheServer::new(cfg);
            s.set_policy(ThresholdPolicy::new(0, 1024));
            for i in 0..600u64 {
                s.process(&req((i % 200) * 7919 % 1000, 100, i));
            }
            let image = s.save_state();
            let table =
                Table { offset: table_span(&s, &image).start + 8, rows: s.objects.map.len(), width: 20 };
            assert_eq!(CacheServer::state_layout(&image), Some(vec![table]), "{eviction:?}");
            let mut rows: Vec<_> =
                s.objects.map.iter().map(|(id, m)| (id, m.last_ts, m.count)).collect();
            rows.sort_unstable();
            for (i, (id, last_ts, count)) in rows.into_iter().enumerate() {
                let row = [&id.to_le_bytes()[..], &last_ts.to_le_bytes(), &count.to_le_bytes()].concat();
                let at = table.offset + 20 * i;
                assert_eq!(image[at..at + 20], row[..], "{eviction:?} row {i}");
            }
            let sketch_tagged = with_frequency_tag(&s, &image, 1);
            for bad in [&image[..image.len() - 1], &[&image[..], &[0]].concat(), &[], &sketch_tagged] {
                assert_eq!(CacheServer::state_layout(bad), None, "{} bytes", bad.len());
            }
        }
    }

    /// A row count that fits "one byte per row" but not the rows' width is
    /// refused as truncated wherever the image holds rows — a store's chain
    /// (32-byte rows) and the per-object table (20) — before anything is
    /// sized from it.
    #[test]
    fn restore_refuses_a_row_count_the_image_has_no_bytes_for() {
        let cfg = CacheConfig::small_test;
        let mut s = CacheServer::new(cfg());
        s.set_policy(ThresholdPolicy::new(0, 1024));
        for i in 0..600u64 {
            s.process(&req(i % 200, 100, i));
        }
        let image = s.save_state();
        CacheServer::restore_state(cfg(), &image).expect("the untouched image restores");

        // The HOC is the first store: fingerprint, kind tag, capacity,
        // clock, segment count, then the one LRU chain's length.
        let hoc_chain_at = 8 + config_fingerprint(&cfg()).len() + 1 + 8 + 8 + 8;
        for (what, at, rows) in [
            ("hoc chain", hoc_chain_at, s.hoc.len()),
            ("per-object table", table_span(&s, &image).start, s.objects.map.len()),
        ] {
            let prefix = u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
            assert_eq!(prefix, rows as u64, "{what}: not the length prefix");
            // As many rows as there are bytes left: one byte each would do.
            let mut bad = image.clone();
            let claimed = (image.len() - at - 8) as u64;
            bad[at..at + 8].copy_from_slice(&claimed.to_le_bytes());
            assert!(
                matches!(CacheServer::restore_state(cfg(), &bad), Err(CkptError::Truncated)),
                "{what}: {claimed} rows accepted"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Request and byte accounting always balances across the levels,
        /// and capacities are never exceeded.
        #[test]
        fn conservation_laws(
            reqs in proptest::collection::vec((0u64..50, 1u64..200_000), 1..400)
        ) {
            let mut s = CacheServer::new(CacheConfig {
                hoc_bytes: 256 * 1024,
                dc_bytes: 4 * 1024 * 1024,
                ..CacheConfig::small_test()
            });
            s.set_policy(ThresholdPolicy::new(1, 100 * 1024));
            let mut sizes = std::collections::BTreeMap::new();
            for (i, (id, size)) in reqs.iter().enumerate() {
                // Object sizes must be consistent within a trace.
                let size = *sizes.entry(*id).or_insert(*size);
                s.process(&Request::new(*id, size, i as u64));
                let m = s.metrics();
                prop_assert_eq!(m.hoc_hits + m.dc_hits + m.origin_fetches, m.requests);
                prop_assert_eq!(
                    m.bytes_hoc_hit + m.bytes_dc_hit + m.bytes_origin,
                    m.bytes_total
                );
                prop_assert!(s.hoc_used_bytes() <= 256 * 1024);
                prop_assert!(s.dc_used_bytes() <= 4 * 1024 * 1024);
            }
        }

        /// Arbitrary request prefixes roundtrip through save/restore with a
        /// canonical encoding, and the restored server replays any suffix
        /// bitwise-identically to the original.
        #[test]
        fn save_restore_roundtrip_arbitrary_state(
            prefix in proptest::collection::vec((0u64..60, 1u64..150_000), 1..300),
            suffix in proptest::collection::vec((0u64..60, 1u64..150_000), 0..100),
        ) {
            let cfg = CacheConfig {
                hoc_bytes: 256 * 1024,
                dc_bytes: 4 * 1024 * 1024,
                ..CacheConfig::small_test()
            };
            let policy = ThresholdPolicy::new(1, 100 * 1024);
            let mut original = CacheServer::new(cfg.clone());
            original.set_policy(policy);
            let mut sizes = std::collections::BTreeMap::new();
            for (i, (id, size)) in prefix.iter().enumerate() {
                let size = *sizes.entry(*id).or_insert(*size);
                original.process(&Request::new(*id, size, i as u64));
            }

            let bytes = original.save_state();
            let mut restored = CacheServer::restore_state(cfg, &bytes).unwrap();
            restored.set_policy(policy);
            prop_assert_eq!(restored.save_state(), bytes.clone());
            prop_assert_eq!(restored.metrics(), original.metrics());

            for (i, (id, size)) in suffix.iter().enumerate() {
                let size = *sizes.entry(*id).or_insert(*size);
                let at = (prefix.len() + i) as u64;
                let a = original.process(&Request::new(*id, size, at));
                let b = restored.process(&Request::new(*id, size, at));
                prop_assert_eq!(a, b, "restored server diverged");
            }
            prop_assert_eq!(restored.metrics(), original.metrics());
            prop_assert_eq!(restored.hoc_used_bytes(), original.hoc_used_bytes());
            prop_assert_eq!(restored.dc_used_bytes(), original.dc_used_bytes());
        }

        /// Any truncation or single-bit flip of saved state is rejected with
        /// an error — never a panic, never a silently inconsistent server.
        #[test]
        fn corrupt_save_state_never_restores(
            prefix in proptest::collection::vec((0u64..40, 1u64..100_000), 1..150),
            cut in 0.0f64..1.0,
            flip in 0.0f64..1.0,
            bit in 0u8..8,
        ) {
            let cfg = CacheConfig {
                hoc_bytes: 256 * 1024,
                dc_bytes: 4 * 1024 * 1024,
                ..CacheConfig::small_test()
            };
            let mut s = CacheServer::new(cfg.clone());
            let mut sizes = std::collections::BTreeMap::new();
            for (i, (id, size)) in prefix.iter().enumerate() {
                let size = *sizes.entry(*id).or_insert(*size);
                s.process(&Request::new(*id, size, i as u64));
            }
            let bytes = s.save_state();
            // Truncation: always an error (body must be consumed exactly).
            let keep = ((cut * bytes.len() as f64) as usize).min(bytes.len() - 1);
            prop_assert!(CacheServer::restore_state(cfg.clone(), &bytes[..keep]).is_err());
            // Bit flip: either detected, or the restored server still upholds
            // its structural invariants (the outer frame CRC is what makes
            // flips always-detected end to end; the body decoder must merely
            // never panic or break invariants).
            let mut bad = bytes.clone();
            let byte = ((flip * bad.len() as f64) as usize).min(bad.len() - 1);
            bad[byte] ^= 1 << bit;
            if let Ok(r) = CacheServer::restore_state(cfg.clone(), &bad) {
                prop_assert!(r.hoc_used_bytes() <= cfg.hoc_bytes);
                prop_assert!(r.dc_used_bytes() <= cfg.dc_bytes);
            }
        }

        /// The oracle for the merged encode: over random streams, every
        /// store and random cut points, the image merged into the recorded
        /// base is the full sort's byte for byte, and its change list is
        /// what a diff of the two images finds. At one cut the base is
        /// recorded from a restore of the image, at another the recording
        /// is skipped; cut points may repeat (a cut with nothing requested
        /// since the last), and a last cut always follows one with nothing
        /// requested in between.
        #[test]
        fn merged_encode_is_the_full_sort(
            stream in proptest::collection::vec(0u64..300, 1..1_500),
            mut cuts in proptest::collection::vec(0.0f64..1.0, 1..6),
            store in 0usize..4,
            skip in 0usize..8,
            restore in 0usize..8,
            time in 0usize..3,
            bound in 0usize..3,
        ) {
            let cfg = CacheConfig {
                hoc_bytes: 256 * 1024,
                dc_bytes: 2 * 1024 * 1024,
                hoc_eviction: [
                    EvictionKind::Lru,
                    EvictionKind::Fifo,
                    EvictionKind::Lfu,
                    EvictionKind::SegmentedLru { segments: 4 },
                ][store],
                ..CacheConfig::small_test()
            };
            let policy = ThresholdPolicy::new(1, 64 * 1024);
            // The server's own bound, or one the stream's 300 ids overflow
            // (128 or 256 rows in all), so that cuts merge forgotten rows.
            let bound = [SEGMENT_ROWS, 4, 8][bound];
            let start = |server: &mut CacheServer| {
                server.set_policy(policy);
                server.objects.bound = Some(bound);
            };
            let mut server = CacheServer::new(cfg.clone());
            start(&mut server);
            cuts.sort_by(f64::total_cmp);
            let ends = cuts.iter().map(|c| (c * stream.len() as f64) as usize).chain([stream.len()]);
            // The base recorded last, by its boundary.
            let mut base: Option<(u64, Vec<u8>)> = None;
            // The latest timestamp issued, and what it was at the last cut.
            let (mut latest, mut at_cut) = (0, 0);
            let mut done = 0;
            for (k, end) in ends.enumerate() {
                for (i, &id) in stream.iter().enumerate().take(end).skip(done) {
                    let (i, since_cut) = (i as u64, (i - done) as u64);
                    let ts = match time {
                        // Strictly rising.
                        0 => i,
                        // The first requests after a cut tie with the last
                        // before it.
                        1 if since_cut < 8 => latest,
                        // Every fourth request goes back to, or below, the
                        // last cut's high water.
                        2 if since_cut % 4 == 1 => at_cut - at_cut.min(i % 37),
                        _ => i,
                    };
                    latest = latest.max(ts);
                    server.process(&Request::new(id, 1 + id * 7_919 % 120_000, ts));
                }
                done = done.max(end);
                at_cut = latest;
                let listed = &server.objects.changed;
                let (listed, room) = (listed.len(), listed.capacity());
                let mut enc = Enc::new();
                let changes = server.encode_state(&mut enc);
                let image = enc.into_bytes();
                prop_assert!(image == server.save_state(), "cut {} merged other bytes", k);
                let expected = base.as_ref().map(|(seq, base)| Changes {
                    base_seq: *seq,
                    tables: diff_changes(base, &image),
                });
                prop_assert_eq!(changes, expected, "cut {}", k);
                // A merged encode sorts the list where it lies, allocating
                // nothing, and drops its repeats — of which there are
                // some only if time went back to the base, or a forgotten
                // object was requested again.
                let sorted = &server.objects.changed;
                prop_assert_eq!(sorted.capacity(), room, "cut {}", k);
                prop_assert!(sorted.windows(2).all(|w| w[0] < w[1]), "cut {}", k);
                if time == 0 && bound == SEGMENT_ROWS {
                    prop_assert_eq!(sorted.len(), listed, "cut {}", k);
                } else {
                    prop_assert!(sorted.len() <= listed, "cut {}", k);
                }
                if k == skip {
                    continue;
                }
                if k == restore {
                    server = CacheServer::restore_state(cfg.clone(), &image).unwrap();
                    start(&mut server);
                }
                let tables = CacheServer::state_layout(&image);
                server.record_base(k as u64, Arc::new(image.clone()), tables);
                base = Some((k as u64, image));
            }
            // Nothing requested since the base: nothing changed.
            let image = server.save_state();
            server.record_base(u64::MAX, Arc::new(image.clone()), CacheServer::state_layout(&image));
            let mut enc = Enc::new();
            let changes = server.encode_state(&mut enc).expect("a base is recorded");
            prop_assert!(enc.into_bytes() == image);
            prop_assert_eq!(changes.base_seq, u64::MAX);
            let unchanged = |t: &TableChanges| t.upserts.is_empty() && t.removals.is_empty();
            prop_assert!(changes.tables.iter().all(unchanged), "{:?}", changes);
            prop_assert_eq!(changes.tables.len(), 1, "one table");
        }
    }

    /// Per sequence, the positions of `target`'s rows that `base` lacks or
    /// holds with other bytes, and of `base`'s rows whose ids `target`
    /// lacks, found by looking every row up.
    fn diff_changes(base: &[u8], target: &[u8]) -> Vec<TableChanges> {
        let rows = |image: &[u8], t: &Table| -> Vec<Vec<u8>> {
            image[t.offset..t.offset + t.rows * t.width].chunks(t.width).map(<[u8]>::to_vec).collect()
        };
        let (old, new) =
            (CacheServer::state_layout(base).unwrap(), CacheServer::state_layout(target).unwrap());
        old.iter()
            .zip(&new)
            .map(|(o, n)| {
                let (base, target) = (rows(base, o), rows(target, n));
                let held: HashSet<&Vec<u8>> = base.iter().collect();
                let ids: HashSet<ObjectId> = target.iter().map(|row| row_id(row)).collect();
                let positions = |rows: &[Vec<u8>], pick: &dyn Fn(&Vec<u8>) -> bool| -> Vec<u32> {
                    (0..rows.len() as u32).filter(|&i| pick(&rows[i as usize])).collect()
                };
                TableChanges {
                    upserts: positions(&target, &|row| !held.contains(row)),
                    removals: positions(&base, &|row| !ids.contains(&row_id(row))),
                }
            })
            .collect()
    }
}
