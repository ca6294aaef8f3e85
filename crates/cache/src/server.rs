//! The two-level cache server and the standalone HOC simulator.
//!
//! [`CacheServer`] wires together the HOC (with a swappable admission
//! policy — the Darwin control point), the DC (with its second-request Bloom
//! admission), frequency tracking and metrics, implementing the request flow
//! of Figure 1. [`HocSim`] is a lighter HOC-only simulator used for shadow
//! caches (HillClimbing) and for offline expert evaluation where only HOC
//! hit/miss sequences matter.

use crate::bloom::{BloomFilter, FrequencySketch};
use crate::eviction::{EvictionKind, Store};
use crate::idmap::IdMap;
use crate::metrics::CacheMetrics;
use crate::policy::{AdmissionPolicy, ObjectView, ThresholdPolicy};
use darwin_ckpt::rows::{Layout, Table};
use darwin_ckpt::{CkptError, Dec, Enc};
use darwin_trace::{ObjectId, Request};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;

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

/// How the server tracks per-object request counts for the frequency knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrequencyMode {
    /// Exact per-object counting: deterministic, memory ∝ unique objects.
    /// The simulator default (matches offline expert evaluation).
    Exact,
    /// TinyLFU-style counting sketch: bounded memory, slight over-counting,
    /// periodic aging. What a production deployment would run.
    Sketch {
        /// Approximate number of concurrently tracked objects.
        expected_objects: usize,
    },
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
    /// Frequency tracking mode.
    pub frequency: FrequencyMode,
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
            frequency: FrequencyMode::Exact,
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
            frequency: FrequencyMode::Exact,
            expected_unique_objects: 100_000,
        }
    }

    /// Scales HOC and DC capacity by `factor` (for the 200 MB / 500 MB
    /// studies).
    pub fn scaled(&self, factor: u64) -> Self {
        Self { hoc_bytes: self.hoc_bytes * factor, dc_bytes: self.dc_bytes * factor, ..self.clone() }
    }
}

/// What the server remembers about one object it has seen.
#[derive(Debug, Clone, Copy)]
struct ObjectMeta {
    /// Timestamp of the latest request (the recency knob's input).
    last_ts: u64,
    /// Requests seen, saturating (the frequency knob's input; maintained
    /// but never read under [`FrequencyMode::Sketch`]).
    count: u32,
}

/// Encoded bytes of one `(id, count)` row of the saved frequency sequence.
const COUNT_ROW: usize = 8 + 4;
/// Encoded bytes of one `(id, last_ts)` row of the saved recency sequence.
const LAST_ROW: usize = 8 + 8;

/// The per-object table both simulators keep: one entry per object ever
/// requested, one probe per request for frequency and recency together.
#[derive(Debug, Default)]
struct ObjectTable {
    map: IdMap<ObjectMeta>,
}

impl ObjectTable {
    /// Records a request for `id` at `now_us`. Returns the object's request
    /// count including this one, and the time since its previous request
    /// (`None` on first sight).
    #[inline]
    fn record(&mut self, id: ObjectId, now_us: u64) -> (u32, Option<u64>) {
        match self.map.entry(id) {
            Entry::Occupied(mut e) => {
                let meta = e.get_mut();
                let gap = now_us.saturating_sub(meta.last_ts);
                meta.last_ts = now_us;
                meta.count = meta.count.saturating_add(1);
                (meta.count, Some(gap))
            }
            Entry::Vacant(slot) => {
                slot.insert(ObjectMeta { last_ts: now_us, count: 1 });
                (1, None)
            }
        }
    }

    /// Rebuilds the table from the saved sequences, walked side by side
    /// where they lie in the frame: `last` over `(id, last_ts)` rows for
    /// every object and, in Exact mode, `counts` over `(id, count)` rows for
    /// the same objects. Both must be strictly ascending by id and name the
    /// same ids — what [`ObjectTable::sorted`] writes; anything else is a
    /// corrupt image.
    fn from_sequences(mut counts: Option<Dec<'_>>, mut last: Dec<'_>) -> Result<Self, CkptError> {
        /// Rows decoded and checked between two runs of inserts. An insert
        /// is a cache miss the processor overlaps with its neighbours' only
        /// when nothing else sits between them: decoding row by row between
        /// the inserts made a 1 M-object restore 115 ms, a block at a time
        /// 78 ms (two whole vectors first, as it used to be: 99 ms).
        const BLOCK: usize = 1024;
        let malformed = |what: &str| Err(CkptError::Malformed(format!("per-object state: {what}")));
        let objects = last.remaining() / LAST_ROW;
        if counts.as_ref().is_some_and(|c| c.remaining() != COUNT_ROW * objects) {
            return malformed("frequency and recency sequences name different objects");
        }
        let mut map = IdMap::with_capacity(objects);
        let mut block = Vec::with_capacity(BLOCK.min(objects));
        let mut previous = None;
        for start in (0..objects).step_by(BLOCK) {
            block.clear();
            for _ in start..objects.min(start + BLOCK) {
                let (id, last_ts) = (last.u64()?, last.u64()?);
                if previous.is_some_and(|p| p >= id) {
                    return malformed("recency ids not strictly ascending");
                }
                previous = Some(id);
                let count = match &mut counts {
                    Some(counts) => {
                        if counts.u64()? != id {
                            return malformed("frequency and recency sequences name different objects");
                        }
                        counts.u32()?
                    }
                    None => 0,
                };
                block.push((id, ObjectMeta { last_ts, count }));
            }
            for &(id, meta) in &block {
                map.insert(id, meta);
            }
        }
        Ok(Self { map })
    }

    /// Every entry as `(id, last_ts, count)`, sorted by id — the canonical
    /// order state is saved in.
    fn sorted(&self) -> Vec<(ObjectId, u64, u32)> {
        // Sized up front: the map's iterator chains its segments and has no
        // exact size hint, so a `collect` would double its way up to as much
        // as twice the half-million rows a cut needs.
        let mut rows = Vec::with_capacity(self.map.len());
        rows.extend(self.map.iter().map(|(id, m)| (id, m.last_ts, m.count)));
        rows.sort_unstable_by_key(|&(id, ..)| id);
        rows
    }
}

/// The two-level CDN cache server.
pub struct CacheServer {
    config: CacheConfig,
    hoc: Store,
    dc: Store,
    policy: Box<dyn AdmissionPolicy>,
    /// Request count and last request timestamp per object (the frequency
    /// and recency knobs' inputs).
    objects: ObjectTable,
    /// Counts requests instead of the table under [`FrequencyMode::Sketch`].
    sketch: Option<FrequencySketch>,
    /// One-hit-wonder filter in front of the DC.
    dc_filter: BloomFilter,
    metrics: CacheMetrics,
}

impl CacheServer {
    /// Creates a server with the default expert (f=2, s=100 KB) installed;
    /// call [`CacheServer::set_policy`] to choose another.
    pub fn new(config: CacheConfig) -> Self {
        let hoc = Store::new(config.hoc_bytes, config.hoc_eviction);
        let dc = Store::new(config.dc_bytes, config.dc_eviction);
        let sketch = match config.frequency {
            FrequencyMode::Exact => None,
            FrequencyMode::Sketch { expected_objects } => {
                Some(FrequencySketch::with_capacity(expected_objects))
            }
        };
        let dc_filter = BloomFilter::with_capacity(config.expected_unique_objects);
        Self {
            config,
            hoc,
            dc,
            policy: Box::new(ThresholdPolicy::new(2, 100 * 1024)),
            objects: ObjectTable::default(),
            sketch,
            dc_filter,
            metrics: CacheMetrics::default(),
        }
    }

    /// Installs a new HOC admission policy (takes effect on the next
    /// request). This is Darwin's actuation point: deploying an expert is
    /// exactly this call.
    pub fn set_policy<P: AdmissionPolicy + 'static>(&mut self, policy: P) {
        self.policy = Box::new(policy);
    }

    /// Label of the currently deployed admission policy.
    pub fn policy_label(&self) -> String {
        self.policy.label()
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
        let (count, recency_us) = self.objects.record(req.id, req.timestamp_us);
        let frequency = match &mut self.sketch {
            Some(sketch) => sketch.increment(req.id),
            None => count,
        };

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
    /// frequency tracker, per-object recency bookkeeping, the DC's one-hit
    /// wonder filter, and cumulative metrics — prefixed with a fingerprint
    /// of the static [`CacheConfig`].
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
        self.encode_state(&mut enc);
        enc.into_bytes()
    }

    /// Exactly how many bytes [`encode_state`](Self::encode_state) writes
    /// (and [`save_state`](Self::save_state) returns), so a caller that
    /// embeds the state in a larger encoding sizes that once.
    pub fn state_len(&self) -> usize {
        let objects = self.objects.map.len();
        let freq_len = match &self.sketch {
            None => 8 + COUNT_ROW * objects,
            Some(s) => s.encoded_len(),
        };
        (8 + config_fingerprint(&self.config).len())
            + self.hoc.encoded_len()
            + self.dc.encoded_len()
            + (1 + freq_len)
            + (8 + LAST_ROW * objects)
            + self.dc_filter.encoded_len()
            + CacheMetrics::ENCODED_LEN
    }

    /// Writes the bytes of [`save_state`](Self::save_state) onto `enc` —
    /// straight into a checkpoint frame, say, instead of into a buffer the
    /// frame then copies.
    pub fn encode_state(&self, enc: &mut Enc) {
        enc.bytes(&config_fingerprint(&self.config));
        self.hoc.encode_state(enc);
        self.dc.encode_state(enc);
        // The table is saved as the two id-sorted sequences the format has
        // always held: counts (Exact mode only), then timestamps.
        let objects = self.objects.sorted();
        match &self.sketch {
            None => {
                enc.u8(0);
                enc.seq(&objects, |e, &(id, _, count)| {
                    e.u64(id);
                    e.u32(count);
                });
            }
            Some(s) => {
                enc.u8(1);
                s.encode_state(enc);
            }
        }
        enc.seq(&objects, |e, &(id, last_ts, _)| {
            e.u64(id);
            e.u64(last_ts);
        });
        self.dc_filter.encode_state(enc);
        self.metrics.encode_state(enc);
    }

    /// Where [`encode_state`](Self::encode_state) put the per-object tables
    /// in `image`: the frequency rows (`id u64, count u32`; Exact mode only)
    /// and the recency rows (`id u64, last_ts u64`), both sorted by id —
    /// what a cut's row delta diffs, while the rest of the image ships
    /// whole. Follows the length prefixes only: no row is decoded and
    /// nothing is hashed, so a damaged image may still lay out (the seal
    /// around it is what refuses it). `None` when the prefixes do not add
    /// up to `image`.
    pub fn state_layout(image: &[u8]) -> Option<Layout> {
        let mut dec = Dec::new(image);
        let table = |dec: &mut Dec<'_>, width: usize| -> Result<Table, CkptError> {
            let rows = dec.seq_len(width)?;
            let offset = image.len() - dec.remaining();
            dec.sub(rows * width)?;
            Ok(Table { offset, rows, width })
        };
        let mut walk = || -> Result<Layout, CkptError> {
            dec.bytes()?; // config fingerprint
            Store::skip_state(&mut dec)?; // HOC
            Store::skip_state(&mut dec)?; // DC
            let mut tables = Vec::with_capacity(2);
            match dec.u8()? {
                0 => tables.push(table(&mut dec, COUNT_ROW)?),
                1 => FrequencySketch::skip_state(&mut dec)?,
                t => return Err(CkptError::Malformed(format!("frequency tracker tag {t}"))),
            }
            tables.push(table(&mut dec, LAST_ROW)?);
            BloomFilter::skip_state(&mut dec)?;
            dec.sub(CacheMetrics::ENCODED_LEN)?;
            Ok(tables)
        };
        let tables = walk().ok()?;
        dec.is_empty().then_some(tables)
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
        // The two per-object sequences are not decoded into vectors of
        // their own: each is checked to fit, then walked in place.
        let (counts, sketch) = match (dec.u8()?, config.frequency) {
            (0, FrequencyMode::Exact) => {
                let rows = dec.seq_len(COUNT_ROW)?;
                (Some(dec.sub(COUNT_ROW * rows)?), None)
            }
            (1, FrequencyMode::Sketch { .. }) => (None, Some(FrequencySketch::decode_state(&mut dec)?)),
            (t, _) => {
                return Err(CkptError::Malformed(format!(
                    "frequency tracker tag {t} does not match config"
                )))
            }
        };
        let rows = dec.seq_len(LAST_ROW)?;
        let objects = ObjectTable::from_sequences(counts, dec.sub(LAST_ROW * rows)?)?;
        let dc_filter = BloomFilter::decode_state(&mut dec)?;
        let metrics = CacheMetrics::decode_state(&mut dec)?;
        dec.finish()?;
        Ok(Self {
            config,
            hoc,
            dc,
            policy: Box::new(ThresholdPolicy::new(2, 100 * 1024)),
            objects,
            sketch,
            dc_filter,
            metrics,
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
    match cfg.frequency {
        FrequencyMode::Exact => enc.u8(0),
        FrequencyMode::Sketch { expected_objects } => {
            enc.u8(1);
            enc.usize(expected_objects);
        }
    }
    enc.usize(cfg.expected_unique_objects);
    enc.into_bytes()
}

/// A standalone HOC-only simulator.
///
/// Shadow caches (HillClimbing baseline) and offline expert evaluation need
/// HOC hit/miss behaviour only; omitting the DC makes them several times
/// cheaper and — because HOC admission depends only on per-object frequency,
/// size and recency, not on DC state — exactly as accurate for HOC metrics.
pub struct HocSim {
    hoc: Store,
    policy: ThresholdPolicy,
    objects: ObjectTable,
    metrics: CacheMetrics,
}

impl HocSim {
    /// HOC-only simulator with the given capacity, eviction and expert.
    pub fn new(hoc_bytes: u64, eviction: EvictionKind, policy: ThresholdPolicy) -> Self {
        Self {
            hoc: Store::new(hoc_bytes, eviction),
            policy,
            objects: ObjectTable::default(),
            metrics: CacheMetrics::default(),
        }
    }

    /// LRU HOC with the paper's default size.
    pub fn paper_default(policy: ThresholdPolicy) -> Self {
        Self::new(100 * 1024 * 1024, EvictionKind::Lru, policy)
    }

    /// The installed expert.
    pub fn policy(&self) -> ThresholdPolicy {
        self.policy
    }

    /// Swaps the expert in place (state is retained — this is what deploying
    /// a new expert on a warm cache does).
    pub fn set_policy(&mut self, policy: ThresholdPolicy) {
        self.policy = policy;
    }

    /// Cumulative metrics. Only HOC-related counters are populated; requests
    /// not served by the HOC are counted as origin fetches.
    pub fn metrics(&self) -> CacheMetrics {
        self.metrics
    }

    /// Processes one request; returns true on a HOC hit.
    pub fn process(&mut self, req: &Request) -> bool {
        let (frequency, recency_us) = self.objects.record(req.id, req.timestamp_us);

        self.metrics.requests += 1;
        self.metrics.bytes_total += req.size;

        if self.hoc.touch(req.id) {
            self.metrics.hoc_hits += 1;
            self.metrics.bytes_hoc_hit += req.size;
            return true;
        }
        self.metrics.origin_fetches += 1;
        self.metrics.bytes_origin += req.size;

        let view =
            ObjectView { id: req.id, size: req.size, frequency, recency_us, now_us: req.timestamp_us };
        let mut policy = self.policy;
        if policy.admit(&view) {
            let (inserted, evicted) = self.hoc.insert(req.id, req.size);
            if inserted {
                self.metrics.hoc_writes += 1;
                self.metrics.hoc_write_bytes += req.size;
            }
            self.metrics.hoc_evictions += evicted as u64;
        }
        false
    }

    /// Runs a whole trace, returning the per-request HOC hit indicators —
    /// the raw material for cross-expert predictor training (§4.1 needs the
    /// joint hit/miss behaviour of expert pairs on the same trace).
    pub fn run_trace_recording(&mut self, trace: &darwin_trace::Trace) -> Vec<bool> {
        trace.iter().map(|r| self.process(r)).collect()
    }

    /// Runs a whole trace, returning the metrics window for it.
    pub fn run_trace(&mut self, trace: &darwin_trace::Trace) -> CacheMetrics {
        let before = self.metrics;
        for r in trace {
            self.process(r);
        }
        self.metrics.diff(&before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AlwaysAdmit;
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
        open.set_policy(AlwaysAdmit);
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
        let sim_hits = sim.run_trace_recording(&trace);

        assert_eq!(full_hits, sim_hits);
    }

    #[test]
    fn policy_swap_retains_cache_state() {
        let mut sim = HocSim::new(10_000, EvictionKind::Lru, ThresholdPolicy::new(0, 10_000));
        sim.process(&req(1, 100, 0)); // admitted (f=0 ⇒ first request admits)
        sim.set_policy(ThresholdPolicy::new(100, 1)); // never admit from now on
        assert!(sim.process(&req(1, 100, 1)), "object admitted earlier must still hit");
    }

    #[test]
    fn recency_knob_requires_recent_rerequest() {
        let mut sim =
            HocSim::new(10_000, EvictionKind::Lru, ThresholdPolicy::with_recency(0, 10_000, 100));
        sim.process(&req(1, 10, 0)); // first sighting: no recency ⇒ no admit
        assert!(!sim.process(&req(1, 10, 500)), "gap 500 > r=100 ⇒ not admitted before");
        // gap 50 ≤ 100 ⇒ admitted now.
        assert!(!sim.process(&req(1, 10, 550)));
        assert!(sim.process(&req(1, 10, 560)), "admitted on previous request ⇒ hit");
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
    fn save_restore_roundtrips_sketch_mode_too() {
        let cfg = CacheConfig {
            frequency: FrequencyMode::Sketch { expected_objects: 4096 },
            ..CacheConfig::small_test()
        };
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 6).generate(10_000);
        let mut original = CacheServer::new(cfg.clone());
        for r in &trace {
            original.process(r);
        }
        let bytes = original.save_state();
        assert_eq!(bytes.capacity(), bytes.len(), "the image is sized exactly, up front");
        let restored = CacheServer::restore_state(cfg, &bytes).unwrap();
        assert_eq!(restored.metrics(), original.metrics());
        assert_eq!(restored.save_state(), bytes);
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
        let sketchy = CacheConfig {
            frequency: FrequencyMode::Sketch { expected_objects: 64 },
            ..CacheConfig::small_test()
        };
        assert!(CacheServer::restore_state(sketchy, &bytes).is_err());
    }

    /// `image` with its two per-object sequences replaced. They sit between
    /// the stores and the Bloom filter, so everything around them is kept.
    fn with_sequences(
        s: &CacheServer,
        image: &[u8],
        counts: &[(u64, u32)],
        last: &[(u64, u64)],
    ) -> Vec<u8> {
        let n = s.objects.map.len();
        let tail = s.dc_filter.encoded_len() + CacheMetrics::ENCODED_LEN;
        let head = image.len() - tail - (8 + LAST_ROW * n) - (8 + COUNT_ROW * n);
        let mut enc = Enc::new();
        enc.seq(counts, |e, &(id, c)| {
            e.u64(id);
            e.u32(c);
        });
        enc.seq(last, |e, &(id, ts)| {
            e.u64(id);
            e.u64(ts);
        });
        [&image[..head], &enc.into_bytes(), &image[image.len() - tail..]].concat()
    }

    #[test]
    fn restore_rejects_per_object_sequences_that_disagree() {
        let cfg = CacheConfig::small_test;
        let mut s = CacheServer::new(cfg());
        for (i, id) in [3u64, 1, 2, 3, 2, 3].into_iter().enumerate() {
            s.process(&req(id, 100, 10 * i as u64));
        }
        let image = s.save_state();
        let counts = [(1, 1), (2, 2), (3, 3)];
        let last = [(1, 10), (2, 40), (3, 50)];
        assert_eq!(with_sequences(&s, &image, &counts, &last), image, "the splice reproduces the image");

        // Both sequences land in one table now: different key sets, unsorted
        // keys and duplicate keys are all refused, typed, without a panic.
        let refused = |counts: &[(u64, u32)], last: &[(u64, u64)]| {
            let bad = with_sequences(&s, &image, counts, last);
            assert!(
                matches!(CacheServer::restore_state(cfg(), &bad), Err(CkptError::Malformed(_))),
                "accepted counts {counts:?} / recency {last:?}"
            );
        };
        refused(&[(1, 1), (2, 2), (4, 3)], &last); // an id only one side has
        refused(&[(1, 1), (2, 2)], &last); // a count missing
        refused(&counts, &[(1, 10), (2, 40)]); // a timestamp missing
        refused(&[(2, 2), (1, 1), (3, 3)], &[(2, 40), (1, 10), (3, 50)]); // same keys, unsorted
        refused(&[(1, 1), (2, 2), (2, 3)], &[(1, 10), (2, 40), (2, 50)]); // same keys, repeated
        refused(&[], &[(7, 1)]); // counts empty, recency not
    }

    /// `state_layout` finds the per-object sequences exactly where
    /// `encode_state` wrote them, row for row, in both frequency modes and
    /// under every store policy — and nothing in what does not lay out.
    #[test]
    fn state_layout_ranges_are_where_encode_state_wrote_the_sequences() {
        let sketch = FrequencyMode::Sketch { expected_objects: 512 };
        for (eviction, frequency) in [
            (EvictionKind::Lru, FrequencyMode::Exact),
            (EvictionKind::Fifo, FrequencyMode::Exact),
            (EvictionKind::Lfu, sketch),
            (EvictionKind::SegmentedLru { segments: 4 }, FrequencyMode::Exact),
            (EvictionKind::SegmentedLru { segments: 4 }, sketch),
        ] {
            let cfg = CacheConfig {
                hoc_eviction: eviction,
                dc_eviction: eviction,
                frequency,
                ..CacheConfig::small_test()
            };
            let mut s = CacheServer::new(cfg);
            s.set_policy(ThresholdPolicy::new(0, 1024));
            for i in 0..600u64 {
                s.process(&req((i % 200) * 7919 % 1000, 100, i));
            }
            let image = s.save_state();
            let rows = s.objects.map.len();
            let tail = s.dc_filter.encoded_len() + CacheMetrics::ENCODED_LEN;
            let last = Table { offset: image.len() - tail - LAST_ROW * rows, rows, width: LAST_ROW };
            let counts = Table { offset: last.offset - 8 - COUNT_ROW * rows, rows, width: COUNT_ROW };
            let expected = if s.sketch.is_some() { vec![last] } else { vec![counts, last] };
            assert_eq!(CacheServer::state_layout(&image), Some(expected), "{eviction:?} {frequency:?}");
            for (i, (id, last_ts, count)) in s.objects.sorted().into_iter().enumerate() {
                let row = &image[last.offset + LAST_ROW * i..];
                assert_eq!(row[..16], [id.to_le_bytes(), last_ts.to_le_bytes()].concat());
                if s.sketch.is_none() {
                    let row = &image[counts.offset + COUNT_ROW * i..];
                    assert_eq!(row[..12], [&id.to_le_bytes()[..], &count.to_le_bytes()].concat());
                }
            }
            for bad in [&image[..image.len() - 1], &[&image[..], &[0]].concat(), &[]] {
                assert_eq!(CacheServer::state_layout(bad), None, "{} bytes", bad.len());
            }
        }
    }

    /// A row count that fits "one byte per row" but not the rows' width is
    /// refused as truncated wherever the image holds rows — a store's chain
    /// (32-byte rows), the frequency sequence (12) and the recency sequence
    /// (16) — before anything is sized from it.
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

        let objects = s.objects.map.len();
        let tail = s.dc_filter.encoded_len() + CacheMetrics::ENCODED_LEN;
        let last_at = image.len() - tail - (8 + LAST_ROW * objects);
        let counts_at = last_at - (8 + COUNT_ROW * objects);
        // The HOC is the first store: fingerprint, kind tag, capacity, clock,
        // segment count, then the one LRU chain's length.
        let hoc_chain_at = 8 + config_fingerprint(&cfg()).len() + 1 + 8 + 8 + 8;
        for (what, at, rows) in [
            ("hoc chain", hoc_chain_at, s.hoc.len()),
            ("frequency", counts_at, objects),
            ("recency", last_at, objects),
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
    }
}
