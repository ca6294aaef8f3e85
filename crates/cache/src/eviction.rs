//! Byte-capacity object stores with pluggable eviction.
//!
//! The paper's simulations use LRU eviction at both cache levels ("using LRU
//! as our eviction algorithm", §3.1). FIFO, an LFU variant, and segmented
//! LRU (S4LRU-style, common in CDN HOCs for scan resistance) are provided
//! for the eviction-policy ablation. All stores account capacity in *bytes*
//! (CDN objects vary over 5+ orders of magnitude, so slot-count capacity
//! would be meaningless).
//!
//! Internally a single slab of intrusively doubly-linked nodes serves every
//! policy: plain LRU is segmented LRU with one segment; FIFO is one segment
//! with touches ignored; segmented LRU keeps `S` lists with per-segment byte
//! budgets, inserts into the lowest segment, promotes on hit, and demotes
//! overflowing tails downward (evicting from the bottom) — so a one-hit
//! scan can only churn the lowest segment.

use crate::idmap::IdMap;
use darwin_ckpt::{CkptError, Dec, Enc};
use darwin_trace::ObjectId;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;

/// Which eviction policy a store uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvictionKind {
    /// Least-recently-used (paper default).
    Lru,
    /// First-in-first-out: insertion order, touches ignored.
    Fifo,
    /// Evict the entry with the smallest access count (ties: least recent).
    Lfu,
    /// Segmented LRU with the given number of segments (S4LRU ⇒ 4):
    /// scan-resistant, as deployed in production HOCs.
    SegmentedLru {
        /// Number of segments (≥ 1; 1 degenerates to plain LRU).
        segments: u8,
    },
}

impl EvictionKind {
    fn num_segments(self) -> usize {
        match self {
            EvictionKind::SegmentedLru { segments } => segments.max(1) as usize,
            _ => 1,
        }
    }
}

/// A byte-capacity object store.
///
/// `insert` admits an object unconditionally, evicting as needed to fit;
/// objects larger than the whole store are rejected (returned as not
/// inserted). `touch` records an access for recency/frequency bookkeeping.
/// Each is one probe of the id map (plus one per victim).
///
/// ```
/// use darwin_cache::eviction::Store;
///
/// let mut hoc = Store::lru(30);
/// hoc.insert(1, 10);
/// hoc.insert(2, 10);
/// hoc.insert(3, 10);
/// hoc.touch(1); // 1 is now most-recent; 2 is the LRU victim
/// assert_eq!(hoc.peek_victim(), Some(2));
/// assert_eq!(hoc.insert(4, 10), (true, 1));
/// assert!(!hoc.contains(2));
/// ```
#[derive(Debug, Clone)]
pub struct Store {
    kind: EvictionKind,
    capacity: u64,
    used: u64,
    map: IdMap<usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    /// Per-segment list heads (most-recent end) and tails (eviction end).
    heads: Vec<usize>,
    tails: Vec<usize>,
    /// Bytes resident per segment.
    seg_used: Vec<u64>,
    /// Monotone access clock for LFU tie-breaking.
    clock: u64,
}

#[derive(Debug, Clone)]
struct Node {
    id: ObjectId,
    size: u64,
    prev: usize,
    next: usize,
    segment: usize,
    hits: u64,
    last_touch: u64,
}

const NIL: usize = usize::MAX;

/// Encoded bytes of one resident: id, size, hits, last touch.
const NODE_ROW: usize = 4 * 8;

impl Store {
    /// Creates a store with the given byte capacity and eviction policy.
    pub fn new(capacity_bytes: u64, kind: EvictionKind) -> Self {
        assert!(capacity_bytes > 0, "capacity must be positive");
        let segs = kind.num_segments();
        Self {
            kind,
            capacity: capacity_bytes,
            used: 0,
            map: IdMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            heads: vec![NIL; segs],
            tails: vec![NIL; segs],
            seg_used: vec![0; segs],
            clock: 0,
        }
    }

    /// LRU store (the common case).
    pub fn lru(capacity_bytes: u64) -> Self {
        Self::new(capacity_bytes, EvictionKind::Lru)
    }

    /// Byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Number of objects currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.map.contains_key(id)
    }

    /// The segment an object currently resides in (testing/diagnostics).
    pub fn segment_of(&self, id: ObjectId) -> Option<usize> {
        self.map.get(id).map(|&i| self.nodes[i].segment)
    }

    /// Per-segment byte budget (capacity split evenly).
    fn budget(&self) -> u64 {
        self.capacity / self.heads.len() as u64
    }

    /// Records an access to `id`. Returns true if the object was present.
    pub fn touch(&mut self, id: ObjectId) -> bool {
        self.clock += 1;
        let Some(&idx) = self.map.get(id) else { return false };
        self.touch_idx(idx);
        true
    }

    /// The hit path behind [`Store::touch`] and a re-`insert`; the caller
    /// has ticked the clock.
    fn touch_idx(&mut self, idx: usize) {
        self.nodes[idx].hits += 1;
        self.nodes[idx].last_touch = self.clock;
        match self.kind {
            EvictionKind::Lru => {
                self.unlink(idx);
                self.push_front(idx, 0);
            }
            EvictionKind::SegmentedLru { .. } => {
                let target = (self.nodes[idx].segment + 1).min(self.heads.len() - 1);
                self.unlink(idx);
                self.push_front(idx, target);
                self.rebalance();
            }
            EvictionKind::Fifo | EvictionKind::Lfu => {}
        }
    }

    /// Inserts `id` with `size` bytes, evicting victims as needed. Returns
    /// whether the object was inserted and how many victims were evicted
    /// for it. If `size > capacity`, nothing is inserted or evicted and the
    /// object is silently rejected (matching a real HOC, which cannot hold
    /// an object bigger than itself).
    ///
    /// Inserting an already-present object is treated as a touch (and
    /// reported as not inserted).
    pub fn insert(&mut self, id: ObjectId, size: u64) -> (bool, usize) {
        let slot = match self.map.entry(id) {
            Entry::Occupied(e) => {
                let idx = *e.get();
                self.clock += 1;
                self.touch_idx(idx);
                return (false, 0);
            }
            Entry::Vacant(slot) => slot,
        };
        if size > self.capacity {
            return (false, 0);
        }
        self.clock += 1;
        let node = Node { id, size, prev: NIL, next: NIL, segment: 0, hits: 1, last_touch: self.clock };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        slot.insert(idx);
        // The new node joins a list only after the victims left theirs, so
        // no policy can pick it.
        let mut evicted = 0;
        while self.used + size > self.capacity {
            let victim = self.pick_victim().expect("store is non-empty while over capacity");
            self.map.remove(self.nodes[victim].id);
            self.release(victim);
            evicted += 1;
        }
        self.push_front(idx, 0);
        self.used += size;
        if matches!(self.kind, EvictionKind::SegmentedLru { .. }) {
            self.rebalance();
        }
        (true, evicted)
    }

    /// Removes `id` if present, returning its size.
    pub fn remove(&mut self, id: ObjectId) -> Option<u64> {
        let idx = self.map.remove(id)?;
        Some(self.release(idx))
    }

    /// The ID that would be evicted next, if any.
    pub fn peek_victim(&self) -> Option<ObjectId> {
        self.pick_victim().map(|i| self.nodes[i].id)
    }

    /// Iterator over resident object IDs (arbitrary order).
    pub fn ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.map.keys()
    }

    /// Clears all contents (capacity retained).
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.heads.iter_mut().for_each(|h| *h = NIL);
        self.tails.iter_mut().for_each(|t| *t = NIL);
        self.seg_used.iter_mut().for_each(|u| *u = 0);
        self.used = 0;
    }

    /// Demotes overflowing segment tails downward so every segment (except,
    /// transiently, segment 0) stays within its byte budget. Segment 0's
    /// overflow is resolved by `pick_victim`/`insert` eviction.
    fn rebalance(&mut self) {
        let budget = self.budget().max(1);
        for s in (1..self.heads.len()).rev() {
            while self.seg_used[s] > budget {
                let tail = self.tails[s];
                debug_assert_ne!(tail, NIL, "overfull segment has a tail");
                self.unlink(tail);
                self.push_front(tail, s - 1);
            }
        }
    }

    fn pick_victim(&self) -> Option<usize> {
        match self.kind {
            EvictionKind::Lru | EvictionKind::Fifo => (self.tails[0] != NIL).then_some(self.tails[0]),
            EvictionKind::SegmentedLru { .. } => {
                // Evict from the lowest non-empty segment's tail.
                self.tails.iter().find(|&&t| t != NIL).copied()
            }
            // LFU keeps every resident on list 0 in insertion order; clock
            // ticks are unique, so the minimum is too.
            EvictionKind::Lfu => {
                self.chain(0).min_by_key(|&i| (self.nodes[i].hits, self.nodes[i].last_touch))
            }
        }
    }

    /// Node indices of segment `seg`, head (most recent) to tail.
    fn chain(&self, seg: usize) -> impl Iterator<Item = usize> + '_ {
        let link = |i: usize| (i != NIL).then_some(i);
        std::iter::successors(link(self.heads[seg]), move |&i| link(self.nodes[i].next))
    }

    /// Unlinks node `idx`, already gone from the map, and frees its slot.
    /// Returns the object's size.
    fn release(&mut self, idx: usize) -> u64 {
        self.unlink(idx);
        let size = self.nodes[idx].size;
        self.used -= size;
        self.free.push(idx);
        size
    }

    fn push_front(&mut self, idx: usize, segment: usize) {
        self.nodes[idx].segment = segment;
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.heads[segment];
        if self.heads[segment] != NIL {
            self.nodes[self.heads[segment]].prev = idx;
        }
        self.heads[segment] = idx;
        if self.tails[segment] == NIL {
            self.tails[segment] = idx;
        }
        self.seg_used[segment] += self.nodes[idx].size;
    }

    /// Serializes the store's observable state (policy, capacity, clock and
    /// per-segment recency order with per-object bookkeeping) into `enc`.
    ///
    /// Slab layout (node indices, free list) is deliberately *not* encoded:
    /// it carries no behavioural information, and omitting it makes the
    /// encoding canonical — identical observable state always encodes to
    /// identical bytes, which the warm-restore equivalence tests rely on.
    pub fn encode_state(&self, enc: &mut Enc) {
        match self.kind {
            EvictionKind::Lru => enc.u8(0),
            EvictionKind::Fifo => enc.u8(1),
            EvictionKind::Lfu => enc.u8(2),
            EvictionKind::SegmentedLru { segments } => {
                enc.u8(3);
                enc.u8(segments);
            }
        }
        enc.u64(self.capacity);
        enc.u64(self.clock);
        enc.usize(self.heads.len());
        for seg in 0..self.heads.len() {
            // Walk head → tail so decode can rebuild by pushing in reverse.
            let chain: Vec<usize> = self.chain(seg).collect();
            enc.seq(&chain, |e, &i| {
                let n = &self.nodes[i];
                e.u64(n.id);
                e.u64(n.size);
                e.u64(n.hits);
                e.u64(n.last_touch);
            });
        }
    }

    /// Exact number of bytes [`Store::encode_state`] writes, so a caller can
    /// size its buffer once.
    pub fn encoded_len(&self) -> usize {
        let kind = if matches!(self.kind, EvictionKind::SegmentedLru { .. }) { 2 } else { 1 };
        kind + 3 * 8 + 8 * self.heads.len() + NODE_ROW * self.len()
    }

    /// Moves `dec` past a store written by [`Store::encode_state`],
    /// following its length prefixes and reading no row.
    pub(crate) fn skip_state(dec: &mut Dec<'_>) -> Result<(), CkptError> {
        if dec.u8()? == 3 {
            dec.u8()?; // the segment count of a segmented LRU
        }
        dec.u64()?; // capacity
        dec.u64()?; // clock
        for _ in 0..dec.usize()? {
            let rows = dec.seq_len(NODE_ROW)?;
            dec.sub(NODE_ROW * rows)?;
        }
        Ok(())
    }

    /// Rebuilds a store from bytes written by [`Store::encode_state`].
    ///
    /// Structural invariants (segment count matches the policy, no duplicate
    /// IDs, occupancy within capacity) are re-validated, so a corrupt body
    /// that passed the outer CRC by construction still cannot produce an
    /// inconsistent store.
    pub fn decode_state(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        let kind = match dec.u8()? {
            0 => EvictionKind::Lru,
            1 => EvictionKind::Fifo,
            2 => EvictionKind::Lfu,
            3 => EvictionKind::SegmentedLru { segments: dec.u8()? },
            t => return Err(CkptError::Malformed(format!("eviction kind tag {t}"))),
        };
        let capacity = dec.u64()?;
        if capacity == 0 {
            return Err(CkptError::Malformed("zero store capacity".into()));
        }
        let clock = dec.u64()?;
        let segs = dec.usize()?;
        if segs != kind.num_segments() {
            return Err(CkptError::Malformed(format!(
                "segment count {segs} does not match policy {:?}",
                kind
            )));
        }
        // Every chain first, so the slab and each map segment are sized
        // once for all of them instead of growing entry by entry.
        let chains = (0..segs)
            .map(|_| dec.seq(NODE_ROW, |d| Ok((d.u64()?, d.u64()?, d.u64()?, d.u64()?))))
            .collect::<Result<Vec<_>, _>>()?;
        let residents = chains.iter().map(Vec::len).sum();
        let mut store = Store::new(capacity, kind);
        store.clock = clock;
        store.map = IdMap::with_capacity(residents);
        store.nodes = Vec::with_capacity(residents);
        for (seg, chain) in chains.iter().enumerate() {
            // Encoded head → tail; push_front in reverse restores the order.
            for &(id, size, hits, last_touch) in chain.iter().rev() {
                // Checked before a segment adds it too: no segment holds
                // more than the whole store, so neither sum can wrap.
                store.used = store.used.checked_add(size).ok_or_else(|| {
                    CkptError::Malformed(format!("occupancy overflows adding object {id}"))
                })?;
                let node = Node { id, size, prev: NIL, next: NIL, segment: seg, hits, last_touch };
                store.nodes.push(node);
                let idx = store.nodes.len() - 1;
                store.push_front(idx, seg);
                if store.map.insert(id, idx).is_some() {
                    return Err(CkptError::Malformed(format!("duplicate object {id}")));
                }
            }
        }
        if store.used > store.capacity {
            return Err(CkptError::Malformed(format!(
                "occupancy {} exceeds capacity {}",
                store.used, store.capacity
            )));
        }
        Ok(store)
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        let segment = self.nodes[idx].segment;
        if prev != NIL {
            self.nodes[prev].next = next;
        } else if self.heads[segment] == idx {
            self.heads[segment] = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else if self.tails[segment] == idx {
            self.tails[segment] = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
        self.seg_used[segment] -= self.nodes[idx].size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut s = Store::lru(30);
        s.insert(1, 10);
        s.insert(2, 10);
        s.insert(3, 10);
        s.touch(1); // order now (MRU→LRU): 1,3,2
        assert_eq!(s.insert(4, 10), (true, 1));
        assert!(!s.contains(2));
        assert!(s.contains(1) && s.contains(3) && s.contains(4));
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut s = Store::new(30, EvictionKind::Fifo);
        s.insert(1, 10);
        s.insert(2, 10);
        s.insert(3, 10);
        s.touch(1);
        assert_eq!(s.insert(4, 10), (true, 1));
        assert!(!s.contains(1), "FIFO must evict oldest insert despite touch");
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut s = Store::new(30, EvictionKind::Lfu);
        s.insert(1, 10);
        s.insert(2, 10);
        s.insert(3, 10);
        s.touch(1);
        s.touch(1);
        s.touch(3);
        assert_eq!(s.insert(4, 10), (true, 1));
        assert!(!s.contains(2));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut s = Store::lru(100);
        for i in 0..1000u64 {
            s.insert(i, 1 + (i % 37));
            assert!(s.used_bytes() <= 100);
        }
    }

    #[test]
    fn oversized_object_rejected_without_eviction() {
        let mut s = Store::lru(50);
        s.insert(1, 20);
        assert_eq!(s.insert(2, 60), (false, 0));
        assert!(!s.contains(2));
        assert!(s.contains(1), "rejection must not evict residents");
    }

    #[test]
    fn multi_eviction_for_large_insert() {
        let mut s = Store::lru(30);
        s.insert(1, 10);
        s.insert(2, 10);
        s.insert(3, 10);
        assert_eq!(s.insert(4, 25), (true, 3));
        assert_eq!(s.len(), 1);
        assert_eq!(s.used_bytes(), 25);
    }

    #[test]
    fn reinsert_is_touch() {
        let mut s = Store::lru(30);
        s.insert(1, 10);
        s.insert(2, 10);
        s.insert(3, 10);
        assert_eq!(s.insert(1, 10), (false, 0)); // touch, not duplicate
        assert_eq!(s.used_bytes(), 30);
        assert_eq!(s.insert(4, 10), (true, 1));
        assert!(!s.contains(2));
    }

    #[test]
    fn remove_frees_space() {
        let mut s = Store::lru(30);
        s.insert(1, 10);
        assert_eq!(s.remove(1), Some(10));
        assert_eq!(s.remove(1), None);
        assert_eq!(s.used_bytes(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn clear_resets() {
        let mut s = Store::lru(30);
        s.insert(1, 10);
        s.insert(2, 10);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.used_bytes(), 0);
        assert_eq!(s.peek_victim(), None);
        s.insert(3, 10);
        assert!(s.contains(3));
    }

    #[test]
    fn peek_victim_matches_next_eviction() {
        let mut s = Store::lru(20);
        s.insert(1, 10);
        s.insert(2, 10);
        let victim = s.peek_victim().unwrap();
        assert_eq!(s.insert(3, 10), (true, 1));
        assert!(!s.contains(victim));
    }

    #[test]
    fn slab_reuses_freed_nodes() {
        let mut s = Store::lru(10);
        for i in 0..10_000u64 {
            s.insert(i, 10); // each insert evicts the previous one
        }
        assert!(s.nodes.len() <= 2, "slab grew: {}", s.nodes.len());
    }

    fn roundtrip(s: &Store) -> Store {
        let mut enc = Enc::new();
        s.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let restored = Store::decode_state(&mut dec).unwrap();
        dec.finish().unwrap();
        // Canonical encoding: re-encoding the restored store is bit-identical.
        let mut re = Enc::new();
        restored.encode_state(&mut re);
        assert_eq!(re.into_bytes(), bytes, "encoding is not canonical");
        restored
    }

    #[test]
    fn codec_roundtrip_preserves_behaviour() {
        for kind in [
            EvictionKind::Lru,
            EvictionKind::Fifo,
            EvictionKind::Lfu,
            EvictionKind::SegmentedLru { segments: 4 },
        ] {
            let mut s = Store::new(100, kind);
            for i in 0..40u64 {
                s.insert(i, 1 + i % 23);
                s.touch(i / 2);
            }
            let mut r = roundtrip(&s);
            assert_eq!(r.used_bytes(), s.used_bytes());
            assert_eq!(r.len(), s.len());
            // Same future behaviour: identical eviction sequences.
            for i in 100..140u64 {
                assert_eq!(s.insert(i, 7), r.insert(i, 7), "kind {kind:?} diverged at {i}");
                assert_eq!(s.touch(i % 50), r.touch(i % 50));
            }
        }
    }

    #[test]
    fn codec_rejects_corrupt_bodies() {
        let mut s = Store::lru(100);
        s.insert(1, 10);
        s.insert(2, 20);
        let mut enc = Enc::new();
        s.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        // Truncations never panic.
        for keep in 0..bytes.len() {
            let mut dec = Dec::new(&bytes[..keep]);
            assert!(
                Store::decode_state(&mut dec).and_then(|_| dec.finish()).is_err(),
                "truncation to {keep} bytes accepted"
            );
        }
        // Bad kind tag.
        let mut bad = bytes.clone();
        bad[0] = 9;
        assert!(Store::decode_state(&mut Dec::new(&bad)).is_err());
    }

    #[test]
    fn codec_refuses_residents_whose_sizes_overflow() {
        let mut s = Store::lru(1 << 40);
        s.insert(1, 10);
        s.insert(2, 20);
        let mut enc = Enc::new();
        s.encode_state(&mut enc);
        let mut bad = enc.into_bytes();
        // Two residents of 2^63 bytes each: their sum wraps to 0. A row's
        // size follows the kind, capacity, clock, segment count and chain
        // length, and the row's id.
        for row in 0..2 {
            let at = 1 + 3 * 8 + 8 + row * NODE_ROW + 8;
            bad[at..at + 8].copy_from_slice(&(1u64 << 63).to_le_bytes());
        }
        match Store::decode_state(&mut Dec::new(&bad)) {
            Err(CkptError::Malformed(why)) => assert!(why.contains("overflows"), "{why}"),
            other => panic!("accepted or misreported: {:?}", other.map(|s| s.used_bytes())),
        }
    }

    // --- segmented LRU ---

    fn s4(capacity: u64) -> Store {
        Store::new(capacity, EvictionKind::SegmentedLru { segments: 4 })
    }

    #[test]
    fn segmented_inserts_land_in_segment_zero() {
        let mut s = s4(400);
        s.insert(1, 10);
        assert_eq!(s.segment_of(1), Some(0));
    }

    #[test]
    fn segmented_hits_promote_up_to_top() {
        let mut s = s4(400);
        s.insert(1, 10);
        s.touch(1);
        assert_eq!(s.segment_of(1), Some(1));
        s.touch(1);
        s.touch(1);
        assert_eq!(s.segment_of(1), Some(3));
        s.touch(1); // already at the top
        assert_eq!(s.segment_of(1), Some(3));
    }

    #[test]
    fn segmented_is_scan_resistant() {
        // Promote a working set to the upper segments, then scan many
        // one-hit objects through: the working set must survive.
        let mut s = s4(400);
        for id in 0..4u64 {
            s.insert(id, 50);
            s.touch(id);
            s.touch(id); // segment 2
        }
        for scan in 100..200u64 {
            s.insert(scan, 50);
        }
        for id in 0..4u64 {
            assert!(s.contains(id), "working-set object {id} evicted by scan");
        }
    }

    #[test]
    fn plain_lru_is_not_scan_resistant() {
        // The contrast case for the test above.
        let mut s = Store::lru(400);
        for id in 0..4u64 {
            s.insert(id, 50);
            s.touch(id);
            s.touch(id);
        }
        for scan in 100..200u64 {
            s.insert(scan, 50);
        }
        assert!((0..4u64).all(|id| !s.contains(id)), "LRU should have churned everything");
    }

    #[test]
    fn segmented_demotion_cascades_to_eviction() {
        let mut s = s4(100); // budget 25 per segment
                             // Fill with promoted objects.
        for id in 0..4u64 {
            s.insert(id, 25);
            s.touch(id);
            s.touch(id);
            s.touch(id);
        }
        assert!(s.used_bytes() <= 100);
        // Keep inserting; capacity must hold and evictions must occur.
        let mut evicted = 0;
        for id in 10..20u64 {
            evicted += s.insert(id, 25).1;
            assert!(s.used_bytes() <= 100);
        }
        assert!(evicted > 0);
    }

    #[test]
    fn single_segment_segmented_behaves_like_lru() {
        let mut a = Store::new(30, EvictionKind::SegmentedLru { segments: 1 });
        let mut b = Store::lru(30);
        let ops: Vec<(u64, bool)> =
            vec![(1, false), (2, false), (1, true), (3, false), (4, false), (2, true)];
        for (id, is_touch) in ops {
            if is_touch {
                assert_eq!(a.touch(id), b.touch(id));
            } else {
                a.insert(id, 10);
                b.insert(id, 10);
            }
            let mut ia: Vec<u64> = a.ids().collect();
            let mut ib: Vec<u64> = b.ids().collect();
            ia.sort_unstable();
            ib.sort_unstable();
            assert_eq!(ia, ib);
        }
    }

    #[test]
    fn segmented_capacity_with_oversized_budget_objects() {
        // Object bigger than one segment's budget but under capacity must
        // still be storable without breaking the capacity invariant.
        let mut s = s4(100); // budget 25
        s.insert(1, 60);
        assert!(s.contains(1));
        assert!(s.used_bytes() <= 100);
        s.insert(2, 30);
        assert!(s.used_bytes() <= 100);
        for id in 3..10u64 {
            s.insert(id, 20);
            assert!(s.used_bytes() <= 100, "capacity exceeded at id {id}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone, Copy)]
    struct RefObj {
        id: u64,
        size: u64,
        hits: u64,
        last_touch: u64,
    }

    /// The policies restated over plain vectors, one per segment, index 0
    /// the most recent end: linear scans, no slab, no map, no free list.
    struct RefStore {
        kind: EvictionKind,
        cap: u64,
        clock: u64,
        segs: Vec<Vec<RefObj>>,
    }

    impl RefStore {
        fn new(cap: u64, kind: EvictionKind) -> Self {
            Self { kind, cap, clock: 0, segs: vec![Vec::new(); kind.num_segments()] }
        }

        fn used(&self) -> u64 {
            self.segs.iter().flatten().map(|o| o.size).sum()
        }

        fn ids(&self) -> Vec<u64> {
            let mut ids: Vec<u64> = self.segs.iter().flatten().map(|o| o.id).collect();
            ids.sort_unstable();
            ids
        }

        fn find(&self, id: u64) -> Option<(usize, usize)> {
            self.segs
                .iter()
                .enumerate()
                .find_map(|(s, seg)| seg.iter().position(|o| o.id == id).map(|p| (s, p)))
        }

        fn rebalance(&mut self) {
            let budget = (self.cap / self.segs.len() as u64).max(1);
            for s in (1..self.segs.len()).rev() {
                while self.segs[s].iter().map(|o| o.size).sum::<u64>() > budget {
                    let tail = self.segs[s].pop().unwrap();
                    self.segs[s - 1].insert(0, tail);
                }
            }
        }

        /// The hit path; the caller has ticked the clock.
        fn hit(&mut self, seg: usize, pos: usize) {
            let mut o = self.segs[seg].remove(pos);
            o.hits += 1;
            o.last_touch = self.clock;
            match self.kind {
                EvictionKind::Lru => self.segs[0].insert(0, o),
                EvictionKind::SegmentedLru { .. } => {
                    let target = (seg + 1).min(self.segs.len() - 1);
                    self.segs[target].insert(0, o);
                    self.rebalance();
                }
                EvictionKind::Fifo | EvictionKind::Lfu => self.segs[seg].insert(pos, o),
            }
        }

        fn touch(&mut self, id: u64) -> bool {
            self.clock += 1;
            let Some((seg, pos)) = self.find(id) else { return false };
            self.hit(seg, pos);
            true
        }

        fn victim(&self) -> Option<(usize, usize)> {
            match self.kind {
                EvictionKind::Lfu => (0..self.segs[0].len())
                    .min_by_key(|&p| (self.segs[0][p].hits, self.segs[0][p].last_touch))
                    .map(|p| (0, p)),
                _ => {
                    self.segs.iter().position(|seg| !seg.is_empty()).map(|s| (s, self.segs[s].len() - 1))
                }
            }
        }

        fn peek_victim(&self) -> Option<u64> {
            self.victim().map(|(s, p)| self.segs[s][p].id)
        }

        fn insert(&mut self, id: u64, size: u64) -> (bool, usize) {
            if let Some((seg, pos)) = self.find(id) {
                self.clock += 1;
                self.hit(seg, pos);
                return (false, 0);
            }
            if size > self.cap {
                return (false, 0);
            }
            self.clock += 1;
            let mut evicted = 0;
            while self.used() + size > self.cap {
                let (s, p) = self.victim().unwrap();
                self.segs[s].remove(p);
                evicted += 1;
            }
            self.segs[0].insert(0, RefObj { id, size, hits: 1, last_touch: self.clock });
            self.rebalance();
            (true, evicted)
        }

        fn remove(&mut self, id: u64) -> Option<u64> {
            let (seg, pos) = self.find(id)?;
            Some(self.segs[seg].remove(pos).size)
        }
    }

    fn sorted_ids(s: &Store) -> Vec<u64> {
        let mut ids: Vec<u64> = s.ids().collect();
        ids.sort_unstable();
        ids
    }

    proptest! {
        /// Every policy against its naive restatement, over arbitrary
        /// touch / insert / remove sequences (sizes up to past the whole
        /// capacity): same return values — `inserted` and the evicted count
        /// — same residents, bytes and next victim after every step, and the
        /// same complete victim order when both are drained at the end.
        #[test]
        fn every_policy_matches_its_naive_reference(
            kind_sel in 0usize..5,
            ops in proptest::collection::vec((0u8..8, 0u64..24, 1u64..70), 1..300),
        ) {
            const CAP: u64 = 60;
            let kind = [
                EvictionKind::Lru,
                EvictionKind::Fifo,
                EvictionKind::Lfu,
                EvictionKind::SegmentedLru { segments: 4 },
                EvictionKind::SegmentedLru { segments: 1 },
            ][kind_sel];
            let mut s = Store::new(CAP, kind);
            let mut r = RefStore::new(CAP, kind);
            for (op, id, size) in ops {
                match op {
                    0..=2 => prop_assert_eq!(s.touch(id), r.touch(id), "touch({})", id),
                    // Mostly small objects; one insert in four spans 1..70.
                    3..=6 => {
                        let size = if op == 3 { size } else { 1 + size % 20 };
                        prop_assert_eq!(s.insert(id, size), r.insert(id, size), "insert({}, {})", id, size);
                    }
                    _ => prop_assert_eq!(s.remove(id), r.remove(id), "remove({})", id),
                }
                prop_assert_eq!(s.used_bytes(), r.used());
                prop_assert!(s.used_bytes() <= CAP);
                prop_assert_eq!(sorted_ids(&s), r.ids());
                prop_assert_eq!(s.len(), r.ids().len());
                prop_assert_eq!(s.peek_victim(), r.peek_victim());
                for (seg, objs) in r.segs.iter().enumerate() {
                    for o in objs {
                        prop_assert_eq!(s.segment_of(o.id), Some(seg));
                    }
                }
            }
            // The codec carries the same order: drain a decoded copy too.
            let mut enc = Enc::new();
            s.encode_state(&mut enc);
            let bytes = enc.into_bytes();
            prop_assert_eq!(bytes.len(), s.encoded_len());
            let mut copy = Store::decode_state(&mut Dec::new(&bytes)).unwrap();
            while let Some(victim) = r.peek_victim() {
                prop_assert_eq!(s.peek_victim(), Some(victim));
                prop_assert_eq!(copy.peek_victim(), Some(victim));
                let size = r.remove(victim);
                prop_assert_eq!(s.remove(victim), size);
                prop_assert_eq!(copy.remove(victim), size);
            }
            prop_assert!(s.is_empty() && copy.is_empty());
            prop_assert_eq!(s.used_bytes(), 0);
        }
    }
}
