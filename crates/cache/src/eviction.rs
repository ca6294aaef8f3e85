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

use darwin_ckpt::{CkptError, Dec, Enc};
use darwin_trace::ObjectId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

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
///
/// ```
/// use darwin_cache::eviction::Store;
///
/// let mut hoc = Store::lru(30);
/// hoc.insert(1, 10);
/// hoc.insert(2, 10);
/// hoc.insert(3, 10);
/// hoc.touch(1); // 1 is now most-recent; 2 is the LRU victim
/// let evicted = hoc.insert(4, 10);
/// assert_eq!(evicted, vec![(2, 10)]);
/// ```
#[derive(Debug, Clone)]
pub struct Store {
    kind: EvictionKind,
    capacity: u64,
    used: u64,
    map: HashMap<ObjectId, usize>,
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

impl Store {
    /// Creates a store with the given byte capacity and eviction policy.
    pub fn new(capacity_bytes: u64, kind: EvictionKind) -> Self {
        assert!(capacity_bytes > 0, "capacity must be positive");
        let segs = kind.num_segments();
        Self {
            kind,
            capacity: capacity_bytes,
            used: 0,
            map: HashMap::new(),
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
        self.map.contains_key(&id)
    }

    /// The segment an object currently resides in (testing/diagnostics).
    pub fn segment_of(&self, id: ObjectId) -> Option<usize> {
        self.map.get(&id).map(|&i| self.nodes[i].segment)
    }

    /// Per-segment byte budget (capacity split evenly).
    fn budget(&self) -> u64 {
        self.capacity / self.heads.len() as u64
    }

    /// Records an access to `id`. Returns true if the object was present.
    pub fn touch(&mut self, id: ObjectId) -> bool {
        self.clock += 1;
        let Some(&idx) = self.map.get(&id) else { return false };
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
        true
    }

    /// Inserts `id` with `size` bytes, evicting victims as needed. Returns
    /// the evicted `(id, size)` pairs. If `size > capacity`, nothing is
    /// inserted or evicted and the object is silently rejected (matching a
    /// real HOC, which cannot hold an object bigger than itself).
    ///
    /// Inserting an already-present object is treated as a touch.
    pub fn insert(&mut self, id: ObjectId, size: u64) -> Vec<(ObjectId, u64)> {
        if self.contains(id) {
            self.touch(id);
            return Vec::new();
        }
        if size > self.capacity {
            return Vec::new();
        }
        self.clock += 1;
        let mut evicted = Vec::new();
        while self.used + size > self.capacity {
            let victim = self.pick_victim().expect("store is non-empty while over capacity");
            evicted.push(self.remove_idx(victim));
        }
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
        self.push_front(idx, 0);
        self.map.insert(id, idx);
        self.used += size;
        if matches!(self.kind, EvictionKind::SegmentedLru { .. }) {
            self.rebalance();
        }
        evicted
    }

    /// Removes `id` if present, returning its size.
    pub fn remove(&mut self, id: ObjectId) -> Option<u64> {
        let idx = self.map.get(&id).copied()?;
        let (_, size) = self.remove_idx(idx);
        Some(size)
    }

    /// The ID that would be evicted next, if any.
    pub fn peek_victim(&self) -> Option<ObjectId> {
        self.pick_victim().map(|i| self.nodes[i].id)
    }

    /// Iterator over resident object IDs (arbitrary order).
    pub fn ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.map.keys().copied()
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
            EvictionKind::Lfu => self
                .map
                .values()
                .copied()
                .min_by_key(|&i| (self.nodes[i].hits, self.nodes[i].last_touch)),
        }
    }

    fn remove_idx(&mut self, idx: usize) -> (ObjectId, u64) {
        self.unlink(idx);
        let id = self.nodes[idx].id;
        let size = self.nodes[idx].size;
        self.map.remove(&id);
        self.used -= size;
        self.free.push(idx);
        (id, size)
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
            let mut chain = Vec::new();
            let mut idx = self.heads[seg];
            while idx != NIL {
                chain.push(idx);
                idx = self.nodes[idx].next;
            }
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
        kind + 3 * 8 + 8 * self.heads.len() + 32 * self.len()
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
        let mut store = Store::new(capacity, kind);
        store.clock = clock;
        for seg in 0..segs {
            let chain = dec.seq(|d| Ok((d.u64()?, d.u64()?, d.u64()?, d.u64()?)))?;
            // Encoded head → tail; push_front in reverse restores the order.
            for &(id, size, hits, last_touch) in chain.iter().rev() {
                let node = Node { id, size, prev: NIL, next: NIL, segment: seg, hits, last_touch };
                store.nodes.push(node);
                let idx = store.nodes.len() - 1;
                store.push_front(idx, seg);
                if store.map.insert(id, idx).is_some() {
                    return Err(CkptError::Malformed(format!("duplicate object {id}")));
                }
                store.used += size;
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
        let ev = s.insert(4, 10);
        assert_eq!(ev, vec![(2, 10)]);
        assert!(s.contains(1) && s.contains(3) && s.contains(4));
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut s = Store::new(30, EvictionKind::Fifo);
        s.insert(1, 10);
        s.insert(2, 10);
        s.insert(3, 10);
        s.touch(1);
        let ev = s.insert(4, 10);
        assert_eq!(ev, vec![(1, 10)], "FIFO must evict oldest insert despite touch");
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
        let ev = s.insert(4, 10);
        assert_eq!(ev, vec![(2, 10)]);
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
        let ev = s.insert(2, 60);
        assert!(ev.is_empty());
        assert!(!s.contains(2));
        assert!(s.contains(1), "rejection must not evict residents");
    }

    #[test]
    fn multi_eviction_for_large_insert() {
        let mut s = Store::lru(30);
        s.insert(1, 10);
        s.insert(2, 10);
        s.insert(3, 10);
        let ev = s.insert(4, 25);
        assert_eq!(ev.len(), 3);
        assert_eq!(s.len(), 1);
        assert_eq!(s.used_bytes(), 25);
    }

    #[test]
    fn reinsert_is_touch() {
        let mut s = Store::lru(30);
        s.insert(1, 10);
        s.insert(2, 10);
        s.insert(3, 10);
        s.insert(1, 10); // touch, not duplicate
        assert_eq!(s.used_bytes(), 30);
        let ev = s.insert(4, 10);
        assert_eq!(ev, vec![(2, 10)]);
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
        let ev = s.insert(3, 10);
        assert_eq!(ev[0].0, victim);
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
            evicted += s.insert(id, 25).len();
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
    use std::collections::VecDeque;

    /// A naive reference LRU over a deque.
    struct RefLru {
        cap: u64,
        q: VecDeque<(u64, u64)>, // front = MRU
    }
    impl RefLru {
        fn touch(&mut self, id: u64) -> bool {
            if let Some(pos) = self.q.iter().position(|&(i, _)| i == id) {
                let e = self.q.remove(pos).unwrap();
                self.q.push_front(e);
                true
            } else {
                false
            }
        }
        fn insert(&mut self, id: u64, size: u64) {
            if self.touch(id) {
                return;
            }
            if size > self.cap {
                return;
            }
            let mut used: u64 = self.q.iter().map(|&(_, s)| s).sum();
            while used + size > self.cap {
                let (_, s) = self.q.pop_back().unwrap();
                used -= s;
            }
            self.q.push_front((id, size));
        }
    }

    proptest! {
        /// The slab LRU must match a straightforward reference model under
        /// arbitrary interleavings of inserts and touches.
        #[test]
        fn lru_matches_reference(ops in proptest::collection::vec((0u64..20, 1u64..15, proptest::bool::ANY), 1..200)) {
            let mut s = Store::lru(40);
            let mut r = RefLru { cap: 40, q: VecDeque::new() };
            for (id, size, is_touch) in ops {
                if is_touch {
                    prop_assert_eq!(s.touch(id), r.touch(id));
                } else {
                    s.insert(id, size);
                    r.insert(id, size);
                }
                let mut a: Vec<u64> = s.ids().collect();
                let mut b: Vec<u64> = r.q.iter().map(|&(i, _)| i).collect();
                a.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(a, b);
                prop_assert!(s.used_bytes() <= 40);
            }
        }

        /// Cache-server-shaped request sequences (touch on hit, insert on
        /// miss): resident bytes never exceed capacity and every eviction the
        /// store reports matches, in order, the victim a reference model of
        /// the policy picks (LRU: least recent; FIFO: oldest insert; LFU:
        /// fewest hits, least-recent tie-break).
        #[test]
        fn request_sequence_eviction_order_matches_policy(
            kind_sel in 0usize..3,
            reqs in proptest::collection::vec((0u64..40, 1u64..30), 1..400),
        ) {
            const CAP: u64 = 100;
            let kind = [EvictionKind::Lru, EvictionKind::Fifo, EvictionKind::Lfu][kind_sel];
            let mut s = Store::new(CAP, kind);
            // Reference state: `order` is most-recent-first for LRU and
            // most-recently-inserted-first for FIFO; `stats` tracks
            // (hits, last_touch) for LFU with the same clock Store uses.
            let mut sizes: std::collections::HashMap<u64, u64> = Default::default();
            let mut order: Vec<u64> = Vec::new();
            let mut stats: std::collections::HashMap<u64, (u64, u64)> = Default::default();
            let mut used = 0u64;
            let mut clock = 0u64;
            for (id, size) in reqs {
                let size = *sizes.entry(id).or_insert(size);
                if s.touch(id) {
                    clock += 1;
                    prop_assert!(order.contains(&id), "store hit an absent object");
                    if kind == EvictionKind::Lru {
                        let pos = order.iter().position(|&i| i == id).unwrap();
                        order.remove(pos);
                        order.insert(0, id);
                    }
                    let e = stats.get_mut(&id).unwrap();
                    e.0 += 1;
                    e.1 = clock;
                } else {
                    clock += 1; // the miss-side touch() also ticks the clock
                    clock += 1; // insert() ticks again before evicting
                    let mut expected: Vec<(u64, u64)> = Vec::new();
                    while used + size > CAP {
                        let victim = match kind {
                            EvictionKind::Lfu => *stats
                                .keys()
                                .min_by_key(|i| stats[i])
                                .expect("non-empty while over capacity"),
                            _ => *order.last().expect("non-empty while over capacity"),
                        };
                        order.retain(|&i| i != victim);
                        stats.remove(&victim);
                        used -= sizes[&victim];
                        expected.push((victim, sizes[&victim]));
                    }
                    prop_assert_eq!(s.insert(id, size), expected, "eviction order diverged");
                    order.insert(0, id);
                    stats.insert(id, (1, clock));
                    used += size;
                }
                prop_assert!(s.used_bytes() <= CAP);
                prop_assert_eq!(s.used_bytes(), used);
            }
        }

        /// Byte accounting stays consistent with the resident set.
        #[test]
        fn used_bytes_consistent(ops in proptest::collection::vec((0u64..50, 1u64..30), 1..300)) {
            let mut s = Store::lru(100);
            let mut sizes = std::collections::HashMap::new();
            for (id, size) in ops {
                // Re-inserting a resident object is a touch: the original
                // size is retained, so only record the size that "won".
                let was_present = s.contains(id);
                s.insert(id, size);
                if !was_present {
                    sizes.insert(id, size);
                }
                let expect: u64 = s.ids().map(|i| sizes[&i]).sum();
                prop_assert_eq!(s.used_bytes(), expect);
            }
        }

        /// Segmented LRU never exceeds capacity and never loses objects it
        /// did not report as evicted.
        #[test]
        fn segmented_invariants(ops in proptest::collection::vec((0u64..30, 1u64..25, proptest::bool::ANY), 1..300)) {
            let mut s = Store::new(80, EvictionKind::SegmentedLru { segments: 4 });
            let mut resident = std::collections::HashSet::new();
            for (id, size, is_touch) in ops {
                if is_touch {
                    prop_assert_eq!(s.touch(id), resident.contains(&id));
                } else if !resident.contains(&id) && size <= 80 {
                    let evicted = s.insert(id, size);
                    resident.insert(id);
                    for (v, _) in evicted {
                        resident.remove(&v);
                    }
                } else {
                    s.insert(id, size);
                }
                prop_assert!(s.used_bytes() <= 80);
                let mut a: Vec<u64> = s.ids().collect();
                let mut b: Vec<u64> = resident.iter().copied().collect();
                a.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(a, b);
            }
        }
    }
}
