//! Bloom filter and frequency sketch.
//!
//! Production CDNs record (but do not admit) the first request of an object
//! in a Bloom filter so that the disk cache only admits on the second request
//! (§2.2, citing Maggs & Sitaraman's "algorithmic nuggets"). The HOC
//! admission experts additionally need an approximate per-object request
//! count to evaluate the frequency threshold *f*; the [`FrequencySketch`]
//! provides it with bounded memory (a conservative-update counting Bloom
//! sketch with periodic halving, as in TinyLFU).

use darwin_ckpt::{CkptError, Dec, Enc};
use darwin_trace::ObjectId;

/// Double-hashing seeds (large odd constants; quality is adequate for cache
/// admission purposes and keeps the hot path branch-free).
const H1: u64 = 0x9E37_79B9_7F4A_7C15;
const H2: u64 = 0xC2B2_AE3D_27D4_EB4F;

fn mix(id: ObjectId, round: u64) -> u64 {
    let mut x = id ^ round.wrapping_mul(H2);
    x ^= x >> 33;
    x = x.wrapping_mul(H1);
    x ^= x >> 29;
    x = x.wrapping_mul(H2);
    x ^= x >> 32;
    x
}

/// A plain (set-membership) Bloom filter over object IDs.
///
/// Guarantees no false negatives; false-positive rate is set by sizing. Used
/// by the DC's one-hit-wonder filter.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    mask: u64,
    k: u32,
    inserted: u64,
}

impl BloomFilter {
    /// A filter sized for roughly `expected_items` with ~1 % false positives
    /// (≈10 bits/item, 4 hash functions — close to optimal for 1 %).
    pub fn with_capacity(expected_items: usize) -> Self {
        let bits_needed = (expected_items.max(64) as u64) * 10;
        let words = (bits_needed / 64).next_power_of_two();
        Self { bits: vec![0; words as usize], mask: words * 64 - 1, k: 4, inserted: 0 }
    }

    /// Inserts `id`. Returns whether it was (probably) already present —
    /// i.e. `true` means "seen before" (up to false positives).
    pub fn insert(&mut self, id: ObjectId) -> bool {
        let mut seen = true;
        for round in 0..self.k {
            let bit = mix(id, round as u64) & self.mask;
            let (w, b) = ((bit / 64) as usize, bit % 64);
            if self.bits[w] & (1 << b) == 0 {
                seen = false;
                self.bits[w] |= 1 << b;
            }
        }
        if !seen {
            self.inserted += 1;
        }
        seen
    }

    /// Membership query (no false negatives).
    pub fn contains(&self, id: ObjectId) -> bool {
        (0..self.k).all(|round| {
            let bit = mix(id, round as u64) & self.mask;
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    /// Number of distinct inserts observed (approximate: double-inserts that
    /// were false positives are not counted).
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Clears the filter.
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.inserted = 0;
    }

    /// Serializes the filter (bit words, hash count, insert counter).
    pub fn encode_state(&self, enc: &mut Enc) {
        enc.u32(self.k);
        enc.u64(self.inserted);
        enc.seq(&self.bits, |e, &w| e.u64(w));
    }

    /// Exact number of bytes [`BloomFilter::encode_state`] writes.
    pub fn encoded_len(&self) -> usize {
        4 + 8 + 8 + 8 * self.bits.len()
    }

    /// Moves `dec` past a filter written by [`BloomFilter::encode_state`],
    /// reading its length prefix only.
    pub(crate) fn skip_state(dec: &mut Dec<'_>) -> Result<(), CkptError> {
        dec.u32()?;
        dec.u64()?;
        let words = dec.seq_len(8)?;
        dec.sub(8 * words).map(drop)
    }

    /// Rebuilds a filter from bytes written by [`BloomFilter::encode_state`].
    /// The word count must be a power of two (the mask is derived from it).
    pub fn decode_state(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        let k = dec.u32()?;
        if k == 0 || k > 16 {
            return Err(CkptError::Malformed(format!("bloom hash count {k}")));
        }
        let inserted = dec.u64()?;
        let bits = dec.seq(8, |d| d.u64())?;
        let words = bits.len() as u64;
        if words == 0 || !words.is_power_of_two() {
            return Err(CkptError::Malformed(format!("bloom word count {words}")));
        }
        Ok(Self { bits, mask: words * 64 - 1, k, inserted })
    }
}

/// A conservative-update counting sketch with periodic halving ("aging"), à
/// la TinyLFU: estimates per-object request counts with bounded memory and a
/// sliding emphasis on recent traffic. Estimates never under-count within an
/// aging window (conservative update ⇒ over-approximation only).
#[derive(Debug, Clone)]
pub struct FrequencySketch {
    counters: Vec<u8>,
    mask: u64,
    k: u32,
    /// Increments since the last halving.
    ops: u64,
    /// Halve all counters after this many increments (10× table size by
    /// default); keeps estimates fresh under traffic-mix shifts.
    aging_period: u64,
}

impl FrequencySketch {
    /// Sketch sized for roughly `expected_objects` concurrently-tracked
    /// objects (8 counters/object keeps collision noise low).
    pub fn with_capacity(expected_objects: usize) -> Self {
        let slots = ((expected_objects.max(64) as u64) * 8).next_power_of_two();
        Self {
            counters: vec![0; slots as usize],
            mask: slots - 1,
            k: 4,
            ops: 0,
            aging_period: slots * 10,
        }
    }

    /// Records one request for `id` and returns the updated estimate
    /// (including this request). Saturates at 255.
    pub fn increment(&mut self, id: ObjectId) -> u32 {
        self.ops += 1;
        if self.ops >= self.aging_period {
            self.age();
        }
        let mut slots = [0usize; 8];
        let mut est = u8::MAX;
        for round in 0..self.k {
            let slot = (mix(id, round as u64) & self.mask) as usize;
            slots[round as usize] = slot;
            est = est.min(self.counters[slot]);
        }
        // Conservative update: only bump the minimal counters.
        let new = est.saturating_add(1);
        for &slot in &slots[..self.k as usize] {
            if self.counters[slot] < new {
                self.counters[slot] = new;
            }
        }
        new as u32
    }

    /// Current estimate without recording a request.
    pub fn estimate(&self, id: ObjectId) -> u32 {
        (0..self.k)
            .map(|round| self.counters[(mix(id, round as u64) & self.mask) as usize])
            .min()
            .unwrap_or(0) as u32
    }

    /// Halves every counter (aging).
    pub fn age(&mut self) {
        self.counters.iter_mut().for_each(|c| *c >>= 1);
        self.ops = 0;
    }

    /// Resets all counters to zero.
    pub fn clear(&mut self) {
        self.counters.iter_mut().for_each(|c| *c = 0);
        self.ops = 0;
    }

    /// Serializes the sketch (counters, hash count, aging state).
    pub fn encode_state(&self, enc: &mut Enc) {
        enc.u32(self.k);
        enc.u64(self.ops);
        enc.u64(self.aging_period);
        enc.bytes(&self.counters);
    }

    /// Exact number of bytes [`FrequencySketch::encode_state`] writes.
    pub fn encoded_len(&self) -> usize {
        4 + 8 + 8 + 8 + self.counters.len()
    }

    /// Moves `dec` past a sketch written by
    /// [`FrequencySketch::encode_state`], reading its length prefix only.
    pub(crate) fn skip_state(dec: &mut Dec<'_>) -> Result<(), CkptError> {
        dec.u32()?;
        dec.u64()?;
        dec.u64()?;
        dec.bytes().map(drop)
    }

    /// Rebuilds a sketch from bytes written by
    /// [`FrequencySketch::encode_state`]. The slot count must be a power of
    /// two and the hash count must fit the fixed slot buffer.
    pub fn decode_state(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        let k = dec.u32()?;
        if k == 0 || k > 8 {
            return Err(CkptError::Malformed(format!("sketch hash count {k}")));
        }
        let ops = dec.u64()?;
        let aging_period = dec.u64()?;
        let counters = dec.bytes()?.to_vec();
        let slots = counters.len() as u64;
        if slots == 0 || !slots.is_power_of_two() {
            return Err(CkptError::Malformed(format!("sketch slot count {slots}")));
        }
        Ok(Self { counters, mask: slots - 1, k, ops, aging_period })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bloom_no_false_negatives() {
        let mut b = BloomFilter::with_capacity(1000);
        for id in 0..1000u64 {
            b.insert(id);
        }
        for id in 0..1000u64 {
            assert!(b.contains(id), "false negative for {id}");
        }
    }

    #[test]
    fn bloom_false_positive_rate_bounded() {
        let mut b = BloomFilter::with_capacity(10_000);
        for id in 0..10_000u64 {
            b.insert(id);
        }
        let fps = (100_000..200_000u64).filter(|&id| b.contains(id)).count();
        let rate = fps as f64 / 100_000.0;
        assert!(rate < 0.05, "false positive rate {rate} too high");
    }

    #[test]
    fn bloom_insert_reports_first_vs_repeat() {
        let mut b = BloomFilter::with_capacity(100);
        assert!(!b.insert(42), "first insert must report unseen");
        assert!(b.insert(42), "second insert must report seen");
        assert_eq!(b.inserted(), 1);
    }

    #[test]
    fn bloom_clear_empties() {
        let mut b = BloomFilter::with_capacity(100);
        b.insert(7);
        b.clear();
        assert!(!b.contains(7));
        assert_eq!(b.inserted(), 0);
    }

    #[test]
    fn sketch_counts_single_object() {
        let mut s = FrequencySketch::with_capacity(1000);
        for i in 1..=20u32 {
            assert_eq!(s.increment(99), i);
        }
        assert_eq!(s.estimate(99), 20);
    }

    #[test]
    fn sketch_never_undercounts_without_aging() {
        let mut s = FrequencySketch::with_capacity(4096);
        let mut truth = std::collections::HashMap::new();
        // Pseudo-random workload, small enough to avoid aging.
        let mut x = 12345u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let id = (x >> 33) % 500;
            *truth.entry(id).or_insert(0u32) += 1;
            s.increment(id);
        }
        for (&id, &c) in &truth {
            assert!(s.estimate(id) >= c.min(255), "under-count for {id}");
        }
    }

    #[test]
    fn sketch_aging_halves() {
        let mut s = FrequencySketch::with_capacity(64);
        for _ in 0..10 {
            s.increment(5);
        }
        let before = s.estimate(5);
        s.age();
        assert_eq!(s.estimate(5), before / 2);
    }

    #[test]
    fn sketch_saturates_at_255() {
        let mut s = FrequencySketch::with_capacity(64);
        s.aging_period = u64::MAX; // disable aging for this test
        for _ in 0..300 {
            s.increment(1);
        }
        assert_eq!(s.estimate(1), 255);
    }

    #[test]
    fn sketch_aging_halves_every_counter_exactly() {
        // Every estimate must follow c -> floor(c / 2) on each aging step,
        // for a spread of ids and counts (not just one object).
        let mut s = FrequencySketch::with_capacity(1024);
        s.aging_period = u64::MAX; // only age explicitly
        for id in 0..50u64 {
            for _ in 0..(1 + id % 7) {
                s.increment(id);
            }
        }
        let before: Vec<u32> = (0..50u64).map(|id| s.estimate(id)).collect();
        s.age();
        for id in 0..50u64 {
            assert_eq!(s.estimate(id), before[id as usize] / 2, "id {id}");
        }
    }

    #[test]
    fn sketch_aging_never_underflows() {
        let mut s = FrequencySketch::with_capacity(64);
        s.increment(9);
        // Far more halvings than bits: counters must pin at 0, never wrap.
        for _ in 0..100 {
            s.age();
        }
        assert_eq!(s.estimate(9), 0);
        // A fresh increment after heavy aging starts from 1 again.
        assert_eq!(s.increment(9), 1);
    }

    #[test]
    fn sketch_automatic_aging_triggers_at_period() {
        let mut s = FrequencySketch::with_capacity(64);
        // A short explicit period keeps the test exact: padding with
        // thousands of distinct ids (the default period) would collide with
        // the tracked id's counters and obscure the boundary.
        s.aging_period = 16;
        for _ in 0..10 {
            s.increment(77);
        }
        // Filler ops up to (but not past) the boundary. A colliding slot can
        // only be *raised* by conservative update, never lowered, and the
        // filler's counts stay below 10, so the tracked minimum is stable.
        for _ in 0..5 {
            s.increment(88);
        }
        assert_eq!(s.estimate(77), 10, "no aging before the period boundary");
        // The 16th increment crosses the period: every counter halves
        // (10 -> 5) before the request is counted.
        s.increment(88);
        assert_eq!(s.estimate(77), 5, "aging did not fire at the period boundary");
    }

    #[test]
    fn exact_and_sketch_agree_below_error_bound() {
        // A workload whose distinct-object count is far below the sketch
        // capacity and whose length stays below the aging period must be
        // counted *exactly* (conservative update can only over-count on
        // collisions, and collisions are negligible at this load factor).
        let mut sketch = FrequencySketch::with_capacity(4096);
        let mut exact: std::collections::HashMap<ObjectId, u32> = std::collections::HashMap::new();
        let mut x = 99u64;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let id = (x >> 40) % 64; // 64 distinct objects in a 4096-object sketch
            let e = exact.entry(id).or_insert(0);
            *e += 1;
            let got = sketch.increment(id);
            assert_eq!(got, *e, "sketch diverged from exact count for {id}");
        }
        for (&id, &c) in &exact {
            assert_eq!(sketch.estimate(id), c, "post-hoc estimate for {id}");
        }
    }

    #[test]
    fn bloom_and_sketch_codecs_roundtrip() {
        let mut b = BloomFilter::with_capacity(500);
        let mut s = FrequencySketch::with_capacity(500);
        for id in 0..300u64 {
            b.insert(id);
            s.increment(id % 40);
        }
        let mut enc = Enc::new();
        b.encode_state(&mut enc);
        s.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let rb = BloomFilter::decode_state(&mut dec).unwrap();
        let rs = FrequencySketch::decode_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(rb.inserted(), b.inserted());
        for id in 0..400u64 {
            assert_eq!(rb.contains(id), b.contains(id), "bloom diverged at {id}");
            assert_eq!(rs.estimate(id), s.estimate(id), "sketch diverged at {id}");
        }
        // Future behaviour identical too.
        assert_eq!(rs.clone().increment(7), s.clone().increment(7));
    }

    #[test]
    fn bloom_and_sketch_codecs_reject_bad_shapes() {
        let mut enc = Enc::new();
        enc.u32(4);
        enc.u64(0);
        enc.seq(&[0u64; 3], |e, &w| e.u64(w)); // 3 words: not a power of two
        let bytes = enc.into_bytes();
        assert!(BloomFilter::decode_state(&mut Dec::new(&bytes)).is_err());

        let mut enc = Enc::new();
        enc.u32(0); // zero hash functions
        enc.u64(0);
        enc.u64(10);
        enc.bytes(&[0u8; 64]);
        let bytes = enc.into_bytes();
        assert!(FrequencySketch::decode_state(&mut Dec::new(&bytes)).is_err());
    }

    #[test]
    fn sketch_clear_zeroes() {
        let mut s = FrequencySketch::with_capacity(64);
        s.increment(3);
        s.clear();
        assert_eq!(s.estimate(3), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Anything inserted is always reported present.
        #[test]
        fn bloom_membership_after_insert(ids in proptest::collection::vec(0u64..1_000_000, 1..500)) {
            let mut b = BloomFilter::with_capacity(1000);
            for &id in &ids {
                b.insert(id);
            }
            for &id in &ids {
                prop_assert!(b.contains(id));
            }
        }

        /// Conservative update ⇒ estimate ≥ true count (capped), when no
        /// aging occurs.
        #[test]
        fn sketch_overapproximates(ids in proptest::collection::vec(0u64..64, 1..400)) {
            let mut s = FrequencySketch::with_capacity(2048);
            let mut truth = std::collections::HashMap::new();
            for &id in &ids {
                *truth.entry(id).or_insert(0u32) += 1;
                s.increment(id);
            }
            for (&id, &c) in &truth {
                prop_assert!(s.estimate(id) >= c.min(255));
            }
        }
    }
}
