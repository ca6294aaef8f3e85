//! The disk cache's one-hit-wonder Bloom filter.
//!
//! Production CDNs record (but do not admit) the first request of an object
//! in a Bloom filter so that the disk cache only admits on the second request
//! (§2.2, citing Maggs & Sitaraman's "algorithmic nuggets"). The HOC
//! admission experts' frequency threshold *f* reads an exact per-object
//! request count instead, from the server's per-object table.

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
    fn bloom_codec_roundtrips() {
        let mut b = BloomFilter::with_capacity(500);
        for id in 0..300u64 {
            b.insert(id);
        }
        let mut enc = Enc::new();
        b.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        assert_eq!(bytes.len(), b.encoded_len());
        let mut dec = Dec::new(&bytes);
        let rb = BloomFilter::decode_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(rb.inserted(), b.inserted());
        for id in 0..400u64 {
            assert_eq!(rb.contains(id), b.contains(id), "bloom diverged at {id}");
        }
        // Future behaviour identical too.
        assert_eq!(rb.clone().insert(9_999), b.clone().insert(9_999));
    }

    #[test]
    fn bloom_codec_rejects_bad_shapes() {
        let mut enc = Enc::new();
        enc.u32(4);
        enc.u64(0);
        enc.seq(&[0u64; 3], |e, &w| e.u64(w)); // 3 words: not a power of two
        let bytes = enc.into_bytes();
        assert!(BloomFilter::decode_state(&mut Dec::new(&bytes)).is_err());

        let mut enc = Enc::new();
        enc.u32(0); // zero hash functions
        enc.u64(0);
        enc.seq(&[0u64; 4], |e, &w| e.u64(w));
        let bytes = enc.into_bytes();
        assert!(BloomFilter::decode_state(&mut Dec::new(&bytes)).is_err());
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
    }
}
