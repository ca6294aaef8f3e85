//! Hash maps keyed by [`ObjectId`], hashed with one fixed folded multiply.
//!
//! The request path probes a per-object map two or three times per request,
//! and SipHash was most of what a probe cost. Nothing observable depends on
//! a map's iteration order (state is sorted before it is saved, victims are
//! picked from the intrusive lists), so a fixed hasher moves no result.
//!
//! The hash must not be the router's `mix64`: a shard only ever sees ids of
//! one `mix64(id) % shards` residue, which would leave most buckets of a
//! `mix64`-indexed table empty. It must also spread the class index that
//! trace generators put in an id's high bits over both ends of the hash —
//! the standard table takes the bucket from the low bits and a 7-bit tag
//! from the top. The folded 128-bit product does: every input bit reaches
//! the low half's high bits and the high half's low bits, and the fold
//! xors the two.
//!
//! The hasher is not keyed, so it gives no protection against ids crafted
//! to collide; a deployment that takes ids from untrusted clients should
//! hash them (as a CDN does with URLs) before they reach the cache.

use darwin_trace::ObjectId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` from object id to `V` behind [`IdHasher`].
pub type IdMap<V> = HashMap<ObjectId, V, BuildHasherDefault<IdHasher>>;

/// The 64-bit hash [`IdHasher`] gives an object id.
#[inline]
pub fn fold_id(id: ObjectId) -> u64 {
    let m = u128::from(id ^ 0x243F_6A88_85A3_08D3) * 0x9E37_79B9_7F4A_7C15_u128;
    (m as u64) ^ ((m >> 64) as u64)
}

/// Folded-multiply hasher for [`ObjectId`] keys (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, id: u64) {
        self.0 = fold_id(self.0 ^ id);
    }

    /// Other key types fold eight bytes at a time; ids never come this way.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn map_hash_of_an_id_is_the_fold() {
        let build = BuildHasherDefault::<IdHasher>::default();
        for id in [0u64, 1, 42, 1 << 48, (3 << 48) | 77, u64::MAX] {
            assert_eq!(build.hash_one(id), fold_id(id));
        }
    }

    #[test]
    fn high_bits_reach_both_ends_of_the_hash() {
        // Same rank, different class: bucket bits and tag bits both move.
        let (a, b) = (fold_id(5), fold_id((1 << 48) | 5));
        assert_ne!(a & 0xFFFF, b & 0xFFFF);
        assert_ne!(a >> 57, b >> 57);
    }
}
