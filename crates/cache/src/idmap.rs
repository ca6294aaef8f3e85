//! The map keyed by [`ObjectId`] under the per-object table and both stores:
//! [`SEGMENTS`] standard hash tables side by side, one fixed folded multiply
//! ([`fold_id`]) choosing the segment and hashing within it.
//!
//! **Why a fixed hash.** The request path probes a per-object map two or
//! three times per request, and SipHash was most of what a probe cost.
//! Nothing observable depends on a map's iteration order (state is sorted
//! before it is saved, victims are picked from the intrusive lists), so a
//! fixed hasher moves no result — and neither does the split into segments.
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
//! **Why segments.** A standard table grows by allocating one twice its
//! size and rehashing every entry into it: old and new live together, and
//! the thread that owns the table does nothing else meanwhile. The
//! per-object table holds an entry per object ever seen, so on a shard that
//! was tens of megabytes of transient heap and tens of milliseconds in which
//! no request was served. A segment grows alone: a step is 1/[`SEGMENTS`] of
//! the table, the old table that lives on beside its successor
//! 1/(2·[`SEGMENTS`]) of the result instead of half, and the longest rehash
//! shorter by the same factor. Segments fill evenly, so they all double
//! within a few thousand inserts of each other — but one after the other,
//! each freeing its old table first.
//!
//! **Which bits.** The segment is five bits of the same hash taken right
//! under the 7-bit tag (bits 52–56): the inner table never looks
//! at them until it holds 2⁵² buckets, so ids that share a segment still
//! spread over all of its buckets and tags, which low or top bits would
//! not allow. `crates/shard/tests/id_hash.rs` holds the segment pick to the
//! same flatness over per-shard id sets as the bucket and tag bits.
//!
//! **Why a 4-byte aligned key.** Each segment stores its id as `Key`, an
//! id packed to 4-byte alignment. A `u64` key would make every bucket
//! 8-aligned, so the per-object table's 12-byte value (a `u64` time and a
//! `u32` count, itself packed to 4) would be padded to 16 and its bucket
//! to 24 bytes; packed, the bucket is the 20 bytes the row holds. Values
//! that are 8-aligned themselves (the stores' `usize` positions) keep
//! their 16-byte buckets. The key hashes as its id does, so no hash, and
//! no segment pick, moves.
//!
//! The hasher is not keyed, so it gives no protection against ids crafted
//! to collide; a deployment that takes ids from untrusted clients should
//! hash them (as a CDN does with URLs) before they reach the cache.

use darwin_trace::ObjectId;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// log₂ of [`SEGMENTS`].
const SEGMENT_BITS: u32 = 5;

/// How many tables an [`IdMap`] is split into. Eight already take nine
/// tenths of the doubling transient off the benchmark's `heap_peak_mb`;
/// 32 brings the longest rehash under a millisecond while an empty map is
/// still 1 KiB of headers and `len` a 32-term sum (DESIGN.md, "Cost of
/// growth", has the measurements).
pub const SEGMENTS: usize = 1 << SEGMENT_BITS;

/// The hash bits right under the inner table's 7-bit tag.
const SEGMENT_SHIFT: u32 = 64 - 7 - SEGMENT_BITS;

/// The 64-bit hash every probe of an [`IdMap`] starts from.
#[inline]
pub fn fold_id(id: ObjectId) -> u64 {
    let m = u128::from(id ^ 0x243F_6A88_85A3_08D3) * 0x9E37_79B9_7F4A_7C15_u128;
    (m as u64) ^ ((m >> 64) as u64)
}

/// The segment of an [`IdMap`] that holds `id`.
#[inline]
pub fn segment_of(id: ObjectId) -> usize {
    (fold_id(id) >> SEGMENT_SHIFT) as usize & (SEGMENTS - 1)
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

/// An id as a segment stores it: packed to 4-byte alignment, so that a
/// bucket is only as aligned as its value needs (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, packed(4))]
pub(crate) struct Key(ObjectId);

impl Hash for Key {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0);
    }
}

type Segment<V> = HashMap<Key, V, BuildHasherDefault<IdHasher>>;

/// A map from object id to `V` that grows one segment at a time (see the
/// module docs). Iteration order is arbitrary.
#[derive(Debug, Clone)]
pub struct IdMap<V> {
    segments: [Segment<V>; SEGMENTS],
}

impl<V> Default for IdMap<V> {
    fn default() -> Self {
        Self { segments: std::array::from_fn(|_| Segment::default()) }
    }
}

impl<V> IdMap<V> {
    /// A map that takes `entries` ids without growing: every segment is
    /// sized for its even share plus six standard deviations of the
    /// binomial spread, so a restore does not rehash its way up.
    pub fn with_capacity(entries: usize) -> Self {
        let share = entries.div_ceil(SEGMENTS);
        let each = if entries == 0 { 0 } else { share + 6 * share.isqrt() + 8 };
        Self {
            segments: std::array::from_fn(|_| {
                Segment::with_capacity_and_hasher(each, Default::default())
            }),
        }
    }

    /// The slot for `id` in its segment: one probe to read, update or fill.
    #[inline]
    pub(crate) fn entry(&mut self, id: ObjectId) -> Entry<'_, Key, V> {
        self.segments[segment_of(id)].entry(Key(id))
    }

    /// The value stored for `id`.
    #[inline]
    pub fn get(&self, id: ObjectId) -> Option<&V> {
        self.segments[segment_of(id)].get(&Key(id))
    }

    /// Whether `id` has a value.
    #[inline]
    pub fn contains_key(&self, id: ObjectId) -> bool {
        self.segments[segment_of(id)].contains_key(&Key(id))
    }

    /// Stores `value` for `id`, returning the value it replaces.
    #[inline]
    pub fn insert(&mut self, id: ObjectId, value: V) -> Option<V> {
        self.segments[segment_of(id)].insert(Key(id), value)
    }

    /// Forgets `id`, returning its value.
    #[inline]
    pub fn remove(&mut self, id: ObjectId) -> Option<V> {
        self.segments[segment_of(id)].remove(&Key(id))
    }

    /// Number of ids held.
    pub fn len(&self) -> usize {
        self.segments.iter().map(HashMap::len).sum()
    }

    /// True when no id is held.
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(HashMap::is_empty)
    }

    /// Every `(id, value)`, in arbitrary order. The size hint is not exact
    /// (a chain of segments); a caller that collects a large map should
    /// size its buffer from [`IdMap::len`].
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &V)> + '_ {
        self.segments.iter().flatten().map(|(key, v)| (key.0, v))
    }

    /// Every id, in arbitrary order.
    pub fn keys(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Forgets every id; the segments keep their allocations.
    pub fn clear(&mut self) {
        self.segments.iter_mut().for_each(HashMap::clear);
    }

    /// Entries the map can hold before some segment must grow, at best.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.segments.iter().map(HashMap::capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_trace::generator::object_id;
    use std::hash::BuildHasher;

    #[test]
    fn map_hash_of_an_id_is_the_fold() {
        let build = BuildHasherDefault::<IdHasher>::default();
        for id in [0u64, 1, 42, 1 << 48, (3 << 48) | 77, u64::MAX] {
            assert_eq!(build.hash_one(id), fold_id(id));
            assert_eq!(build.hash_one(Key(id)), fold_id(id), "the key hashes as its id");
        }
    }

    /// The per-object table's bucket — a key and a 12-byte value at
    /// alignment 4, shaped like its `(last_ts, count)` — is the 20 bytes of
    /// its row; a value aligned to 8, as the stores' positions are, keeps
    /// its 16-byte bucket.
    #[test]
    fn a_bucket_is_as_aligned_as_its_value() {
        use std::mem::{align_of, size_of};
        assert_eq!((size_of::<Key>(), align_of::<Key>()), (8, 4));
        assert_eq!(size_of::<(Key, [u32; 3])>(), 20);
        assert_eq!(size_of::<(Key, usize)>(), 16);
    }

    #[test]
    fn high_bits_reach_both_ends_of_the_hash() {
        // Same rank, different class: bucket bits and tag bits both move.
        let (a, b) = (fold_id(5), fold_id((1 << 48) | 5));
        assert_ne!(a & 0xFFFF, b & 0xFFFF);
        assert_ne!(a >> 57, b >> 57);
    }

    #[test]
    fn segment_bits_sit_between_bucket_and_tag() {
        assert_eq!(SEGMENT_SHIFT + SEGMENT_BITS, 57, "right under the 7-bit tag");
        let id = (1 << 48) | 12_345;
        assert_eq!(segment_of(id), ((fold_id(id) >> 52) & 31) as usize);
    }

    /// A million ids shaped like the benchmark catalogue's (class in the
    /// high bits, ranks counted up from zero), inserted one by one: no
    /// insert may grow the table by more than an eighth of what it already
    /// holds. One unsegmented table doubles — this fails on it at its first
    /// growth past the floor.
    #[test]
    fn no_insert_grows_the_table_by_more_than_an_eighth() {
        /// Below this the table is a few pages and its steps do not matter.
        const FLOOR: usize = 4096;
        let mut map = IdMap::default();
        let mut steps = 0;
        for rank in 0..500_000 {
            for class in 0..2 {
                let id = object_id(class, rank);
                let (before, total) = (map.segments[segment_of(id)].capacity(), map.capacity());
                map.insert(id, rank);
                let step = map.segments[segment_of(id)].capacity() - before;
                if step > 0 && total >= FLOOR {
                    steps += 1;
                    assert!(
                        8 * step <= total,
                        "an insert at {} ids grew capacity {total} by {step}",
                        map.len()
                    );
                }
            }
        }
        assert_eq!(map.len(), 1_000_000);
        assert!(steps > 0, "the table never grew past the floor");
    }

    #[test]
    fn a_presized_map_takes_its_entries_without_growing() {
        for entries in [0usize, 1, 31, 1_000, 520_000] {
            let mut map = IdMap::with_capacity(entries);
            let before: Vec<usize> = map.segments.iter().map(HashMap::capacity).collect();
            for rank in 0..entries as u64 {
                map.insert(object_id(rank as usize % 2, rank / 2), ());
            }
            let after: Vec<usize> = map.segments.iter().map(HashMap::capacity).collect();
            assert_eq!(before, after, "{entries} entries made a pre-sized segment grow");
            assert_eq!(map.len(), entries);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The id pool every step draws from: ranks in two class namespaces, as
    /// the generators mint them, few enough that present and absent keys
    /// both turn up under every operation.
    fn pool() -> impl Iterator<Item = u64> {
        (0..2).flat_map(|class| (0..48).map(move |rank| (class << 48) | rank))
    }

    /// `entry` as the table uses it: mix `v` into a present value, fill a
    /// vacant slot with it. Returns what it found and what it left. (Generic
    /// in the key: the map's is a [`Key`], the reference's a `u64`.)
    fn upsert<K>(entry: Entry<'_, K, u32>, v: u32) -> (bool, u32) {
        match entry {
            Entry::Occupied(mut e) => {
                *e.get_mut() ^= v;
                (true, *e.get())
            }
            Entry::Vacant(slot) => (false, *slot.insert(v)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The segmented map is a `HashMap`: same return values, same
        /// lookups, same length and the same contents as a set, step by step.
        #[test]
        fn behaves_as_the_standard_map(
            ops in proptest::collection::vec((0u8..12, 0u64..2, 0u64..48, 0u32..1000), 1..400),
        ) {
            let mut map = IdMap::default();
            let mut reference = std::collections::HashMap::new();
            for (op, class, rank, v) in ops {
                let id = (class << 48) | rank;
                match op {
                    0..=3 => prop_assert_eq!(map.insert(id, v), reference.insert(id, v)),
                    4..=6 => prop_assert_eq!(map.remove(id), reference.remove(&id)),
                    7..=10 => prop_assert_eq!(upsert(map.entry(id), v), upsert(reference.entry(id), v)),
                    _ => {
                        map.clear();
                        reference.clear();
                    }
                }
                prop_assert_eq!(map.len(), reference.len());
                prop_assert_eq!(map.is_empty(), reference.is_empty());
                for id in pool() {
                    prop_assert_eq!(map.get(id), reference.get(&id));
                    prop_assert_eq!(map.contains_key(id), reference.contains_key(&id));
                }
                let mut got: Vec<(u64, u32)> = map.iter().map(|(id, &v)| (id, v)).collect();
                let mut want: Vec<(u64, u32)> = reference.iter().map(|(&id, &v)| (id, v)).collect();
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(&got, &want);
                let mut keys: Vec<u64> = map.keys().collect();
                keys.sort_unstable();
                prop_assert!(keys.iter().eq(want.iter().map(|(id, _)| id)));
            }
        }
    }
}
