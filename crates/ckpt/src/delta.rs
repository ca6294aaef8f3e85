//! Block delta frames: an rsync-style diff of two byte images.
//!
//! **Retired from serving.** Cuts used to ship a [`DeltaFrame`] between two
//! checkpoint images; they now ship a [row delta](crate::rows), which finds
//! the changed rows of the images' id-sorted tables by a merge walk instead
//! of matching bytes. Nothing that serves requests computes or applies a
//! `DeltaFrame` any more. It still compiles because the repository
//! benchmark (`perf/src/shadow.rs`) times [`DeltaFrame::compute`] as its
//! `ckpt.delta` kernel; a benchmark change that repoints that span deletes
//! this module.
//!
//! ## Frame format (magic `DRBD`, version 1, CRC-64 sealed)
//!
//! | field        | type  | meaning                                     |
//! |--------------|-------|---------------------------------------------|
//! | `base_len`   | `u64` | byte length the base image must have        |
//! | `base_sum`   | `u64` | CRC-64 the base image must hash to          |
//! | `target_len` | `u64` | byte length of the reconstructed image      |
//! | `target_sum` | `u64` | CRC-64 the reconstruction must hash to      |
//! | `ops`        | seq   | `0x01 Copy{offset,len}` \| `0x02 Literal`   |
//!
//! [`DeltaFrame::apply`] refuses the wrong base (checksum mismatch) and
//! refuses its own output if it does not hash to `target_sum` — a delta can
//! fail loudly but never silently mis-restore. Unknown op tags, truncated
//! bodies and bit flips surface as [`CkptError`]s from the sealed-frame
//! layer or as `Malformed` from op decoding, and so do well-sealed ops that
//! reach outside the base or do not add up to `target_len` — checked before
//! the target is allocated. What the matcher emits is pinned byte for byte
//! against the matcher it replaced (`darwin-shard/tests/delta_identity.rs`).

use crate::{crc64, open, CkptError, Dec, Enc};

/// Magic for sealed delta frames: `DRBD`.
pub const DELTA_MAGIC: u32 = 0x4452_4244;
/// Current delta frame version.
pub const DELTA_VERSION: u16 = 1;
/// Diff granularity in bytes. Matches differ below this size are not worth
/// a `Copy` op's 17-byte encoding.
const BLOCK: usize = 64;

/// Op tag for a copy-from-base run.
const OP_COPY: u8 = 0x01;
/// Op tag for literal bytes.
const OP_LITERAL: u8 = 0x02;

/// One reconstruction step, read where it lies in an encoded op sequence.
enum Op<'a> {
    /// Copy `len` bytes starting at `offset` in the base image.
    Copy { offset: u64, len: u64 },
    /// Splice these bytes in verbatim.
    Literal(&'a [u8]),
}

/// Hands `each` every op of `ops` — a count, then that many encoded ops, as
/// a frame body carries them — in order. An unknown tag, an op that runs off
/// the end and bytes left over are errors; literals are borrowed, not copied.
fn walk<'a>(
    ops: &'a [u8],
    mut each: impl FnMut(Op<'a>) -> Result<(), CkptError>,
) -> Result<(), CkptError> {
    let mut d = Dec::new(ops);
    let count = d.usize()?;
    // Every op occupies at least a byte: a lying count ends the walk here.
    if count > d.remaining() {
        return Err(CkptError::Truncated);
    }
    for _ in 0..count {
        each(match d.u8()? {
            OP_COPY => Op::Copy { offset: d.u64()?, len: d.u64()? },
            OP_LITERAL => Op::Literal(d.bytes()?),
            tag => return Err(CkptError::Malformed(format!("delta op tag {tag:#x}"))),
        })?;
    }
    d.finish()
}

/// A checksummed block diff turning one byte image into another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaFrame {
    /// Required base image length.
    pub base_len: u64,
    /// Required base image CRC-64.
    pub base_sum: u64,
    /// Reconstructed image length.
    pub target_len: u64,
    /// Reconstructed image CRC-64.
    pub target_sum: u64,
    /// The ops as the frame body carries them ([`walk`] reads them).
    ops: Vec<u8>,
}

/// Weak rolling hash of one block (Adler-style): cheap to slide one byte at
/// a time across the target while scanning for base-block matches.
#[derive(Clone, Copy)]
struct WeakHash {
    a: u32,
    b: u32,
}

impl WeakHash {
    fn of(block: &[u8]) -> Self {
        let mut h = WeakHash { a: 0, b: 0 };
        for (i, &byte) in block.iter().enumerate() {
            h.a = h.a.wrapping_add(byte as u32);
            h.b = h.b.wrapping_add((block.len() - i) as u32 * byte as u32);
        }
        h
    }

    /// Slides the window one byte: drop `out`, append `inn`.
    fn roll(&mut self, out: u8, inn: u8, len: usize) {
        self.a = self.a.wrapping_sub(out as u32).wrapping_add(inn as u32);
        self.b = self.b.wrapping_sub(len as u32 * out as u32).wrapping_add(self.a);
    }

    fn key(&self) -> u64 {
        ((self.b as u64) << 32) | self.a as u64
    }
}

/// Every block of a base image, findable by weak key: a flat chained hash
/// table over block numbers, with no allocation per block. A target scan
/// probes it once per literal byte and nearly every probe misses, so a miss
/// is made cheap: a multiply and one word of `seen`.
struct BlockIndex {
    /// Weak key of each base block.
    keys: Vec<u64>,
    /// Per bucket, 1 + the lowest block number in it (0: empty).
    heads: Vec<u32>,
    /// Per block, 1 + the next higher block number in its bucket (0: last).
    next: Vec<u32>,
    /// Right shift taking a hashed key to its bucket.
    shift: u32,
    /// A Bloom filter over the keys, each key's [`SEEN_BITS`] bits inside
    /// one word: at 16–32 bits per block it answers about ninety-nine misses
    /// in a hundred with one load from a table small enough to stay cached
    /// under the scan, through a branch that predicts. What it lets through
    /// costs a chain walk — three dependent loads from tables that do not.
    seen: Vec<u64>,
    /// Right shift taking a hashed key to its word of `seen`.
    seen_shift: u32,
    /// One bit per block, set where a lower-numbered block has the same
    /// key. A block with the bit clear is the first in base order under its
    /// key, so when it equals a window it is [`find`](Self::find)'s answer —
    /// what lets a copy run be [followed](Self::follow) without a probe.
    twin: Vec<u64>,
}

/// Bits a key sets in its word of `seen`.
const SEEN_BITS: u32 = 3;

/// Multiplicative hash of a weak key; buckets take its top bits.
fn hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl BlockIndex {
    fn build(base: &[u8]) -> Self {
        let keys: Vec<u64> = base.chunks_exact(BLOCK).map(|b| WeakHash::of(b).key()).collect();
        assert!(!keys.is_empty() && keys.len() < u32::MAX as usize, "base of 1..2^32 blocks");
        let buckets = (2 * keys.len()).next_power_of_two();
        let words = keys.len().div_ceil(4).next_power_of_two();
        let mut index = BlockIndex {
            heads: vec![0; buckets],
            next: vec![0; keys.len()],
            shift: 64 - buckets.trailing_zeros(),
            seen: vec![0; words],
            seen_shift: 64 - words.trailing_zeros(),
            twin: vec![0; keys.len().div_ceil(64)],
            keys,
        };
        // Highest block first, each pushed on the front of its bucket: every
        // chain ends up in ascending base order.
        for block in (0..index.keys.len()).rev() {
            let key = index.keys[block];
            let hash = hash(key);
            let bucket = index.bucket(hash);
            let (word, bits) = index.seen_at(hash);
            if index.seen[word] & bits == bits {
                // The chain holds only higher blocks, lowest first. The first
                // of them under this key gains a lower twin here; the ones
                // behind it gained theirs when it was pushed.
                let mut link = index.heads[bucket];
                while link != 0 {
                    let higher = (link - 1) as usize;
                    if index.keys[higher] == key {
                        index.twin[higher / 64] |= 1 << (higher % 64);
                        break;
                    }
                    link = index.next[higher];
                }
            }
            index.next[block] = index.heads[bucket];
            index.heads[bucket] = block as u32 + 1;
            index.seen[word] |= bits;
        }
        index
    }

    fn bucket(&self, hash: u64) -> usize {
        (hash >> self.shift) as usize
    }

    /// The word of `seen` a hashed key falls in, and its bits there: one per
    /// six-bit field of the hash below the bits that chose the word.
    fn seen_at(&self, hash: u64) -> (usize, u64) {
        // A one-word filter (a one-block base) has shift 64.
        let word = hash.checked_shr(self.seen_shift).unwrap_or(0) as usize;
        let fields = hash >> (self.seen_shift - 6 * SEEN_BITS);
        let bits = (0..SEEN_BITS).fold(0, |bits, i| bits | 1 << ((fields >> (6 * i)) & 63));
        (word, bits)
    }

    /// Offset of the first block in base order that is byte-for-byte
    /// `window` (a weak-key collision just costs a comparison). Kept out of
    /// line so the scan around it stays a register-resident loop.
    #[inline(never)]
    fn find(&self, base: &[u8], hash: u64, key: u64, window: &[u8]) -> Option<usize> {
        let mut link = self.heads[self.bucket(hash)];
        while link != 0 {
            let block = (link - 1) as usize;
            let offset = block * BLOCK;
            if self.keys[block] == key && &base[offset..offset + BLOCK] == window {
                return Some(offset);
            }
            link = self.next[block];
        }
        None
    }

    /// Slides a window over `target` from `pos` to the first position where
    /// it is a base block; returns that position and the block's offset.
    fn next_match(&self, base: &[u8], target: &[u8], pos: usize) -> Option<(usize, usize)> {
        let mut weak = WeakHash::of(target.get(pos..pos + BLOCK)?);
        let mut at = pos;
        let mut slide = target[pos..].iter().zip(&target[pos + BLOCK..]);
        loop {
            let (key, hash) = (weak.key(), hash(weak.key()));
            let (word, bits) = self.seen_at(hash);
            if self.seen[word] & bits == bits {
                if let Some(offset) = self.find(base, hash, key, &target[at..at + BLOCK]) {
                    return Some((at, offset));
                }
            }
            let (&out, &inn) = slide.next()?;
            weak.roll(out, inn, BLOCK);
            at += 1;
        }
    }

    /// How many bytes of whole blocks `target[pos..]` goes on matching
    /// `base[off..]` for, `off` a block boundary, each of them a match
    /// [`next_match`](Self::next_match) would have returned: the window at
    /// `pos` equals the base block at `off`, and no lower-numbered block can
    /// equal it too, because none shares its key. A long copy run — most of
    /// an image between two cuts — costs a comparison per block this way
    /// instead of a weak hash, a probe and a chain walk; where a block has a
    /// twin (runs of zeros, repeated records) the scan decides as it always
    /// did.
    fn follow(&self, base: &[u8], target: &[u8], off: usize, pos: usize) -> usize {
        let blocks = base[off..].chunks_exact(BLOCK).zip(target[pos..].chunks_exact(BLOCK));
        let first = off / BLOCK;
        let matched = blocks
            .enumerate()
            .take_while(|&(i, (b, t))| {
                self.twin[(first + i) / 64] & (1 << ((first + i) % 64)) == 0 && b == t
            })
            .count();
        matched * BLOCK
    }
}

/// One planned op: a range of the base to copy, or of the target to splice
/// in verbatim.
#[derive(Clone, Copy)]
enum Step {
    Copy { offset: usize, len: usize },
    Literal { start: usize, len: usize },
}

/// The ops turning `base` into `target`, literals as ranges of `target`.
fn plan(base: &[u8], target: &[u8]) -> Vec<Step> {
    let mut steps = Vec::new();
    let literal = |steps: &mut Vec<Step>, start: usize, end: usize| {
        if start < end {
            steps.push(Step::Literal { start, len: end - start });
        }
    };
    if target.is_empty() {
    } else if base.len() < BLOCK || target.len() < BLOCK {
        literal(&mut steps, 0, target.len());
    } else {
        let index = BlockIndex::build(base);
        // `target[covered..]` is not yet covered by an op.
        let mut covered = 0usize;
        while let Some((pos, off)) = index.next_match(base, target, covered) {
            literal(&mut steps, covered, pos);
            let len = BLOCK + index.follow(base, target, off + BLOCK, pos + BLOCK);
            // Coalesce with a preceding copy that this run extends.
            match steps.last_mut() {
                Some(Step::Copy { offset, len: run }) if *offset + *run == off => *run += len,
                _ => steps.push(Step::Copy { offset: off, len }),
            }
            covered = pos + len;
        }
        // Whatever no copy covered, the sub-block tail included, is literal.
        literal(&mut steps, covered, target.len());
    }
    steps
}

impl DeltaFrame {
    /// Diffs `base → target`. Pure and deterministic: the same pair always
    /// yields the same frame.
    pub fn compute(base: &[u8], target: &[u8]) -> DeltaFrame {
        let steps = plan(base, target);
        let op_len = |step: &Step| match step {
            Step::Copy { .. } => 17, // tag + offset + len
            Step::Literal { len, .. } => 1 + 8 + len,
        };
        let mut ops = Enc::with_capacity(8 + steps.iter().map(op_len).sum::<usize>());
        ops.seq(&steps, |e, step| match *step {
            Step::Copy { offset, len } => {
                e.u8(OP_COPY);
                e.u64(offset as u64);
                e.u64(len as u64);
            }
            Step::Literal { start, len } => {
                e.u8(OP_LITERAL);
                e.bytes(&target[start..start + len]);
            }
        });
        DeltaFrame {
            base_len: base.len() as u64,
            base_sum: crc64(base),
            target_len: target.len() as u64,
            target_sum: crc64(target),
            ops: ops.into_bytes(),
        }
    }

    /// Reconstructs the target from `base`. Refuses a wrong base up front
    /// (`BadCrc`), refuses ops that reach outside the base or do not add up
    /// to `target_len` (`Malformed`) before a byte is allocated — a seal is
    /// not a signature, and a sealed `target_len` must not size a buffer on
    /// its own word — and refuses its own output when the reconstruction
    /// does not hash to `target_sum`: corruption is loud, never silent.
    pub fn apply(&self, base: &[u8]) -> Result<Vec<u8>, CkptError> {
        if base.len() as u64 != self.base_len || crc64(base) != self.base_sum {
            return Err(CkptError::BadCrc);
        }
        let mut total = 0u64;
        walk(&self.ops, |op| {
            let len = match op {
                Op::Copy { offset, len } => {
                    if offset.checked_add(len).is_none_or(|end| end > self.base_len) {
                        return Err(CkptError::Malformed(format!(
                            "copy of {len} bytes at {offset} leaves the {}-byte base",
                            self.base_len
                        )));
                    }
                    len
                }
                Op::Literal(bytes) => bytes.len() as u64,
            };
            total = total
                .checked_add(len)
                .ok_or_else(|| CkptError::Malformed("delta op lengths overflow".into()))?;
            Ok(())
        })?;
        if total != self.target_len {
            return Err(CkptError::Malformed(format!(
                "delta ops rebuild {total} bytes, not the {} declared",
                self.target_len
            )));
        }
        // Copies may repeat base blocks, so even a consistent delta can
        // declare more than the machine holds: fail, don't abort.
        let mut out = Vec::new();
        if usize::try_from(total).map_or(true, |n| out.try_reserve_exact(n).is_err()) {
            return Err(CkptError::Malformed(format!("no memory for a {total}-byte target")));
        }
        walk(&self.ops, |op| {
            match op {
                Op::Copy { offset, len } => {
                    out.extend_from_slice(&base[offset as usize..(offset + len) as usize]);
                }
                Op::Literal(bytes) => out.extend_from_slice(bytes),
            }
            Ok(())
        })?;
        if crc64(&out) != self.target_sum {
            return Err(CkptError::BadCrc);
        }
        Ok(out)
    }

    /// Encoded size of the ops payload — the bandwidth the diff ships,
    /// compared against `target_len` for the O(churn) claim.
    pub fn payload_bytes(&self) -> u64 {
        // Everything but the op count.
        self.ops.len() as u64 - 8
    }

    /// Serializes into a sealed, CRC-guarded frame.
    pub fn to_frame(&self) -> Vec<u8> {
        // The four sums, then the counted ops.
        let mut e = Enc::frame(32 + self.ops.len());
        e.u64(self.base_len);
        e.u64(self.base_sum);
        e.u64(self.target_len);
        e.u64(self.target_sum);
        e.raw(&self.ops);
        e.seal(DELTA_MAGIC, DELTA_VERSION)
    }

    /// Parses a sealed delta frame. Truncated, bit-flipped or
    /// wrong-versioned frames and undecodable ops surface as
    /// [`CkptError`]s.
    pub fn from_frame(frame: &[u8]) -> Result<DeltaFrame, CkptError> {
        let mut d = Dec::new(open(frame, DELTA_MAGIC, DELTA_VERSION)?);
        let (base_len, base_sum, target_len, target_sum) = (d.u64()?, d.u64()?, d.u64()?, d.u64()?);
        let ops = d.rest();
        walk(ops, |_| Ok(()))?;
        Ok(DeltaFrame { base_len, base_sum, target_len, target_sum, ops: ops.to_vec() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    /// An encoded op sequence of just these `(offset, len)` copies.
    fn copies(runs: &[(u64, u64)]) -> Vec<u8> {
        let mut e = Enc::new();
        e.seq(runs, |e, &(offset, len)| {
            e.u8(OP_COPY);
            e.u64(offset);
            e.u64(len);
        });
        e.into_bytes()
    }

    #[test]
    fn identical_images_round_trip_tiny() {
        let base = image(8192, 1);
        let delta = DeltaFrame::compute(&base, &base);
        assert_eq!(delta.apply(&base).unwrap(), base);
        assert!(
            delta.payload_bytes() < 64,
            "identity delta ships {} bytes for an 8 KiB image",
            delta.payload_bytes()
        );
    }

    #[test]
    fn small_churn_ships_small_delta() {
        let base = image(64 * 1024, 2);
        let mut target = base.clone();
        // Mutate ~1% of the image in a few scattered runs.
        for start in [100usize, 20_000, 40_000] {
            for b in &mut target[start..start + 200] {
                *b ^= 0x5A;
            }
        }
        target.extend_from_slice(&image(300, 3)); // appended churn
        let delta = DeltaFrame::compute(&base, &target);
        assert_eq!(delta.apply(&base).unwrap(), target);
        assert!(
            delta.payload_bytes() < target.len() as u64 / 10,
            "1% churn delta ships {} of {} bytes",
            delta.payload_bytes(),
            target.len()
        );
    }

    #[test]
    fn wrong_base_is_refused() {
        let base = image(4096, 4);
        let target = image(4096, 5);
        let delta = DeltaFrame::compute(&base, &target);
        let mut wrong = base.clone();
        wrong[17] ^= 1;
        assert_eq!(delta.apply(&wrong), Err(CkptError::BadCrc));
        assert_eq!(delta.apply(&base).unwrap(), target);
    }

    #[test]
    fn frame_round_trips_and_rejects_corruption() {
        let base = image(10_000, 6);
        let target = image(10_000, 7);
        let delta = DeltaFrame::compute(&base, &target);
        let frame = delta.to_frame();
        assert_eq!(DeltaFrame::from_frame(&frame).unwrap(), delta);
        assert!(DeltaFrame::from_frame(&frame[..frame.len() - 3]).is_err());
        let mut flipped = frame.clone();
        flipped[frame.len() / 2] ^= 0x10;
        assert!(DeltaFrame::from_frame(&flipped).is_err());
    }

    #[test]
    fn hostile_but_well_sealed_deltas_are_malformed_not_fatal() {
        let base = image(4096, 10);
        let target = image(4096, 11);
        let honest = DeltaFrame::compute(&base, &base);
        let through_the_wire =
            |d: &DeltaFrame| DeltaFrame::from_frame(&d.to_frame()).unwrap().apply(&base);
        // A declared length no machine holds: refused before it sizes a
        // buffer (this used to abort the process in the allocator).
        let mut huge = DeltaFrame::compute(&base, &target);
        huge.target_len = 1 << 60;
        assert!(matches!(through_the_wire(&huge), Err(CkptError::Malformed(_))));
        // ... and one merely off by a byte.
        let mut off = honest.clone();
        off.target_len += 1;
        assert!(matches!(through_the_wire(&off), Err(CkptError::Malformed(_))));
        // Copies that start or end outside the base, or wrap around.
        for (offset, len) in [(4096, 1), (4000, 97), (u64::MAX, 2), (1, u64::MAX)] {
            let mut bad = honest.clone();
            bad.ops = copies(&[(offset, len)]);
            bad.target_len = len;
            assert!(matches!(through_the_wire(&bad), Err(CkptError::Malformed(_))), "{offset}+{len}");
        }
        // Repeating a base range is legal, so a target may outgrow its base.
        let mut twice = honest.clone();
        twice.ops = copies(&[(0, 4096); 2]);
        twice.target_len = 2 * 4096;
        twice.target_sum = crc64(&[&base[..], &base[..]].concat());
        assert_eq!(through_the_wire(&twice).unwrap().len(), 2 * 4096);
        // An honest length with a lying checksum still fails as damage.
        let mut lying = honest.clone();
        lying.target_sum ^= 1;
        assert_eq!(through_the_wire(&lying), Err(CkptError::BadCrc));
        assert_eq!(through_the_wire(&honest).unwrap(), base);
    }

    #[test]
    fn empty_and_sub_block_images() {
        for (b, t) in [(0usize, 0usize), (0, 10), (10, 0), (10, 20), (200, 3)] {
            let base = image(b, 8);
            let target = image(t, 9);
            let delta = DeltaFrame::compute(&base, &target);
            assert_eq!(delta.apply(&base).unwrap(), target, "base {b} target {t}");
        }
    }
}
