//! Incremental delta frames: O(churn) state movement.
//!
//! Shipping a shard's full checkpoint costs O(cache) bytes. A receiver that
//! already holds an earlier cut of the same shard — a hot standby its last
//! applied frame, a resize destination the pre-copied last *periodic*
//! checkpoint — only needs the difference between that base and the new
//! cut: O(churn since the base's boundary). [`DeltaFrame`] is that
//! difference: an rsync-style block-aligned diff of two byte images, carried
//! as the delta payload of a [`CutFrame`](crate::replica::CutFrame).
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
//! the target is allocated; the hostile-corpus proptests
//! (`darwin-rebalance/tests/codec_props.rs`) pin all of it.
//!
//! [`DeltaFrame::compute`] is on the serving thread's critical path at every
//! checkpoint cut; what it emits is pinned byte for byte against the matcher
//! it replaced (`darwin-shard/tests/delta_identity.rs`).
//!
//! `darwin_rebalance::delta` re-exports this module.

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

/// One reconstruction step.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DeltaOp {
    /// Copy `len` bytes starting at `offset` in the base image.
    Copy { offset: u64, len: u64 },
    /// Splice these bytes in verbatim.
    Literal(Vec<u8>),
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
    ops: Vec<DeltaOp>,
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
/// is made cheap: a multiply and one bit of `present`.
struct BlockIndex {
    /// Weak key of each base block.
    keys: Vec<u64>,
    /// Per bucket, 1 + the lowest block number in it (0: empty).
    heads: Vec<u32>,
    /// Per block, 1 + the next higher block number in its bucket (0: last).
    next: Vec<u32>,
    /// Right shift taking a hashed key to its bucket.
    shift: u32,
    /// [`FINE`] bits per bucket, set where some block's key hashes: answers
    /// nineteen misses in twenty from a table half the size of `heads`,
    /// through a branch that predicts (an occupied *bucket* is a coin toss).
    present: Vec<u64>,
}

/// `present` bits per bucket.
const FINE: usize = 16;

/// Multiplicative hash of a weak key; buckets take its top bits.
fn hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl BlockIndex {
    fn build(base: &[u8]) -> Self {
        let keys: Vec<u64> = base.chunks_exact(BLOCK).map(|b| WeakHash::of(b).key()).collect();
        assert!(!keys.is_empty() && keys.len() < u32::MAX as usize, "base of 1..2^32 blocks");
        let buckets = (2 * keys.len()).next_power_of_two();
        let mut index = BlockIndex {
            heads: vec![0; buckets],
            next: vec![0; keys.len()],
            shift: 64 - buckets.trailing_zeros(),
            present: vec![0; (buckets * FINE).div_ceil(64)],
            keys,
        };
        // Highest block first, each pushed on the front of its bucket: every
        // chain ends up in ascending base order.
        for block in (0..index.keys.len()).rev() {
            let hash = hash(index.keys[block]);
            let (bucket, fine) = (index.bucket(hash), index.fine(hash));
            index.next[block] = index.heads[bucket];
            index.heads[bucket] = block as u32 + 1;
            index.present[fine / 64] |= 1 << (fine % 64);
        }
        index
    }

    fn bucket(&self, hash: u64) -> usize {
        (hash >> self.shift) as usize
    }

    fn fine(&self, hash: u64) -> usize {
        (hash >> (self.shift - FINE.trailing_zeros())) as usize
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
            let fine = self.fine(hash);
            if self.present[fine / 64] & (1 << (fine % 64)) != 0 {
                if let Some(offset) = self.find(base, hash, key, &target[at..at + BLOCK]) {
                    return Some((at, offset));
                }
            }
            let (&out, &inn) = slide.next()?;
            weak.roll(out, inn, BLOCK);
            at += 1;
        }
    }
}

impl DeltaFrame {
    /// Diffs `base → target`. Pure and deterministic: the same pair always
    /// yields the same frame.
    pub fn compute(base: &[u8], target: &[u8]) -> DeltaFrame {
        let mut frame = DeltaFrame {
            base_len: base.len() as u64,
            base_sum: crc64(base),
            target_len: target.len() as u64,
            target_sum: crc64(target),
            ops: Vec::new(),
        };
        if target.is_empty() {
            return frame;
        }
        if base.len() < BLOCK || target.len() < BLOCK {
            frame.ops.push(DeltaOp::Literal(target.to_vec()));
            return frame;
        }
        let index = BlockIndex::build(base);
        // `target[literal..]` is not yet covered by an op.
        let mut literal = 0usize;
        while let Some((pos, off)) = index.next_match(base, target, literal) {
            if literal < pos {
                frame.ops.push(DeltaOp::Literal(target[literal..pos].to_vec()));
            }
            // Coalesce with a preceding copy that this block extends.
            match frame.ops.last_mut() {
                Some(DeltaOp::Copy { offset, len }) if *offset + *len == off as u64 => {
                    *len += BLOCK as u64;
                }
                _ => frame.ops.push(DeltaOp::Copy { offset: off as u64, len: BLOCK as u64 }),
            }
            literal = pos + BLOCK;
        }
        // Whatever no copy covered, the sub-block tail included, is literal.
        if literal < target.len() {
            frame.ops.push(DeltaOp::Literal(target[literal..].to_vec()));
        }
        frame
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
        for op in &self.ops {
            let len = match op {
                DeltaOp::Copy { offset, len } => {
                    if offset.checked_add(*len).is_none_or(|end| end > self.base_len) {
                        return Err(CkptError::Malformed(format!(
                            "copy of {len} bytes at {offset} leaves the {}-byte base",
                            self.base_len
                        )));
                    }
                    *len
                }
                DeltaOp::Literal(bytes) => bytes.len() as u64,
            };
            total = total
                .checked_add(len)
                .ok_or_else(|| CkptError::Malformed("delta op lengths overflow".into()))?;
        }
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
        for op in &self.ops {
            match op {
                DeltaOp::Copy { offset, len } => {
                    out.extend_from_slice(&base[*offset as usize..(*offset + *len) as usize]);
                }
                DeltaOp::Literal(bytes) => out.extend_from_slice(bytes),
            }
        }
        if crc64(&out) != self.target_sum {
            return Err(CkptError::BadCrc);
        }
        Ok(out)
    }

    /// Encoded size of the ops payload — the bandwidth a handoff actually
    /// ships, compared against `target_len` for the O(churn) claim.
    pub fn payload_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Copy { .. } => 17u64, // tag + offset + len
                DeltaOp::Literal(bytes) => 1 + 8 + bytes.len() as u64,
            })
            .sum()
    }

    /// Serializes into a sealed, CRC-guarded frame.
    pub fn to_frame(&self) -> Vec<u8> {
        // The four sums, the op count, the ops.
        let mut e = Enc::frame(40 + self.payload_bytes() as usize);
        e.u64(self.base_len);
        e.u64(self.base_sum);
        e.u64(self.target_len);
        e.u64(self.target_sum);
        e.seq(&self.ops, |e, op| match op {
            DeltaOp::Copy { offset, len } => {
                e.u8(OP_COPY);
                e.u64(*offset);
                e.u64(*len);
            }
            DeltaOp::Literal(bytes) => {
                e.u8(OP_LITERAL);
                e.bytes(bytes);
            }
        });
        e.seal(DELTA_MAGIC, DELTA_VERSION)
    }

    /// Parses a sealed delta frame. Truncated, bit-flipped or
    /// wrong-versioned frames surface as [`CkptError`]s.
    pub fn from_frame(frame: &[u8]) -> Result<DeltaFrame, CkptError> {
        let body = open(frame, DELTA_MAGIC, DELTA_VERSION)?;
        let mut d = Dec::new(body);
        let base_len = d.u64()?;
        let base_sum = d.u64()?;
        let target_len = d.u64()?;
        let target_sum = d.u64()?;
        let ops = d.seq(|d| match d.u8()? {
            OP_COPY => Ok(DeltaOp::Copy { offset: d.u64()?, len: d.u64()? }),
            OP_LITERAL => Ok(DeltaOp::Literal(d.bytes()?.to_vec())),
            tag => Err(CkptError::Malformed(format!("delta op tag {tag:#x}"))),
        })?;
        d.finish()?;
        Ok(DeltaFrame { base_len, base_sum, target_len, target_sum, ops })
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
            bad.ops = vec![DeltaOp::Copy { offset, len }];
            bad.target_len = len;
            assert!(matches!(through_the_wire(&bad), Err(CkptError::Malformed(_))), "{offset}+{len}");
        }
        // Repeating a base range is legal, so a target may outgrow its base.
        let mut twice = honest.clone();
        twice.ops = vec![DeltaOp::Copy { offset: 0, len: 4096 }; 2];
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
