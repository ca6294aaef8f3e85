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
//! layer or as `Malformed` from op decoding; the hostile-corpus proptests
//! (`darwin-rebalance/tests/codec_props.rs`) pin all three.
//!
//! `darwin_rebalance::delta` re-exports this module.

use crate::{crc64, open, seal, CkptError, Dec, Enc};

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
        // Index every base block by weak hash; collisions keep all offsets
        // (verified byte-for-byte before use, so a false positive just
        // costs a comparison).
        let mut index: std::collections::HashMap<u64, Vec<usize>> = std::collections::HashMap::new();
        for (i, block) in base.chunks_exact(BLOCK).enumerate() {
            index.entry(WeakHash::of(block).key()).or_default().push(i * BLOCK);
        }
        let mut pending = Vec::new(); // literal run under construction
        let mut pos = 0usize;
        let mut weak = WeakHash::of(&target[..BLOCK]);
        loop {
            let window = &target[pos..pos + BLOCK];
            let matched = index.get(&weak.key()).and_then(|offsets| {
                offsets.iter().find(|&&off| &base[off..off + BLOCK] == window).copied()
            });
            if let Some(off) = matched {
                if !pending.is_empty() {
                    frame.ops.push(DeltaOp::Literal(std::mem::take(&mut pending)));
                }
                // Coalesce with a preceding copy that this block extends.
                match frame.ops.last_mut() {
                    Some(DeltaOp::Copy { offset, len }) if *offset + *len == off as u64 => {
                        *len += BLOCK as u64;
                    }
                    _ => frame.ops.push(DeltaOp::Copy { offset: off as u64, len: BLOCK as u64 }),
                }
                pos += BLOCK;
                if pos + BLOCK > target.len() {
                    break;
                }
                weak = WeakHash::of(&target[pos..pos + BLOCK]);
            } else {
                pending.push(target[pos]);
                if pos + BLOCK + 1 > target.len() {
                    pos += 1;
                    break;
                }
                weak.roll(target[pos], target[pos + BLOCK], BLOCK);
                pos += 1;
            }
        }
        // Tail shorter than a block: always literal.
        pending.extend_from_slice(&target[pos..]);
        if !pending.is_empty() {
            frame.ops.push(DeltaOp::Literal(pending));
        }
        frame
    }

    /// Reconstructs the target from `base`. Refuses a wrong base up front
    /// (`BadCrc`) and refuses its own output when the reconstruction does
    /// not hash to `target_sum` — corruption is loud, never silent.
    pub fn apply(&self, base: &[u8]) -> Result<Vec<u8>, CkptError> {
        if base.len() as u64 != self.base_len || crc64(base) != self.base_sum {
            return Err(CkptError::BadCrc);
        }
        let mut out = Vec::with_capacity(self.target_len as usize);
        for op in &self.ops {
            match op {
                DeltaOp::Copy { offset, len } => {
                    let start = *offset as usize;
                    let end = start
                        .checked_add(*len as usize)
                        .ok_or_else(|| CkptError::Malformed("copy range overflow".into()))?;
                    if end > base.len() {
                        return Err(CkptError::Malformed(format!(
                            "copy {start}..{end} past base end {}",
                            base.len()
                        )));
                    }
                    out.extend_from_slice(&base[start..end]);
                }
                DeltaOp::Literal(bytes) => out.extend_from_slice(bytes),
            }
        }
        if out.len() as u64 != self.target_len || crc64(&out) != self.target_sum {
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
        let mut e = Enc::new();
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
        seal(DELTA_MAGIC, DELTA_VERSION, &e.into_bytes())
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
    fn empty_and_sub_block_images() {
        for (b, t) in [(0usize, 0usize), (0, 10), (10, 0), (10, 20), (200, 3)] {
            let base = image(b, 8);
            let target = image(t, 9);
            let delta = DeltaFrame::compute(&base, &target);
            assert_eq!(delta.apply(&base).unwrap(), target, "base {b} target {t}");
        }
    }
}
