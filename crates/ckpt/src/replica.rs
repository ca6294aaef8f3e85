//! The cut envelope: the one sealed shipment a checkpoint cut travels in
//! whenever learned state moves between holders.
//!
//! Two flows ship cuts, and both speak this format: a primary shard feeds
//! its hot standby at every checkpoint cut ([`CutRole::Replica`]), and a
//! resize hands each surviving shard's final cut to the successor
//! generation ([`CutRole::Handoff`]). Either way the sender calls
//! [`CutFrame::ship`] — a [`CutPayload::Delta`] against the boundary the
//! receiver already holds when there is one, so steady-state movement costs
//! O(churn) bytes, and a [`CutPayload::Full`] image otherwise — and the
//! receiver calls [`CutFrame::apply`].
//!
//! ## Frame format (magic `DRBR`, version 2, CRC-64 sealed)
//!
//! | field        | type    | meaning                                        |
//! |--------------|---------|------------------------------------------------|
//! | `shard`      | `usize` | shard the cut belongs to                       |
//! | `generation` | `u32`   | fleet generation the receiver must be in       |
//! | `role`       | `u8`    | flow: `0x01` replica feed, `0x02` handoff      |
//! | `seq`        | `u64`   | request-sequence boundary of the cut           |
//! | payload tag  | `u8`    | `0x01` full, `0x02` delta                      |
//! | payload      | bytes   | full image, or `base_seq: u64` + sealed delta  |
//!
//! [`CutFrame::apply`] is the receiver's gate: it refuses a shipment
//! addressed to another shard ([`CutError::WrongShard`]) or generation
//! ([`CutError::WrongGeneration`]), one from the other flow
//! ([`CutError::WrongRole`] — a standby never applies a handoff and a
//! resize never boots from a replica feed), and a delta whose `base_seq` is
//! not the boundary the receiver holds ([`CutError::WrongBase`]). Damage
//! surfaces as [`CkptError`]s from the sealed-frame layer, and the embedded
//! [`DeltaFrame`](crate::delta::DeltaFrame) refuses both the wrong base
//! bytes and a reconstruction that does not hash to its recorded checksum —
//! a shipment can fail loudly but never silently mis-apply. The resolved
//! image still carries its own seal; callers re-validate it as their
//! shard's checkpoint before trusting it.
//!
//! A holder hashes an image once, when it takes it: [`AppliedCut::sum`] is
//! the CRC-64 `apply` verified the whole reconstruction under, and it comes
//! back as [`Held::sum`] at the next cut, where `ship` writes it as the
//! delta's base checksum and `apply` compares it — neither walks the base
//! again. Nothing is trusted that was not hashed: a base damaged since its
//! sum was taken rebuilds an image that fails the delta's target checksum.

use crate::delta::{DeltaRef, Plan};
use crate::{crc64, open, CkptError, Dec, Enc};
use std::fmt;

/// Magic for sealed cut envelopes: `DRBR`.
pub const CUT_MAGIC: u32 = 0x4452_4252;
/// Current cut envelope version.
pub const CUT_VERSION: u16 = 2;

/// Role tag for a primary → standby replication feed.
const ROLE_REPLICA: u8 = 0x01;
/// Role tag for a drained generation → successor handoff.
const ROLE_HANDOFF: u8 = 0x02;

/// Payload tag for a full checkpoint image.
const PAYLOAD_FULL: u8 = 0x01;
/// Payload tag for a delta against the receiver's held image.
const PAYLOAD_DELTA: u8 = 0x02;

/// Which flow a shipment belongs to. The receiver names the role it
/// serves; a shipment from the other flow is refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutRole {
    /// A primary's periodic cut, fed to its hot standby.
    Replica,
    /// A drained shard's final cut, handed to the successor generation.
    Handoff,
}

impl CutRole {
    fn to_byte(self) -> u8 {
        match self {
            CutRole::Replica => ROLE_REPLICA,
            CutRole::Handoff => ROLE_HANDOFF,
        }
    }

    fn from_byte(b: u8) -> Result<Self, CkptError> {
        match b {
            ROLE_REPLICA => Ok(CutRole::Replica),
            ROLE_HANDOFF => Ok(CutRole::Handoff),
            other => Err(CkptError::Malformed(format!("cut role byte {other:#x}"))),
        }
    }
}

/// How the cut travels inside the envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CutPayload {
    /// The complete sealed checkpoint frame — O(cache) bytes.
    Full(Vec<u8>),
    /// A sealed [`DeltaFrame`](crate::delta::DeltaFrame) against the image
    /// the receiver holds at `base_seq` — O(churn) bytes.
    Delta {
        /// Request-sequence boundary of the base the delta was computed
        /// against; the receiver must hold exactly that image.
        base_seq: u64,
        /// The sealed delta frame
        /// ([`DeltaFrame::to_frame`](crate::delta::DeltaFrame::to_frame)).
        frame: Vec<u8>,
    },
}

/// Why a shipment must not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CutError {
    /// The envelope, its embedded delta or the image it stands for failed
    /// frame validation.
    Frame(CkptError),
    /// Addressed to a different shard.
    WrongShard {
        /// Shard the receiver holds.
        expected: usize,
        /// Shard the envelope names.
        found: usize,
    },
    /// Addressed to a different fleet generation.
    WrongGeneration {
        /// Generation the receiver is in.
        expected: u32,
        /// Generation the envelope names.
        found: u32,
    },
    /// Shipped by the other flow.
    WrongRole {
        /// Role the receiver serves.
        expected: CutRole,
        /// Role the envelope carries.
        found: CutRole,
    },
    /// A delta arrived against a boundary the receiver does not hold.
    WrongBase {
        /// Base boundary the delta requires.
        base_seq: u64,
        /// Boundary the receiver holds, if any.
        held: Option<u64>,
    },
}

impl fmt::Display for CutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CutError::Frame(e) => write!(f, "cut frame: {e}"),
            CutError::WrongShard { expected, found } => {
                write!(f, "cut for shard {found}, receiver holds shard {expected}")
            }
            CutError::WrongGeneration { expected, found } => {
                write!(f, "cut addressed to generation {found}, receiver is in generation {expected}")
            }
            CutError::WrongRole { expected, found } => {
                write!(f, "{found:?} cut offered to a {expected:?} receiver")
            }
            CutError::WrongBase { base_seq, held: Some(held) } => {
                write!(f, "delta against base seq {base_seq} but the receiver holds seq {held}")
            }
            CutError::WrongBase { base_seq, held: None } => {
                write!(f, "delta against base seq {base_seq} but the receiver holds no base")
            }
        }
    }
}

impl std::error::Error for CutError {}

impl From<CkptError> for CutError {
    fn from(e: CkptError) -> Self {
        CutError::Frame(e)
    }
}

/// The cut a receiver already holds, as both ends of a shipment name it: a
/// delta is computed against it and applied to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Held<'a> {
    /// Request-sequence boundary of the held cut.
    pub seq: u64,
    /// The held checkpoint frame.
    pub image: &'a [u8],
    /// CRC-64 of `image`, from the full pass its holder verified it by
    /// ([`AppliedCut::sum`]) — remembered, not recomputed per cut.
    pub sum: u64,
}

impl<'a> Held<'a> {
    /// A held cut whose checksum nobody remembers: hashes `image`.
    pub fn new(seq: u64, image: &'a [u8]) -> Self {
        Self { seq, image, sum: crc64(image) }
    }
}

/// What [`CutFrame::apply`] hands the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedCut {
    /// Request-sequence boundary the envelope claims for the cut.
    pub seq: u64,
    /// Base boundary the payload was a delta against (`None`: full image).
    pub base_seq: Option<u64>,
    /// Bytes the payload shipped — a full image's length, or the sealed
    /// delta's. The O(churn) accounting compares this against the image.
    pub shipped_bytes: u64,
    /// The resolved checkpoint frame, still under its own seal.
    pub image: Vec<u8>,
    /// CRC-64 of `image`: hashed here for a full payload, and for a delta
    /// the target checksum the reconstruction was just verified against.
    /// The receiver keeps it for the next cut's [`Held`].
    pub sum: u64,
}

/// One shipment: a checkpoint cut addressed shard-, generation- and
/// role-explicitly. See the module docs for the byte layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutFrame {
    /// Shard whose checkpoint this is.
    pub shard: usize,
    /// Fleet generation the receiver must be in.
    pub generation: u32,
    /// Flow the shipment belongs to.
    pub role: CutRole,
    /// Request-sequence boundary of the cut.
    pub seq: u64,
    /// Full image or delta against the receiver's held image.
    pub payload: CutPayload,
}

/// A payload where it lies in the receiver's wire bytes, not copied into a
/// [`CutPayload`] just to be resolved.
enum PayloadRef<'a> {
    Full(&'a [u8]),
    Delta { base_seq: u64, frame: &'a [u8] },
}

/// An envelope parsed in place over its wire bytes.
struct CutRef<'a> {
    shard: usize,
    generation: u32,
    role: CutRole,
    seq: u64,
    payload: PayloadRef<'a>,
}

/// Starts an envelope: everything before the payload tag, with room for a
/// payload of `payload_len` bytes. The caller writes the payload and seals.
fn envelope(payload_len: usize, shard: usize, generation: u32, role: CutRole, seq: u64) -> Enc {
    // shard, generation, role, seq, tag, base_seq, length prefix.
    let mut e = Enc::frame(8 + 4 + 1 + 8 + 1 + 8 + 8 + payload_len);
    e.usize(shard);
    e.u32(generation);
    e.u8(role.to_byte());
    e.u64(seq);
    e
}

impl<'a> CutRef<'a> {
    fn decode(frame: &'a [u8]) -> Result<Self, CkptError> {
        let body = open(frame, CUT_MAGIC, CUT_VERSION)?;
        let mut d = Dec::new(body);
        let shard = d.usize()?;
        let generation = d.u32()?;
        let role = CutRole::from_byte(d.u8()?)?;
        let seq = d.u64()?;
        let payload = match d.u8()? {
            PAYLOAD_FULL => PayloadRef::Full(d.bytes()?),
            PAYLOAD_DELTA => PayloadRef::Delta { base_seq: d.u64()?, frame: d.bytes()? },
            tag => return Err(CkptError::Malformed(format!("cut payload tag {tag:#x}"))),
        };
        d.finish()?;
        Ok(CutRef { shard, generation, role, seq, payload })
    }
}

impl CutFrame {
    /// The sender: seals `image` (the cut at `seq`) into wire bytes — as a
    /// delta against `held`, the cut the receiver already holds, when there
    /// is one, as the full image otherwise.
    pub fn ship(
        shard: usize,
        generation: u32,
        role: CutRole,
        seq: u64,
        image: &[u8],
        held: Option<Held<'_>>,
    ) -> Vec<u8> {
        // The delta is planned first, so the envelope is sized exactly.
        let delta = held.map(|base| (base, Plan::new(base.image, image)));
        let room = delta.as_ref().map_or(image.len(), |(_, plan)| plan.frame_len());
        let mut e = envelope(room, shard, generation, role, seq);
        match delta {
            Some((base, plan)) => {
                e.u8(PAYLOAD_DELTA);
                e.u64(base.seq);
                plan.write_sealed(&mut e, base.image.len(), base.sum);
            }
            None => {
                e.u8(PAYLOAD_FULL);
                e.bytes(image);
            }
        }
        e.seal(CUT_MAGIC, CUT_VERSION)
    }

    /// Serializes into a sealed, CRC-guarded envelope.
    pub fn to_frame(&self) -> Vec<u8> {
        let (CutPayload::Full(bytes) | CutPayload::Delta { frame: bytes, .. }) = &self.payload;
        let mut e = envelope(bytes.len(), self.shard, self.generation, self.role, self.seq);
        match &self.payload {
            CutPayload::Full(_) => e.u8(PAYLOAD_FULL),
            CutPayload::Delta { base_seq, .. } => {
                e.u8(PAYLOAD_DELTA);
                e.u64(*base_seq);
            }
        }
        e.bytes(bytes);
        e.seal(CUT_MAGIC, CUT_VERSION)
    }

    /// Parses a sealed envelope. Truncation, bit flips, a wrong magic or
    /// version, an unknown role or payload tag all surface as
    /// [`CkptError`]s — never a panic.
    pub fn from_frame(frame: &[u8]) -> Result<CutFrame, CkptError> {
        let CutRef { shard, generation, role, seq, payload } = CutRef::decode(frame)?;
        let payload = match payload {
            PayloadRef::Full(bytes) => CutPayload::Full(bytes.to_vec()),
            PayloadRef::Delta { base_seq, frame } => {
                CutPayload::Delta { base_seq, frame: frame.to_vec() }
            }
        };
        Ok(CutFrame { shard, generation, role, seq, payload })
    }

    /// The receiver's gate: decodes `wire`, checks it is addressed to this
    /// `shard`, `generation` and `role`, then materializes the image — the
    /// full payload itself, or the delta applied to `held`, which must be
    /// the cut the receiver holds at the delta's `base_seq`.
    pub fn apply(
        wire: &[u8],
        shard: usize,
        generation: u32,
        role: CutRole,
        held: Option<Held<'_>>,
    ) -> Result<AppliedCut, CutError> {
        Self::apply_into(Vec::new(), wire, shard, generation, role, held)
    }

    /// [`apply`](Self::apply), materializing the image in the allocation of
    /// `image` (a retired one; its contents are discarded), for a receiver
    /// that applies at every cut.
    pub fn apply_into(
        mut image: Vec<u8>,
        wire: &[u8],
        shard: usize,
        generation: u32,
        role: CutRole,
        held: Option<Held<'_>>,
    ) -> Result<AppliedCut, CutError> {
        let cut = CutRef::decode(wire)?;
        if cut.role != role {
            return Err(CutError::WrongRole { expected: role, found: cut.role });
        }
        if cut.shard != shard {
            return Err(CutError::WrongShard { expected: shard, found: cut.shard });
        }
        if cut.generation != generation {
            return Err(CutError::WrongGeneration { expected: generation, found: cut.generation });
        }
        let (base_seq, shipped_bytes, image, sum) = match cut.payload {
            PayloadRef::Full(bytes) => {
                image.clear();
                image.extend_from_slice(bytes);
                (None, bytes.len() as u64, image, crc64(bytes))
            }
            PayloadRef::Delta { base_seq, frame } => {
                let base = match held {
                    Some(base) if base.seq == base_seq => base,
                    _ => return Err(CutError::WrongBase { base_seq, held: held.map(|h| h.seq) }),
                };
                let delta = DeltaRef::open(frame)?;
                let image = delta.apply(base.image, base.sum, image)?;
                (Some(base_seq), frame.len() as u64, image, delta.target_sum())
            }
        };
        Ok(AppliedCut { seq: cut.seq, base_seq, shipped_bytes, image, sum })
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
    fn full_shipment_resolves_to_the_image() {
        let img = image(4096, 1);
        for role in [CutRole::Replica, CutRole::Handoff] {
            let wire = CutFrame::ship(3, 2, role, 1_000, &img, None);
            let applied = CutFrame::apply(&wire, 3, 2, role, None).unwrap();
            assert_eq!(
                applied,
                AppliedCut {
                    seq: 1_000,
                    base_seq: None,
                    shipped_bytes: img.len() as u64,
                    image: img.clone(),
                    sum: crc64(&img),
                }
            );
        }
    }

    #[test]
    fn delta_shipment_needs_and_uses_the_held_base() {
        let base = image(64 * 1024, 2);
        let mut target = base.clone();
        for b in &mut target[1_000..1_200] {
            *b ^= 0x5A;
        }
        let held = Held::new(1_000, &base);
        let wire = CutFrame::ship(0, 0, CutRole::Replica, 2_000, &target, Some(held));
        let applied = CutFrame::apply(&wire, 0, 0, CutRole::Replica, Some(held)).unwrap();
        assert_eq!(applied.image, target);
        assert_eq!(applied.sum, crc64(&target), "the sum to remember is the image's");
        assert_eq!(applied.base_seq, Some(1_000));
        assert!(applied.shipped_bytes < target.len() as u64 / 10, "delta ships O(churn)");
        // No base, or a base at another boundary, is refused before any
        // delta work.
        assert_eq!(
            CutFrame::apply(&wire, 0, 0, CutRole::Replica, None),
            Err(CutError::WrongBase { base_seq: 1_000, held: None })
        );
        assert_eq!(
            CutFrame::apply(&wire, 0, 0, CutRole::Replica, Some(Held { seq: 500, ..held })),
            Err(CutError::WrongBase { base_seq: 1_000, held: Some(500) })
        );
        // The wrong bytes at the right boundary are refused by the delta's
        // own checksum, not applied.
        let wrong = image(64 * 1024, 3);
        assert_eq!(
            CutFrame::apply(&wire, 0, 0, CutRole::Replica, Some(Held::new(1_000, &wrong))),
            Err(CutError::Frame(CkptError::BadCrc))
        );
    }

    #[test]
    fn a_remembered_sum_spares_no_check() {
        let base = image(64 * 1024, 7);
        let mut target = base.clone();
        target[9_000..9_100].fill(0x33);
        let held = Held::new(1_000, &base);
        let wire = CutFrame::ship(0, 0, CutRole::Replica, 2_000, &target, Some(held));
        // The sender wrote the sum it was given, where it used to hash.
        let lying = Held { sum: held.sum ^ 1, ..held };
        assert_ne!(CutFrame::ship(0, 0, CutRole::Replica, 2_000, &target, Some(lying)), wire);
        // Another image under the held boundary, remembered with its own
        // sum, is the wrong base whether or not anybody hashes it again.
        let mut other = base.clone();
        other[40_000] ^= 1;
        assert_eq!(
            CutFrame::apply(&wire, 0, 0, CutRole::Replica, Some(Held::new(1_000, &other))),
            Err(CutError::Frame(CkptError::BadCrc))
        );
        // The held image damaged *after* its sum was remembered, in a block
        // the delta copies: the sums agree, the reconstruction is hashed
        // whole, and that refuses it.
        assert_eq!(
            CutFrame::apply(&wire, 0, 0, CutRole::Replica, Some(Held { image: &other, ..held })),
            Err(CutError::Frame(CkptError::BadCrc))
        );
        // A remembered length that is not the image's is refused like a sum.
        let short = Held { image: &base[..base.len() - 1], ..held };
        assert_eq!(
            CutFrame::apply(&wire, 0, 0, CutRole::Replica, Some(short)),
            Err(CutError::Frame(CkptError::BadCrc))
        );
        assert_eq!(CutFrame::apply(&wire, 0, 0, CutRole::Replica, Some(held)).unwrap().image, target);
    }

    #[test]
    fn a_retired_image_is_rebuilt_in_place() {
        let base = image(64 * 1024, 8);
        let mut target = base.clone();
        target[100..300].fill(0x44);
        let held = Held::new(1, &base);
        let wire = CutFrame::ship(0, 0, CutRole::Replica, 2, &target, Some(held));
        assert_eq!(wire.capacity(), wire.len(), "a delta is planned, then written to size");
        let out = vec![0xEE; 128 * 1024];
        let out_at = out.as_ptr();
        let applied = CutFrame::apply_into(out, &wire, 0, 0, CutRole::Replica, Some(held)).unwrap();
        assert_eq!(applied.image, target);
        assert_eq!(applied.image.as_ptr(), out_at);
        // A full payload lands in the retired buffer too.
        let full = CutFrame::ship(0, 0, CutRole::Replica, 2, &target, None);
        let applied = CutFrame::apply_into(applied.image, &full, 0, 0, CutRole::Replica, None).unwrap();
        assert_eq!((applied.image.as_ptr(), &applied.image), (out_at, &target));
    }

    #[test]
    fn wrong_addressing_is_rejected_specifically() {
        let wire = CutFrame::ship(3, 2, CutRole::Replica, 500, &image(256, 4), None);
        assert_eq!(
            CutFrame::apply(&wire, 4, 2, CutRole::Replica, None),
            Err(CutError::WrongShard { expected: 4, found: 3 })
        );
        assert_eq!(
            CutFrame::apply(&wire, 3, 7, CutRole::Replica, None),
            Err(CutError::WrongGeneration { expected: 7, found: 2 })
        );
        assert_eq!(
            CutFrame::apply(&wire, 3, 2, CutRole::Handoff, None),
            Err(CutError::WrongRole { expected: CutRole::Handoff, found: CutRole::Replica })
        );
    }

    #[test]
    fn unknown_role_and_payload_tags_are_malformed() {
        for (role, payload) in [(0x7F, PAYLOAD_FULL), (ROLE_REPLICA, 0x7F)] {
            let mut e = Enc::new();
            e.usize(0);
            e.u32(0);
            e.u8(role);
            e.u64(100);
            e.u8(payload);
            e.bytes(b"body");
            let frame = e.seal(CUT_MAGIC, CUT_VERSION);
            assert!(matches!(CutFrame::from_frame(&frame), Err(CkptError::Malformed(_))));
        }
    }

    #[test]
    fn damage_is_detected_not_applied() {
        let wire = CutFrame::ship(3, 2, CutRole::Handoff, 900, &image(2048, 6), None);
        for keep in [0, 1, wire.len() / 2, wire.len() - 1] {
            assert!(CutFrame::from_frame(&wire[..keep]).is_err(), "kept {keep} bytes");
        }
        let mut flipped = wire.clone();
        flipped[wire.len() / 2] ^= 0x10;
        assert!(matches!(
            CutFrame::apply(&flipped, 3, 2, CutRole::Handoff, None),
            Err(CutError::Frame(_))
        ));
    }
}
