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
//! [`DeltaFrame`] refuses both the wrong base bytes and a reconstruction
//! that does not hash to its recorded checksum — a shipment can fail loudly
//! but never silently mis-apply. The resolved image still carries its own
//! seal; callers re-validate it as their shard's checkpoint before trusting
//! it.

use crate::delta::DeltaFrame;
use crate::{open, CkptError, Dec, Enc};
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
    /// A sealed [`DeltaFrame`] against the image the receiver holds at
    /// `base_seq` — O(churn) bytes.
    Delta {
        /// Request-sequence boundary of the base the delta was computed
        /// against; the receiver must hold exactly that image.
        base_seq: u64,
        /// The sealed delta frame ([`DeltaFrame::to_frame`]).
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

/// A payload where it already lies — in the sender's image and delta, or in
/// the receiver's wire bytes — so neither end copies it into a
/// [`CutPayload`] just to seal or resolve it.
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

impl<'a> CutRef<'a> {
    fn encode(&self) -> Vec<u8> {
        let (tag, base_seq, bytes) = match self.payload {
            PayloadRef::Full(bytes) => (PAYLOAD_FULL, None, bytes),
            PayloadRef::Delta { base_seq, frame } => (PAYLOAD_DELTA, Some(base_seq), frame),
        };
        // shard, generation, role, seq, tag, base_seq, length prefix: 46.
        let mut e = Enc::frame(46 + bytes.len());
        e.usize(self.shard);
        e.u32(self.generation);
        e.u8(self.role.to_byte());
        e.u64(self.seq);
        e.u8(tag);
        if let Some(base_seq) = base_seq {
            e.u64(base_seq);
        }
        e.bytes(bytes);
        e.seal(CUT_MAGIC, CUT_VERSION)
    }

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
    /// delta against `held`, the `(base_seq, image)` the receiver already
    /// holds, when there is one, as the full image otherwise.
    pub fn ship(
        shard: usize,
        generation: u32,
        role: CutRole,
        seq: u64,
        image: &[u8],
        held: Option<(u64, &[u8])>,
    ) -> Vec<u8> {
        let delta = held.map(|(base_seq, base)| (base_seq, DeltaFrame::compute(base, image).to_frame()));
        let payload = match &delta {
            Some((base_seq, frame)) => PayloadRef::Delta { base_seq: *base_seq, frame },
            None => PayloadRef::Full(image),
        };
        CutRef { shard, generation, role, seq, payload }.encode()
    }

    /// Serializes into a sealed, CRC-guarded envelope.
    pub fn to_frame(&self) -> Vec<u8> {
        let payload = match &self.payload {
            CutPayload::Full(bytes) => PayloadRef::Full(bytes),
            CutPayload::Delta { base_seq, frame } => PayloadRef::Delta { base_seq: *base_seq, frame },
        };
        CutRef {
            shard: self.shard,
            generation: self.generation,
            role: self.role,
            seq: self.seq,
            payload,
        }
        .encode()
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
    /// the `(seq, image)` the receiver holds at the delta's `base_seq`.
    pub fn apply(
        wire: &[u8],
        shard: usize,
        generation: u32,
        role: CutRole,
        held: Option<(u64, &[u8])>,
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
        let (base_seq, shipped_bytes, image) = match cut.payload {
            PayloadRef::Full(bytes) => (None, bytes.len() as u64, bytes.to_vec()),
            PayloadRef::Delta { base_seq, frame } => {
                let base = match held {
                    Some((held_seq, base)) if held_seq == base_seq => base,
                    _ => return Err(CutError::WrongBase { base_seq, held: held.map(|(s, _)| s) }),
                };
                (Some(base_seq), frame.len() as u64, DeltaFrame::from_frame(frame)?.apply(base)?)
            }
        };
        Ok(AppliedCut { seq: cut.seq, base_seq, shipped_bytes, image })
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
                    image: img.clone()
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
        let wire = CutFrame::ship(0, 0, CutRole::Replica, 2_000, &target, Some((1_000, &base)));
        let applied = CutFrame::apply(&wire, 0, 0, CutRole::Replica, Some((1_000, &base))).unwrap();
        assert_eq!(applied.image, target);
        assert_eq!(applied.base_seq, Some(1_000));
        assert!(applied.shipped_bytes < target.len() as u64 / 10, "delta ships O(churn)");
        // No base, or a base at another boundary, is refused before any
        // delta work.
        assert_eq!(
            CutFrame::apply(&wire, 0, 0, CutRole::Replica, None),
            Err(CutError::WrongBase { base_seq: 1_000, held: None })
        );
        assert_eq!(
            CutFrame::apply(&wire, 0, 0, CutRole::Replica, Some((500, &base))),
            Err(CutError::WrongBase { base_seq: 1_000, held: Some(500) })
        );
        // The wrong bytes at the right boundary are refused by the delta's
        // own checksum, not applied.
        let wrong = image(64 * 1024, 3);
        assert_eq!(
            CutFrame::apply(&wire, 0, 0, CutRole::Replica, Some((1_000, &wrong))),
            Err(CutError::Frame(CkptError::BadCrc))
        );
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
