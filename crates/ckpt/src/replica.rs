//! The cut envelope: the one sealed shipment a checkpoint cut travels in
//! whenever learned state moves between holders.
//!
//! Two flows ship cuts, and both speak this format: a primary shard feeds
//! its hot standby at every checkpoint cut ([`CutRole::Replica`]), and a
//! resize hands each surviving shard's final cut to the successor
//! generation ([`CutRole::Handoff`]). Either way the sender calls
//! [`CutFrame::ship`] — a [`CutPayload::Rows`] delta against the image the
//! receiver already holds when there is one and both images lay out, so a
//! steady cut ships the rows that changed plus the image's other bytes, and
//! a [`CutPayload::Full`] image otherwise — and the receiver calls
//! [`CutFrame::rebuild`], which rebuilds the cut over the image it owns, in
//! that image's allocation (the standby), or [`CutFrame::apply`], which
//! rebuilds it over a copy of a base it borrows (a resize handoff); both
//! run the one rebuild of [`rows`]. Both ends take the holder's
//! [`LayoutFn`]: this crate does not know what a checkpoint looks like
//! inside. A sender that knows
//! which rows its image changed since the cut the receiver holds — the
//! replica feed, whose writer merged the image into that cut — passes its
//! list to [`CutFrame::ship_changes`], which ships the same bytes without
//! walking either image.
//!
//! ## Frame format (magic `DRBR`, version 3, CRC-64 sealed)
//!
//! | field        | type    | meaning                                        |
//! |--------------|---------|------------------------------------------------|
//! | `shard`      | `usize` | shard the cut belongs to                       |
//! | `generation` | `u32`   | fleet generation the receiver must be in       |
//! | `role`       | `u8`    | flow: `0x01` replica feed, `0x02` handoff      |
//! | `seq`        | `u64`   | request-sequence boundary of the cut           |
//! | payload tag  | `u8`    | `0x01` full, `0x02` rows                       |
//! | payload      | bytes   | full image, or `base_seq: u64` + a row delta   |
//!
//! Version 2 carried a block delta instead; envelopes never persist, so a
//! version 2 envelope is simply refused ([`CkptError::BadVersion`]).
//!
//! [`CutFrame::apply`] and [`CutFrame::rebuild`] are the receiver's gate:
//! each refuses a shipment addressed to another shard ([`CutError::WrongShard`]) or generation
//! ([`CutError::WrongGeneration`]), one from the other flow
//! ([`CutError::WrongRole`] — a standby never applies a handoff and a
//! resize never boots from a replica feed), and a delta whose `base_seq` is
//! not the boundary the receiver holds ([`CutError::WrongBase`]). The row
//! codec then refuses a base of another length and anything malformed (see
//! [`rows`]) before a byte of the held image moves; damage to the envelope
//! surfaces as [`CkptError`]s from the sealed-frame layer.
//!
//! Nothing here hashes an image. The resolved image is still under its own
//! seal, and its holder opens it once before trusting it — in the fleet,
//! `ShardCheckpoint::header`, which also reads the `(shard, seq)` the
//! holder checks. That one open is the check of a rebuild: the image's CRC
//! trailer is the sender's own, shipped with the untabled bytes, so a row
//! merged from a base that is not the sender's fails it.

use crate::rows::{self, Changes, LayoutFn, RowPlan};
use crate::{open, CkptError, Dec, Enc};
use std::fmt;

/// Magic for sealed cut envelopes: `DRBR`.
pub const CUT_MAGIC: u32 = 0x4452_4252;
/// Current cut envelope version.
pub const CUT_VERSION: u16 = 3;

/// Role tag for a primary → standby replication feed.
const ROLE_REPLICA: u8 = 0x01;
/// Role tag for a drained generation → successor handoff.
const ROLE_HANDOFF: u8 = 0x02;

/// Payload tag for a full checkpoint image.
const PAYLOAD_FULL: u8 = 0x01;
/// Payload tag for a row delta against the receiver's held image.
const PAYLOAD_ROWS: u8 = 0x02;

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
    /// A row delta against the image the receiver holds at `base_seq` —
    /// the changed rows plus the image's untabled bytes.
    Rows {
        /// Request-sequence boundary of the base the delta was cut
        /// against; the receiver must hold exactly that image.
        base_seq: u64,
        /// The encoded delta ([`rows`] has the layout).
        rows: Vec<u8>,
    },
}

/// Why a shipment must not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CutError {
    /// The envelope or its row delta failed validation.
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
/// delta is cut against it and applied to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Held<'a> {
    /// Request-sequence boundary of the held cut.
    pub seq: u64,
    /// The held checkpoint frame.
    pub image: &'a [u8],
}

/// What [`CutFrame::apply`] hands the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedCut {
    /// Request-sequence boundary the envelope claims for the cut.
    pub seq: u64,
    /// Base boundary the payload was a delta against (`None`: full image).
    pub base_seq: Option<u64>,
    /// Bytes the payload shipped — a full image's length, or the row
    /// delta's. The replication accounting compares this against the image.
    pub shipped_bytes: u64,
    /// The resolved checkpoint frame, still under its own seal.
    pub image: Vec<u8>,
}

/// What [`CutFrame::rebuild`] made of the holder's image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuiltCut {
    /// Request-sequence boundary the envelope claims for the cut.
    pub seq: u64,
    /// Base boundary the payload was a delta against (`None`: full image).
    pub base_seq: Option<u64>,
    /// Bytes the payload shipped — a full image's length, or the row
    /// delta's.
    pub shipped_bytes: u64,
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
    /// Full image or row delta against the receiver's held image.
    pub payload: CutPayload,
}

/// A payload where it lies in the receiver's wire bytes, not copied into a
/// [`CutPayload`] just to be resolved.
enum PayloadRef<'a> {
    Full(&'a [u8]),
    Rows { base_seq: u64, rows: &'a [u8] },
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
            PAYLOAD_ROWS => PayloadRef::Rows { base_seq: d.u64()?, rows: d.bytes()? },
            tag => return Err(CkptError::Malformed(format!("cut payload tag {tag:#x}"))),
        };
        d.finish()?;
        Ok(CutRef { shard, generation, role, seq, payload })
    }

    /// Decodes `wire` and refuses it unless it is addressed to this
    /// `role`, `shard` and `generation`.
    fn gate(wire: &'a [u8], shard: usize, generation: u32, role: CutRole) -> Result<Self, CutError> {
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
        Ok(cut)
    }
}

impl CutFrame {
    /// The sender: seals `image` (the cut at `seq`) into wire bytes — as a
    /// row delta against `held`, the cut the receiver already holds, when
    /// there is one and `layout` finds the same tables in both images, as
    /// the full image otherwise.
    pub fn ship(
        shard: usize,
        generation: u32,
        role: CutRole,
        seq: u64,
        image: &[u8],
        held: Option<Held<'_>>,
        layout: LayoutFn,
    ) -> Vec<u8> {
        Self::ship_changes(shard, generation, role, seq, image, held, None, layout)
    }

    /// [`ship`](Self::ship) for a sender that knows which rows its image
    /// changed since the cut it wrote before: when `changes` were taken
    /// against the cut the receiver holds (`held.seq == changes.base_seq`),
    /// the row delta is planned from their list and neither image's tables
    /// are walked; against any other base it is planned by diffing, as
    /// `ship` does. The envelope is the same bytes either way.
    #[allow(clippy::too_many_arguments)]
    pub fn ship_changes(
        shard: usize,
        generation: u32,
        role: CutRole,
        seq: u64,
        image: &[u8],
        held: Option<Held<'_>>,
        changes: Option<&Changes>,
        layout: LayoutFn,
    ) -> Vec<u8> {
        // The rows are counted first, so the envelope is sized exactly.
        let plan = held.and_then(|base| {
            let listed = changes
                .filter(|changes| changes.base_seq == base.seq)
                .and_then(|changes| RowPlan::from_changes(base.image, image, layout, &changes.upserts));
            Some((base.seq, listed.or_else(|| RowPlan::new(base.image, image, layout))?))
        });
        let room = plan.as_ref().map_or(image.len(), |(_, rows)| rows.len());
        let mut e = envelope(room, shard, generation, role, seq);
        match plan {
            Some((base_seq, rows)) => {
                e.u8(PAYLOAD_ROWS);
                e.u64(base_seq);
                e.usize(rows.len());
                rows.write(&mut e);
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
        let (CutPayload::Full(bytes) | CutPayload::Rows { rows: bytes, .. }) = &self.payload;
        let mut e = envelope(bytes.len(), self.shard, self.generation, self.role, self.seq);
        match &self.payload {
            CutPayload::Full(_) => e.u8(PAYLOAD_FULL),
            CutPayload::Rows { base_seq, .. } => {
                e.u8(PAYLOAD_ROWS);
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
            PayloadRef::Rows { base_seq, rows } => CutPayload::Rows { base_seq, rows: rows.to_vec() },
        };
        Ok(CutFrame { shard, generation, role, seq, payload })
    }

    /// The receiver's gate: decodes `wire`, checks it is addressed to this
    /// `shard`, `generation` and `role`, then materializes the image — the
    /// full payload itself, or the row delta rebuilt over a copy of `held`,
    /// which must be the cut the receiver holds at the delta's `base_seq`
    /// and lay out under `layout`. For a holder that borrows its base (a
    /// resize handoff reads it from a slot); one that owns it calls
    /// [`rebuild`](Self::rebuild).
    pub fn apply(
        wire: &[u8],
        shard: usize,
        generation: u32,
        role: CutRole,
        held: Option<Held<'_>>,
        layout: LayoutFn,
    ) -> Result<AppliedCut, CutError> {
        let cut = CutRef::gate(wire, shard, generation, role)?;
        let (base_seq, shipped, image) = match cut.payload {
            PayloadRef::Full(bytes) => (None, bytes, bytes.to_vec()),
            PayloadRef::Rows { base_seq, rows } => {
                let base = held
                    .filter(|base| base.seq == base_seq)
                    .ok_or(CutError::WrongBase { base_seq, held: held.map(|h| h.seq) })?;
                let checked = rows::check(rows, base.image, layout)?;
                let mut image = Vec::with_capacity(checked.room());
                image.extend_from_slice(base.image);
                rows::rebuild(&mut image, &checked);
                (Some(base_seq), rows, image)
            }
        };
        Ok(AppliedCut { seq: cut.seq, base_seq, shipped_bytes: shipped.len() as u64, image })
    }

    /// [`apply`](Self::apply) for a holder that owns the image it holds —
    /// `image`, the cut at `held` (`None`: it holds none, and `image` is
    /// only an allocation) — and rebuilds the shipped cut in it, in place:
    /// a full payload is copied into its allocation, a row delta is rebuilt
    /// over it. Every refusal leaves `image` as it was, byte for byte.
    pub fn rebuild(
        wire: &[u8],
        shard: usize,
        generation: u32,
        role: CutRole,
        held: Option<u64>,
        image: &mut Vec<u8>,
        layout: LayoutFn,
    ) -> Result<RebuiltCut, CutError> {
        let cut = CutRef::gate(wire, shard, generation, role)?;
        let (base_seq, shipped) = match cut.payload {
            PayloadRef::Full(bytes) => {
                image.clear();
                image.reserve_exact(bytes.len());
                image.extend_from_slice(bytes);
                (None, bytes)
            }
            PayloadRef::Rows { base_seq, rows } => {
                if held != Some(base_seq) {
                    return Err(CutError::WrongBase { base_seq, held });
                }
                let checked = rows::check(rows, image, layout)?;
                rows::rebuild(image, &checked);
                (Some(base_seq), rows)
            }
        };
        Ok(RebuiltCut { seq: cut.seq, base_seq, shipped_bytes: shipped.len() as u64 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::{Layout, Table};
    use crate::{peek, HEADER_LEN};

    const MAGIC: u32 = 0x5445_5354;

    /// A sealed frame shaped like a checkpoint: a header word, one id-sorted
    /// table of 16-byte `(id, value)` rows, then an opaque blob.
    fn image(rows: impl IntoIterator<Item = (u64, u64)>, blob: &[u8]) -> Vec<u8> {
        let rows: Vec<_> = rows.into_iter().collect();
        let mut e = Enc::new();
        e.u64(7);
        e.seq(&rows, |e, &(id, v)| {
            e.u64(id);
            e.u64(v);
        });
        e.bytes(blob);
        e.seal(MAGIC, 1)
    }

    fn layout(frame: &[u8]) -> Option<Layout> {
        let mut d = Dec::new(peek(frame, MAGIC, 1).ok()?);
        d.u64().ok()?;
        let rows = d.seq_len(16).ok()?;
        Some(vec![Table { offset: HEADER_LEN + 16, rows, width: 16 }])
    }

    /// Four thousand rows, one blob: the base most tests diff against.
    fn base() -> Vec<u8> {
        image((0..4_000).map(|id| (2 * id, id)), &[0xB1; 300])
    }

    /// What a holder does with a shipment: apply it, then open the result
    /// under its own seal.
    fn resolve(wire: &[u8], held: Option<Held<'_>>) -> Result<Vec<u8>, CutError> {
        let cut = CutFrame::apply(wire, 0, 0, CutRole::Replica, held, layout)?;
        open(&cut.image, MAGIC, 1)?;
        Ok(cut.image)
    }

    #[test]
    fn full_shipment_resolves_to_the_image() {
        let img = base();
        for role in [CutRole::Replica, CutRole::Handoff] {
            let wire = CutFrame::ship(3, 2, role, 1_000, &img, None, layout);
            let applied = CutFrame::apply(&wire, 3, 2, role, None, layout).unwrap();
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
        let base = base();
        // One row in a hundred changed, twenty added, ten removed.
        let target = image(
            (0..4_000)
                .filter(|id| id % 400 != 7)
                .map(|id| (2 * id, if id % 100 == 3 { id + 1 } else { id }))
                .chain((0..20).map(|i| (8_001 + 2 * i, i))),
            &[0xB2; 300],
        );
        let held = Held { seq: 1_000, image: &base };
        let wire = CutFrame::ship(0, 0, CutRole::Replica, 2_000, &target, Some(held), layout);
        let applied = CutFrame::apply(&wire, 0, 0, CutRole::Replica, Some(held), layout).unwrap();
        assert_eq!(applied.image, target);
        assert_eq!(applied.base_seq, Some(1_000));
        assert!(applied.shipped_bytes < target.len() as u64 / 10, "a row delta ships the changed rows");
        // No base, or a base at another boundary, is refused before any
        // delta work.
        assert_eq!(resolve(&wire, None), Err(CutError::WrongBase { base_seq: 1_000, held: None }));
        assert_eq!(
            resolve(&wire, Some(Held { seq: 500, ..held })),
            Err(CutError::WrongBase { base_seq: 1_000, held: Some(500) })
        );
        // Other rows at the right boundary merge into an image its holder's
        // open refuses.
        let wrong = image((0..4_000).map(|id| (2 * id, id + 1)), &[0xB1; 300]);
        assert_eq!(
            resolve(&wire, Some(Held { seq: 1_000, image: &wrong })),
            Err(CutError::Frame(CkptError::BadCrc))
        );
    }

    /// A sender's own list of the rows it changed ships the envelope the
    /// diff ships — when it was taken against the cut the receiver holds;
    /// otherwise the diff is what ships. A list that leaves a changed row
    /// out rebuilds an image its holder's open refuses.
    #[test]
    fn a_change_list_ships_what_the_diff_ships() {
        let base = base();
        let target = image(
            (0..4_000).map(|id| (2 * id, if id % 100 == 3 { id + 1 } else { id })).chain([(9_000, 1)]),
            &[0xB2; 300],
        );
        let held = Some(Held { seq: 1_000, image: &base });
        let ship = |changes: Option<&Changes>| {
            CutFrame::ship_changes(0, 0, CutRole::Replica, 2_000, &target, held, changes, layout)
        };
        let diffed = CutFrame::ship(0, 0, CutRole::Replica, 2_000, &target, held, layout);
        let upserts: Vec<u32> = (0..4_000).filter(|id| id % 100 == 3).chain([4_000]).collect();
        let changes = Changes { base_seq: 1_000, upserts: vec![upserts.clone()] };
        assert_eq!(ship(Some(&changes)), diffed);
        assert_eq!(ship(None), diffed);
        let elsewhere = Changes { base_seq: 999, upserts: vec![Vec::new()] };
        assert_eq!(ship(Some(&elsewhere)), diffed, "a list against another base is not used");
        let short = Changes { base_seq: 1_000, upserts: vec![upserts[1..].to_vec()] };
        assert_eq!(resolve(&ship(Some(&short)), held), Err(CutError::Frame(CkptError::BadCrc)));
        assert_eq!(resolve(&diffed, held), Ok(target.clone()));
    }

    /// Nothing carries a checksum of a base or a target any more, and no
    /// check was spared for it: a base whose kept rows are not the
    /// sender's rebuilds an image its holder's one open refuses, a base of
    /// another length is refused before the merge, and the bytes a delta
    /// does not take from the base cannot matter.
    #[test]
    fn a_remembered_sum_spares_no_check() {
        let base = base();
        let target =
            image((0..4_000).map(|id| (2 * id, if id == 1_500 { 0 } else { id })), &[0xB1; 300]);
        let held = Held { seq: 1_000, image: &base };
        let wire = CutFrame::ship(0, 0, CutRole::Replica, 2_000, &target, Some(held), layout);
        assert_eq!(resolve(&wire, Some(held)), Ok(target.clone()));
        let row = |id: usize| HEADER_LEN + 16 + 16 * id + 8;
        // A kept row damaged after the base was taken.
        let mut kept = base.clone();
        kept[row(40)] ^= 1;
        assert_eq!(
            resolve(&wire, Some(Held { image: &kept, ..held })),
            Err(CutError::Frame(CkptError::BadCrc))
        );
        // The one row the target replaces, and the base's blob, are not
        // read: the rebuild is the target all the same.
        let mut replaced = base.clone();
        replaced[row(1_500)] ^= 1;
        let blob = replaced.len() - 20;
        replaced[blob] ^= 1;
        assert_eq!(resolve(&wire, Some(Held { image: &replaced, ..held })), Ok(target));
        // A base one byte short is not the one the delta was cut against.
        let short = Held { image: &base[..base.len() - 1], ..held };
        assert!(matches!(resolve(&wire, Some(short)), Err(CutError::Frame(CkptError::Malformed(_)))));
    }

    #[test]
    fn an_image_that_does_not_lay_out_ships_full() {
        let base = base();
        let unlaid = b"not a frame at all".to_vec();
        for (held, target) in [(&unlaid, &base), (&base, &unlaid)] {
            let held = Held { seq: 1, image: held };
            let wire = CutFrame::ship(0, 0, CutRole::Replica, 2, target, Some(held), layout);
            let applied = CutFrame::apply(&wire, 0, 0, CutRole::Replica, Some(held), layout).unwrap();
            assert_eq!((applied.base_seq, &applied.image), (None, target));
        }
    }

    /// A holder that owns its image rebuilds the next cut in that image's
    /// own allocation, delta or full payload; a refused shipment leaves it
    /// as it was.
    #[test]
    fn a_retired_image_is_rebuilt_in_place() {
        let base = base();
        let target = image((0..4_200).map(|id| (2 * id, id / 2)), &[0xB1; 300]);
        let held = Held { seq: 1, image: &base };
        let wire = CutFrame::ship(0, 0, CutRole::Replica, 2, &target, Some(held), layout);
        assert_eq!(wire.capacity(), wire.len(), "the rows are counted, then written to size");
        let mut image = Vec::with_capacity(128 * 1024);
        image.extend_from_slice(&base);
        let at = image.as_ptr();
        let rebuild = |wire: &[u8], held: Option<u64>, image: &mut Vec<u8>| {
            CutFrame::rebuild(wire, 0, 0, CutRole::Replica, held, image, layout)
        };
        // Refused at the gate, at the base and in the rows: nothing moved.
        let mut damaged = wire.clone();
        damaged[wire.len() / 2] ^= 1;
        let mut lying = Rows::of(&wire);
        lying.1.truncate(lying.1.len() - 9);
        for (bad, seq) in [(&damaged, Some(1)), (&wire, Some(0)), (&lying.wire(), Some(1))] {
            assert!(rebuild(bad, seq, &mut image).is_err());
            assert_eq!((image.as_ptr(), &image), (at, &base));
        }
        let rebuilt = rebuild(&wire, Some(1), &mut image).unwrap();
        assert_eq!((rebuilt.seq, rebuilt.base_seq), (2, Some(1)));
        assert_eq!((image.as_ptr(), &image), (at, &target));
        // A full payload lands in the held allocation too.
        let full = CutFrame::ship(0, 0, CutRole::Replica, 3, &base, None, layout);
        assert_eq!(rebuild(&full, Some(2), &mut image).unwrap().base_seq, None);
        assert_eq!((image.as_ptr(), &image), (at, &base));
        // Grown, an image is grown to the target's length exactly — as is
        // one a holder that borrows its base applies.
        let mut exact = base.clone();
        rebuild(&wire, Some(1), &mut exact).unwrap();
        assert_eq!((exact.capacity(), &exact), (target.len(), &target));
        let applied = CutFrame::apply(&wire, 0, 0, CutRole::Replica, Some(held), layout).unwrap();
        assert_eq!((applied.image.capacity(), &applied.image), (target.len(), &target));
    }

    /// A row delta's payload, to be forged: its base seq and bytes.
    struct Rows(u64, Vec<u8>);

    impl Rows {
        fn of(wire: &[u8]) -> Self {
            match CutFrame::from_frame(wire).unwrap().payload {
                CutPayload::Rows { base_seq, rows } => Rows(base_seq, rows),
                CutPayload::Full(_) => panic!("a row delta was shipped"),
            }
        }

        fn wire(&self) -> Vec<u8> {
            let payload = CutPayload::Rows { base_seq: self.0, rows: self.1.clone() };
            CutFrame { shard: 0, generation: 0, role: CutRole::Replica, seq: 2, payload }.to_frame()
        }
    }

    #[test]
    fn wrong_addressing_is_rejected_specifically() {
        let wire = CutFrame::ship(3, 2, CutRole::Replica, 500, &base(), None, layout);
        assert_eq!(
            CutFrame::apply(&wire, 4, 2, CutRole::Replica, None, layout),
            Err(CutError::WrongShard { expected: 4, found: 3 })
        );
        assert_eq!(
            CutFrame::apply(&wire, 3, 7, CutRole::Replica, None, layout),
            Err(CutError::WrongGeneration { expected: 7, found: 2 })
        );
        assert_eq!(
            CutFrame::apply(&wire, 3, 2, CutRole::Handoff, None, layout),
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
        let wire = CutFrame::ship(3, 2, CutRole::Handoff, 900, &base(), None, layout);
        for keep in [0, 1, wire.len() / 2, wire.len() - 1] {
            assert!(CutFrame::from_frame(&wire[..keep]).is_err(), "kept {keep} bytes");
        }
        let mut flipped = wire.clone();
        flipped[wire.len() / 2] ^= 0x10;
        assert!(matches!(
            CutFrame::apply(&flipped, 3, 2, CutRole::Handoff, None, layout),
            Err(CutError::Frame(_))
        ));
    }
}
