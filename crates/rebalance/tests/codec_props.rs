//! Corpus and property tests for the state-movement wire format: the cut
//! envelope (both roles) and the row delta it can carry.
//!
//! The safety statement the fleet depends on: a truncated, bit-flipped,
//! junk, misaddressed, wrong-role, stale-base or otherwise hostile shipment
//! never panics the decoder and never silently mis-applies — every failure
//! is a typed error from the gate, the row codec or the holder's one open
//! of what it rebuilt, and every success is the sender's image, byte for
//! byte, rebuilt in no more than `base + wire` bytes.

use darwin_cache::{CacheConfig, CacheServer, ThresholdPolicy};
use darwin_ckpt::replica::{CutError, CutFrame, CutPayload, CutRole, Held, CUT_MAGIC, CUT_VERSION};
use darwin_ckpt::{seal, CkptError, Dec, Enc};
use darwin_shard::{ShardCheckpoint, CKPT_MAGIC, CKPT_VERSION};
use darwin_trace::Request;
use proptest::prelude::*;

/// A sealed checkpoint-shaped frame to ride inside full payloads.
fn ckpt_frame(body: &[u8]) -> Vec<u8> {
    seal(CKPT_MAGIC, CKPT_VERSION, body)
}

/// Both flows run every property: nothing about the codec or the gate may
/// depend on which one a shipment belongs to.
fn role(handoff: bool) -> CutRole {
    if handoff {
        CutRole::Handoff
    } else {
        CutRole::Replica
    }
}

fn cut(shard: usize, generation: u32, role: CutRole, payload: CutPayload) -> CutFrame {
    CutFrame { shard, generation, role, seq: 7_000, payload }
}

const LAYOUT: darwin_ckpt::rows::LayoutFn = ShardCheckpoint::layout;

/// A real cut of shard 0: the checkpoint of a small cache after `reqs`
/// (object id, a size drawn per object), cut at `reqs.len()`.
fn real_cut(reqs: &[u64]) -> Vec<u8> {
    let config = CacheConfig {
        hoc_bytes: 256 * 1024,
        dc_bytes: 1024 * 1024,
        expected_unique_objects: 512,
        ..CacheConfig::small_test()
    };
    let policy = ThresholdPolicy::new(1, 100 * 1024);
    let mut server = CacheServer::new(config);
    server.set_policy(policy);
    for (i, &id) in reqs.iter().enumerate() {
        server.process(&Request::new(id, 1 + id * 7_919 % 150_000, i as u64));
    }
    let seq = reqs.len() as u64;
    ShardCheckpoint {
        shard: 0,
        seq,
        policy,
        cache: Vec::new(),
        driver: vec![7; 40],
        restarts: 0,
        budget_marks: vec![],
    }
    .to_frame_of(&server)
}

/// The holder's side of a shipment: the gate, then the one open of what it
/// resolved, as this shard's checkpoint. A holder that owns its image and
/// rebuilds the shipment in it gets the same answer; when it is a refusal,
/// the image is as it was, byte for byte, and never sized past
/// `base + wire`.
fn resolve(wire: &[u8], role: CutRole, held: Option<Held<'_>>) -> Result<Vec<u8>, CutError> {
    let base = held.map_or(&[][..], |h| h.image);
    let mut owned = base.to_vec();
    let in_place = CutFrame::rebuild(wire, 0, 0, role, held.map(|h| h.seq), &mut owned, LAYOUT);
    let applied = CutFrame::apply(wire, 0, 0, role, held, LAYOUT);
    assert!(owned.capacity() <= base.len() + wire.len(), "sized {} bytes", owned.capacity());
    match (&applied, in_place) {
        (Ok(cut), Ok(rebuilt)) => {
            assert_eq!(
                (rebuilt.seq, rebuilt.base_seq, rebuilt.shipped_bytes),
                (cut.seq, cut.base_seq, cut.shipped_bytes)
            );
            assert!(owned == cut.image, "the in-place rebuild is not the applied image");
        }
        (Err(refused), Err(also)) => {
            assert_eq!(refused, &also);
            assert!(owned == base, "a refused shipment moved a byte of the held image");
        }
        (applied, in_place) => panic!("apply {applied:?} but in place {in_place:?}"),
    }
    let cut = applied?;
    ShardCheckpoint::header(&cut.image)?;
    Ok(cut.image)
}

/// The row delta of a shipment, as the documented encoding lays it out —
/// parsed and re-encoded here independently of the codec, to be forged.
#[derive(Clone)]
struct Rows {
    base_len: u64,
    tables: Vec<RowTable>,
    tail: Vec<u8>,
}

#[derive(Clone)]
struct RowTable {
    span: Vec<u8>,
    width: u64,
    rows: u64,
    /// Counts as written: the lists' lengths unless a test lies.
    upsert_count: u64,
    upserts: Vec<Vec<u8>>,
    removal_count: u64,
    removals: Vec<u64>,
}

impl Rows {
    fn of(wire: &[u8]) -> (u64, Rows) {
        let CutPayload::Rows { base_seq, rows } = CutFrame::from_frame(wire).unwrap().payload else {
            panic!("a row delta was shipped")
        };
        let mut d = Dec::new(&rows);
        let base_len = d.u64().unwrap();
        let tables = (0..d.u64().unwrap())
            .map(|_| {
                let span = d.bytes().unwrap().to_vec();
                let (width, rows) = (d.u64().unwrap(), d.u64().unwrap());
                let upsert_count = d.u64().unwrap();
                let upserts =
                    (0..upsert_count).map(|_| (0..width).map(|_| d.u8().unwrap()).collect()).collect();
                let removal_count = d.u64().unwrap();
                let removals = (0..removal_count).map(|_| d.u64().unwrap()).collect();
                RowTable { span, width, rows, upsert_count, upserts, removal_count, removals }
            })
            .collect();
        let tail = d.bytes().unwrap().to_vec();
        d.finish().unwrap();
        (base_seq, Rows { base_len, tables, tail })
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.base_len);
        e.usize(self.tables.len());
        for t in &self.tables {
            e.bytes(&t.span);
            e.u64(t.width);
            e.u64(t.rows);
            e.u64(t.upsert_count);
            t.upserts.iter().flatten().for_each(|&b| e.u8(b));
            e.u64(t.removal_count);
            t.removals.iter().for_each(|&k| e.u64(k));
        }
        e.bytes(&self.tail);
        e.into_bytes()
    }

    fn wire(&self, base_seq: u64, role: CutRole) -> Vec<u8> {
        CutFrame {
            shard: 0,
            generation: 0,
            role,
            seq: 7_000,
            payload: CutPayload::Rows { base_seq, rows: self.encode() },
        }
        .to_frame()
    }
}

fn key(row: &[u8]) -> u64 {
    u64::from_le_bytes(row[..8].try_into().unwrap())
}

/// Objects 0..60, request by request.
fn requests(len: std::ops::Range<usize>) -> proptest::collection::VecStrategy<std::ops::Range<u64>> {
    proptest::collection::vec(0u64..60, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Envelopes round-trip exactly, for both payload kinds and both roles.
    #[test]
    fn cut_roundtrip(
        shard in 0usize..64, generation in 0u32..=u32::MAX,
        seq in 0u64..=u64::MAX, base_seq in 0u64..=u64::MAX,
        body in proptest::collection::vec(0u8..=255, 0..2048),
        is_delta in proptest::bool::ANY, handoff in proptest::bool::ANY,
    ) {
        let payload = if is_delta {
            CutPayload::Rows { base_seq, rows: body.clone() }
        } else {
            CutPayload::Full(body.clone())
        };
        let c = CutFrame { shard, generation, role: role(handoff), seq, payload };
        prop_assert_eq!(CutFrame::from_frame(&c.to_frame()).unwrap(), c);
    }

    /// Truncating an envelope at any point yields an error, never a panic
    /// and never a decoded frame.
    #[test]
    fn truncated_cut_never_decodes(
        body in proptest::collection::vec(0u8..=255, 0..512),
        cut_at in 0usize..1 << 20,
        handoff in proptest::bool::ANY,
    ) {
        let frame = cut(2, 5, role(handoff), CutPayload::Full(ckpt_frame(&body))).to_frame();
        let cut_at = cut_at % frame.len(); // 0..len, strictly shorter
        prop_assert!(CutFrame::from_frame(&frame[..cut_at]).is_err());
    }

    /// A single flipped bit anywhere in an envelope is caught by the CRC
    /// (or magic/version check) — a corrupted shipment never applies.
    #[test]
    fn bit_flipped_cut_never_applies(
        body in proptest::collection::vec(0u8..=255, 0..512),
        pos in 0usize..1 << 20,
        bit in 0u8..8,
        handoff in proptest::bool::ANY,
    ) {
        let mut frame = cut(2, 5, role(handoff), CutPayload::Full(ckpt_frame(&body))).to_frame();
        let pos = pos % frame.len();
        frame[pos] ^= 1 << bit;
        prop_assert!(CutFrame::from_frame(&frame).is_err());
        prop_assert!(matches!(
            CutFrame::apply(&frame, 2, 5, role(handoff), None, LAYOUT),
            Err(CutError::Frame(_))
        ));
    }

    /// Arbitrary junk never decodes as an envelope and never panics the
    /// decoder.
    #[test]
    fn junk_never_decodes_as_cut(junk in proptest::collection::vec(0u8..=255, 0..512)) {
        // Skip the astronomically unlikely junk that opens with the real
        // magic AND carries a matching CRC-64 trailer; everything else must
        // be refused.
        if junk.len() < 4 || junk[..4] != CUT_MAGIC.to_le_bytes() {
            prop_assert!(CutFrame::from_frame(&junk).is_err());
        }
    }

    /// A wrong-generation shipment is refused before any payload work —
    /// even a perfectly valid one never applies in the wrong epoch.
    #[test]
    fn wrong_generation_never_applies(
        expect in 0u32..1 << 30,
        skew in 1u32..1 << 30,
        body in proptest::collection::vec(0u8..=255, 0..256),
        handoff in proptest::bool::ANY,
    ) {
        let addressed = expect + skew; // always != expect
        let wire = cut(0, addressed, role(handoff), CutPayload::Full(ckpt_frame(&body))).to_frame();
        prop_assert_eq!(
            CutFrame::apply(&wire, 0, expect, role(handoff), None, LAYOUT),
            Err(CutError::WrongGeneration { expected: expect, found: addressed })
        );
    }

    /// A wrong-shard shipment is refused — cross-wired lanes fail loudly
    /// instead of poisoning a standby or a successor shard.
    #[test]
    fn wrong_shard_never_applies(
        expect in 0usize..1 << 16,
        skew in 1usize..1 << 16,
        body in proptest::collection::vec(0u8..=255, 0..256),
        handoff in proptest::bool::ANY,
    ) {
        let addressed = expect + skew; // always != expect
        let wire = cut(addressed, 3, role(handoff), CutPayload::Full(ckpt_frame(&body))).to_frame();
        prop_assert_eq!(
            CutFrame::apply(&wire, expect, 3, role(handoff), None, LAYOUT),
            Err(CutError::WrongShard { expected: expect, found: addressed })
        );
    }

    /// A shipment from the other flow is never applied, in either
    /// direction and whatever the payload: a standby refuses a handoff, a
    /// resize refuses a replica feed.
    #[test]
    fn cross_role_never_applies(
        body in proptest::collection::vec(0u8..=255, 0..256),
        is_delta in proptest::bool::ANY,
        handoff in proptest::bool::ANY,
    ) {
        let payload = if is_delta {
            CutPayload::Rows { base_seq: 100, rows: body }
        } else {
            CutPayload::Full(body)
        };
        let (sent, serving) = (role(handoff), role(!handoff));
        let wire = cut(1, 1, sent, payload).to_frame();
        prop_assert_eq!(
            CutFrame::apply(&wire, 1, 1, serving, Some(Held { seq: 100, image: b"base" }), LAYOUT),
            Err(CutError::WrongRole { expected: serving, found: sent })
        );
    }

    /// A delta against a boundary the receiver does not hold — no base at
    /// all, or a base at another (stale) boundary — is refused before the
    /// delta is even read, although the base bytes on hand would apply.
    #[test]
    fn stale_base_seq_never_applies(
        prefix in requests(1..200),
        more in requests(1..60),
        skew in 1u64..1 << 40,
        handoff in proptest::bool::ANY,
    ) {
        let base = real_cut(&prefix);
        let target = real_cut(&[&prefix[..], &more[..]].concat());
        let base_seq = prefix.len() as u64;
        let held = Held { seq: base_seq, image: &base };
        let wire = CutFrame::ship(0, 0, role(handoff), base_seq + skew, &target, Some(held), LAYOUT);
        let stale = base_seq + skew; // always != base_seq
        prop_assert_eq!(
            resolve(&wire, role(handoff), Some(Held { seq: stale, ..held })),
            Err(CutError::WrongBase { base_seq, held: Some(stale) })
        );
        prop_assert_eq!(resolve(&wire, role(handoff), None), Err(CutError::WrongBase { base_seq, held: None }));
        prop_assert_eq!(resolve(&wire, role(handoff), Some(held)), Ok(target));
    }

    /// Ship → apply is the identity on any pair of real cuts — later or
    /// earlier, sharing rows or not — in no more than `base + wire` bytes,
    /// and the row delta survives the envelope's round trip.
    #[test]
    fn delta_reconstructs_exactly(
        a in requests(0..200),
        b in requests(0..200),
        continues in proptest::bool::ANY,
    ) {
        let base = real_cut(&a);
        let target = real_cut(&if continues { [&a[..], &b[..]].concat() } else { b });
        let held = Held { seq: 1, image: &base };
        let wire = CutFrame::ship(0, 0, CutRole::Replica, 2, &target, Some(held), LAYOUT);
        let cut = CutFrame::apply(&wire, 0, 0, CutRole::Replica, Some(held), LAYOUT).unwrap();
        prop_assert_eq!(cut.base_seq, Some(1));
        prop_assert!(cut.image.capacity() <= base.len() + wire.len());
        prop_assert_eq!(&cut.image, &target);
        let reparsed = CutFrame::from_frame(&wire).unwrap().to_frame();
        prop_assert_eq!(resolve(&reparsed, CutRole::Replica, Some(held)), Ok(target));
    }

    /// A continuation that touches a few objects of many ships the rows it
    /// touched, well under the full image.
    #[test]
    fn delta_on_shared_blocks_reconstructs(
        prefix in proptest::collection::vec(0u64..3_000, 2_000..2_500),
        more in requests(1..20),
    ) {
        let base = real_cut(&prefix);
        let target = real_cut(&[&prefix[..], &more[..]].concat());
        let held = Held { seq: 1, image: &base };
        let wire = CutFrame::ship(0, 0, CutRole::Replica, 2, &target, Some(held), LAYOUT);
        let cut = CutFrame::apply(&wire, 0, 0, CutRole::Replica, Some(held), LAYOUT).unwrap();
        prop_assert_eq!(&cut.image, &target);
        prop_assert!(
            cut.shipped_bytes < target.len() as u64 / 2,
            "{} of {} bytes shipped", cut.shipped_bytes, target.len()
        );
    }

    /// A delta merged into the wrong base fails loudly — never a silent
    /// mis-restore: a base with any kept row damaged rebuilds an image the
    /// holder's open refuses, and a base of another length is refused
    /// before the merge.
    #[test]
    fn delta_refuses_wrong_base(
        prefix in requests(20..200),
        more in requests(1..20),
        pick in 0usize..1 << 20,
        bit in 0u8..8,
    ) {
        let base = real_cut(&prefix);
        let target = real_cut(&[&prefix[..], &more[..]].concat());
        let held = Held { seq: 1, image: &base };
        let wire = CutFrame::ship(0, 0, CutRole::Replica, 2, &target, Some(held), LAYOUT);
        // A timestamp byte of a per-object row the target kept as it was.
        let recency = |image: &[u8]| *ShardCheckpoint::layout(image).unwrap().last().unwrap();
        let (old, new) = (recency(&base), recency(&target));
        let target_rows: Vec<&[u8]> =
            target[new.offset..].chunks_exact(new.width).take(new.rows).collect();
        let kept: Vec<usize> = (0..old.rows)
            .map(|i| old.offset + old.width * i)
            .filter(|&at| target_rows.contains(&&base[at..at + old.width]))
            .collect();
        prop_assume!(!kept.is_empty());
        let at = kept[pick % kept.len()] + 8 + pick % 8;
        let mut wrong = base.clone();
        wrong[at] ^= 1 << bit;
        prop_assert_eq!(
            resolve(&wire, CutRole::Replica, Some(Held { image: &wrong, ..held })),
            Err(CutError::Frame(CkptError::BadCrc))
        );
        let longer = [&base[..], &[0]].concat();
        prop_assert!(matches!(
            resolve(&wire, CutRole::Replica, Some(Held { image: &longer, ..held })),
            Err(CutError::Frame(CkptError::Malformed(_)))
        ));
    }

    /// A row delta truncated or bit-flipped inside a well-sealed envelope —
    /// the seal says nothing about what the sender put under it — is a
    /// typed error, never a panic and never an image.
    #[test]
    fn corrupted_delta_frame_never_decodes(
        prefix in requests(1..200),
        more in requests(1..60),
        pick in 0usize..1 << 30,
        bit in 0u8..8,
        handoff in proptest::bool::ANY,
    ) {
        let base = real_cut(&prefix);
        let target = real_cut(&[&prefix[..], &more[..]].concat());
        let held = Held { seq: 1, image: &base };
        let wire = CutFrame::ship(0, 0, role(handoff), 2, &target, Some(held), LAYOUT);
        let (_, rows) = Rows::of(&wire);
        let honest = rows.encode();
        let at = pick % honest.len();
        let mut flipped = honest.clone();
        flipped[at] ^= 1 << bit;
        for bad in [honest[..at].to_vec(), flipped] {
            let wire = cut(0, 0, role(handoff), CutPayload::Rows { base_seq: 1, rows: bad }).to_frame();
            prop_assert!(resolve(&wire, role(handoff), Some(held)).is_err(), "byte {at} bit {bit}");
        }
    }

    /// The forged cases the fuzzing above is unlikely to build: lying
    /// counts, unsorted or repeated upserts, removals of keys the base does
    /// not hold, a width other than the base's. Each is a typed error —
    /// from the codec, or (a lie that happens to parse) from the holder's
    /// open of what it merged.
    #[test]
    fn hostile_row_deltas_are_typed_errors(
        prefix in requests(20..200),
        more in requests(10..60),
        case in 0u8..8,
        pick in 0u64..=u64::MAX,
        handoff in proptest::bool::ANY,
    ) {
        let base = real_cut(&prefix);
        let target = real_cut(&[&prefix[..], &more[..]].concat());
        let held = Held { seq: 1, image: &base };
        let wire = CutFrame::ship(0, 0, role(handoff), 2, &target, Some(held), LAYOUT);
        let (base_seq, honest) = Rows::of(&wire);
        prop_assert_eq!(resolve(&honest.wire(base_seq, role(handoff)), role(handoff), Some(held)), Ok(target));
        let mut forged = honest.clone();
        let t = &mut forged.tables[(pick % honest.tables.len() as u64) as usize];
        let lie = 1 + pick % (1 << 62);
        match case {
            0 => t.rows = t.rows.wrapping_add(lie),
            1 => t.upsert_count = t.upsert_count.wrapping_add(lie),
            2 => t.removal_count = t.removal_count.wrapping_add(lie),
            3 => {
                prop_assume!(t.upserts.len() >= 2);
                let i = (pick % (t.upserts.len() as u64 - 1)) as usize;
                t.upserts.swap(i, i + 1);
            }
            4 => {
                prop_assume!(!t.upserts.is_empty());
                let i = (pick % t.upserts.len() as u64) as usize;
                let row = t.upserts[i].clone();
                t.upserts.insert(i, row);
                t.upsert_count += 1;
                t.rows += 1;
            }
            5 => {
                // A key above every key either image holds.
                t.removals.push(u64::MAX - pick % 1_000);
                t.removal_count += 1;
                t.rows = t.rows.wrapping_sub(1);
            }
            6 => {
                // A key the target upserts, also removed.
                prop_assume!(!t.upserts.is_empty());
                let k = key(&t.upserts[(pick % t.upserts.len() as u64) as usize]);
                t.removals.push(k);
                t.removals.sort_unstable();
                t.removal_count += 1;
            }
            _ => t.width = t.width.wrapping_add(lie),
        }
        let got = resolve(&forged.wire(base_seq, role(handoff)), role(handoff), Some(held));
        prop_assert!(matches!(got, Err(CutError::Frame(_))), "case {case}: {got:?}");
    }
}

/// Hand-built corpus: role/payload-tag, version and cross-format corner
/// cases the fuzz loops are unlikely to synthesize.
#[test]
fn corpus_of_hostile_frames() {
    // Unknown role byte, then unknown payload opcode after a valid role
    // byte, each inside an otherwise valid sealed body.
    for (role_byte, payload_tag) in [(0x7F, 0x01), (0x01, 0x7F), (0x02, 0x7F)] {
        let mut e = Enc::new();
        e.usize(0);
        e.u32(0);
        e.u8(role_byte);
        e.u64(10);
        e.u8(payload_tag);
        e.bytes(b"body");
        let frame = seal(CUT_MAGIC, CUT_VERSION, &e.into_bytes());
        assert!(matches!(CutFrame::from_frame(&frame), Err(CkptError::Malformed(_))));
    }

    // Right magic, wrong version — a newer one, and the block-delta
    // envelopes of version 2.
    for version in [CUT_VERSION + 1, 2] {
        let frame = seal(CUT_MAGIC, version, b"");
        assert!(
            matches!(CutFrame::from_frame(&frame), Err(CkptError::BadVersion { found, .. }) if found == version)
        );
    }

    // Cross-format confusion: a checkpoint frame is not a cut envelope.
    let frame = ckpt_frame(b"shard image");
    assert!(matches!(CutFrame::from_frame(&frame), Err(CkptError::BadMagic { .. })));

    let base = real_cut(&[1, 2, 3, 1, 2]);
    let held = Some(Held { seq: 512, image: &base });
    for role in [CutRole::Replica, CutRole::Handoff] {
        // A delta with no base held at the receiver is refused, not applied.
        let rows = CutPayload::Rows { base_seq: 512, rows: vec![0; 16] };
        assert_eq!(
            CutFrame::apply(&cut(0, 0, role, rows).to_frame(), 0, 0, role, None, LAYOUT),
            Err(CutError::WrongBase { base_seq: 512, held: None })
        );

        // A delta that is garbage fails as a frame error even with the
        // right base boundary on hand.
        let garbage = CutPayload::Rows { base_seq: 512, rows: b"garbage".to_vec() };
        assert!(matches!(
            CutFrame::apply(&cut(0, 0, role, garbage).to_frame(), 0, 0, role, held, LAYOUT),
            Err(CutError::Frame(_))
        ));

        // A base that does not lay out cannot take a delta.
        let zeros = vec![0; base.len()];
        let unlaid = Some(Held { seq: 512, image: &zeros });
        let wire = CutFrame::ship(0, 0, role, 513, &real_cut(&[1, 2, 3, 1, 2, 4]), held, LAYOUT);
        assert!(matches!(
            CutFrame::apply(&wire, 0, 0, role, unlaid, LAYOUT),
            Err(CutError::Frame(CkptError::Malformed(_)))
        ));
    }

    // Empty input.
    assert!(CutFrame::from_frame(&[]).is_err());
    assert!(matches!(
        CutFrame::apply(&[], 0, 0, CutRole::Replica, None, LAYOUT),
        Err(CutError::Frame(_))
    ));
}
