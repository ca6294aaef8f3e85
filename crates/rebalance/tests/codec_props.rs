//! Corpus and property tests for the state-movement wire formats: the cut
//! envelope (both roles) and the delta frame it can carry.
//!
//! The safety statement the fleet depends on: a truncated, bit-flipped,
//! junk, misaddressed, wrong-role or stale-base shipment never panics the
//! decoder and never silently mis-applies — every failure is a typed error,
//! and every success reconstructs the exact original bytes.

use darwin_ckpt::{seal, CkptError};
use darwin_rebalance::{
    CutError, CutFrame, CutPayload, CutRole, DeltaFrame, Held, CUT_MAGIC, CUT_VERSION,
};
use darwin_shard::{CKPT_MAGIC, CKPT_VERSION};
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
            CutPayload::Delta { base_seq, frame: body.clone() }
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
            CutFrame::apply(&frame, 2, 5, role(handoff), None),
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
            CutFrame::apply(&wire, 0, expect, role(handoff), None),
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
            CutFrame::apply(&wire, expect, 3, role(handoff), None),
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
            CutPayload::Delta { base_seq: 100, frame: body }
        } else {
            CutPayload::Full(body)
        };
        let (sent, serving) = (role(handoff), role(!handoff));
        let wire = cut(1, 1, sent, payload).to_frame();
        prop_assert_eq!(
            CutFrame::apply(&wire, 1, 1, serving, Some(Held::new(100, b"base"))),
            Err(CutError::WrongRole { expected: serving, found: sent })
        );
    }

    /// A delta against a boundary the receiver does not hold — no base at
    /// all, or a base at another (stale) boundary — is refused before the
    /// delta is even opened, although the base bytes on hand would apply.
    #[test]
    fn stale_base_seq_never_applies(
        base in proptest::collection::vec(0u8..=255, 0..1024),
        target in proptest::collection::vec(0u8..=255, 0..1024),
        base_seq in 0u64..1 << 40,
        skew in 1u64..1 << 40,
        handoff in proptest::bool::ANY,
    ) {
        let wire = CutFrame::ship(0, 0, role(handoff), base_seq + skew, &target, Some(Held::new(base_seq, &base)));
        let held = base_seq + skew; // always != base_seq
        prop_assert_eq!(
            CutFrame::apply(&wire, 0, 0, role(handoff), Some(Held::new(held, &base))),
            Err(CutError::WrongBase { base_seq, held: Some(held) })
        );
        prop_assert_eq!(
            CutFrame::apply(&wire, 0, 0, role(handoff), None),
            Err(CutError::WrongBase { base_seq, held: None })
        );
        let applied = CutFrame::apply(&wire, 0, 0, role(handoff), Some(Held::new(base_seq, &base))).unwrap();
        prop_assert_eq!(applied.image, target);
    }

    /// Delta compute→apply is the identity on arbitrary image pairs, and
    /// the sealed delta frame round-trips.
    #[test]
    fn delta_reconstructs_exactly(
        base in proptest::collection::vec(0u8..=255, 0..4096),
        target in proptest::collection::vec(0u8..=255, 0..4096),
    ) {
        let delta = DeltaFrame::compute(&base, &target);
        prop_assert_eq!(delta.apply(&base).unwrap(), target.clone());
        let reparsed = DeltaFrame::from_frame(&delta.to_frame()).unwrap();
        prop_assert_eq!(reparsed.apply(&base).unwrap(), target);
    }

    /// A structured image pair (shared blocks + churn) still reconstructs
    /// exactly and ships less than the full image once enough is shared.
    #[test]
    fn delta_on_shared_blocks_reconstructs(
        block in proptest::collection::vec(0u8..=255, 256..512),
        churn in proptest::collection::vec(0u8..=255, 0..128),
        repeat in 2usize..6,
    ) {
        let base: Vec<u8> = block.iter().cycle().take(block.len() * repeat).copied().collect();
        let mut target = base.clone();
        let mid = target.len() / 2;
        for (i, &b) in churn.iter().enumerate() {
            target[mid + i] = b;
        }
        let delta = DeltaFrame::compute(&base, &target);
        prop_assert_eq!(delta.apply(&base).unwrap(), target);
    }

    /// Applying a delta to the wrong base fails loudly — never a silent
    /// mis-restore.
    #[test]
    fn delta_refuses_wrong_base(
        base in proptest::collection::vec(0u8..=255, 1..2048),
        target in proptest::collection::vec(0u8..=255, 0..2048),
        pos in 0usize..1 << 20,
        bit in 0u8..8,
    ) {
        let delta = DeltaFrame::compute(&base, &target);
        let mut wrong = base.clone();
        let at = pos % wrong.len();
        wrong[at] ^= 1 << bit;
        prop_assert_eq!(delta.apply(&wrong), Err(CkptError::BadCrc));
    }

    /// Truncating or flipping a sealed delta frame yields an error, never a
    /// panic.
    #[test]
    fn corrupted_delta_frame_never_decodes(
        base in proptest::collection::vec(0u8..=255, 64..1024),
        target in proptest::collection::vec(0u8..=255, 64..1024),
        cut in 0usize..1 << 20,
        bit in 0u8..8,
    ) {
        let frame = DeltaFrame::compute(&base, &target).to_frame();
        let cut_at = cut % frame.len();
        prop_assert!(DeltaFrame::from_frame(&frame[..cut_at]).is_err());
        let mut flipped = frame.clone();
        flipped[cut_at] ^= 1 << bit;
        prop_assert!(DeltaFrame::from_frame(&flipped).is_err());
    }
}

/// Hand-built corpus: role/payload-tag, version and cross-format corner
/// cases the fuzz loops are unlikely to synthesize.
#[test]
fn corpus_of_hostile_frames() {
    // Unknown role byte, then unknown payload opcode after a valid role
    // byte, each inside an otherwise valid sealed body.
    for (role_byte, payload_tag) in [(0x7F, 0x01), (0x01, 0x7F), (0x02, 0x7F)] {
        let mut e = darwin_ckpt::Enc::new();
        e.usize(0);
        e.u32(0);
        e.u8(role_byte);
        e.u64(10);
        e.u8(payload_tag);
        e.bytes(b"body");
        let frame = seal(CUT_MAGIC, CUT_VERSION, &e.into_bytes());
        assert!(matches!(CutFrame::from_frame(&frame), Err(CkptError::Malformed(_))));
    }

    // Right magic, wrong version.
    let frame = seal(CUT_MAGIC, CUT_VERSION + 1, b"");
    assert!(matches!(CutFrame::from_frame(&frame), Err(CkptError::BadVersion { .. })));

    // Cross-format confusion: a checkpoint or delta frame is not a cut
    // envelope.
    let frame = ckpt_frame(b"shard image");
    assert!(matches!(CutFrame::from_frame(&frame), Err(CkptError::BadMagic { .. })));
    let frame = DeltaFrame::compute(b"a", b"b").to_frame();
    assert!(matches!(CutFrame::from_frame(&frame), Err(CkptError::BadMagic { .. })));

    for role in [CutRole::Replica, CutRole::Handoff] {
        // A delta with no base held at the receiver is refused, not applied.
        let delta =
            CutPayload::Delta { base_seq: 512, frame: DeltaFrame::compute(b"a", b"b").to_frame() };
        assert_eq!(
            CutFrame::apply(&cut(0, 0, role, delta).to_frame(), 0, 0, role, None),
            Err(CutError::WrongBase { base_seq: 512, held: None })
        );

        // A delta whose embedded frame is garbage fails as a frame error
        // even with the right base boundary on hand.
        let garbage = CutPayload::Delta { base_seq: 512, frame: b"garbage".to_vec() };
        assert!(matches!(
            CutFrame::apply(
                &cut(0, 0, role, garbage).to_frame(),
                0,
                0,
                role,
                Some(Held::new(512, b"base"))
            ),
            Err(CutError::Frame(_))
        ));

        // A well-sealed delta against the right base that declares a target
        // no machine holds: refused as malformed before it sizes a buffer
        // (the allocator used to abort the process here).
        let mut huge = DeltaFrame::compute(b"base", b"target");
        huge.target_len = 1 << 60;
        let huge = CutPayload::Delta { base_seq: 512, frame: huge.to_frame() };
        assert!(matches!(
            CutFrame::apply(
                &cut(0, 0, role, huge).to_frame(),
                0,
                0,
                role,
                Some(Held::new(512, b"base"))
            ),
            Err(CutError::Frame(CkptError::Malformed(_)))
        ));
    }

    // Empty input.
    assert!(CutFrame::from_frame(&[]).is_err());
    assert!(matches!(CutFrame::apply(&[], 0, 0, CutRole::Replica, None), Err(CutError::Frame(_))));
    assert!(DeltaFrame::from_frame(&[]).is_err());
}
