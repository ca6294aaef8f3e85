//! Property tests for the observability primitives: histogram merge laws,
//! codec robustness under damage, and exact journal-ring accounting.

use darwin_obs::{
    decode_fleet_events, encode_fleet_events, Event, EventKind, Histogram, HistogramSnapshot, Journal,
};
use proptest::prelude::*;

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

fn merged(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    /// Merging is commutative: a ⊕ b = b ⊕ a.
    #[test]
    fn merge_is_commutative(
        a in proptest::collection::vec(0u64..10_000_000_000, 0..200),
        b in proptest::collection::vec(0u64..10_000_000_000, 0..200),
    ) {
        let (sa, sb) = (snapshot_of(&a), snapshot_of(&b));
        prop_assert_eq!(merged(&sa, &sb), merged(&sb, &sa));
    }

    /// Merging is associative: (a ⊕ b) ⊕ c = a ⊕ (b ⊕ c).
    #[test]
    fn merge_is_associative(
        a in proptest::collection::vec(0u64..10_000_000_000, 0..100),
        b in proptest::collection::vec(0u64..10_000_000_000, 0..100),
        c in proptest::collection::vec(0u64..10_000_000_000, 0..100),
    ) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));
        prop_assert_eq!(merged(&merged(&sa, &sb), &sc), merged(&sa, &merged(&sb, &sc)));
    }

    /// Merging preserves totals exactly and equals one histogram fed both
    /// streams.
    #[test]
    fn merge_is_sum_preserving(
        a in proptest::collection::vec(0u64..10_000_000_000, 0..200),
        b in proptest::collection::vec(0u64..10_000_000_000, 0..200),
    ) {
        let m = merged(&snapshot_of(&a), &snapshot_of(&b));
        prop_assert_eq!(m.count, (a.len() + b.len()) as u64);
        let all: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(m, snapshot_of(&all));
    }

    /// Quantiles undershoot the true sample by at most the bucket width.
    #[test]
    fn quantile_within_error_bound(
        mut values in proptest::collection::vec(1u64..10_000_000_000, 1..200),
        p in 0.0f64..100.0,
    ) {
        let snap = snapshot_of(&values);
        values.sort_unstable();
        let rank = ((p / 100.0 * values.len() as f64).ceil() as usize)
            .clamp(1, values.len());
        let exact = values[rank - 1];
        let got = snap.quantile(p);
        prop_assert!(got <= exact, "bucket floor {got} above exact {exact}");
        prop_assert!(
            exact - got <= exact / 32 + 1,
            "quantile {got} under exact {exact} by more than 1/32"
        );
    }

    /// Decoding arbitrary junk as a fleet-events frame never panics.
    #[test]
    fn frames_never_panic_on_junk(junk in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = decode_fleet_events(&junk);
    }

    /// The ring retains exactly the newest `capacity` events and counts
    /// every drop.
    #[test]
    fn journal_wraparound_is_exact(
        capacity in 1usize..64,
        n in 0u64..300,
    ) {
        let j = Journal::new(capacity);
        for seq in 0..n {
            j.record(seq, EventKind::CheckpointCut { checkpoint_seq: seq });
        }
        let snap = j.snapshot();
        let kept = (n as usize).min(capacity);
        prop_assert_eq!(snap.events.len(), kept);
        prop_assert_eq!(snap.dropped, n - kept as u64);
        // The retained events are exactly the newest `kept`, in order.
        let expect: Vec<Event> = (n - kept as u64..n)
            .map(|seq| Event { seq, kind: EventKind::CheckpointCut { checkpoint_seq: seq } })
            .collect();
        prop_assert_eq!(snap.events, expect);
    }

    /// Journals roundtrip bit-exactly through the fleet-events frame and
    /// truncations are rejected.
    #[test]
    fn journal_frame_roundtrips_and_rejects_truncation(
        seqs in proptest::collection::vec(0u64..1_000_000, 1..50),
        cut in 0.0f64..1.0,
    ) {
        let j = Journal::new(64);
        for &s in &seqs {
            j.record(s, EventKind::FaultInjected { fault: format!("delay({s})") });
        }
        let shards = vec![(3u32, j.snapshot())];
        let frame = encode_fleet_events(&shards);
        prop_assert_eq!(decode_fleet_events(&frame).unwrap(), shards);
        let keep = ((cut * frame.len() as f64) as usize).min(frame.len() - 1);
        prop_assert!(decode_fleet_events(&frame[..keep]).is_err());
    }
}
