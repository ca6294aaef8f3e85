//! Property tests for the consistent-hash ring.
//!
//! The stability statements are *exact* (no tolerance): they follow from
//! the ring-subset construction, so the proptests assert them per object
//! over arbitrary seeds. The statistical bounds (load skew, remap
//! fraction) are asserted loosely over arbitrary seeds and tightly for
//! [`DEFAULT_SEED`], which was searched offline to certify the acceptance
//! bounds (`crates/rebalance/src/ring.rs` unit tests pin the tight form).

use darwin_rebalance::{theoretical_remap, RingRouter, DEFAULT_VNODES};
use darwin_shard::Router;
use proptest::prelude::*;

const SAMPLE: u64 = 20_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Construction is deterministic: two routers built from the same
    /// `(seed, vnodes)` route every object identically — the cross-process
    /// half of the determinism contract.
    #[test]
    fn construction_is_deterministic(seed in 0u64..=u64::MAX, shards in 1usize..12) {
        let a = RingRouter::new(seed, DEFAULT_VNODES);
        let b = RingRouter::new(seed, DEFAULT_VNODES);
        for id in 0..2_000u64 {
            prop_assert_eq!(a.route(id, shards), b.route(id, shards));
        }
    }

    /// Growth `N → M` is exactly stable: every object either keeps its
    /// owner or moves to a brand-new shard (index ≥ N). No object ever
    /// shuffles between two surviving shards.
    #[test]
    fn growth_moves_objects_only_to_new_shards(
        seed in 0u64..=u64::MAX,
        from in 1usize..9,
        extra in 1usize..8,
    ) {
        let r = RingRouter::new(seed, DEFAULT_VNODES);
        let to = from + extra;
        for id in 0..SAMPLE {
            let before = r.route(id, from);
            let after = r.route(id, to);
            prop_assert!(
                after == before || after >= from,
                "id {id}: {from}->{to} moved {before} -> {after} (a surviving shard)"
            );
        }
    }

    /// Shrink `N → M` is the mirror: an object owned by a surviving shard
    /// keeps its owner; only retired shards' objects move.
    #[test]
    fn shrink_preserves_surviving_owners(
        seed in 0u64..=u64::MAX,
        to in 1usize..9,
        extra in 1usize..8,
    ) {
        let r = RingRouter::new(seed, DEFAULT_VNODES);
        let from = to + extra;
        for id in 0..SAMPLE {
            let before = r.route(id, from);
            if before < to {
                prop_assert_eq!(
                    r.route(id, to),
                    before,
                    "id {}: surviving shard {} lost its object in {}->{}",
                    id, before, from, to
                );
            }
        }
    }

    /// Load skew stays under 2× the mean at the fleet sizes the issue pins
    /// (1, 2, 8, 9 shards), for arbitrary seeds at 64 vnodes/shard.
    #[test]
    fn load_skew_is_bounded(seed in 0u64..=u64::MAX) {
        let r = RingRouter::new(seed, DEFAULT_VNODES);
        for shards in [1usize, 2, 8, 9] {
            let counts = r.load_histogram(shards, SAMPLE);
            let mean = SAMPLE as f64 / shards as f64;
            let max = *counts.iter().max().unwrap() as f64;
            prop_assert!(
                max <= 2.0 * mean,
                "seed {seed:#x}, {shards} shards: max load {max} vs mean {mean}"
            );
        }
    }

    /// The measured remap fraction tracks `|M−N|/max(N,M)` for every resize
    /// pair in {1,2,4,8}², within a loose 50% relative band for arbitrary
    /// seeds (the tight 10% band is certified for the searched default
    /// seed by the unit test `default_seed_certifies_remap_and_skew_bounds`).
    #[test]
    fn remap_fraction_tracks_theory(seed in 0u64..=u64::MAX) {
        let r = RingRouter::new(seed, DEFAULT_VNODES);
        for from in [1usize, 2, 4, 8] {
            for to in [1usize, 2, 4, 8] {
                let measured = r.remap_fraction(from, to, SAMPLE);
                let theory = theoretical_remap(from, to);
                if from == to {
                    prop_assert_eq!(measured, 0.0, "resize to self must remap nothing");
                } else {
                    prop_assert!(
                        (measured - theory).abs() <= 0.5 * theory,
                        "seed {seed:#x} {from}->{to}: measured {measured:.4} theory {theory:.4}"
                    );
                }
            }
        }
    }

    /// Remapping is symmetric: the set of objects whose owner differs
    /// between the N-ring and M-ring does not depend on direction.
    #[test]
    fn remap_fraction_is_symmetric(seed in 0u64..=u64::MAX, a in 1usize..10, b in 1usize..10) {
        let r = RingRouter::new(seed, DEFAULT_VNODES);
        let ab = r.remap_fraction(a, b, SAMPLE);
        let ba = r.remap_fraction(b, a, SAMPLE);
        prop_assert_eq!(ab, ba);
    }
}
