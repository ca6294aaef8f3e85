//! Property tests for the resize router, [`JumpRouter`], and pins on the
//! partitions both routers produce.
//!
//! The stability statements are *exact* (no tolerance): they follow from
//! the jump hash's construction — going from `n` to `n + 1` shards an
//! object either stays or moves to shard `n` — so the proptests assert
//! them per object. The statistical bounds (load skew ≤ 2× the mean, remap
//! fraction within 10 % of `|M−N|/max(N,M)`) are asserted per sample. Each
//! proptest draws an id base rather than a seed: the router has none, and
//! the trace generator namespaces ids by class in their high bits, so the
//! base ranges over those namespaces.
//!
//! Spill files and resize handoffs depend on which shard owns which id, so
//! the partition pins at the bottom must never be edited to follow a
//! change: a pin that fails means the partition moved.

use darwin_rebalance::MAX_SHARDS;
use darwin_shard::{HashRouter, JumpRouter, Router};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::Arc;

const SAMPLE: u64 = 20_000;

/// The classic consistent-hashing remap bound: resizing `from → to` shards
/// moves `|to − from| / max(from, to)` of the keyspace in expectation.
fn theoretical_remap(from: usize, to: usize) -> f64 {
    if from == to || from == 0 || to == 0 {
        return 0.0;
    }
    from.abs_diff(to) as f64 / from.max(to) as f64
}

/// Fraction of `ids` whose owner changes when resizing `from → to` shards.
fn remap_fraction(ids: Range<u64>, from: usize, to: usize) -> f64 {
    let n = ids.end - ids.start;
    let moved = ids.filter(|&id| JumpRouter.route(id, from) != JumpRouter.route(id, to)).count();
    moved as f64 / n as f64
}

/// `SAMPLE` ids from `base`.
fn sample(base: u64) -> Range<u64> {
    base..base + SAMPLE
}

/// Where an id base is drawn from: any rank in the first eight class
/// namespaces (the generator puts the class in the bits from 48 up).
const ID_BASES: Range<u64> = 0..8 << 48;

#[test]
fn theoretical_remap_matches_formula() {
    assert_eq!(theoretical_remap(4, 4), 0.0);
    assert_eq!(theoretical_remap(4, 8), 0.5);
    assert_eq!(theoretical_remap(8, 4), 0.5);
    assert_eq!(theoretical_remap(1, 8), 7.0 / 8.0);
}

/// The step every resize guarantee rests on, for every fleet size an
/// elastic fleet accepts: one more shard takes objects only for itself.
#[test]
fn one_step_growth_moves_objects_only_to_the_new_shard() {
    let ids: Vec<u64> = (0..2_000u64).map(|i| ((i % 4) << 48) | (i / 4)).collect();
    for n in 1..MAX_SHARDS {
        for &id in &ids {
            let (before, after) = (JumpRouter.route(id, n), JumpRouter.route(id, n + 1));
            assert!(
                after == before || after == n,
                "id {id:#x}: {n}->{} moved {before} -> {after}",
                n + 1
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Construction is deterministic: the router has no seed, table or
    /// state, so every instance — the unit value or the shared
    /// `Arc<dyn Router>` an elastic fleet hands every generation — routes
    /// every object identically, in this process and any other.
    #[test]
    fn construction_is_deterministic(base in ID_BASES, shards in 1usize..12) {
        let shared: Arc<dyn Router> = Arc::new(JumpRouter);
        for id in base..base + 2_000 {
            let s = JumpRouter.route(id, shards);
            prop_assert!(s < shards);
            prop_assert_eq!(s, shared.route(id, shards));
        }
    }

    /// Growth `N → M` is exactly stable: every object either keeps its
    /// owner or moves to a brand-new shard (index ≥ N). No object ever
    /// shuffles between two surviving shards.
    #[test]
    fn growth_moves_objects_only_to_new_shards(
        base in ID_BASES,
        from in 1usize..9,
        extra in 1usize..8,
    ) {
        let to = from + extra;
        for id in sample(base) {
            let before = JumpRouter.route(id, from);
            let after = JumpRouter.route(id, to);
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
        base in ID_BASES,
        to in 1usize..9,
        extra in 1usize..8,
    ) {
        let from = to + extra;
        for id in sample(base) {
            let before = JumpRouter.route(id, from);
            if before < to {
                prop_assert_eq!(
                    JumpRouter.route(id, to),
                    before,
                    "id {}: surviving shard {} lost its object in {}->{}",
                    id, before, from, to
                );
            }
        }
    }

    /// Load skew stays under 2× the mean at 1, 2, 8 and 9 shards.
    #[test]
    fn load_skew_is_bounded(base in ID_BASES) {
        for shards in [1usize, 2, 8, 9] {
            let mut counts = vec![0u64; shards];
            for id in sample(base) {
                counts[JumpRouter.route(id, shards)] += 1;
            }
            let mean = SAMPLE as f64 / shards as f64;
            let max = *counts.iter().max().unwrap() as f64;
            prop_assert!(
                max <= 2.0 * mean,
                "base {base:#x}, {shards} shards: max load {max} vs mean {mean}"
            );
        }
    }

    /// The measured remap fraction is within 10 % of `|M−N|/max(N,M)` for
    /// every resize pair in {1,2,4,8}², and zero for a resize to self.
    #[test]
    fn remap_fraction_tracks_theory(base in ID_BASES) {
        for from in [1usize, 2, 4, 8] {
            for to in [1usize, 2, 4, 8] {
                let measured = remap_fraction(sample(base), from, to);
                let theory = theoretical_remap(from, to);
                if from == to {
                    prop_assert_eq!(measured, 0.0, "resize to self must remap nothing");
                } else {
                    prop_assert!(
                        (measured - theory).abs() <= 0.10 * theory,
                        "base {base:#x} {from}->{to}: measured {measured:.4} theory {theory:.4}"
                    );
                }
            }
        }
    }

    /// Remapping is symmetric: the set of objects whose owner differs
    /// between N and M shards does not depend on direction.
    #[test]
    fn remap_fraction_is_symmetric(base in ID_BASES, a in 1usize..10, b in 1usize..10) {
        prop_assert_eq!(remap_fraction(sample(base), a, b), remap_fraction(sample(base), b, a));
    }
}

/// Shard counts the partition pins cover.
const PIN_SHARDS: [usize; 7] = [1, 2, 3, 4, 8, 16, 256];

/// FNV-1a over `router.route(id, n)` for every `n` in [`PIN_SHARDS`] and
/// every `id` in `0..100_000`, each route folded as 8 little-endian bytes.
fn partition_pin(router: &dyn Router) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for n in PIN_SHARDS {
        for id in 0..100_000u64 {
            for b in (router.route(id, n) as u64).to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn hash_router_partition_is_pinned() {
    assert_eq!(partition_pin(&HashRouter), 0x4555_6677_75B6_9901, "HashRouter partitions moved");
}

#[test]
fn jump_router_partition_is_pinned() {
    assert_eq!(partition_pin(&JumpRouter), 0x2096_8482_6B4F_3C47, "JumpRouter partitions moved");
}
