//! Request routing across shards.
//!
//! A [`Router`] maps an `ObjectId` to a shard index. The contract that makes
//! the fleet deterministic and cache-correct is that routing is a *pure
//! function of the object ID and the shard count*: every request for an
//! object always lands on the same shard, so per-object state (HOC/DC
//! residency, frequency, recency) never splits across shards, and the
//! partition of a trace is reproducible by anyone holding the router.
//!
//! [`HashRouter`] is the production default (an avalanching 64-bit mix, so
//! adjacent IDs scatter). [`JumpRouter`] is the router for a fleet that
//! resizes: a jump consistent hash over the same mix, so growing or
//! shrinking by the highest shard indices moves only the objects that must
//! move. The trait is the seam where locality- or load-aware placement
//! plugs in later.

use darwin_trace::ObjectId;

/// Maps object IDs to shard indices. Implementations must be pure: the same
/// `(id, shards)` always yields the same shard.
pub trait Router: Send + Sync {
    /// Shard index in `0..shards` for `id`.
    fn route(&self, id: ObjectId, shards: usize) -> usize;

    /// Short label for reports.
    fn label(&self) -> String;
}

/// A shared router routes as the router it shares: an elastic fleet hands
/// every generation a clone of one `Arc<dyn Router>`.
impl<R: Router + ?Sized> Router for std::sync::Arc<R> {
    #[inline]
    fn route(&self, id: ObjectId, shards: usize) -> usize {
        (**self).route(id, shards)
    }

    fn label(&self) -> String {
        (**self).label()
    }
}

/// Hash partitioning over a SplitMix64-style finalizer (the default).
#[derive(Debug, Clone, Copy, Default)]
pub struct HashRouter;

/// The 64-bit avalanche mix the hash router scatters IDs with: the
/// SplitMix64 finalizer. [`JumpRouter`]'s keys and
/// [`FaultPlan::random`](crate::FaultPlan::random)'s draws use it too.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Router for HashRouter {
    // Called once per request on every ingest front; `#[inline]` lets the
    // batched frame-routing loop keep the mix in registers.
    #[inline]
    fn route(&self, id: ObjectId, shards: usize) -> usize {
        debug_assert!(shards > 0, "fleet has at least one shard");
        (mix64(id) % shards as u64) as usize
    }

    fn label(&self) -> String {
        "hash".into()
    }
}

/// Jump consistent hash (Lamping & Veach, "A Fast, Minimal Memory,
/// Consistent Hash Algorithm", 2014) over [`mix64`]: no table, no seed, no
/// state. Going from `n` to `n + 1` shards, an object either keeps its
/// shard or moves to shard `n`. So a resize that adds or retires the
/// highest indices moves only what it must: growing `N → M`, an object
/// keeps its owner or moves to a new shard in `N..M`; shrinking, every
/// object on a surviving shard stays put. Either way about
/// `|M − N| / max(N, M)` of the keyspace moves.
#[derive(Debug, Clone, Copy, Default)]
pub struct JumpRouter;

impl Router for JumpRouter {
    #[inline]
    fn route(&self, id: ObjectId, shards: usize) -> usize {
        debug_assert!(shards > 0, "fleet has at least one shard");
        let mut key = mix64(id);
        let (mut b, mut j) = (0u64, 0u64);
        // Each step draws the next shard count at which this object jumps,
        // from the paper's 64-bit LCG; the last jump below `shards` owns it.
        while j < shards as u64 {
            b = j;
            key = key.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
            j = ((b + 1) as f64 * ((1u64 << 31) as f64 / ((key >> 33) + 1) as f64)) as u64;
        }
        b as usize
    }

    fn label(&self) -> String {
        "jump".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_are_stable_and_in_range() {
        for shards in [1usize, 2, 3, 8, 16] {
            for id in 0..1000u64 {
                let s = HashRouter.route(id, shards);
                assert!(s < shards);
                assert_eq!(s, HashRouter.route(id, shards), "routing must be pure");
            }
        }
    }

    #[test]
    fn jump_routes_are_pure_and_in_range() {
        for shards in [1usize, 2, 3, 8, 16, 256] {
            for id in 0..2_000u64 {
                let s = JumpRouter.route(id, shards);
                assert!(s < shards);
                assert_eq!(s, JumpRouter.route(id, shards), "routing must be pure");
            }
        }
    }

    #[test]
    fn single_shard_gets_everything() {
        for id in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(HashRouter.route(id, 1), 0);
            assert_eq!(JumpRouter.route(id, 1), 0);
        }
    }

    #[test]
    fn hash_router_balances_sequential_ids() {
        // Sequential IDs (the generator's common case) must spread close to
        // uniformly.
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for id in 0..80_000u64 {
            counts[HashRouter.route(id, shards)] += 1;
        }
        let expect = 80_000 / shards;
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect as f64).abs() < expect as f64 * 0.05,
                "shard {s} got {c}, expected ≈{expect}"
            );
        }
    }

    #[test]
    fn routers_are_object_safe() {
        let routers: Vec<Box<dyn Router>> = vec![Box::new(HashRouter), Box::new(JumpRouter)];
        assert_eq!(routers[0].label(), "hash");
        assert_eq!(routers[1].label(), "jump");
        for r in &routers {
            assert!(r.route(42, 4) < 4);
        }
    }
}
