//! Trace synthesis from a footprint descriptor — the core capability of
//! Tragen (Sabnis & Sitaraman, IMC'21), which the paper uses to build its
//! entire evaluation corpus: given a descriptor measured from (possibly
//! anonymized) production logs, emit a synthetic trace whose reuse-distance
//! distribution — and therefore its LRU hit-rate curve at *every* cache
//! size — matches the original.
//!
//! Algorithm: the inverse of the Mattson measurement in [`crate::hrc`]. A
//! Fenwick tree over emission positions holds each live object's size at
//! its most recent access. Per request:
//!
//! 1. sample a reuse-distance bucket from the descriptor's request
//!    fractions (the unbounded bucket emits a *cold* request: a fresh
//!    object);
//! 2. for a warm bucket, draw a target byte distance `d` within the bucket
//!    and binary-search the position `q` whose suffix byte-sum brackets `d`
//!    (the distance of the object at `q` is exactly the bytes at positions
//!    ≥ q, which decreases monotonically in q);
//! 3. re-emit that object, moving its Fenwick mass to the new position.
//!
//! Validation (see tests): descriptor(synthesize(descriptor(T))) ≈
//! descriptor(T), and the synthesized trace's simulated LRU hit rate matches
//! the original's within a few percent — Tragen's own fidelity criterion.

use crate::hrc::FootprintDescriptor;
use darwin_trace::{Request, SizeModel, Trace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Synthesizes `n` requests matching `descriptor`'s reuse-distance
/// distribution. Object sizes are drawn from `sizes` (the descriptor
/// constrains temporal locality, not the size marginal); inter-arrivals are
/// Poisson at `rate_rps`.
pub fn synthesize(
    descriptor: &FootprintDescriptor,
    sizes: &SizeModel,
    rate_rps: f64,
    n: usize,
    seed: u64,
) -> Trace {
    assert!(descriptor.total_requests() > 0, "descriptor must be non-empty");
    assert!(rate_rps > 0.0, "rate must be positive");
    let mut rng = SmallRng::seed_from_u64(seed);
    let edges = descriptor.edges();
    let counts = descriptor.request_counts();
    let total: u64 = counts.iter().sum();

    // Cumulative bucket distribution for sampling.
    let mut cum = Vec::with_capacity(counts.len());
    let mut acc = 0u64;
    for &c in counts {
        acc += c;
        cum.push(acc);
    }

    // Emission state.
    let mut fen = FenwickI64::new(n);
    // position → (object id, size) for *live* (most-recent) positions.
    let mut live: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    let mut total_bytes: u64 = 0;
    let mut next_id: u64 = 0;
    let mut t_us: u64 = 0;
    let lambda_per_us = rate_rps / 1e6;
    let mut requests = Vec::with_capacity(n);

    for pos in 0..n {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t_us = t_us.saturating_add(((-u.ln() / lambda_per_us).round() as u64).max(1));

        // Sample a bucket.
        let draw = rng.gen_range(0..total);
        let bucket = cum.iter().position(|&c| draw < c).unwrap_or(counts.len() - 1);
        let is_cold = bucket == edges.len() || live.is_empty();

        let (id, size) = if is_cold {
            let id = next_id;
            next_id += 1;
            (id, sizes.sample(&mut rng))
        } else {
            // Target distance within the bucket, clamped to what's live.
            let lo = if bucket == 0 { 1 } else { edges[bucket - 1] + 1 };
            let hi = edges[bucket].min(total_bytes.max(1));
            let d = if lo >= hi { hi } else { rng.gen_range(lo..=hi) };
            // Find the largest q whose suffix byte-sum ≥ d; the object at
            // the first live position ≥ q has distance closest above d.
            let q = suffix_search(&fen, total_bytes, d, pos);
            let (&qpos, &(id, size)) = live
                .range(q..)
                .next()
                .or_else(|| live.iter().next_back())
                .expect("live set non-empty for warm requests");
            // Move the object's mass to the new position.
            fen.add(qpos, -(size as i64));
            live.remove(&qpos);
            total_bytes -= size;
            (id, size)
        };

        fen.add(pos, size as i64);
        live.insert(pos, (id, size));
        total_bytes += size;
        requests.push(Request::new(id, size, t_us));
    }
    Trace::from_sorted(requests)
}

/// Largest position `q` with `suffix_bytes(q) ≥ d`, where
/// `suffix_bytes(q) = Σ_{pos ≥ q} size(pos)`. Binary search on the monotone
/// suffix (O(log² n) — fine for synthesis).
fn suffix_search(fen: &FenwickI64, total_bytes: u64, d: u64, upper: usize) -> usize {
    let (mut lo, mut hi) = (0usize, upper); // invariant: suffix(lo) ≥ d
    if total_bytes < d {
        return 0;
    }
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        let suffix = total_bytes - if mid == 0 { 0 } else { fen.prefix(mid - 1) };
        if suffix >= d {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// Minimal signed Fenwick tree (adds may remove previously-added mass).
#[derive(Debug, Clone)]
struct FenwickI64 {
    tree: Vec<i64>,
}

impl FenwickI64 {
    fn new(n: usize) -> Self {
        Self { tree: vec![0; n + 1] }
    }

    fn add(&mut self, i: usize, delta: i64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum over `[0, i]`, as u64 (sums are never negative).
    fn prefix(&self, i: usize) -> u64 {
        let mut i = (i + 1).min(self.tree.len() - 1);
        let mut s = 0i64;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};

    fn reference_trace(n: usize) -> Trace {
        TraceGenerator::new(MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5), 77)
            .generate(n)
    }

    #[test]
    fn synthesized_trace_has_requested_length_and_order() {
        let fd = FootprintDescriptor::compute(&reference_trace(20_000));
        let sizes = SizeModel::from_median(50.0 * 1024.0, 1.2, 128, 10 * 1024 * 1024);
        let t = synthesize(&fd, &sizes, 200.0, 10_000, 1);
        assert_eq!(t.len(), 10_000);
        assert!(t.requests().windows(2).all(|w| w[0].timestamp_us <= w[1].timestamp_us));
    }

    #[test]
    fn synthesis_is_deterministic_in_seed() {
        let fd = FootprintDescriptor::compute(&reference_trace(10_000));
        let sizes = SizeModel::from_median(50.0 * 1024.0, 1.2, 128, 10 * 1024 * 1024);
        assert_eq!(synthesize(&fd, &sizes, 200.0, 5_000, 9), synthesize(&fd, &sizes, 200.0, 5_000, 9));
        assert_ne!(synthesize(&fd, &sizes, 200.0, 5_000, 9), synthesize(&fd, &sizes, 200.0, 5_000, 10));
    }

    #[test]
    fn descriptor_roundtrip_matches_bucket_fractions() {
        // Tragen's fidelity criterion: the synthesized trace's descriptor
        // should be close to the input descriptor, bucket by bucket.
        let original = reference_trace(30_000);
        let fd = FootprintDescriptor::compute(&original);
        // Use the measured per-request sizes' scale for the synthetic sizes.
        let sizes = SizeModel::from_median(40.0 * 1024.0, 1.3, 128, 20 * 1024 * 1024);
        let synth = synthesize(&fd, &sizes, 265.9, 30_000, 3);
        let fd2 = FootprintDescriptor::compute(&synth);

        let f1 = fd.as_features();
        let f2 = fd2.as_features();
        let l1: f64 = f1.values().iter().zip(f2.values()).map(|(a, b)| (a - b).abs()).sum();
        assert!(l1 < 0.35, "bucket-fraction L1 distance {l1:.3} too large");
    }

    #[test]
    fn synthesized_hit_rate_matches_original_lru() {
        use darwin_cache::{EvictionKind, HocSim, ThresholdPolicy};
        let original = reference_trace(30_000);
        let fd = FootprintDescriptor::compute(&original);
        let sizes = SizeModel::from_median(40.0 * 1024.0, 1.3, 128, 20 * 1024 * 1024);
        let synth = synthesize(&fd, &sizes, 265.9, 30_000, 4);

        let cache_bytes = 8 * 1024 * 1024u64;
        let run = |t: &Trace| {
            let mut sim = HocSim::new(cache_bytes, EvictionKind::Lru, ThresholdPolicy::new(0, u64::MAX));
            sim.run_trace(t)[0].hoc_ohr()
        };
        let (a, b) = (run(&original), run(&synth));
        assert!((a - b).abs() < 0.06, "original LRU OHR {a:.4} vs synthesized {b:.4}");
    }

    #[test]
    fn cold_only_descriptor_yields_all_unique_objects() {
        // A trace of all-distinct objects has a descriptor with everything
        // in the unbounded bucket; synthesis must produce all-cold requests.
        let t = Trace::from_requests((0..1000u64).map(|i| Request::new(i, 1000, i)).collect());
        let fd = FootprintDescriptor::compute(&t);
        let sizes = SizeModel::from_median(1000.0, 0.5, 100, 10_000);
        let synth = synthesize(&fd, &sizes, 100.0, 1000, 5);
        assert_eq!(synth.unique_objects(), 1000);
    }

    #[test]
    fn tight_loop_descriptor_yields_high_reuse() {
        // One object requested n times: descriptor is ~all in the smallest
        // bucket; the synthesized trace must be strongly reusing.
        let t = Trace::from_requests((0..2000u64).map(|i| Request::new(7, 4096, i)).collect());
        let fd = FootprintDescriptor::compute(&t);
        let sizes = SizeModel::from_median(4096.0, 0.1, 1024, 16_384);
        let synth = synthesize(&fd, &sizes, 100.0, 2000, 6);
        assert!(
            synth.unique_objects() < 50,
            "expected heavy reuse, got {} unique objects",
            synth.unique_objects()
        );
    }
}
