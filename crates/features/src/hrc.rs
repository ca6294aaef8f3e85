//! Footprint descriptors: byte-weighted reuse distances and hit-rate curves.
//!
//! §3.2's second learnability argument: "It is easy to obtain the cache
//! performance representation (footprint descriptor), even from completely
//! anonymized logs … this is strongly correlated with the traffic's cache
//! performance." A footprint descriptor (Sundarrajan et al., CoNEXT'17)
//! summarizes a trace by the distribution of its *byte-weighted reuse
//! distances*: for each request, the number of distinct bytes touched since
//! the previous request for the same object. Under LRU with unconditional
//! admission, a request hits a cache of `C` bytes **iff** its reuse distance
//! is ≤ C (Mattson's stack property), so the reuse-distance CDF *is* the
//! hit-rate curve (HRC) across all cache sizes at once.
//!
//! The implementation is the classic O(n log n) Mattson algorithm: a Fenwick
//! tree over request positions holds each object's size at its most recent
//! access position; a request's reuse distance is the suffix byte-sum past
//! the object's previous position.

use crate::vector::FeatureVector;
use darwin_trace::{ObjectId, Trace};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Fenwick (binary indexed) tree over u64 byte counts.
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Self { tree: vec![0; n + 1] }
    }

    /// Adds `delta` at 0-based index `i` (delta may be "negative" via
    /// wrapping: callers only ever remove what they added).
    fn add(&mut self, i: usize, delta: i64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta) as u64;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum over 0-based `[0, i]`.
    fn prefix(&self, i: usize) -> u64 {
        let mut i = i + 1;
        let mut s = 0u64;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// A footprint descriptor: the empirical distribution of byte-weighted reuse
/// distances, convertible to hit-rate curves.
///
/// ```
/// use darwin_features::FootprintDescriptor;
/// use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};
///
/// let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 1)
///     .generate(20_000);
/// let fd = FootprintDescriptor::compute(&trace);
/// // Bigger caches never hit less (the HRC is monotone).
/// assert!(fd.predicted_ohr(64 << 20) >= fd.predicted_ohr(1 << 20));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FootprintDescriptor {
    /// Upper (inclusive) byte edge of each reuse-distance bucket; the last
    /// bucket is unbounded and also holds cold misses (first accesses).
    edges: Vec<u64>,
    /// Requests per bucket.
    request_counts: Vec<u64>,
    /// Requested bytes per bucket.
    byte_counts: Vec<u64>,
    /// Total requests.
    total_requests: u64,
    /// Total requested bytes.
    total_bytes: u64,
    /// Distinct bytes in the trace (the working-set size).
    unique_bytes: u64,
}

impl FootprintDescriptor {
    /// Default log-spaced bucket edges: 64 KiB … 64 GiB, ×2 per bucket.
    pub fn default_edges() -> Vec<u64> {
        (0..21).map(|i| (64 * 1024u64) << i).collect()
    }

    /// Computes the descriptor of a trace with the default bucketing.
    pub fn compute(trace: &Trace) -> Self {
        Self::compute_with_edges(trace, Self::default_edges())
    }

    /// Computes the descriptor with custom ascending bucket edges.
    pub fn compute_with_edges(trace: &Trace, edges: Vec<u64>) -> Self {
        assert!(!edges.is_empty(), "at least one edge required");
        assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must be ascending");
        let n = trace.len();
        let mut fen = Fenwick::new(n);
        let mut last_pos: HashMap<ObjectId, (usize, u64)> = HashMap::new();
        let nb = edges.len() + 1;
        let mut request_counts = vec![0u64; nb];
        let mut byte_counts = vec![0u64; nb];
        let mut total_bytes = 0u64;
        let mut unique_bytes = 0u64;

        for (pos, r) in trace.iter().enumerate() {
            total_bytes += r.size;
            let bucket = match last_pos.get(&r.id) {
                Some(&(prev, prev_size)) => {
                    // Distinct bytes accessed strictly after `prev`, plus the
                    // object itself (its own bytes count toward the stack
                    // position it must fit into).
                    let between = if pos == 0 { 0 } else { fen.prefix(pos - 1) } - fen.prefix(prev);
                    let dist = between + r.size;
                    fen.add(prev, -(prev_size as i64));
                    edges.iter().position(|&e| dist <= e).unwrap_or(edges.len())
                }
                None => {
                    unique_bytes += r.size;
                    edges.len() // cold miss: unbounded bucket
                }
            };
            request_counts[bucket] += 1;
            byte_counts[bucket] += r.size;
            fen.add(pos, r.size as i64);
            last_pos.insert(r.id, (pos, r.size));
        }

        Self { edges, request_counts, byte_counts, total_requests: n as u64, total_bytes, unique_bytes }
    }

    /// Total requests summarized.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// The bucket edges (exclusive of the final unbounded bucket).
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// Per-bucket request counts (`edges().len() + 1` entries; the last
    /// holds the unbounded bucket including cold misses).
    pub fn request_counts(&self) -> &[u64] {
        &self.request_counts
    }

    /// Distinct bytes in the trace.
    pub fn unique_bytes(&self) -> u64 {
        self.unique_bytes
    }

    /// Predicted LRU *object* hit rate for an unconditional-admission cache
    /// of `cache_bytes` (bucket-resolution lower bound: whole buckets whose
    /// edge is ≤ the cache size count as hits).
    pub fn predicted_ohr(&self, cache_bytes: u64) -> f64 {
        if self.total_requests == 0 {
            return 0.0;
        }
        let hits: u64 = self
            .edges
            .iter()
            .zip(&self.request_counts)
            .filter(|(&e, _)| e <= cache_bytes)
            .map(|(_, &c)| c)
            .sum();
        hits as f64 / self.total_requests as f64
    }

    /// Predicted LRU *byte* hit rate for a cache of `cache_bytes`.
    pub fn predicted_bhr(&self, cache_bytes: u64) -> f64 {
        if self.total_bytes == 0 {
            return 0.0;
        }
        let hit_bytes: u64 = self
            .edges
            .iter()
            .zip(&self.byte_counts)
            .filter(|(&e, _)| e <= cache_bytes)
            .map(|(_, &b)| b)
            .sum();
        hit_bytes as f64 / self.total_bytes as f64
    }

    /// The full hit-rate curve: `(cache_bytes, ohr)` at each bucket edge.
    pub fn hit_rate_curve(&self) -> Vec<(u64, f64)> {
        self.edges.iter().map(|&e| (e, self.predicted_ohr(e))).collect()
    }

    /// A compact feature vector (the per-bucket request fractions) usable as
    /// an alternative clustering input ("Darwin allows the CDN server
    /// operators to use other features, too", Appendix A.1).
    pub fn as_features(&self) -> FeatureVector {
        let v = if self.total_requests == 0 {
            vec![0.0; self.request_counts.len()]
        } else {
            self.request_counts.iter().map(|&c| c as f64 / self.total_requests as f64).collect()
        };
        FeatureVector::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_trace::{MixSpec, Request, TraceGenerator, TrafficClass};

    fn t(reqs: &[(u64, u64)]) -> Trace {
        Trace::from_requests(
            reqs.iter().enumerate().map(|(i, &(id, size))| Request::new(id, size, i as u64)).collect(),
        )
    }

    #[test]
    fn fenwick_prefix_sums() {
        let mut f = Fenwick::new(8);
        f.add(0, 5);
        f.add(3, 7);
        f.add(7, 1);
        assert_eq!(f.prefix(0), 5);
        assert_eq!(f.prefix(2), 5);
        assert_eq!(f.prefix(3), 12);
        assert_eq!(f.prefix(7), 13);
        f.add(3, -7);
        assert_eq!(f.prefix(7), 6);
    }

    #[test]
    fn reuse_distance_of_tight_loop_is_own_size() {
        // A A A …: every re-access has reuse distance == object size.
        let trace = t(&[(1, 100), (1, 100), (1, 100)]);
        let fd = FootprintDescriptor::compute_with_edges(&trace, vec![100, 1000]);
        // 1 cold miss + 2 requests at distance 100 (bucket 0).
        assert_eq!(fd.request_counts, vec![2, 0, 1]);
    }

    #[test]
    fn interleaved_objects_accumulate_distance() {
        // A B A: A's re-access must skip over B's bytes: distance = 50+100.
        let trace = t(&[(1, 100), (2, 50), (1, 100)]);
        let fd = FootprintDescriptor::compute_with_edges(&trace, vec![100, 150, 1000]);
        // A's re-access distance 150 ⇒ bucket 1 (≤150); the two cold misses
        // (A's and B's first accesses) land in the unbounded 4th bucket.
        assert_eq!(fd.request_counts, vec![0, 1, 0, 2]);
    }

    #[test]
    fn repeated_interleaving_counts_each_object_once() {
        // A B B A: distance for final A = B (once) + A = 50 + 100 = 150,
        // not 200 (B's two accesses must not double-count).
        let trace = t(&[(1, 100), (2, 50), (2, 50), (1, 100)]);
        let fd = FootprintDescriptor::compute_with_edges(&trace, vec![149, 150, 1000]);
        assert_eq!(fd.request_counts[1], 1, "final A in the 150 bucket: {:?}", fd.request_counts);
    }

    #[test]
    fn hrc_matches_lru_simulation() {
        // Mattson exactness: predicted OHR at a bucket edge equals the hit
        // rate of an LRU cache of that size with unconditional admission.
        use darwin_cache::{EvictionKind, HocSim, ThresholdPolicy};
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::download()), 9).generate(30_000);
        let cache_bytes = 4 * 1024 * 1024u64;
        let fd = FootprintDescriptor::compute_with_edges(&trace, vec![cache_bytes, 2 * cache_bytes]);
        let mut sim = HocSim::new(
            cache_bytes,
            EvictionKind::Lru,
            ThresholdPolicy::new(0, u64::MAX), // admit everything immediately
        );
        let m = sim.run_trace(&trace)[0];
        let predicted = fd.predicted_ohr(cache_bytes);
        assert!(
            (predicted - m.hoc_ohr()).abs() < 0.02,
            "Mattson {predicted:.4} vs simulated LRU {:.4}",
            m.hoc_ohr()
        );
    }

    #[test]
    fn hrc_is_monotone_in_cache_size() {
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 3).generate(20_000);
        let fd = FootprintDescriptor::compute(&trace);
        let curve = fd.hit_rate_curve();
        assert!(curve.windows(2).all(|w| w[0].1 <= w[1].1 + 1e-12));
        // BHR also monotone.
        let bhr: Vec<f64> = curve.iter().map(|&(c, _)| fd.predicted_bhr(c)).collect();
        assert!(bhr.windows(2).all(|w| w[0] <= w[1] + 1e-12));
    }

    #[test]
    fn cold_misses_cap_the_curve() {
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 4).generate(20_000);
        let fd = FootprintDescriptor::compute(&trace);
        let max_ohr = fd.predicted_ohr(u64::MAX / 2);
        let unique = trace.unique_objects();
        let compulsory = unique as f64 / trace.len() as f64;
        assert!(
            (max_ohr - (1.0 - compulsory)).abs() < 1e-9,
            "infinite-cache OHR {max_ohr} vs 1 − compulsory {compulsory}"
        );
    }

    #[test]
    fn feature_fractions_sum_to_one() {
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::web()), 5).generate(5_000);
        let fd = FootprintDescriptor::compute(&trace);
        let sum: f64 = fd.as_features().values().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_descriptor() {
        let fd = FootprintDescriptor::compute(&Trace::default());
        assert_eq!(fd.total_requests(), 0);
        assert_eq!(fd.predicted_ohr(1 << 30), 0.0);
        assert_eq!(fd.unique_bytes(), 0);
    }
}
