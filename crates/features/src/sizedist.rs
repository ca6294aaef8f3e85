//! Bucketized request-size distribution.
//!
//! §4.1: "we first extend the set of features associated with each trace with
//! a bucketized version of its size distribution … the number of buckets to
//! use can be chosen as necessary." §6.3 reuses the same histogram to convert
//! OHR predictions into byte-level (BMR) and disk-write estimates.
//!
//! Bucket edges default to the expert size-threshold grid (10, 20, 50, 100,
//! 500, 1000 KB, ∞) — the paper's prototype stores a distribution "whose
//! entry number is the same as the size threshold selection range" (§6.4).

use darwin_ckpt::{CkptError, Dec, Enc};
use serde::{Deserialize, Serialize};

/// A request-size histogram over fixed byte-edge buckets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SizeDistribution {
    /// Upper (inclusive) byte edge of each bucket except the last, which is
    /// unbounded.
    edges: Vec<u64>,
    /// Request counts per bucket (`edges.len() + 1` entries).
    counts: Vec<u64>,
    /// Sum of request sizes per bucket (for byte-weighted estimates).
    bytes: Vec<u64>,
    total: u64,
}

impl SizeDistribution {
    /// Histogram with the given ascending bucket edges (bytes).
    pub fn new(edges: Vec<u64>) -> Self {
        assert!(!edges.is_empty(), "at least one edge required");
        assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must be ascending");
        let n = edges.len() + 1;
        Self { edges, counts: vec![0; n], bytes: vec![0; n], total: 0 }
    }

    /// The paper's default edges: the expert size-threshold grid in KB.
    pub fn paper_default() -> Self {
        Self::new(vec![10, 20, 50, 100, 500, 1000].into_iter().map(|k| k * 1024).collect())
    }

    /// Records one request of `size` bytes.
    pub fn observe(&mut self, size: u64) {
        let b = self.bucket_of(size);
        self.counts[b] += 1;
        self.bytes[b] += size;
        self.total += 1;
    }

    /// Index of the bucket holding `size`.
    pub fn bucket_of(&self, size: u64) -> usize {
        self.edges.iter().position(|&e| size <= e).unwrap_or(self.edges.len())
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.counts.len()
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Request-count fractions per bucket (all zeros if empty).
    pub fn fractions(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts.iter().map(|&c| c as f64 / self.total as f64).collect()
    }

    /// Mean request size within each bucket (0 for empty buckets).
    pub fn mean_size_per_bucket(&self) -> Vec<f64> {
        self.counts
            .iter()
            .zip(&self.bytes)
            .map(|(&c, &b)| if c == 0 { 0.0 } else { b as f64 / c as f64 })
            .collect()
    }

    /// Fraction of requests at or below `size` bytes (bucket-resolution
    /// upper bound: whole buckets whose edge ≤ size plus the bucket of size).
    pub fn fraction_at_most(&self, size: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let b = self.bucket_of(size);
        let c: u64 = self.counts[..=b].iter().sum();
        c as f64 / self.total as f64
    }

    /// Overall mean request size.
    pub fn mean_size(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.bytes.iter().sum::<u64>() as f64 / self.total as f64
    }

    /// Resets all counts (edges retained).
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.bytes.iter_mut().for_each(|b| *b = 0);
        self.total = 0;
    }

    /// Serializes edges and per-bucket counters.
    pub fn encode_state(&self, enc: &mut Enc) {
        enc.seq(&self.edges, |e, &v| e.u64(v));
        enc.seq(&self.counts, |e, &v| e.u64(v));
        enc.seq(&self.bytes, |e, &v| e.u64(v));
        enc.u64(self.total);
    }

    /// Rebuilds a histogram from bytes written by
    /// [`SizeDistribution::encode_state`], re-validating the shape
    /// invariants (ascending edges, bucket count = edges + 1, total =
    /// Σ counts).
    pub fn decode_state(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        let edges = dec.seq(8, |d| d.u64())?;
        let counts = dec.seq(8, |d| d.u64())?;
        let bytes = dec.seq(8, |d| d.u64())?;
        let total = dec.u64()?;
        if edges.is_empty() || edges.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CkptError::Malformed("size-distribution edges not ascending".into()));
        }
        if counts.len() != edges.len() + 1 || bytes.len() != counts.len() {
            return Err(CkptError::Malformed("size-distribution bucket count mismatch".into()));
        }
        let sum = counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c));
        if sum.is_none() {
            return Err(CkptError::Malformed("size-distribution counts overflow".into()));
        }
        if sum != Some(total) {
            return Err(CkptError::Malformed("size-distribution total mismatch".into()));
        }
        Ok(Self { edges, counts, bytes, total })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_inclusive() {
        let d = SizeDistribution::new(vec![10, 100]);
        assert_eq!(d.bucket_of(10), 0);
        assert_eq!(d.bucket_of(11), 1);
        assert_eq!(d.bucket_of(100), 1);
        assert_eq!(d.bucket_of(101), 2);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut d = SizeDistribution::paper_default();
        for s in [1024u64, 15 * 1024, 60 * 1024, 2 * 1024 * 1024, 5_000] {
            d.observe(s);
        }
        let sum: f64 = d.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(d.total(), 5);
    }

    #[test]
    fn empty_distribution_is_all_zero() {
        let d = SizeDistribution::paper_default();
        assert!(d.fractions().iter().all(|&f| f == 0.0));
        assert_eq!(d.mean_size(), 0.0);
        assert_eq!(d.fraction_at_most(1 << 30), 0.0);
    }

    #[test]
    fn fraction_at_most_accumulates() {
        let mut d = SizeDistribution::new(vec![10, 100]);
        d.observe(5); // bucket 0
        d.observe(50); // bucket 1
        d.observe(500); // bucket 2
        assert!((d.fraction_at_most(10) - 1.0 / 3.0).abs() < 1e-12);
        assert!((d.fraction_at_most(100) - 2.0 / 3.0).abs() < 1e-12);
        assert!((d.fraction_at_most(u64::MAX) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_sizes_tracked_per_bucket() {
        let mut d = SizeDistribution::new(vec![10]);
        d.observe(4);
        d.observe(6);
        d.observe(100);
        let means = d.mean_size_per_bucket();
        assert!((means[0] - 5.0).abs() < 1e-12);
        assert!((means[1] - 100.0).abs() < 1e-12);
        assert!((d.mean_size() - 110.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_counts_only() {
        let mut d = SizeDistribution::new(vec![10]);
        d.observe(5);
        d.clear();
        assert_eq!(d.total(), 0);
        assert_eq!(d.num_buckets(), 2);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn rejects_unsorted_edges() {
        SizeDistribution::new(vec![100, 10]);
    }

    /// Counts whose sum wraps (`[u64::MAX, 1, 0]` against a total of 0)
    /// are refused, as is a total they do not add up to; a sound image
    /// round-trips.
    #[test]
    fn decode_refuses_counts_that_overflow() {
        let image = |counts: [u64; 3], total: u64| {
            let mut enc = Enc::new();
            enc.seq(&[10u64, 100], |e, &v| e.u64(v));
            enc.seq(&counts, |e, &v| e.u64(v));
            enc.seq(&[0u64; 3], |e, &v| e.u64(v));
            enc.u64(total);
            enc.into_bytes()
        };
        let decode = |bytes: &[u8]| SizeDistribution::decode_state(&mut Dec::new(bytes));
        match decode(&image([u64::MAX, 1, 0], 0)) {
            Err(CkptError::Malformed(why)) => assert!(why.contains("overflow"), "{why}"),
            other => panic!("accepted or misreported: {:?}", other.map(|d| d.total())),
        }
        assert!(matches!(decode(&image([1, 2, 3], 7)), Err(CkptError::Malformed(_))));
        assert_eq!(decode(&image([1, 2, 3], 6)).expect("a sound image").total(), 6);
    }
}
