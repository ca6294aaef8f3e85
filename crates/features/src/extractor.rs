//! The online feature extractor.
//!
//! Implements the three feature families of Appendix A.1 (average size,
//! order-k average inter-arrival times, order-k average byte-weighted stack
//! distances) plus the bucketized size distribution of §4.1, all in a single
//! streaming pass.
//!
//! For each object the extractor keeps a bounded ring of its most recent
//! `max(n, m) + 1` accesses as `(timestamp, cumulative_bytes_at_access)`
//! pairs. On a new access to the object, the gap to its k-th most recent
//! access contributes one sample to the order-k inter-arrival average (time
//! gap) and to the order-k stack-distance average (cumulative-bytes gap).

use crate::sizedist::SizeDistribution;
use crate::vector::FeatureVector;
use darwin_ckpt::{CkptError, Dec, Enc};
use darwin_trace::{ObjectId, Request, Trace};
use std::collections::{HashMap, VecDeque};

/// Streaming extractor of Darwin's trace features.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    n_iat: usize,
    m_sd: usize,
    /// Per-object ring of `(timestamp_us, cum_bytes_before_access)`.
    history: HashMap<ObjectId, VecDeque<(u64, u64)>>,
    /// Running byte counter over the whole stream.
    cum_bytes: u64,
    iat_sum: Vec<f64>,
    iat_cnt: Vec<u64>,
    sd_sum: Vec<f64>,
    sd_cnt: Vec<u64>,
    size_sum: u64,
    requests: u64,
    size_dist: SizeDistribution,
}

impl FeatureExtractor {
    /// Extractor with `n_iat` inter-arrival orders and `m_sd` stack-distance
    /// orders, and the given size-distribution bucketing.
    pub fn new(n_iat: usize, m_sd: usize, size_dist: SizeDistribution) -> Self {
        assert!(n_iat > 0 && m_sd > 0, "feature orders must be positive");
        Self {
            n_iat,
            m_sd,
            history: HashMap::new(),
            cum_bytes: 0,
            iat_sum: vec![0.0; n_iat],
            iat_cnt: vec![0; n_iat],
            sd_sum: vec![0.0; m_sd],
            sd_cnt: vec![0; m_sd],
            size_sum: 0,
            requests: 0,
            size_dist,
        }
    }

    /// The paper's configuration: "average size (size_avg), the first 7
    /// average inter-arrival times (iat_avg's), and stack distances
    /// (sd_avg's)" — a 15-entry vector (§6.2), with the default size buckets.
    pub fn paper_default() -> Self {
        Self::new(7, 7, SizeDistribution::paper_default())
    }

    /// Consumes one request.
    pub fn observe(&mut self, req: &Request) {
        self.requests += 1;
        self.size_sum += req.size;
        self.size_dist.observe(req.size);

        let ring = self.history.entry(req.id).or_default();
        // Order-k samples against the k-th most recent access.
        for (back, &(ts, bytes)) in ring.iter().rev().enumerate() {
            let k = back; // 0-indexed: order k+1
            if k < self.n_iat {
                self.iat_sum[k] += (req.timestamp_us - ts) as f64;
                self.iat_cnt[k] += 1;
            }
            if k < self.m_sd {
                self.sd_sum[k] += (self.cum_bytes - bytes) as f64;
                self.sd_cnt[k] += 1;
            }
        }
        let cap = self.n_iat.max(self.m_sd);
        if ring.len() == cap {
            ring.pop_front();
        }
        ring.push_back((req.timestamp_us, self.cum_bytes));
        self.cum_bytes += req.size;
    }

    /// Number of requests observed.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// The 1 + n + m feature vector: `[avg_size, iat_1..n, sd_1..m]`.
    /// Orders with no samples yet report 0 (e.g. very short prefixes).
    pub fn features(&self) -> FeatureVector {
        let mut v = Vec::with_capacity(1 + self.n_iat + self.m_sd);
        v.push(if self.requests == 0 { 0.0 } else { self.size_sum as f64 / self.requests as f64 });
        for k in 0..self.n_iat {
            v.push(if self.iat_cnt[k] == 0 { 0.0 } else { self.iat_sum[k] / self.iat_cnt[k] as f64 });
        }
        for k in 0..self.m_sd {
            v.push(if self.sd_cnt[k] == 0 { 0.0 } else { self.sd_sum[k] / self.sd_cnt[k] as f64 });
        }
        FeatureVector::new(v)
    }

    /// The feature vector extended with the size-distribution fractions —
    /// the cross-expert predictor input of §4.1.
    pub fn extended_features(&self) -> FeatureVector {
        self.features().extended(&self.size_dist.fractions())
    }

    /// The bucketized size distribution observed so far.
    pub fn size_distribution(&self) -> &SizeDistribution {
        &self.size_dist
    }

    /// Drops the per-object working state, keeping only the aggregated
    /// feature vector (what the paper's prototype does at the end of the
    /// feature-collection stage: "this tree is deleted at the end of the
    /// stage, and we only store a single feature vector with 15 entries").
    pub fn finish(self) -> (FeatureVector, SizeDistribution) {
        let features = self.features();
        (features, self.size_dist)
    }

    /// Serializes the extractor's full streaming state, including every
    /// per-object access ring (sorted by object ID for a canonical byte
    /// stream).
    pub fn encode_state(&self, enc: &mut Enc) {
        enc.usize(self.n_iat);
        enc.usize(self.m_sd);
        enc.u64(self.cum_bytes);
        enc.seq(&self.iat_sum, |e, &v| e.f64(v));
        enc.seq(&self.iat_cnt, |e, &v| e.u64(v));
        enc.seq(&self.sd_sum, |e, &v| e.f64(v));
        enc.seq(&self.sd_cnt, |e, &v| e.u64(v));
        enc.u64(self.size_sum);
        enc.u64(self.requests);
        self.size_dist.encode_state(enc);
        let mut ids: Vec<ObjectId> = self.history.keys().copied().collect();
        ids.sort_unstable();
        enc.seq(&ids, |e, &id| {
            e.u64(id);
            let ring: Vec<(u64, u64)> = self.history[&id].iter().copied().collect();
            e.seq(&ring, |e, &(ts, bytes)| {
                e.u64(ts);
                e.u64(bytes);
            });
        });
    }

    /// Rebuilds an extractor from bytes written by
    /// [`FeatureExtractor::encode_state`].
    pub fn decode_state(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        let n_iat = dec.usize()?;
        let m_sd = dec.usize()?;
        if n_iat == 0 || m_sd == 0 {
            return Err(CkptError::Malformed("feature orders must be positive".into()));
        }
        let cum_bytes = dec.u64()?;
        let iat_sum = dec.seq(8, |d| d.f64())?;
        let iat_cnt = dec.seq(8, |d| d.u64())?;
        let sd_sum = dec.seq(8, |d| d.f64())?;
        let sd_cnt = dec.seq(8, |d| d.u64())?;
        if iat_sum.len() != n_iat
            || iat_cnt.len() != n_iat
            || sd_sum.len() != m_sd
            || sd_cnt.len() != m_sd
        {
            return Err(CkptError::Malformed("feature accumulator length mismatch".into()));
        }
        let size_sum = dec.u64()?;
        let requests = dec.u64()?;
        let size_dist = SizeDistribution::decode_state(dec)?;
        let cap = n_iat.max(m_sd);
        let entries = dec.seq(8 + 8, |d| {
            let id = d.u64()?;
            let ring = d.seq(16, |d| Ok((d.u64()?, d.u64()?)))?;
            Ok((id, ring))
        })?;
        let mut history: HashMap<ObjectId, VecDeque<(u64, u64)>> = HashMap::new();
        for (id, ring) in entries {
            if ring.len() > cap {
                return Err(CkptError::Malformed(format!("ring for {id} exceeds capacity")));
            }
            if history.insert(id, ring.into_iter().collect()).is_some() {
                return Err(CkptError::Malformed(format!("duplicate history entry {id}")));
            }
        }
        Ok(Self {
            n_iat,
            m_sd,
            history,
            cum_bytes,
            iat_sum,
            iat_cnt,
            sd_sum,
            sd_cnt,
            size_sum,
            requests,
            size_dist,
        })
    }

    /// Convenience: extract features of an entire trace.
    pub fn extract(trace: &Trace) -> FeatureVector {
        let mut fx = Self::paper_default();
        for r in trace {
            fx.observe(r);
        }
        fx.features()
    }

    /// Convenience: extended features (with size distribution) of a trace.
    pub fn extract_extended(trace: &Trace) -> FeatureVector {
        let mut fx = Self::paper_default();
        for r in trace {
            fx.observe(r);
        }
        fx.extended_features()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_trace::Request;

    fn fx(n: usize, m: usize) -> FeatureExtractor {
        FeatureExtractor::new(n, m, SizeDistribution::paper_default())
    }

    #[test]
    fn avg_size_is_mean_of_request_sizes() {
        let mut f = fx(2, 2);
        f.observe(&Request::new(1, 100, 0));
        f.observe(&Request::new(2, 300, 10));
        assert!((f.features().get(0) - 200.0).abs() < 1e-12);
    }

    #[test]
    fn first_order_iat_is_gap_between_consecutive_same_id() {
        let mut f = fx(2, 2);
        f.observe(&Request::new(1, 10, 0));
        f.observe(&Request::new(2, 10, 50)); // other object: no IAT sample
        f.observe(&Request::new(1, 10, 100));
        let v = f.features();
        assert!((v.get(1) - 100.0).abs() < 1e-12, "iat_1 = 100 expected, got {}", v.get(1));
        assert_eq!(v.get(2), 0.0, "no order-2 samples yet");
    }

    #[test]
    fn second_order_iat_spans_two_gaps() {
        let mut f = fx(2, 2);
        f.observe(&Request::new(1, 10, 0));
        f.observe(&Request::new(1, 10, 30));
        f.observe(&Request::new(1, 10, 100));
        let v = f.features();
        // iat_1 samples: 30, 70 → 50. iat_2 sample: 100.
        assert!((v.get(1) - 50.0).abs() < 1e-12);
        assert!((v.get(2) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn stack_distance_counts_bytes_between_same_id_accesses() {
        let mut f = fx(1, 1);
        f.observe(&Request::new(1, 10, 0));
        f.observe(&Request::new(2, 77, 1));
        f.observe(&Request::new(3, 23, 2));
        f.observe(&Request::new(1, 10, 3));
        let v = f.features();
        // Bytes between the two accesses of object 1: its own 10 + 77 + 23.
        assert!((v.get(2) - 110.0).abs() < 1e-12, "sd_1 = 110 expected, got {}", v.get(2));
    }

    #[test]
    fn repeated_same_object_has_zero_stack_distance_excluding_self() {
        let mut f = fx(1, 1);
        f.observe(&Request::new(1, 10, 0));
        f.observe(&Request::new(1, 10, 1));
        // cum_bytes gap = 10 (the object's own first access bytes).
        assert!((f.features().get(2) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn feature_vector_has_paper_dimensions() {
        let f = FeatureExtractor::paper_default();
        assert_eq!(f.features().len(), 15);
        assert_eq!(f.extended_features().len(), 15 + 7);
    }

    #[test]
    fn matches_naive_reference_on_random_trace() {
        // Naive O(n²)-ish reference: recompute order-k gaps per object.
        use std::collections::HashMap;
        let mut reqs = Vec::new();
        let mut x = 99u64;
        let mut t = 0u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            t += 1 + (x >> 60);
            let id = (x >> 33) % 50;
            let size = 1 + ((x >> 17) % 1000);
            reqs.push(Request::new(id, size, t));
        }
        // Reference computation.
        let (n, m) = (3usize, 3usize);
        let mut positions: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, r) in reqs.iter().enumerate() {
            positions.entry(r.id).or_default().push(i);
        }
        let cum: Vec<u64> = reqs
            .iter()
            .scan(0u64, |acc, r| {
                let before = *acc;
                *acc += r.size;
                Some(before)
            })
            .collect();
        let mut iat_sum = vec![0.0; n];
        let mut iat_cnt = vec![0u64; n];
        let mut sd_sum = vec![0.0; m];
        let mut sd_cnt = vec![0u64; m];
        for pos in positions.values() {
            for (j, &pj) in pos.iter().enumerate() {
                for k in 1..=n.min(j) {
                    iat_sum[k - 1] += (reqs[pj].timestamp_us - reqs[pos[j - k]].timestamp_us) as f64;
                    iat_cnt[k - 1] += 1;
                }
                for k in 1..=m.min(j) {
                    sd_sum[k - 1] += (cum[pj] - cum[pos[j - k]]) as f64;
                    sd_cnt[k - 1] += 1;
                }
            }
        }
        let mut f = fx(n, m);
        for r in &reqs {
            f.observe(r);
        }
        let v = f.features();
        for k in 0..n {
            let expect = if iat_cnt[k] == 0 { 0.0 } else { iat_sum[k] / iat_cnt[k] as f64 };
            assert!((v.get(1 + k) - expect).abs() < 1e-6, "iat order {}", k + 1);
        }
        for k in 0..m {
            let expect = if sd_cnt[k] == 0 { 0.0 } else { sd_sum[k] / sd_cnt[k] as f64 };
            assert!((v.get(1 + n + k) - expect).abs() < 1e-6, "sd order {}", k + 1);
        }
    }

    #[test]
    fn finish_returns_same_features() {
        let mut f = fx(2, 2);
        for i in 0..100u64 {
            f.observe(&Request::new(i % 10, 100 + i, i * 7));
        }
        let live = f.features();
        let (done, dist) = f.finish();
        assert_eq!(live, done);
        assert_eq!(dist.total(), 100);
    }

    #[test]
    fn empty_extractor_reports_zeros() {
        let f = FeatureExtractor::paper_default();
        assert!(f.features().values().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn codec_roundtrip_resumes_identically() {
        let mut original = FeatureExtractor::paper_default();
        for i in 0..5_000u64 {
            original.observe(&Request::new(i % 97, 100 + i % 9_000, i * 13));
        }
        let mut enc = darwin_ckpt::Enc::new();
        original.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = darwin_ckpt::Dec::new(&bytes);
        let mut restored = FeatureExtractor::decode_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(restored.features(), original.features());
        // Canonical bytes and identical continued evolution.
        let mut re = darwin_ckpt::Enc::new();
        restored.encode_state(&mut re);
        assert_eq!(re.into_bytes(), bytes);
        for i in 5_000..6_000u64 {
            let r = Request::new(i % 97, 100 + i % 9_000, i * 13);
            original.observe(&r);
            restored.observe(&r);
        }
        assert_eq!(restored.features(), original.features());
        assert_eq!(restored.extended_features(), original.extended_features());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use darwin_trace::Request;
    use proptest::prelude::*;

    proptest! {
        /// Feature values are always finite and non-negative (timestamps and
        /// cumulative bytes are monotone).
        #[test]
        fn features_finite_nonnegative(ids in proptest::collection::vec((0u64..20, 1u64..10_000), 1..300)) {
            let mut f = FeatureExtractor::paper_default();
            let mut t = 0u64;
            for (id, size) in ids {
                t += 1;
                f.observe(&Request::new(id, size, t));
            }
            for &x in f.features().values() {
                prop_assert!(x.is_finite());
                prop_assert!(x >= 0.0);
            }
        }

        /// Higher-order IATs/SDs dominate lower orders (they span more gaps).
        #[test]
        fn orders_are_monotone(nreq in 50usize..300) {
            let mut f = FeatureExtractor::paper_default();
            // Round-robin over 5 objects at fixed cadence.
            for i in 0..nreq {
                f.observe(&Request::new((i % 5) as u64, 100, i as u64 * 10));
            }
            let v = f.features();
            for k in 1..7 {
                if v.get(1 + k) > 0.0 {
                    prop_assert!(v.get(1 + k) >= v.get(k), "iat order {} < order {}", k + 1, k);
                }
                if v.get(8 + k) > 0.0 {
                    prop_assert!(v.get(8 + k) >= v.get(7 + k), "sd order {} < order {}", k + 1, k);
                }
            }
        }
    }
}
