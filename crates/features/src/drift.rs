//! Traffic-drift detection — an extension beyond the paper.
//!
//! Darwin's epochs have fixed length `N_e`; a mix shift *inside* an epoch is
//! only corrected at the next epoch boundary. This detector watches cheap
//! rolling statistics (mean request size and the bucketized size
//! distribution — the same §4.1 histogram the prototype already keeps) and
//! signals when the live traffic has moved away from the reference captured
//! at warm-up, so a controller can restart feature estimation early.
//!
//! The signal is the L1 distance between bucket-fraction vectors plus the
//! relative change in mean size; both are scale-free, so one threshold works
//! across traffic classes.

use crate::sizedist::SizeDistribution;
use darwin_ckpt::{CkptError, Dec, Enc};
use darwin_trace::Request;

/// A snapshot of the cheap distributional statistics of a request chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSnapshot {
    fractions: Vec<f64>,
    mean_size: f64,
}

impl TrafficSnapshot {
    fn from_dist(dist: &SizeDistribution) -> Self {
        Self { fractions: dist.fractions(), mean_size: dist.mean_size() }
    }

    /// Scale-free distance to another snapshot: L1 over bucket fractions
    /// (∈ [0, 2]). Mean size is deliberately *not* part of the distance —
    /// CDN size distributions are heavy-tailed, so a chunk's mean jumps with
    /// a single giant object; the bucket fractions encode persistent size
    /// shifts without that noise.
    pub fn distance(&self, other: &TrafficSnapshot) -> f64 {
        assert_eq!(self.fractions.len(), other.fractions.len(), "bucket mismatch");
        self.fractions.iter().zip(&other.fractions).map(|(a, b)| (a - b).abs()).sum()
    }

    /// Mean request size of the chunk (reporting only).
    pub fn mean_size(&self) -> f64 {
        self.mean_size
    }

    fn encode_state(&self, enc: &mut Enc) {
        enc.seq(&self.fractions, |e, &v| e.f64(v));
        enc.f64(self.mean_size);
    }

    fn decode_state(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        Ok(Self { fractions: dec.seq(8, |d| d.f64())?, mean_size: dec.f64()? })
    }
}

/// Streaming drift detector over fixed-size request chunks.
///
/// ```
/// use darwin_features::DriftDetector;
/// use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};
///
/// let mut detector = DriftDetector::new(1_000, 0.4);
/// // Reference phase: image-heavy traffic.
/// let a = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 1).generate(5_000);
/// assert!(a.iter().all(|r| !detector.observe(r)));
/// // Shift to download-heavy traffic: detected within a few chunks.
/// let b = TraceGenerator::new(MixSpec::single(TrafficClass::download()), 2).generate(5_000);
/// assert!(b.iter().any(|r| detector.observe(r)));
/// ```
#[derive(Debug, Clone)]
pub struct DriftDetector {
    chunk_requests: usize,
    threshold: f64,
    /// Consecutive over-threshold chunks required before signaling; absorbs
    /// single-chunk sampling noise (default 2).
    consecutive_required: usize,
    consecutive_over: usize,
    reference: Option<TrafficSnapshot>,
    current: SizeDistribution,
    seen_in_chunk: usize,
    last_distance: f64,
}

impl DriftDetector {
    /// Detector with `chunk_requests` per comparison window and a drift
    /// `threshold` on [`TrafficSnapshot::distance`] (sensible range
    /// 0.2–0.8; smaller = more sensitive).
    pub fn new(chunk_requests: usize, threshold: f64) -> Self {
        assert!(chunk_requests > 0, "chunk must be positive");
        assert!(threshold > 0.0, "threshold must be positive");
        Self {
            chunk_requests,
            threshold,
            consecutive_required: 2,
            consecutive_over: 0,
            reference: None,
            current: SizeDistribution::paper_default(),
            seen_in_chunk: 0,
            last_distance: 0.0,
        }
    }

    /// Overrides how many consecutive over-threshold chunks are required
    /// before drift is signaled (≥ 1; default 2).
    pub fn with_consecutive(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one chunk required");
        self.consecutive_required = n;
        self
    }

    /// Clears everything, including the reference (a new epoch).
    pub fn reset(&mut self) {
        self.reference = None;
        self.current.clear();
        self.seen_in_chunk = 0;
        self.last_distance = 0.0;
        self.consecutive_over = 0;
    }

    /// Distance measured at the last completed chunk.
    pub fn last_distance(&self) -> f64 {
        self.last_distance
    }

    /// Whether a reference snapshot has been locked.
    pub fn has_reference(&self) -> bool {
        self.reference.is_some()
    }

    /// Serializes the detector's configuration and rolling state.
    pub fn encode_state(&self, enc: &mut Enc) {
        enc.usize(self.chunk_requests);
        enc.f64(self.threshold);
        enc.usize(self.consecutive_required);
        enc.usize(self.consecutive_over);
        enc.opt(self.reference.as_ref(), |e, r| r.encode_state(e));
        self.current.encode_state(enc);
        enc.usize(self.seen_in_chunk);
        enc.f64(self.last_distance);
    }

    /// Rebuilds a detector from bytes written by
    /// [`DriftDetector::encode_state`].
    pub fn decode_state(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        let chunk_requests = dec.usize()?;
        let threshold = dec.f64()?;
        let consecutive_required = dec.usize()?;
        let consecutive_over = dec.usize()?;
        let reference = dec.opt(TrafficSnapshot::decode_state)?;
        let current = SizeDistribution::decode_state(dec)?;
        let seen_in_chunk = dec.usize()?;
        let last_distance = dec.f64()?;
        if chunk_requests == 0 || !threshold.is_finite() || threshold <= 0.0 || consecutive_required == 0
        {
            return Err(CkptError::Malformed("invalid drift-detector parameters".into()));
        }
        if let Some(r) = &reference {
            if r.fractions.len() != current.num_buckets() {
                return Err(CkptError::Malformed("drift reference bucket mismatch".into()));
            }
        }
        Ok(Self {
            chunk_requests,
            threshold,
            consecutive_required,
            consecutive_over,
            reference,
            current,
            seen_in_chunk,
            last_distance,
        })
    }

    /// Feeds one request. Returns `true` when a completed chunk deviates
    /// from the reference by more than the threshold (drift!). The first
    /// completed chunk becomes the reference.
    pub fn observe(&mut self, req: &Request) -> bool {
        self.current.observe(req.size);
        self.seen_in_chunk += 1;
        if self.seen_in_chunk < self.chunk_requests {
            return false;
        }
        let snapshot = TrafficSnapshot::from_dist(&self.current);
        self.current.clear();
        self.seen_in_chunk = 0;
        match &self.reference {
            None => {
                self.reference = Some(snapshot);
                false
            }
            Some(reference) => {
                self.last_distance = snapshot.distance(reference);
                if self.last_distance > self.threshold {
                    self.consecutive_over += 1;
                } else {
                    self.consecutive_over = 0;
                }
                self.consecutive_over >= self.consecutive_required
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};

    fn feed(detector: &mut DriftDetector, share: f64, n: usize, seed: u64) -> bool {
        let mix = MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), share);
        let trace = TraceGenerator::new(mix, seed).generate(n);
        let mut drifted = false;
        for r in &trace {
            drifted |= detector.observe(r);
        }
        drifted
    }

    #[test]
    fn stationary_traffic_never_drifts() {
        let mut d = DriftDetector::new(1_000, 0.4);
        assert!(!feed(&mut d, 0.5, 20_000, 1), "stationary traffic flagged as drift");
        assert!(d.last_distance() < 0.4);
    }

    #[test]
    fn strong_mix_shift_is_detected() {
        let mut d = DriftDetector::new(1_000, 0.4);
        assert!(!feed(&mut d, 0.95, 5_000, 2), "reference phase must not drift");
        assert!(feed(&mut d, 0.05, 5_000, 3), "image→download shift not detected");
    }

    #[test]
    fn reset_forgets_reference() {
        let mut d = DriftDetector::new(500, 0.4);
        feed(&mut d, 0.9, 2_000, 4);
        assert!(d.has_reference());
        d.reset();
        assert!(!d.has_reference());
        // After reset the new phase becomes its own reference: no drift.
        assert!(!feed(&mut d, 0.1, 5_000, 5));
    }

    #[test]
    fn snapshot_distance_is_symmetric_and_zero_on_self() {
        let mut a = SizeDistribution::paper_default();
        let mut b = SizeDistribution::paper_default();
        for s in [1_000u64, 30_000, 700_000] {
            a.observe(s);
        }
        for s in [5_000u64, 90_000] {
            b.observe(s);
        }
        let sa = TrafficSnapshot::from_dist(&a);
        let sb = TrafficSnapshot::from_dist(&b);
        assert_eq!(sa.distance(&sa), 0.0);
        assert!((sa.distance(&sb) - sb.distance(&sa)).abs() < 1e-12);
        assert!(sa.distance(&sb) > 0.0);
    }

    #[test]
    fn codec_roundtrip_mid_chunk_resumes_identically() {
        let mut original = DriftDetector::new(700, 0.4);
        feed(&mut original, 0.9, 3_000, 8); // reference locked, mid-chunk state
        let mut enc = darwin_ckpt::Enc::new();
        original.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = darwin_ckpt::Dec::new(&bytes);
        let mut restored = DriftDetector::decode_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(restored.has_reference(), original.has_reference());
        assert_eq!(restored.last_distance(), original.last_distance());
        // Both fire (or not) on the same future request stream.
        let mix = MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.05);
        let trace = TraceGenerator::new(mix, 9).generate(5_000);
        for r in &trace {
            assert_eq!(original.observe(r), restored.observe(r));
        }
    }

    #[test]
    fn threshold_controls_sensitivity() {
        // A mild shift: strict threshold fires, loose one does not.
        let mut strict = DriftDetector::new(1_000, 0.05);
        feed(&mut strict, 0.6, 4_000, 6);
        let strict_fired = feed(&mut strict, 0.4, 6_000, 7);

        let mut loose = DriftDetector::new(1_000, 1.5);
        feed(&mut loose, 0.6, 4_000, 6);
        let loose_fired = feed(&mut loose, 0.4, 6_000, 7);

        assert!(strict_fired, "strict detector missed the mild shift");
        assert!(!loose_fired, "loose detector fired on a mild shift");
    }
}
