//! HOC admission policies.
//!
//! Darwin's *experts* are threshold admission policies (§4): an expert
//! characterized by a tuple (f, s) "promotes to HOC all objects that occur
//! more than f times and … of size lesser than s". §6's extension experiments
//! add a third *recency* knob. [`ThresholdPolicy`] implements all three knobs;
//! [`ProbabilisticSizePolicy`] is AdaptSize's size-only coin flip. A cache
//! server holds one of the two by value, as an [`Admission`].

use darwin_ckpt::{CkptError, Dec, Enc};
use darwin_trace::ObjectId;
use serde::{Deserialize, Serialize};

/// Everything an admission policy may inspect about the candidate object at
/// decision time. Assembled by the cache server on each non-HOC-hit request.
#[derive(Debug, Clone, Copy)]
pub struct ObjectView {
    /// Object being considered for HOC admission.
    pub id: ObjectId,
    /// Object size in bytes.
    pub size: u64,
    /// Number of requests for this object so far, *including* the current
    /// one (from the server's per-object table; "a particular value of f
    /// implies that an object is let into the HOC upon the (1+f)-th request").
    pub frequency: u32,
    /// Microseconds since the previous request for this object, or `None` if
    /// this is its first observed request.
    pub recency_us: Option<u64>,
    /// Current request timestamp in microseconds.
    pub now_us: u64,
}

/// The HOC admission policy a cache server holds: decides whether a
/// non-resident object is promoted into the HOC on this request.
#[derive(Debug, Clone)]
pub enum Admission {
    /// A Darwin expert.
    Threshold(ThresholdPolicy),
    /// The AdaptSize baseline's probabilistic size admission.
    ProbabilisticSize(ProbabilisticSizePolicy),
}

impl Admission {
    /// Returns true to admit the object into the HOC.
    #[inline]
    pub fn admit(&mut self, view: &ObjectView) -> bool {
        match self {
            Admission::Threshold(p) => p.admit(view),
            Admission::ProbabilisticSize(p) => p.admit(view),
        }
    }
}

impl From<ThresholdPolicy> for Admission {
    fn from(p: ThresholdPolicy) -> Self {
        Admission::Threshold(p)
    }
}

/// The Darwin expert policy: admit iff the object has been requested strictly
/// more than `freq_threshold` times (so the (1+f)-th request admits), its
/// size is at most `size_threshold` bytes, and — when the recency knob is
/// active — it was last requested within `max_recency_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ThresholdPolicy {
    /// Frequency threshold f: admit on the (1+f)-th request.
    pub freq_threshold: u32,
    /// Size threshold s in bytes: admit only objects of size ≤ s.
    pub size_threshold: u64,
    /// Optional recency threshold r in microseconds: admit only objects whose
    /// previous request was at most r ago. `None` disables the knob.
    pub max_recency_us: Option<u64>,
}

impl ThresholdPolicy {
    /// Two-knob expert (f, s).
    pub fn new(freq_threshold: u32, size_threshold: u64) -> Self {
        Self { freq_threshold, size_threshold, max_recency_us: None }
    }

    /// Three-knob expert (f, s, r).
    pub fn with_recency(freq_threshold: u32, size_threshold: u64, max_recency_us: u64) -> Self {
        Self { freq_threshold, size_threshold, max_recency_us: Some(max_recency_us) }
    }

    /// Serializes the expert's three knobs.
    pub fn encode_state(&self, enc: &mut Enc) {
        enc.u32(self.freq_threshold);
        enc.u64(self.size_threshold);
        enc.opt(self.max_recency_us.as_ref(), |e, &r| e.u64(r));
    }

    /// Reads knobs written by [`ThresholdPolicy::encode_state`].
    pub fn decode_state(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        Ok(Self {
            freq_threshold: dec.u32()?,
            size_threshold: dec.u64()?,
            max_recency_us: dec.opt(|d| d.u64())?,
        })
    }

    /// Returns true to admit the object into the HOC.
    #[inline]
    pub fn admit(&self, view: &ObjectView) -> bool {
        if view.frequency <= self.freq_threshold {
            return false;
        }
        if view.size > self.size_threshold {
            return false;
        }
        if let Some(max_r) = self.max_recency_us {
            match view.recency_us {
                Some(r) if r <= max_r => {}
                // First sighting has no recency; with the knob active we
                // require an observed recent re-request.
                _ => return false,
            }
        }
        true
    }

    /// Label like `f2s100` (KB), or `f2s100r5` (seconds) with the recency
    /// knob.
    pub fn label(&self) -> String {
        match self.max_recency_us {
            Some(r) => {
                format!("f{}s{}r{}", self.freq_threshold, self.size_threshold / 1024, r / 1_000_000)
            }
            None => format!("f{}s{}", self.freq_threshold, self.size_threshold / 1024),
        }
    }
}

/// AdaptSize-style probabilistic size admission: admit with probability
/// `exp(-size / c)`. The AdaptSize baseline re-tunes `c` online; this type
/// only implements the per-request decision.
#[derive(Debug, Clone)]
pub struct ProbabilisticSizePolicy {
    /// The size parameter c in bytes.
    pub c: f64,
    rng_state: u64,
}

impl ProbabilisticSizePolicy {
    /// Policy with parameter `c` (bytes) and a deterministic RNG seed.
    pub fn new(c: f64, seed: u64) -> Self {
        assert!(c > 0.0, "c must be positive");
        Self { c, rng_state: seed.max(1) }
    }

    fn next_uniform(&mut self) -> f64 {
        // xorshift64*: adequate for admission coin flips, dependency-free.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Flips the admission coin: true with probability `exp(-size / c)`.
    pub fn admit(&mut self, view: &ObjectView) -> bool {
        let p = (-(view.size as f64) / self.c).exp();
        self.next_uniform() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(size: u64, freq: u32, recency: Option<u64>) -> ObjectView {
        ObjectView { id: 1, size, frequency: freq, recency_us: recency, now_us: 1_000_000 }
    }

    #[test]
    fn threshold_requires_strictly_more_than_f() {
        let p = ThresholdPolicy::new(2, 1000);
        assert!(!p.admit(&view(10, 1, None)));
        assert!(!p.admit(&view(10, 2, None)), "f=2 must reject the 2nd request");
        assert!(p.admit(&view(10, 3, None)), "f=2 admits on the 3rd request");
    }

    #[test]
    fn threshold_size_is_inclusive() {
        let p = ThresholdPolicy::new(0, 1000);
        assert!(p.admit(&view(1000, 1, None)));
        assert!(!p.admit(&view(1001, 1, None)));
    }

    #[test]
    fn recency_knob_gates_admission() {
        let p = ThresholdPolicy::with_recency(0, 1000, 500);
        assert!(p.admit(&view(10, 2, Some(400))));
        assert!(!p.admit(&view(10, 2, Some(501))));
        assert!(!p.admit(&view(10, 2, None)), "first sighting has no recency");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ThresholdPolicy::new(3, 20 * 1024).label(), "f3s20");
        assert_eq!(ThresholdPolicy::with_recency(3, 20 * 1024, 5_000_000).label(), "f3s20r5");
    }

    #[test]
    fn always_and_never() {
        assert!(ThresholdPolicy::new(0, u64::MAX).admit(&view(u64::MAX, 1, None)));
        assert!(!ThresholdPolicy::new(u32::MAX, 0).admit(&view(1, u32::MAX, Some(1))));
    }

    #[test]
    fn admission_dispatches_to_its_policy() {
        let mut t = Admission::from(ThresholdPolicy::new(2, 1000));
        assert!(!t.admit(&view(10, 2, None)));
        assert!(t.admit(&view(10, 3, None)));
        let mut alone = ProbabilisticSizePolicy::new(5_000.0, 3);
        let mut held = Admission::ProbabilisticSize(alone.clone());
        for size in [100, 5_000, 50_000] {
            assert_eq!(held.admit(&view(size, 1, None)), alone.admit(&view(size, 1, None)));
        }
    }

    #[test]
    fn probabilistic_size_small_usually_admitted_large_usually_not() {
        let mut p = ProbabilisticSizePolicy::new(10_000.0, 7);
        let small_admits = (0..1000).filter(|_| p.admit(&view(100, 1, None))).count();
        let large_admits = (0..1000).filter(|_| p.admit(&view(100_000, 1, None))).count();
        assert!(small_admits > 950, "small objects admitted only {small_admits}/1000");
        assert!(large_admits < 50, "large objects admitted {large_admits}/1000");
    }

    #[test]
    fn probabilistic_admission_rate_tracks_exponential() {
        // P(admit) at size = c must be ≈ e^{-1} ≈ 0.368.
        let mut p = ProbabilisticSizePolicy::new(5_000.0, 11);
        let admits = (0..20_000).filter(|_| p.admit(&view(5_000, 1, None))).count();
        let rate = admits as f64 / 20_000.0;
        assert!((rate - (-1.0f64).exp()).abs() < 0.02, "rate {rate}");
    }
}
