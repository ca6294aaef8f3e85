//! Experiment scaling.
//!
//! All experiments are parameterized by a single scale factor so the same
//! harness runs as a quick laptop check (`Scale::new(1)`, the default) or
//! closer to the paper's sizes (`--scale 6` ⇒ 1.2 M-request traces and a
//! ~100 MB HOC). Lengths and capacities scale together so cache dynamics
//! (evictions per request, rounds per cache turnover, warm-up fractions)
//! stay comparable across scales.

use darwin::OnlineConfig;
use darwin_cache::CacheConfig;
use serde::{Deserialize, Serialize};

/// A scale factor and the derived experiment parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scale {
    factor: usize,
}

impl Scale {
    /// Scale `factor ≥ 1`; 1 is the laptop default.
    pub fn new(factor: usize) -> Self {
        assert!(factor >= 1, "scale factor must be ≥ 1");
        Self { factor }
    }

    /// The raw factor.
    pub fn factor(&self) -> usize {
        self.factor
    }

    /// Length of each offline training trace, in requests. Offline and
    /// online lengths are kept equal: at sub-steady-state trace lengths the
    /// optimal (f, s) depends on the horizon, so a length mismatch would
    /// train cluster sets for a different regime than the one deployed
    /// (the paper's 10 M/100 M traces are both past that regime).
    pub fn offline_trace_len(&self) -> usize {
        200_000 * self.factor
    }

    /// Length of each online test trace, in requests.
    pub fn online_trace_len(&self) -> usize {
        200_000 * self.factor
    }

    /// HOC capacity in bytes. The paper pairs a 100 MB HOC with 0.5 M-request
    /// bandit rounds — long enough for the cache state to turn over within a
    /// round (§4.2). Shrinking the traces without shrinking the cache would
    /// leave rounds dominated by inherited cache state, so capacity scales
    /// with the trace length to preserve the rounds-per-turnover ratio.
    pub fn hoc_bytes(&self) -> u64 {
        16 * 1024 * 1024 * self.factor as u64
    }

    /// DC capacity in bytes (the paper's "10 GB", scaled at the same 100:1
    /// HOC:DC ratio).
    pub fn dc_bytes(&self) -> u64 {
        self.hoc_bytes() * 100
    }

    /// Cache configuration at this scale.
    pub fn cache_config(&self) -> CacheConfig {
        CacheConfig {
            hoc_bytes: self.hoc_bytes(),
            dc_bytes: self.dc_bytes(),
            ..CacheConfig::paper_default()
        }
    }

    /// Cache configuration with capacities multiplied by `m` (the 200 MB /
    /// 500 MB studies use m = 2, 5).
    pub fn cache_config_scaled(&self, m: u64) -> CacheConfig {
        let base = self.cache_config();
        CacheConfig { hoc_bytes: base.hoc_bytes * m, dc_bytes: base.dc_bytes * m, ..base }
    }

    /// Online-phase configuration after the paper's epoch proportions:
    /// warm-up = 3 % of the epoch, as in the paper; round = 1 %, twice the
    /// paper's 0.5 % (0.5 M of 100 M), so that a round at this scale still
    /// spans a cache turnover (DESIGN.md's substitution table).
    pub fn online_config(&self) -> OnlineConfig {
        let epoch = self.online_trace_len();
        OnlineConfig {
            epoch_requests: epoch,
            warmup_requests: (epoch * 3) / 100,
            round_requests: epoch / 100,
            ..OnlineConfig::default()
        }
    }

    /// Window length for the Percentile baseline (paper: 100 K on 100 M).
    pub fn percentile_window(&self) -> usize {
        (self.online_trace_len() / 20).max(1_000)
    }

    /// Epoch length for the HillClimbing baseline (paper: 0.5 M on 100 M).
    pub fn hillclimb_window(&self) -> usize {
        (self.online_trace_len() / 50).max(500)
    }

    /// Re-tuning window for AdaptSize.
    pub fn adaptsize_window(&self) -> usize {
        (self.online_trace_len() / 20).max(1_000)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportions_follow_paper() {
        let s = Scale::new(1);
        let oc = s.online_config();
        // Warm-up ≈ 3 % of epoch; round ≈ 1 % (the paper's 0.5 %, doubled).
        let warm_frac = oc.warmup_requests as f64 / oc.epoch_requests as f64;
        let round_frac = oc.round_requests as f64 / oc.epoch_requests as f64;
        assert!((warm_frac - 0.03).abs() < 0.001);
        assert!((round_frac - 0.01).abs() < 0.001);
        // HOC:DC ratio 1:100 as in 100 MB:10 GB.
        assert_eq!(s.dc_bytes() / s.hoc_bytes(), 100);
    }

    #[test]
    fn factor_scales_trace_lengths_not_capacity() {
        let a = Scale::new(1);
        let b = Scale::new(4);
        assert_eq!(b.online_trace_len(), 4 * a.online_trace_len());
        assert_eq!(b.hoc_bytes(), 4 * a.hoc_bytes());
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn zero_factor_rejected() {
        Scale::new(0);
    }
}
