//! The variance-weighted mean estimator of Eq (1).
//!
//! Each round contributes one sample *per arm* (real for the deployed arm,
//! fictitious for the others), weighted by the inverse of its deployment-
//! dependent variance:
//!
//! ```text
//! μ̂_i(t) = (Σ_n Y_i(n) / σ²_{E_n,i}) / ρ_i(t),   ρ_i(t) = Σ_n 1 / σ²_{E_n,i}
//! ```
//!
//! This is the minimum-variance unbiased combination of the heteroscedastic
//! Gaussian samples (previously used by Atsidakou et al. for the cumulative-
//! regret version of this feedback model).

use crate::env::SideInfo;

/// Running weighted estimates `μ̂(t)` and precisions `ρ(t)` for all arms.
#[derive(Debug, Clone)]
pub struct WeightedEstimator {
    sigma: SideInfo,
    weighted_sum: Vec<f64>,
    precision: Vec<f64>,
    rounds: usize,
}

impl WeightedEstimator {
    /// Fresh estimator for the given side information.
    pub fn new(sigma: SideInfo) -> Self {
        let k = sigma.k();
        Self { sigma, weighted_sum: vec![0.0; k], precision: vec![0.0; k], rounds: 0 }
    }

    /// Number of arms.
    pub fn k(&self) -> usize {
        self.weighted_sum.len()
    }

    /// Rounds observed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Ingests one round's reward vector `y`, observed while `deployed` was
    /// the deployed arm.
    pub fn observe(&mut self, deployed: usize, y: &[f64]) {
        assert_eq!(y.len(), self.k(), "reward vector dimension mismatch");
        assert!(deployed < self.k(), "deployed arm out of range");
        for (j, &yj) in y.iter().enumerate() {
            let w = 1.0 / self.sigma.var(deployed, j);
            self.weighted_sum[j] += w * yj;
            self.precision[j] += w;
        }
        self.rounds += 1;
    }

    /// Current estimate for arm `i` (0 before any observation).
    pub fn mean(&self, i: usize) -> f64 {
        if self.precision[i] == 0.0 {
            0.0
        } else {
            self.weighted_sum[i] / self.precision[i]
        }
    }

    /// All current estimates.
    pub fn means(&self) -> Vec<f64> {
        (0..self.k()).map(|i| self.mean(i)).collect()
    }

    /// Accumulated precision ρ_i(t) for arm `i`.
    pub fn precision(&self, i: usize) -> f64 {
        self.precision[i]
    }

    /// The empirically best arm (ties broken toward the lower index).
    pub fn best_arm(&self) -> usize {
        let means = self.means();
        means.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).map(|(i, _)| i).unwrap()
    }

    /// Serializes the estimator (side info, accumulators, round count).
    pub fn encode_state(&self, enc: &mut darwin_ckpt::Enc) {
        self.sigma.encode_state(enc);
        enc.seq(&self.weighted_sum, |e, &v| e.f64(v));
        enc.seq(&self.precision, |e, &v| e.f64(v));
        enc.usize(self.rounds);
    }

    /// Rebuilds an estimator from bytes written by
    /// [`WeightedEstimator::encode_state`].
    pub fn decode_state(dec: &mut darwin_ckpt::Dec<'_>) -> Result<Self, darwin_ckpt::CkptError> {
        let sigma = SideInfo::decode_state(dec)?;
        let weighted_sum = dec.seq(8, |d| d.f64())?;
        let precision = dec.seq(8, |d| d.f64())?;
        let rounds = dec.usize()?;
        if weighted_sum.len() != sigma.k() || precision.len() != sigma.k() {
            return Err(darwin_ckpt::CkptError::Malformed(
                "estimator accumulator length mismatch".into(),
            ));
        }
        Ok(Self { sigma, weighted_sum, precision, rounds })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_observation_recovers_value() {
        let mut e = WeightedEstimator::new(SideInfo::uniform(2, 1.0));
        e.observe(0, &[0.7, 0.3]);
        assert!((e.mean(0) - 0.7).abs() < 1e-12);
        assert!((e.mean(1) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn equal_variances_give_plain_average() {
        let mut e = WeightedEstimator::new(SideInfo::uniform(1, 2.0));
        e.observe(0, &[1.0]);
        e.observe(0, &[3.0]);
        assert!((e.mean(0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn weighting_matches_closed_form() {
        // Arm 1 observed once with var 1 (deployed=1) and once with var 4
        // (deployed=0): estimate = (y1/1 + y2/4) / (1 + 1/4).
        let sigma = SideInfo::new(vec![vec![1.0, 4.0], vec![1.0, 1.0]]);
        let mut e = WeightedEstimator::new(sigma);
        e.observe(1, &[0.0, 2.0]);
        e.observe(0, &[0.0, 6.0]);
        let expect = (2.0 / 1.0 + 6.0 / 4.0) / (1.0 + 0.25);
        assert!((e.mean(1) - expect).abs() < 1e-12);
    }

    #[test]
    fn precision_accumulates_inverse_variances() {
        let sigma = SideInfo::new(vec![vec![0.5, 2.0], vec![1.0, 0.25]]);
        let mut e = WeightedEstimator::new(sigma);
        e.observe(0, &[0.0, 0.0]);
        e.observe(1, &[0.0, 0.0]);
        assert!((e.precision(0) - (2.0 + 1.0)).abs() < 1e-12);
        assert!((e.precision(1) - (0.5 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn best_arm_tracks_means() {
        let mut e = WeightedEstimator::new(SideInfo::uniform(3, 1.0));
        e.observe(0, &[0.1, 0.9, 0.5]);
        assert_eq!(e.best_arm(), 1);
    }

    #[test]
    fn unbiased_under_many_samples() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let sigma = SideInfo::two_level(2, 0.2, 0.6);
        let mut e = WeightedEstimator::new(sigma.clone());
        let mut rng = SmallRng::seed_from_u64(5);
        for t in 0..20_000 {
            let deployed = t % 2;
            let y: Vec<f64> = (0..2)
                .map(|j| {
                    let z: f64 = rng.sample(rand_distr::StandardNormal);
                    0.4 + 0.1 * j as f64 + sigma.var(deployed, j).sqrt() * z
                })
                .collect();
            e.observe(deployed, &y);
        }
        assert!((e.mean(0) - 0.4).abs() < 0.01, "mean0 {}", e.mean(0));
        assert!((e.mean(1) - 0.5).abs() < 0.01, "mean1 {}", e.mean(1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The weighted estimate is always within the range of its samples.
        #[test]
        fn estimate_within_sample_range(
            samples in proptest::collection::vec((-10.0f64..10.0, 0usize..3), 1..50)
        ) {
            let sigma = SideInfo::new(vec![
                vec![0.5, 1.0, 2.0],
                vec![1.5, 0.25, 3.0],
                vec![2.5, 1.75, 0.75],
            ]);
            let mut e = WeightedEstimator::new(sigma);
            let mut arm0 = Vec::new();
            for (y, deployed) in samples {
                e.observe(deployed, &[y, 0.0, 0.0]);
                arm0.push(y);
            }
            let lo = arm0.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = arm0.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(e.mean(0) >= lo - 1e-9 && e.mean(0) <= hi + 1e-9);
        }
    }
}
