//! The side-information matrix and a synthetic Gaussian environment.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The side-information matrix Σ of §4.2: `sigma2[i][j]` is the variance of
/// the (possibly fictitious) reward sample observed for arm `j` when arm `i`
/// is deployed. Diagonal entries are the real-measurement variances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SideInfo {
    sigma2: Vec<Vec<f64>>,
}

impl SideInfo {
    /// Wraps a full variance matrix.
    ///
    /// # Panics
    /// Panics unless the matrix is square with strictly positive entries.
    pub fn new(sigma2: Vec<Vec<f64>>) -> Self {
        let k = sigma2.len();
        assert!(k > 0, "at least one arm required");
        assert!(sigma2.iter().all(|row| row.len() == k), "matrix must be square");
        assert!(
            sigma2.iter().flatten().all(|&v| v > 0.0 && v.is_finite()),
            "variances must be positive and finite"
        );
        Self { sigma2 }
    }

    /// All variances equal (`σ²`): side information as informative as direct
    /// observation — the full-feedback extreme.
    pub fn uniform(k: usize, sigma: f64) -> Self {
        Self::new(vec![vec![sigma * sigma; k]; k])
    }

    /// Diagonal variance `σ²_own`, off-diagonal `σ²_cross` — the typical
    /// Darwin case where fictitious samples are noisier than real ones.
    pub fn two_level(k: usize, sigma_own: f64, sigma_cross: f64) -> Self {
        let mut m = vec![vec![sigma_cross * sigma_cross; k]; k];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = sigma_own * sigma_own;
        }
        Self::new(m)
    }

    /// Number of arms.
    pub fn k(&self) -> usize {
        self.sigma2.len()
    }

    /// Variance of arm `j`'s sample when arm `i` is deployed.
    pub fn var(&self, deployed: usize, observed: usize) -> f64 {
        self.sigma2[deployed][observed]
    }

    /// Smallest variance in the matrix (σ²_min of Theorem 1).
    pub fn sigma2_min(&self) -> f64 {
        self.sigma2.iter().flatten().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest variance in the matrix (σ²_max of Theorem 1).
    pub fn sigma2_max(&self) -> f64 {
        self.sigma2.iter().flatten().copied().fold(0.0, f64::max)
    }

    /// The conditioning ratio κ = σ²_min / σ²_max ∈ (0, 1].
    pub fn kappa(&self) -> f64 {
        self.sigma2_min() / self.sigma2_max()
    }

    /// Serializes the variance matrix row by row, bit-exactly.
    pub fn encode_state(&self, enc: &mut darwin_ckpt::Enc) {
        enc.seq(&self.sigma2, |e, row| e.seq(row, |e, &v| e.f64(v)));
    }

    /// Rebuilds side information from bytes written by
    /// [`SideInfo::encode_state`], re-validating squareness and positivity.
    pub fn decode_state(dec: &mut darwin_ckpt::Dec<'_>) -> Result<Self, darwin_ckpt::CkptError> {
        let sigma2: Vec<Vec<f64>> = dec.seq(8, |d| d.seq(8, |d| d.f64()))?;
        let k = sigma2.len();
        if k == 0
            || sigma2.iter().any(|row| row.len() != k)
            || sigma2.iter().flatten().any(|&v| v <= 0.0 || !v.is_finite())
        {
            return Err(darwin_ckpt::CkptError::Malformed("invalid side-info matrix".into()));
        }
        Ok(Self { sigma2 })
    }
}

/// A synthetic environment with Gaussian rewards and side information, used
/// by the theory experiments (stopping-time scaling, soundness checks).
#[derive(Debug, Clone)]
pub struct GaussianEnv {
    mu: Vec<f64>,
    sigma: SideInfo,
    rng: SmallRng,
}

impl GaussianEnv {
    /// Environment with mean vector `mu` and side information `sigma`.
    pub fn new(mu: Vec<f64>, sigma: SideInfo, seed: u64) -> Self {
        assert_eq!(mu.len(), sigma.k(), "mu/sigma dimension mismatch");
        Self { mu, sigma, rng: SmallRng::seed_from_u64(seed) }
    }

    /// Number of arms.
    pub fn k(&self) -> usize {
        self.mu.len()
    }

    /// True mean rewards.
    pub fn mu(&self) -> &[f64] {
        &self.mu
    }

    /// Index of the true best arm.
    pub fn best_arm(&self) -> usize {
        self.mu.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).map(|(i, _)| i).unwrap()
    }

    /// Deploys arm `i` for one round, returning the full reward vector
    /// (real sample for `i`, fictitious samples for the rest).
    pub fn pull(&mut self, deployed: usize) -> Vec<f64> {
        (0..self.mu.len())
            .map(|j| {
                let z: f64 = self.rng.sample(rand_distr::StandardNormal);
                self.mu[j] + self.sigma.var(deployed, j).sqrt() * z
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_side_info_constants() {
        let s = SideInfo::uniform(4, 0.1);
        assert_eq!(s.k(), 4);
        assert!((s.sigma2_min() - 0.01).abs() < 1e-12);
        assert!((s.kappa() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_level_diagonal_differs() {
        let s = SideInfo::two_level(3, 0.1, 0.3);
        assert!((s.var(0, 0) - 0.01).abs() < 1e-12);
        assert!((s.var(0, 1) - 0.09).abs() < 1e-12);
        assert!((s.kappa() - 0.01 / 0.09).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_ragged_matrix() {
        SideInfo::new(vec![vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_variance() {
        SideInfo::new(vec![vec![0.0]]);
    }

    #[test]
    fn env_samples_have_right_mean_and_variance() {
        let mu = vec![1.0, -2.0];
        let s = SideInfo::two_level(2, 0.5, 1.5);
        let mut env = GaussianEnv::new(mu, s, 3);
        let n = 20_000;
        let mut sums = [0.0f64; 2];
        let mut sqs = [0.0f64; 2];
        for _ in 0..n {
            let y = env.pull(0);
            for j in 0..2 {
                sums[j] += y[j];
                sqs[j] += y[j] * y[j];
            }
        }
        let mean0 = sums[0] / n as f64;
        let mean1 = sums[1] / n as f64;
        assert!((mean0 - 1.0).abs() < 0.02, "mean0 {mean0}");
        assert!((mean1 + 2.0).abs() < 0.05, "mean1 {mean1}");
        let var0 = sqs[0] / n as f64 - mean0 * mean0;
        let var1 = sqs[1] / n as f64 - mean1 * mean1;
        assert!((var0 - 0.25).abs() < 0.02, "var0 {var0}");
        assert!((var1 - 2.25).abs() < 0.15, "var1 {var1}");
    }

    #[test]
    fn best_arm_is_argmax() {
        let env = GaussianEnv::new(vec![0.1, 0.9, 0.5], SideInfo::uniform(3, 1.0), 1);
        assert_eq!(env.best_arm(), 1);
    }
}
