//! Track and Stop with Side Information (Algorithm 1).
//!
//! The driver loop alternates [`TrackAndStopSideInfo::next_arm`] (line 5:
//! deploy the most under-deployed arm w.r.t. the current optimal proportions
//! `α*(μ̂_t, Σ)`) and [`TrackAndStopSideInfo::observe`] (lines 6–9: ingest the
//! reward vector, update the weighted estimates of Eq 1, recompute the
//! information level `Z_t = Φ(μ̂_t, T(t))` and test it against the stopping
//! threshold `β_t(δ, Σ)`).
//!
//! Two thresholds are provided:
//!
//! * [`BetaRule::GarivierKaufmann`] — the standard practical GLRT threshold
//!   `β = ln((1 + ln t)·(K−1)/δ)`; this is what the end-to-end system runs.
//! * [`BetaRule::Theorem1`] — the paper's Theorem 1 form
//!   `β_t = Kt/(2κ) + K·M²/(2σ²_min·κ·√C)·√(t·ln(2/δ))`, with its
//!   conservative constants; used by the theory experiments.
//!
//! In addition, the *stability criterion* used in the paper's evaluation
//! ("an expert is consistently selected by the bandit for 5 consecutive
//! rounds", §6.2 / Fig 5d) can be enabled so identification terminates in
//! practical time even when the threshold rule is conservative.

use crate::env::SideInfo;
use crate::estimator::WeightedEstimator;
use crate::oracle;
use darwin_ckpt::{CkptError, Dec, Enc};
use serde::{Deserialize, Serialize};

/// Stopping-threshold rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BetaRule {
    /// `β(t, δ) = ln((1 + ln t) · (K − 1) / δ)` — standard practical choice.
    GarivierKaufmann,
    /// Theorem 1's threshold with constant `C` (the paper leaves `C`
    /// unspecified; larger `C` is more aggressive).
    Theorem1 {
        /// The constant C in Theorem 1.
        c: f64,
    },
}

/// Why identification ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// Information level crossed the threshold (`Z_t ≥ β_t`).
    Threshold,
    /// The same arm was empirically best for the configured number of
    /// consecutive rounds (the paper's §6.2 practical criterion).
    Stability,
    /// The round budget ran out; the recommendation is best-effort.
    Budget,
}

/// Configuration for [`TrackAndStopSideInfo`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TasConfig {
    /// Threshold rule for the `Z_t ≥ β_t` stopping test.
    pub beta: BetaRule,
    /// If `Some(r)`, also stop when the empirical best arm is unchanged for
    /// `r` consecutive rounds (after every arm was initialized).
    pub stability_rounds: Option<usize>,
    /// Hard budget on rounds (0 = unlimited).
    pub max_rounds: usize,
    /// Iterations for the α* optimizer.
    pub alpha_iters: usize,
    /// Reward bound `M` of Theorem 1 (hit rates ⇒ 1).
    pub reward_bound_m: f64,
    /// Enable classical forced exploration (play any arm with
    /// `T_i < √t − K/2`). Unnecessary with genuine side information — every
    /// round updates every arm — but required by the classical baseline.
    pub forced_exploration: bool,
}

impl Default for TasConfig {
    fn default() -> Self {
        Self {
            beta: BetaRule::GarivierKaufmann,
            stability_rounds: Some(5),
            max_rounds: 100_000,
            alpha_iters: 150,
            reward_bound_m: 1.0,
            forced_exploration: false,
        }
    }
}

/// Algorithm 1: Track and Stop with Side Information.
#[derive(Debug, Clone)]
pub struct TrackAndStopSideInfo {
    sigma: SideInfo,
    delta: f64,
    cfg: TasConfig,
    est: WeightedEstimator,
    counts: Vec<f64>,
    t: usize,
    finished: bool,
    stop_reason: Option<StopReason>,
    last_best: Option<usize>,
    consec_best: usize,
    pending_arm: Option<usize>,
}

impl TrackAndStopSideInfo {
    /// New identification run with failure probability `delta`.
    pub fn new(sigma: SideInfo, delta: f64, cfg: TasConfig) -> Self {
        assert!((0.0..1.0).contains(&delta) && delta > 0.0, "delta must be in (0,1)");
        let k = sigma.k();
        let est = WeightedEstimator::new(sigma.clone());
        let mut s = Self {
            sigma,
            delta,
            cfg,
            est,
            counts: vec![0.0; k],
            t: 0,
            finished: false,
            stop_reason: None,
            last_best: None,
            consec_best: 0,
            pending_arm: None,
        };
        if k == 1 {
            // Nothing to identify.
            s.finished = true;
            s.stop_reason = Some(StopReason::Threshold);
        }
        s
    }

    /// Number of arms.
    pub fn k(&self) -> usize {
        self.counts.len()
    }

    /// Rounds completed.
    pub fn rounds(&self) -> usize {
        self.t
    }

    /// Whether identification has terminated.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Why it terminated (None while running).
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop_reason
    }

    /// Current mean estimates μ̂(t).
    pub fn means(&self) -> Vec<f64> {
        self.est.means()
    }

    /// Deployment counts T(t).
    pub fn deployment_counts(&self) -> &[f64] {
        &self.counts
    }

    /// The recommendation rule ψ: the empirically best arm.
    pub fn recommend(&self) -> usize {
        self.est.best_arm()
    }

    /// Current information level `Z_t = Φ(μ̂_t, T(t))`.
    pub fn information_level(&self) -> f64 {
        if self.t == 0 {
            return 0.0;
        }
        oracle::phi(&self.est.means(), &self.counts, &self.sigma)
    }

    /// Current stopping threshold `β_t(δ, Σ)`.
    pub fn threshold(&self) -> f64 {
        let t = self.t.max(1) as f64;
        let k = self.k() as f64;
        match self.cfg.beta {
            BetaRule::GarivierKaufmann => (((1.0 + t.ln()) * (k - 1.0).max(1.0)) / self.delta).ln(),
            BetaRule::Theorem1 { c } => {
                let kappa = self.sigma.kappa();
                let s2min = self.sigma.sigma2_min();
                let m = self.cfg.reward_bound_m;
                k * t / (2.0 * kappa)
                    + (k * m * m) / (2.0 * s2min * kappa * c.sqrt())
                        * (t * (2.0 / self.delta).ln()).sqrt()
            }
        }
    }

    /// Line 5: the arm to deploy next. Initialization plays each arm once.
    ///
    /// Idempotent until the matching [`Self::observe`] call.
    pub fn next_arm(&mut self) -> usize {
        assert!(!self.finished, "identification already finished");
        if let Some(a) = self.pending_arm {
            return a;
        }
        let k = self.k();
        let arm = if self.t < k {
            self.t // play each expert once (line 2)
        } else if self.cfg.forced_exploration && self.under_explored().is_some() {
            self.under_explored().unwrap()
        } else {
            // D-tracking: most under-deployed w.r.t. α*(μ̂_t, Σ).
            let alpha = oracle::optimal_alpha(&self.est.means(), &self.sigma, self.cfg.alpha_iters);
            let t = self.t as f64;
            (0..k)
                .max_by(|&a, &b| {
                    let da = t * alpha[a] - self.counts[a];
                    let db = t * alpha[b] - self.counts[b];
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap()
        };
        self.pending_arm = Some(arm);
        arm
    }

    fn under_explored(&self) -> Option<usize> {
        let floor = (self.t as f64).sqrt() - self.k() as f64 / 2.0;
        (0..self.k())
            .filter(|&i| self.counts[i] < floor)
            .min_by(|&a, &b| self.counts[a].partial_cmp(&self.counts[b]).unwrap())
    }

    /// Lines 6–9: ingest the reward vector observed while `arm` was deployed
    /// and run the stopping test. `arm` must be the value returned by the
    /// preceding [`Self::next_arm`].
    pub fn observe(&mut self, arm: usize, y: &[f64]) {
        assert!(!self.finished, "identification already finished");
        if let Some(p) = self.pending_arm {
            assert_eq!(p, arm, "observe() arm {arm} differs from next_arm() {p}");
        }
        self.pending_arm = None;
        self.est.observe(arm, y);
        self.counts[arm] += 1.0;
        self.t += 1;

        // Stability bookkeeping (only meaningful once every arm has played).
        let best = self.est.best_arm();
        if self.t >= self.k() {
            if self.last_best == Some(best) {
                self.consec_best += 1;
            } else {
                self.consec_best = 1;
            }
            self.last_best = Some(best);
        }

        // Stopping tests.
        if self.t >= self.k() {
            if self.information_level() >= self.threshold() {
                self.finished = true;
                self.stop_reason = Some(StopReason::Threshold);
                return;
            }
            if let Some(r) = self.cfg.stability_rounds {
                if self.consec_best >= r {
                    self.finished = true;
                    self.stop_reason = Some(StopReason::Stability);
                    return;
                }
            }
        }
        if self.cfg.max_rounds > 0 && self.t >= self.cfg.max_rounds {
            self.finished = true;
            self.stop_reason = Some(StopReason::Budget);
        }
    }

    /// Serializes the full identification state: side info, δ, config, the
    /// weighted estimator, deployment counts and every piece of stopping
    /// bookkeeping — enough to resume mid-identification bit-exactly.
    pub fn encode_state(&self, enc: &mut Enc) {
        self.sigma.encode_state(enc);
        enc.f64(self.delta);
        match self.cfg.beta {
            BetaRule::GarivierKaufmann => enc.u8(0),
            BetaRule::Theorem1 { c } => {
                enc.u8(1);
                enc.f64(c);
            }
        }
        enc.opt(self.cfg.stability_rounds.as_ref(), |e, &r| e.usize(r));
        enc.usize(self.cfg.max_rounds);
        enc.usize(self.cfg.alpha_iters);
        enc.f64(self.cfg.reward_bound_m);
        enc.bool(self.cfg.forced_exploration);
        self.est.encode_state(enc);
        enc.seq(&self.counts, |e, &v| e.f64(v));
        enc.usize(self.t);
        enc.bool(self.finished);
        enc.opt(self.stop_reason.as_ref(), |e, r| {
            e.u8(match r {
                StopReason::Threshold => 0,
                StopReason::Stability => 1,
                StopReason::Budget => 2,
            })
        });
        enc.opt(self.last_best.as_ref(), |e, &b| e.usize(b));
        enc.usize(self.consec_best);
        enc.opt(self.pending_arm.as_ref(), |e, &a| e.usize(a));
    }

    /// Rebuilds an identification run from bytes written by
    /// [`TrackAndStopSideInfo::encode_state`].
    pub fn decode_state(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        let sigma = SideInfo::decode_state(dec)?;
        let delta = dec.f64()?;
        if delta.is_nan() || delta <= 0.0 || delta >= 1.0 {
            return Err(CkptError::Malformed(format!("delta {delta} outside (0,1)")));
        }
        let beta = match dec.u8()? {
            0 => BetaRule::GarivierKaufmann,
            1 => BetaRule::Theorem1 { c: dec.f64()? },
            t => return Err(CkptError::Malformed(format!("beta rule tag {t}"))),
        };
        let cfg = TasConfig {
            beta,
            stability_rounds: dec.opt(|d| d.usize())?,
            max_rounds: dec.usize()?,
            alpha_iters: dec.usize()?,
            reward_bound_m: dec.f64()?,
            forced_exploration: dec.bool()?,
        };
        let est = WeightedEstimator::decode_state(dec)?;
        let counts = dec.seq(8, |d| d.f64())?;
        let k = sigma.k();
        if est.k() != k || counts.len() != k {
            return Err(CkptError::Malformed("arm count mismatch".into()));
        }
        let t = dec.usize()?;
        let finished = dec.bool()?;
        let stop_reason = dec.opt(|d| match d.u8()? {
            0 => Ok(StopReason::Threshold),
            1 => Ok(StopReason::Stability),
            2 => Ok(StopReason::Budget),
            t => Err(CkptError::Malformed(format!("stop reason tag {t}"))),
        })?;
        let last_best = dec.opt(|d| d.usize())?;
        let consec_best = dec.usize()?;
        let pending_arm = dec.opt(|d| d.usize())?;
        if last_best.is_some_and(|b| b >= k) || pending_arm.is_some_and(|a| a >= k) {
            return Err(CkptError::Malformed("arm index out of range".into()));
        }
        Ok(Self {
            sigma,
            delta,
            cfg,
            est,
            counts,
            t,
            finished,
            stop_reason,
            last_best,
            consec_best,
            pending_arm,
        })
    }

    /// Runs the full identification loop against a reward oracle, returning
    /// `(recommended_arm, rounds, stop_reason)`.
    pub fn run<F>(mut self, mut pull: F) -> (usize, usize, StopReason)
    where
        F: FnMut(usize) -> Vec<f64>,
    {
        while !self.finished() {
            let arm = self.next_arm();
            let y = pull(arm);
            self.observe(arm, &y);
        }
        (self.recommend(), self.rounds(), self.stop_reason.unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::GaussianEnv;

    fn run_once(mu: Vec<f64>, sigma: SideInfo, seed: u64, cfg: TasConfig) -> (usize, usize, StopReason) {
        let mut env = GaussianEnv::new(mu, sigma.clone(), seed);
        TrackAndStopSideInfo::new(sigma, 0.05, cfg).run(|arm| env.pull(arm))
    }

    #[test]
    fn identifies_clear_best_arm() {
        let sigma = SideInfo::uniform(4, 0.05);
        let (arm, rounds, _) = run_once(vec![0.8, 0.5, 0.4, 0.3], sigma, 1, TasConfig::default());
        assert_eq!(arm, 0);
        assert!(rounds < 200, "took {rounds} rounds");
    }

    #[test]
    fn soundness_over_many_seeds() {
        // With δ = 0.05 the error rate over 100 runs should be well below
        // ~3σ of a Binomial(100, 0.05): allow up to 11 errors.
        let sigma = SideInfo::two_level(3, 0.05, 0.15);
        let mu = vec![0.55, 0.50, 0.40];
        let mut errors = 0;
        for seed in 0..100 {
            let cfg = TasConfig { stability_rounds: None, ..TasConfig::default() };
            let (arm, _, _) = run_once(mu.clone(), sigma.clone(), seed, cfg);
            if arm != 0 {
                errors += 1;
            }
        }
        assert!(errors <= 11, "{errors} errors in 100 runs at δ=0.05");
    }

    #[test]
    fn harder_problems_take_longer() {
        let sigma = SideInfo::uniform(3, 0.05);
        let cfg = TasConfig { stability_rounds: None, ..TasConfig::default() };
        let mut easy_total = 0usize;
        let mut hard_total = 0usize;
        for seed in 0..10 {
            easy_total += run_once(vec![0.8, 0.4, 0.3], sigma.clone(), seed, cfg).1;
            hard_total += run_once(vec![0.52, 0.50, 0.30], sigma.clone(), seed, cfg).1;
        }
        assert!(hard_total > easy_total, "hard {hard_total} should exceed easy {easy_total}");
    }

    #[test]
    fn stability_criterion_stops_early() {
        let sigma = SideInfo::uniform(3, 0.02);
        let cfg = TasConfig { stability_rounds: Some(5), ..TasConfig::default() };
        let (arm, rounds, reason) = run_once(vec![0.7, 0.5, 0.3], sigma, 3, cfg);
        assert_eq!(arm, 0);
        assert!(rounds <= 20);
        // Either stop is fine, but with tiny noise stability usually fires.
        assert!(matches!(reason, StopReason::Stability | StopReason::Threshold));
    }

    #[test]
    fn budget_stop_reported() {
        let sigma = SideInfo::uniform(2, 5.0); // extremely noisy
        let cfg = TasConfig { max_rounds: 10, stability_rounds: None, ..TasConfig::default() };
        let (_, rounds, reason) = run_once(vec![0.501, 0.5], sigma, 4, cfg);
        assert_eq!(rounds, 10);
        assert_eq!(reason, StopReason::Budget);
    }

    #[test]
    fn initialization_plays_every_arm_once() {
        let sigma = SideInfo::uniform(5, 0.1);
        let mut tas = TrackAndStopSideInfo::new(sigma, 0.05, TasConfig::default());
        let mut played = Vec::new();
        for _ in 0..5 {
            let a = tas.next_arm();
            played.push(a);
            tas.observe(a, &[0.5, 0.4, 0.3, 0.2, 0.1]);
        }
        let mut sorted = played.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_arm_trivially_finished() {
        let tas = TrackAndStopSideInfo::new(SideInfo::uniform(1, 0.1), 0.05, TasConfig::default());
        assert!(tas.finished());
        assert_eq!(tas.recommend(), 0);
    }

    #[test]
    fn next_arm_idempotent_until_observe() {
        let sigma = SideInfo::uniform(3, 0.1);
        let mut tas = TrackAndStopSideInfo::new(sigma, 0.05, TasConfig::default());
        let a = tas.next_arm();
        assert_eq!(a, tas.next_arm());
    }

    #[test]
    #[should_panic(expected = "differs from next_arm")]
    fn observe_must_match_next_arm() {
        let sigma = SideInfo::uniform(3, 0.1);
        let mut tas = TrackAndStopSideInfo::new(sigma, 0.05, TasConfig::default());
        let _ = tas.next_arm(); // arm 0
        tas.observe(2, &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn codec_roundtrip_mid_identification_resumes_identically() {
        let sigma = SideInfo::two_level(4, 0.05, 0.12);
        let mut env = GaussianEnv::new(vec![0.6, 0.55, 0.4, 0.3], sigma.clone(), 21);
        let cfg = TasConfig { stability_rounds: None, max_rounds: 500, ..TasConfig::default() };
        let mut original = TrackAndStopSideInfo::new(sigma, 0.05, cfg);
        // Progress past initialization, stop mid-run with a pending arm.
        for _ in 0..6 {
            let a = original.next_arm();
            let y = env.pull(a);
            original.observe(a, &y);
        }
        let _ = original.next_arm(); // leave a pending (un-observed) arm

        let mut enc = Enc::new();
        original.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let mut restored = TrackAndStopSideInfo::decode_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(restored.means(), original.means());
        assert_eq!(restored.deployment_counts(), original.deployment_counts());
        assert_eq!(restored.rounds(), original.rounds());
        // Canonical encoding.
        let mut re = Enc::new();
        restored.encode_state(&mut re);
        assert_eq!(re.into_bytes(), bytes);

        // Both runs continue identically on the same reward stream.
        let mut env2 = env.clone();
        while !original.finished() {
            let a = original.next_arm();
            assert_eq!(a, restored.next_arm(), "arm choice diverged");
            let y = env2.pull(a);
            original.observe(a, &y);
            restored.observe(a, &y);
            assert_eq!(original.finished(), restored.finished());
        }
        assert_eq!(original.recommend(), restored.recommend());
        assert_eq!(original.stop_reason(), restored.stop_reason());
    }

    #[test]
    fn codec_rejects_corrupt_state() {
        let sigma = SideInfo::uniform(3, 0.1);
        let tas = TrackAndStopSideInfo::new(sigma, 0.05, TasConfig::default());
        let mut enc = Enc::new();
        tas.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        for keep in 0..bytes.len() {
            let mut dec = Dec::new(&bytes[..keep]);
            assert!(
                TrackAndStopSideInfo::decode_state(&mut dec).and_then(|_| dec.finish()).is_err(),
                "truncation to {keep} accepted"
            );
        }
    }

    #[test]
    fn theorem1_threshold_grows_linearly() {
        let sigma = SideInfo::uniform(3, 0.1);
        let cfg = TasConfig {
            beta: BetaRule::Theorem1 { c: 1.0 },
            stability_rounds: None,
            max_rounds: 50,
            ..TasConfig::default()
        };
        let mut tas = TrackAndStopSideInfo::new(sigma, 0.05, cfg);
        let _ = tas.next_arm();
        tas.observe(0, &[0.9, 0.1, 0.1]);
        let b1 = tas.threshold();
        for _ in 0..10 {
            if tas.finished() {
                break;
            }
            let a = tas.next_arm();
            tas.observe(a, &[0.9, 0.1, 0.1]);
        }
        assert!(tas.threshold() > b1);
    }

    #[test]
    fn side_info_beats_no_side_info_in_rounds() {
        // Identical problem; side info with informative off-diagonal samples
        // vs (nearly) uninformative ones. Expect fewer rounds with real side
        // information, on average.
        let mu = vec![0.6, 0.5, 0.45, 0.4];
        let cfg = TasConfig { stability_rounds: None, ..TasConfig::default() };
        let informative = SideInfo::two_level(4, 0.05, 0.08);
        let uninformative = SideInfo::two_level(4, 0.05, 3.0);
        let mut with_si = 0usize;
        let mut without_si = 0usize;
        for seed in 0..8 {
            with_si += run_once(mu.clone(), informative.clone(), seed, cfg).1;
            without_si += run_once(mu.clone(), uninformative.clone(), seed, cfg).1;
        }
        assert!(with_si < without_si, "side info {with_si} rounds ≥ weak side info {without_si}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::env::GaussianEnv;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Whatever the environment, the run terminates, the recommendation
        /// is a valid arm, and the deployment counts sum to the rounds.
        #[test]
        fn run_invariants(
            mu in proptest::collection::vec(0.0f64..1.0, 2..6),
            seed in 0u64..1000,
        ) {
            let k = mu.len();
            let sigma = SideInfo::two_level(k, 0.05, 0.12);
            let cfg = TasConfig { max_rounds: 3_000, ..TasConfig::default() };
            let mut env = GaussianEnv::new(mu, sigma.clone(), seed);
            let mut tas = TrackAndStopSideInfo::new(sigma, 0.1, cfg);
            while !tas.finished() {
                let arm = tas.next_arm();
                prop_assert!(arm < k);
                let y = env.pull(arm);
                tas.observe(arm, &y);
            }
            prop_assert!(tas.recommend() < k);
            let total: f64 = tas.deployment_counts().iter().sum();
            prop_assert_eq!(total as usize, tas.rounds());
            prop_assert!(tas.stop_reason().is_some());
        }

        /// The information level is always non-negative and the threshold
        /// positive.
        #[test]
        fn information_level_nonnegative(seed in 0u64..200) {
            let sigma = SideInfo::uniform(3, 0.1);
            let mut env = GaussianEnv::new(vec![0.6, 0.5, 0.4], sigma.clone(), seed);
            let cfg = TasConfig { max_rounds: 50, stability_rounds: None, ..TasConfig::default() };
            let mut tas = TrackAndStopSideInfo::new(sigma, 0.05, cfg);
            for _ in 0..20 {
                if tas.finished() { break; }
                let arm = tas.next_arm();
                let y = env.pull(arm);
                tas.observe(arm, &y);
                prop_assert!(tas.information_level() >= 0.0);
                prop_assert!(tas.threshold() > 0.0);
            }
        }
    }
}
