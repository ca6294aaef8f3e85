//! Online expert identification and deployment (step 2, §4.2).
//!
//! [`OnlineController`] is the "brain" driven by a cache server: after the
//! server processes each request, the controller ingests the request and the
//! server's cumulative metrics, and occasionally returns a new expert to
//! deploy. Each epoch of `Ne` requests runs three phases:
//!
//! * **Warm-up** (`N_warmup` requests): an arbitrary expert (the previous
//!   epoch's choice) serves traffic while features are estimated; at the end
//!   the cluster is looked up and its best-expert set loaded.
//! * **Identify**: Track-and-Stop with Side Information deploys experts over
//!   rounds of `N_round` requests. At each round end the deployed expert's
//!   *real* reward is computed from the metrics window, fictitious rewards
//!   for all other candidates are generated with the cross-expert
//!   predictors, and the bandit decides the next deployment or stops.
//! * **Deploy**: the identified best expert serves the rest of the epoch.
//!
//! `N_round` "is chosen to be sufficiently long such that the state of the
//! cache … sufficiently de-correlates" — the controller models the residual
//! correlation with `correlation_length` (requests per effectively
//! independent sample) when scaling the per-request Bernoulli variances of
//! §4.1 into per-round reward variances.

use crate::expert::Expert;
use crate::model::DarwinModel;
use darwin_bandit::{TasConfig, TrackAndStopSideInfo};
use darwin_cache::CacheMetrics;
use darwin_ckpt::{CkptError, Dec, Enc};
use darwin_features::{DriftDetector, FeatureExtractor, FeatureVector, SizeDistribution};
use darwin_trace::Request;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Online-phase configuration. Defaults keep the paper's proportions
/// (N_e = 100 M, N_warmup = 3 M, N_round = 0.5 M ⇒ 3 % / 0.5 %) at a
/// laptop-friendly scale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// Epoch length N_e in requests.
    pub epoch_requests: usize,
    /// Warm-up (feature estimation) length N_warmup in requests.
    pub warmup_requests: usize,
    /// Bandit round length N_round in requests.
    pub round_requests: usize,
    /// Bandit failure probability δ.
    pub delta: f64,
    /// Stability stop: rounds of unchanged empirical best (paper: 5).
    pub stability_rounds: Option<usize>,
    /// Hard cap on identification rounds per epoch (0 = none).
    pub max_identify_rounds: usize,
    /// Requests per effectively independent reward sample within a round
    /// (cache-state correlation); round variance = Bernoulli variance /
    /// (round_requests / correlation_length).
    pub correlation_length: f64,
    /// Variance floor for the side-information matrix.
    pub min_variance: f64,
    /// Iterations of the α* optimizer per round.
    pub alpha_iters: usize,
    /// Extension beyond the paper: when set, a drift detector watches the
    /// deployed phase (chunks of `round_requests`) and restarts the epoch —
    /// warm-up, cluster lookup, identification — as soon as the live size
    /// statistics deviate from the just-identified traffic by more than this
    /// threshold (see [`darwin_features::DriftDetector`]; 0.2–0.8 sensible).
    /// `None` reproduces the paper's fixed-length epochs.
    pub drift_threshold: Option<f64>,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            epoch_requests: 100_000,
            warmup_requests: 3_000,
            round_requests: 500,
            delta: 0.05,
            stability_rounds: Some(5),
            max_identify_rounds: 100,
            correlation_length: 25.0,
            min_variance: 1e-7,
            alpha_iters: 120,
            drift_threshold: None,
        }
    }
}

impl OnlineConfig {
    /// Scales all request counts by `factor` (e.g. to approach paper scale).
    pub fn scaled(&self, factor: usize) -> Self {
        Self {
            epoch_requests: self.epoch_requests * factor,
            warmup_requests: self.warmup_requests * factor,
            round_requests: self.round_requests * factor,
            ..*self
        }
    }
}

/// The controller's current phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControllerPhase {
    /// Feature estimation over the epoch's first `N_warmup` requests.
    Warmup,
    /// Bandit best-expert identification.
    Identify,
    /// Identified expert deployed for the rest of the epoch.
    Deploy,
}

/// A recorded expert switch (for reporting and the Fig 5d experiment).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchEvent {
    /// Global request index at which the switch took effect.
    pub at_request: u64,
    /// Grid index of the newly deployed expert.
    pub expert: usize,
    /// Phase that triggered the switch.
    pub phase: ControllerPhase,
}

/// A control-plane decision buffered for the serving layer's event
/// journal. Drained (not persisted) via
/// [`OnlineController::drain_control_events`]: the buffer is telemetry,
/// so it is deliberately excluded from [`OnlineController::save_state`] —
/// a restored controller resumes with an empty buffer and byte-identical
/// persisted state.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlEvent {
    /// The controller deployed a different expert.
    Switch {
        /// Grid index of the previously deployed expert.
        from: usize,
        /// Grid index of the newly deployed expert.
        to: usize,
        /// Identification rounds completed this epoch when the switch fired.
        round: usize,
        /// Space-separated per-arm posterior means at the switch (empty
        /// when no bandit was live, e.g. a singleton expert set).
        posterior: String,
    },
    /// The drift detector fired and identification restarted early.
    Drift {
        /// Drift-triggered restarts so far, including this one.
        restarts: usize,
    },
}

/// Per-epoch identification summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochSummary {
    /// Cluster the warm-up features mapped to.
    pub cluster: usize,
    /// Size of the candidate expert set.
    pub set_size: usize,
    /// Bandit rounds used for identification (0 if the set was a singleton).
    pub identify_rounds: usize,
    /// Grid index of the expert deployed for the epoch tail.
    pub chosen_expert: usize,
}

/// The online controller state machine.
pub struct OnlineController {
    model: Arc<DarwinModel>,
    cfg: OnlineConfig,
    phase: ControllerPhase,
    epoch_request: usize,
    global_request: u64,
    current_expert: usize,
    extractor: FeatureExtractor,
    epoch_start_metrics: CacheMetrics,
    // Identification state.
    extended: Option<FeatureVector>,
    size_dist: Option<SizeDistribution>,
    set: Vec<usize>,
    cluster: usize,
    tas: Option<TrackAndStopSideInfo>,
    round_start_metrics: CacheMetrics,
    round_requests_seen: usize,
    pending_arm: usize,
    rounds_this_epoch: usize,
    // Drift-restart extension.
    drift: Option<DriftDetector>,
    drift_restarts: usize,
    // Reporting.
    switches: Vec<SwitchEvent>,
    epochs: Vec<EpochSummary>,
    // Telemetry buffer for the serving layer's journal; never persisted.
    pending_events: Vec<ControlEvent>,
}

impl OnlineController {
    /// New controller; the initial expert is grid index 0 until the first
    /// identification completes (the paper lets the operator pick any).
    pub fn new(model: Arc<DarwinModel>, cfg: OnlineConfig) -> Self {
        assert!(cfg.warmup_requests > 0, "warm-up must be positive");
        assert!(cfg.round_requests > 0, "round length must be positive");
        assert!(cfg.warmup_requests < cfg.epoch_requests, "warm-up must fit inside an epoch");
        Self {
            model,
            cfg,
            phase: ControllerPhase::Warmup,
            epoch_request: 0,
            global_request: 0,
            current_expert: 0,
            extractor: FeatureExtractor::paper_default(),
            epoch_start_metrics: CacheMetrics::default(),
            extended: None,
            size_dist: None,
            set: Vec::new(),
            cluster: 0,
            tas: None,
            round_start_metrics: CacheMetrics::default(),
            round_requests_seen: 0,
            pending_arm: 0,
            rounds_this_epoch: 0,
            drift: None,
            drift_restarts: 0,
            switches: Vec::new(),
            epochs: Vec::new(),
            pending_events: Vec::new(),
        }
    }

    /// The currently deployed expert.
    pub fn current_expert(&self) -> Expert {
        self.model.grid().get(self.current_expert)
    }

    /// Grid index of the currently deployed expert.
    pub fn current_expert_index(&self) -> usize {
        self.current_expert
    }

    /// Current phase.
    pub fn phase(&self) -> ControllerPhase {
        self.phase
    }

    /// All expert switches so far.
    pub fn switches(&self) -> &[SwitchEvent] {
        &self.switches
    }

    /// The full deployed-expert sequence: the initial expert (grid index 0,
    /// deployed from request 0) followed by every switch as `(at_request,
    /// expert)` pairs. Two controllers behaved identically iff their
    /// sequences are equal — the equality the sharded fleet's determinism
    /// contract is verified against.
    pub fn expert_sequence(&self) -> Vec<(u64, usize)> {
        std::iter::once((0, 0)).chain(self.switches.iter().map(|s| (s.at_request, s.expert))).collect()
    }

    /// Completed epoch summaries.
    pub fn epochs(&self) -> &[EpochSummary] {
        &self.epochs
    }

    /// Number of drift-triggered early epoch restarts (0 unless the
    /// `drift_threshold` extension is enabled).
    pub fn drift_restarts(&self) -> usize {
        self.drift_restarts
    }

    /// Takes the control-plane decisions buffered since the last drain
    /// (expert switches with round index and posterior summary, drift
    /// detections). The serving layer maps these into its event journal;
    /// callers that never drain pay only the buffer's memory until the
    /// controller is dropped.
    pub fn drain_control_events(&mut self) -> Vec<ControlEvent> {
        std::mem::take(&mut self.pending_events)
    }

    /// Ingests one processed request and the server's *cumulative* metrics
    /// after processing it. Returns `Some(expert)` when the deployment must
    /// change (the caller installs `expert.policy` on its server).
    pub fn observe(&mut self, req: &Request, cumulative: &CacheMetrics) -> Option<Expert> {
        self.global_request += 1;
        self.epoch_request += 1;

        let change = match self.phase {
            ControllerPhase::Warmup => self.observe_warmup(req, cumulative),
            ControllerPhase::Identify => self.observe_identify(cumulative),
            ControllerPhase::Deploy => {
                if let Some(detector) = &mut self.drift {
                    if detector.observe(req) {
                        self.drift_restarts += 1;
                        self.pending_events.push(ControlEvent::Drift { restarts: self.drift_restarts });
                        self.start_new_epoch(cumulative);
                        return None;
                    }
                }
                None
            }
        };

        // Epoch rollover (any phase; unfinished identification is abandoned
        // in favour of its current recommendation).
        if self.epoch_request >= self.cfg.epoch_requests {
            self.start_new_epoch(cumulative);
        }
        change
    }

    fn observe_warmup(&mut self, req: &Request, cumulative: &CacheMetrics) -> Option<Expert> {
        self.extractor.observe(req);
        if self.epoch_request < self.cfg.warmup_requests {
            return None;
        }
        // Warm-up complete: cluster lookup and expert-set load.
        let features = self.extractor.features();
        let extended = self.extractor.extended_features();
        let size_dist = self.extractor.size_distribution().clone();
        self.cluster = self.model.lookup_cluster(&features);
        self.set = self.model.expert_set(self.cluster).to_vec();
        self.extended = Some(extended);
        self.size_dist = Some(size_dist);
        self.rounds_this_epoch = 0;

        if self.set.len() == 1 {
            let chosen = self.set[0];
            self.phase = ControllerPhase::Deploy;
            self.arm_drift_detector();
            self.epochs.push(EpochSummary {
                cluster: self.cluster,
                set_size: 1,
                identify_rounds: 0,
                chosen_expert: chosen,
            });
            return self.switch_to(chosen);
        }

        // Bootstrap Σ from the warm-up expert's observed hit rate.
        let warm_window = cumulative.diff(&self.epoch_start_metrics);
        let p_warm = warm_window.hoc_ohr();
        let extended = self.extended.as_ref().expect("set above");
        let marginals =
            self.model.bootstrap_marginals(&self.set, extended, Some((self.current_expert, p_warm)));
        let effective = (self.cfg.round_requests as f64 / self.cfg.correlation_length).max(1.0);
        let sigma =
            self.model.side_info(&self.set, extended, &marginals, effective, self.cfg.min_variance);
        let tas_cfg = TasConfig {
            stability_rounds: self.cfg.stability_rounds,
            max_rounds: self.cfg.max_identify_rounds,
            alpha_iters: self.cfg.alpha_iters,
            ..TasConfig::default()
        };
        let mut tas = TrackAndStopSideInfo::new(sigma, self.cfg.delta, tas_cfg);

        self.phase = ControllerPhase::Identify;
        if tas.finished() {
            // Degenerate single-arm case already handled; defensive.
            let chosen = self.set[tas.recommend()];
            self.tas = None;
            self.phase = ControllerPhase::Deploy;
            return self.switch_to(chosen);
        }
        let arm = tas.next_arm();
        self.pending_arm = arm;
        self.tas = Some(tas);
        self.round_start_metrics = *cumulative;
        self.round_requests_seen = 0;
        let chosen = self.set[arm];
        self.switch_to(chosen)
    }

    fn observe_identify(&mut self, cumulative: &CacheMetrics) -> Option<Expert> {
        self.round_requests_seen += 1;
        if self.round_requests_seen < self.cfg.round_requests {
            return None;
        }
        // Round complete: real reward for the deployed arm, fictitious for
        // the rest.
        let window = cumulative.diff(&self.round_start_metrics);
        let p_hat = window.hoc_ohr();
        let real_reward = self.model.objective().reward(&window);
        let extended = self.extended.as_ref().expect("identification requires features");
        let size_dist = self.size_dist.as_ref().expect("identification requires size dist");
        let deployed_global = self.set[self.pending_arm];

        let y: Vec<f64> = self
            .set
            .iter()
            .enumerate()
            .map(|(a, &j)| {
                if a == self.pending_arm {
                    real_reward
                } else {
                    let pred_hit = self.model.predict_hit_rate(deployed_global, j, p_hat, extended);
                    self.model.hit_rate_to_reward(j, pred_hit, size_dist)
                }
            })
            .collect();

        let tas = self.tas.as_mut().expect("identify phase has a bandit");
        tas.observe(self.pending_arm, &y);
        self.rounds_this_epoch += 1;

        if tas.finished() {
            let chosen = self.set[tas.recommend()];
            self.phase = ControllerPhase::Deploy;
            self.arm_drift_detector();
            self.epochs.push(EpochSummary {
                cluster: self.cluster,
                set_size: self.set.len(),
                identify_rounds: self.rounds_this_epoch,
                chosen_expert: chosen,
            });
            // Switch before dropping the bandit so the deploy switch's
            // journal event carries the final posterior.
            let change = self.switch_to(chosen);
            self.tas = None;
            return change;
        }
        let arm = tas.next_arm();
        self.pending_arm = arm;
        self.round_start_metrics = *cumulative;
        self.round_requests_seen = 0;
        let chosen = self.set[arm];
        self.switch_to(chosen)
    }

    /// Creates the drift detector when the deploy phase begins (extension;
    /// no-op with the paper's fixed epochs).
    fn arm_drift_detector(&mut self) {
        self.drift =
            self.cfg.drift_threshold.map(|t| DriftDetector::new(self.cfg.round_requests.max(1), t));
    }

    fn start_new_epoch(&mut self, cumulative: &CacheMetrics) {
        if self.phase == ControllerPhase::Identify {
            // Epoch ended mid-identification: record the best-effort choice.
            if let Some(tas) = &self.tas {
                self.epochs.push(EpochSummary {
                    cluster: self.cluster,
                    set_size: self.set.len(),
                    identify_rounds: self.rounds_this_epoch,
                    chosen_expert: self.set[tas.recommend()],
                });
            }
            self.tas = None;
        }
        self.phase = ControllerPhase::Warmup;
        self.epoch_request = 0;
        self.extractor = FeatureExtractor::paper_default();
        self.epoch_start_metrics = *cumulative;
        self.drift = None;
        // Keep the current expert through warm-up ("or one from the previous
        // epoch", §4.2).
    }

    /// Serializes the controller's dynamic state (everything except the
    /// immutable [`DarwinModel`] and [`OnlineConfig`], which the restoring
    /// side must already hold). The bytes begin with a canonical fingerprint
    /// of the config so [`OnlineController::restore_state`] can refuse a
    /// restore into a controller configured differently.
    pub fn save_state(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.bytes(&online_config_fingerprint(&self.cfg));
        enc.u8(phase_tag(self.phase));
        enc.usize(self.epoch_request);
        enc.u64(self.global_request);
        enc.usize(self.current_expert);
        self.extractor.encode_state(&mut enc);
        self.epoch_start_metrics.encode_state(&mut enc);
        enc.opt(self.extended.as_ref(), |e, v| v.encode_state(e));
        enc.opt(self.size_dist.as_ref(), |e, v| v.encode_state(e));
        enc.seq(&self.set, |e, &v| e.usize(v));
        enc.usize(self.cluster);
        enc.opt(self.tas.as_ref(), |e, t| t.encode_state(e));
        self.round_start_metrics.encode_state(&mut enc);
        enc.usize(self.round_requests_seen);
        enc.usize(self.pending_arm);
        enc.usize(self.rounds_this_epoch);
        enc.opt(self.drift.as_ref(), |e, d| d.encode_state(e));
        enc.usize(self.drift_restarts);
        enc.seq(&self.switches, |e, s| {
            e.u64(s.at_request);
            e.usize(s.expert);
            e.u8(phase_tag(s.phase));
        });
        enc.seq(&self.epochs, |e, ep| {
            e.usize(ep.cluster);
            e.usize(ep.set_size);
            e.usize(ep.identify_rounds);
            e.usize(ep.chosen_expert);
        });
        enc.into_bytes()
    }

    /// Restores the dynamic state saved by [`OnlineController::save_state`]
    /// into this controller (which must have been built with the same model
    /// and config). On error, `self` is left untouched.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let mut dec = Dec::new(bytes);
        let fp = dec.bytes()?;
        if fp != online_config_fingerprint(&self.cfg).as_slice() {
            return Err(CkptError::Malformed("online config fingerprint mismatch".into()));
        }
        let phase = phase_from_tag(dec.u8()?)?;
        let epoch_request = dec.usize()?;
        let global_request = dec.u64()?;
        let current_expert = dec.usize()?;
        let extractor = darwin_features::FeatureExtractor::decode_state(&mut dec)?;
        let epoch_start_metrics = CacheMetrics::decode_state(&mut dec)?;
        let extended = dec.opt(FeatureVector::decode_state)?;
        let size_dist = dec.opt(SizeDistribution::decode_state)?;
        let set: Vec<usize> = dec.seq(8, |d| d.usize())?;
        let cluster = dec.usize()?;
        let tas = dec.opt(TrackAndStopSideInfo::decode_state)?;
        let round_start_metrics = CacheMetrics::decode_state(&mut dec)?;
        let round_requests_seen = dec.usize()?;
        let pending_arm = dec.usize()?;
        let rounds_this_epoch = dec.usize()?;
        let drift = dec.opt(DriftDetector::decode_state)?;
        let drift_restarts = dec.usize()?;
        let switches: Vec<SwitchEvent> = dec.seq(8 + 8 + 1, |d| {
            Ok(SwitchEvent { at_request: d.u64()?, expert: d.usize()?, phase: phase_from_tag(d.u8()?)? })
        })?;
        let epochs: Vec<EpochSummary> = dec.seq(4 * 8, |d| {
            Ok(EpochSummary {
                cluster: d.usize()?,
                set_size: d.usize()?,
                identify_rounds: d.usize()?,
                chosen_expert: d.usize()?,
            })
        })?;
        dec.finish()?;

        let grid_len = self.model.grid().len();
        if current_expert >= grid_len || set.iter().any(|&j| j >= grid_len) {
            return Err(CkptError::Malformed("expert index out of grid range".into()));
        }
        if let Some(t) = &tas {
            if phase != ControllerPhase::Identify {
                return Err(CkptError::Malformed("bandit present outside Identify phase".into()));
            }
            if t.k() != set.len() || pending_arm >= set.len() {
                return Err(CkptError::Malformed("bandit arm count mismatch".into()));
            }
        } else if phase == ControllerPhase::Identify {
            return Err(CkptError::Malformed("Identify phase without a bandit".into()));
        }

        self.phase = phase;
        self.epoch_request = epoch_request;
        self.global_request = global_request;
        self.current_expert = current_expert;
        self.extractor = extractor;
        self.epoch_start_metrics = epoch_start_metrics;
        self.extended = extended;
        self.size_dist = size_dist;
        self.set = set;
        self.cluster = cluster;
        self.tas = tas;
        self.round_start_metrics = round_start_metrics;
        self.round_requests_seen = round_requests_seen;
        self.pending_arm = pending_arm;
        self.rounds_this_epoch = rounds_this_epoch;
        self.drift = drift;
        self.drift_restarts = drift_restarts;
        self.switches = switches;
        self.epochs = epochs;
        // The telemetry buffer is not part of the persisted state; a
        // restored controller starts with nothing pending.
        self.pending_events.clear();
        Ok(())
    }

    fn switch_to(&mut self, expert_idx: usize) -> Option<Expert> {
        if expert_idx == self.current_expert {
            return None;
        }
        let from = self.current_expert;
        self.current_expert = expert_idx;
        self.switches.push(SwitchEvent {
            at_request: self.global_request,
            expert: expert_idx,
            phase: self.phase,
        });
        let posterior = self.tas.as_ref().map_or_else(String::new, |tas| {
            let means = tas.means();
            let mut out = String::new();
            for (i, m) in means.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(&format!("{m:.4}"));
            }
            out
        });
        self.pending_events.push(ControlEvent::Switch {
            from,
            to: expert_idx,
            round: self.rounds_this_epoch,
            posterior,
        });
        Some(self.model.grid().get(expert_idx))
    }
}

fn phase_tag(phase: ControllerPhase) -> u8 {
    match phase {
        ControllerPhase::Warmup => 0,
        ControllerPhase::Identify => 1,
        ControllerPhase::Deploy => 2,
    }
}

fn phase_from_tag(tag: u8) -> Result<ControllerPhase, CkptError> {
    match tag {
        0 => Ok(ControllerPhase::Warmup),
        1 => Ok(ControllerPhase::Identify),
        2 => Ok(ControllerPhase::Deploy),
        other => Err(CkptError::Malformed(format!("unknown controller phase tag {other}"))),
    }
}

/// Canonical byte encoding of an [`OnlineConfig`], used to refuse restoring
/// controller state across differently-configured controllers.
fn online_config_fingerprint(cfg: &OnlineConfig) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.usize(cfg.epoch_requests);
    enc.usize(cfg.warmup_requests);
    enc.usize(cfg.round_requests);
    enc.f64(cfg.delta);
    enc.opt(cfg.stability_rounds.as_ref(), |e, &v| e.usize(v));
    enc.usize(cfg.max_identify_rounds);
    enc.f64(cfg.correlation_length);
    enc.f64(cfg.min_variance);
    enc.usize(cfg.alpha_iters);
    enc.opt(cfg.drift_threshold.as_ref(), |e, &v| e.f64(v));
    enc.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert::{Expert, ExpertGrid};
    use crate::offline::{OfflineConfig, OfflineTrainer};
    use darwin_cache::{CacheConfig, CacheServer};
    use darwin_nn::TrainConfig;
    use darwin_trace::{MixSpec, Trace, TraceGenerator, TrafficClass};

    fn small_model() -> Arc<DarwinModel> {
        let cfg = OfflineConfig {
            grid: ExpertGrid::new(vec![
                Expert::new(1, 20),
                Expert::new(1, 500),
                Expert::new(5, 20),
                Expert::new(5, 500),
            ]),
            hoc_bytes: 2 * 1024 * 1024,
            nn_train: TrainConfig { epochs: 40, ..TrainConfig::default() },
            n_clusters: 2,
            ..OfflineConfig::default()
        };
        let trainer = OfflineTrainer::new(cfg);
        let traces: Vec<Trace> = (0..4)
            .map(|i| {
                TraceGenerator::new(
                    MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), i as f64 / 3.0),
                    10 + i as u64,
                )
                .generate(10_000)
            })
            .collect();
        Arc::new(trainer.train(&traces))
    }

    fn test_cfg() -> OnlineConfig {
        OnlineConfig {
            epoch_requests: 20_000,
            warmup_requests: 1_000,
            round_requests: 300,
            ..OnlineConfig::default()
        }
    }

    fn drive(model: Arc<DarwinModel>, cfg: OnlineConfig, trace: &Trace) -> OnlineController {
        let mut ctrl = OnlineController::new(model, cfg);
        let mut server =
            CacheServer::new(CacheConfig { hoc_bytes: 2 * 1024 * 1024, ..CacheConfig::small_test() });
        server.set_policy(ctrl.current_expert().policy);
        for r in trace {
            server.process(r);
            if let Some(e) = ctrl.observe(r, &server.metrics()) {
                server.set_policy(e.policy);
            }
        }
        ctrl
    }

    #[test]
    fn progresses_through_phases() {
        let model = small_model();
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 99).generate(15_000);
        let ctrl = drive(model, test_cfg(), &trace);
        assert_eq!(ctrl.phase(), ControllerPhase::Deploy, "should reach Deploy");
        assert_eq!(ctrl.epochs().len(), 1);
        let ep = ctrl.epochs()[0];
        assert!(ep.set_size >= 1);
        assert!(ep.chosen_expert < 4);
    }

    #[test]
    fn epoch_rollover_restarts_warmup() {
        let model = small_model();
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::download()), 7).generate(45_000);
        let ctrl = drive(model, test_cfg(), &trace);
        // 45k requests / 20k epoch = at least 2 completed epochs.
        assert!(ctrl.epochs().len() >= 2, "epochs: {:?}", ctrl.epochs().len());
    }

    #[test]
    fn switches_are_recorded_in_order() {
        let model = small_model();
        let trace = TraceGenerator::new(
            MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5),
            3,
        )
        .generate(15_000);
        let ctrl = drive(model, test_cfg(), &trace);
        let s = ctrl.switches();
        assert!(s.windows(2).all(|w| w[0].at_request <= w[1].at_request));
    }

    #[test]
    fn identification_uses_bounded_rounds() {
        let model = small_model();
        let cfg = OnlineConfig { max_identify_rounds: 6, ..test_cfg() };
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 5).generate(15_000);
        let ctrl = drive(model, cfg, &trace);
        for ep in ctrl.epochs() {
            assert!(ep.identify_rounds <= 6, "rounds {}", ep.identify_rounds);
        }
    }

    #[test]
    #[should_panic(expected = "warm-up must fit inside an epoch")]
    fn rejects_warmup_longer_than_epoch() {
        let model = small_model();
        OnlineController::new(
            model,
            OnlineConfig { epoch_requests: 100, warmup_requests: 100, ..OnlineConfig::default() },
        );
    }

    #[test]
    fn controller_is_send() {
        // Per-shard controllers live on fleet worker threads; this must keep
        // compiling if OnlineController grows new state.
        fn assert_send<T: Send>() {}
        assert_send::<OnlineController>();
    }

    #[test]
    fn expert_sequence_starts_at_initial_expert() {
        let model = small_model();
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 99).generate(15_000);
        let ctrl = drive(model, test_cfg(), &trace);
        let seq = ctrl.expert_sequence();
        assert_eq!(seq[0], (0, 0));
        assert_eq!(seq.len(), ctrl.switches().len() + 1);
        for (ev, &(at, ex)) in ctrl.switches().iter().zip(&seq[1..]) {
            assert_eq!((ev.at_request, ev.expert), (at, ex));
        }
    }

    #[test]
    fn save_restore_mid_run_resumes_bitwise_identically() {
        let model = small_model();
        let cfg = test_cfg();
        let trace = TraceGenerator::new(
            MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5),
            42,
        )
        .generate(30_000);
        let requests = trace.requests();
        // Split inside the second epoch's identification window.
        let split = 21_500;

        let cache_cfg = CacheConfig { hoc_bytes: 2 * 1024 * 1024, ..CacheConfig::small_test() };
        let mut ctrl = OnlineController::new(Arc::clone(&model), cfg);
        let mut server = CacheServer::new(cache_cfg.clone());
        server.set_policy(ctrl.current_expert().policy);
        for r in &requests[..split] {
            server.process(r);
            if let Some(e) = ctrl.observe(r, &server.metrics()) {
                server.set_policy(e.policy);
            }
        }

        let saved = ctrl.save_state();
        let mut restored = OnlineController::new(Arc::clone(&model), cfg);
        restored.restore_state(&saved).unwrap();
        assert_eq!(restored.phase(), ctrl.phase());
        assert_eq!(restored.current_expert_index(), ctrl.current_expert_index());
        assert_eq!(restored.expert_sequence(), ctrl.expert_sequence());
        assert_eq!(restored.epochs(), ctrl.epochs());
        // Canonical encoding: re-saving the restored controller is bit-equal.
        assert_eq!(restored.save_state(), saved);

        // Warm-restore the cache server alongside the controller and verify
        // every decision over the tail matches the uninterrupted run.
        let mut server2 = CacheServer::restore_state(cache_cfg, &server.save_state()).unwrap();
        server2.set_policy(restored.current_expert().policy);
        for r in &requests[split..] {
            server.process(r);
            server2.process(r);
            let a = ctrl.observe(r, &server.metrics());
            let b = restored.observe(r, &server2.metrics());
            assert_eq!(
                a.as_ref().map(|e| e.policy),
                b.as_ref().map(|e| e.policy),
                "policy switch diverged"
            );
            if let Some(e) = a {
                server.set_policy(e.policy);
            }
            if let Some(e) = b {
                server2.set_policy(e.policy);
            }
        }
        assert_eq!(restored.expert_sequence(), ctrl.expert_sequence());
        assert_eq!(restored.epochs(), ctrl.epochs());
        assert_eq!(server2.metrics(), server.metrics());
    }

    #[test]
    fn restore_rejects_mismatched_config_and_corrupt_bytes() {
        let model = small_model();
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 11).generate(5_000);
        let ctrl = drive(Arc::clone(&model), test_cfg(), &trace);
        let saved = ctrl.save_state();

        // Different round length → fingerprint mismatch.
        let other_cfg = OnlineConfig { round_requests: 400, ..test_cfg() };
        let mut other = OnlineController::new(Arc::clone(&model), other_cfg);
        assert!(other.restore_state(&saved).is_err());
        // ... and the failed restore left it untouched.
        assert_eq!(other.phase(), ControllerPhase::Warmup);
        assert_eq!(other.expert_sequence(), vec![(0, 0)]);

        // Every truncation is rejected without panicking.
        let mut same = OnlineController::new(Arc::clone(&model), test_cfg());
        for keep in (0..saved.len()).step_by(97) {
            assert!(same.restore_state(&saved[..keep]).is_err(), "truncation to {keep} accepted");
        }
    }

    #[test]
    fn scaled_config_multiplies_lengths() {
        let c = OnlineConfig::default().scaled(3);
        assert_eq!(c.epoch_requests, 300_000);
        assert_eq!(c.warmup_requests, 9_000);
        assert_eq!(c.round_requests, 1_500);
    }
}
