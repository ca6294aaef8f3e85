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

/// The controller's current phase (the discriminant is its state tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControllerPhase {
    /// Feature estimation over the epoch's first `N_warmup` requests.
    Warmup = 0,
    /// Bandit best-expert identification.
    Identify = 1,
    /// Identified expert deployed for the rest of the epoch.
    Deploy = 2,
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

/// What the controller holds in each phase: the state a phase needs, and
/// nothing a finished phase left behind. Warm-up's per-object rings die at
/// warm-up's end ([`FeatureExtractor::finish`]), the bandit at
/// identification's, so neither is kept, saved nor restored past its phase.
enum Phase {
    /// The extractor's per-object rings, and the epoch's starting metrics
    /// (the warm-up expert's window bootstraps the side information).
    Warmup {
        extractor: FeatureExtractor,
        epoch_start: CacheMetrics,
    },
    Identify(Identification),
    /// The drift-restart extension's detector (`None` with fixed epochs).
    Deploy {
        drift: Option<DriftDetector>,
    },
}

/// Track-and-Stop over the warm-up cluster's expert set.
struct Identification {
    /// Warm-up features extended with the size-distribution fractions.
    features: FeatureVector,
    size_dist: SizeDistribution,
    /// Grid indices of the cluster's best-expert set (arm `a` is `set[a]`).
    set: Vec<usize>,
    cluster: usize,
    bandit: TrackAndStopSideInfo,
    /// Cumulative metrics when the current round began, its requests so
    /// far and the arm it deploys.
    round_start: CacheMetrics,
    round_seen: usize,
    pending_arm: usize,
    /// Rounds completed this epoch.
    rounds: usize,
}

impl Identification {
    /// Closes a round: the deployed arm's *real* reward from the round's
    /// metrics window, fictitious rewards for every other candidate from the
    /// cross-expert predictors. Returns true when the bandit stopped;
    /// otherwise the next round has begun with its arm in `pending_arm`.
    fn end_round(&mut self, model: &DarwinModel, cumulative: &CacheMetrics) -> bool {
        let window = cumulative.diff(&self.round_start);
        let p_hat = window.hoc_ohr();
        let real_reward = model.objective().reward(&window);
        let deployed = self.set[self.pending_arm];
        let y: Vec<f64> = self
            .set
            .iter()
            .enumerate()
            .map(|(a, &j)| {
                if a == self.pending_arm {
                    real_reward
                } else {
                    let pred_hit = model.predict_hit_rate(deployed, j, p_hat, &self.features);
                    model.hit_rate_to_reward(j, pred_hit, &self.size_dist)
                }
            })
            .collect();
        self.bandit.observe(self.pending_arm, &y);
        self.rounds += 1;
        if self.bandit.finished() {
            return true;
        }
        self.pending_arm = self.bandit.next_arm();
        self.round_start = *cumulative;
        self.round_seen = 0;
        false
    }

    /// The epoch's summary with the bandit's current recommendation.
    fn summary(&self) -> EpochSummary {
        EpochSummary {
            cluster: self.cluster,
            set_size: self.set.len(),
            identify_rounds: self.rounds,
            chosen_expert: self.set[self.bandit.recommend()],
        }
    }
}

impl Phase {
    fn kind(&self) -> ControllerPhase {
        match self {
            Phase::Warmup { .. } => ControllerPhase::Warmup,
            Phase::Identify(_) => ControllerPhase::Identify,
            Phase::Deploy { .. } => ControllerPhase::Deploy,
        }
    }

    fn encode_state(&self, enc: &mut Enc) {
        enc.u8(self.kind() as u8);
        match self {
            Phase::Warmup { extractor, epoch_start } => {
                extractor.encode_state(enc);
                epoch_start.encode_state(enc);
            }
            Phase::Identify(id) => {
                id.features.encode_state(enc);
                id.size_dist.encode_state(enc);
                enc.seq(&id.set, |e, &v| e.usize(v));
                enc.usize(id.cluster);
                id.bandit.encode_state(enc);
                id.round_start.encode_state(enc);
                enc.usize(id.round_seen);
                enc.usize(id.pending_arm);
                enc.usize(id.rounds);
            }
            Phase::Deploy { drift } => enc.opt(drift.as_ref(), |e, d| d.encode_state(e)),
        }
    }

    fn decode_state(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        Ok(match phase_from_tag(dec.u8()?)? {
            ControllerPhase::Warmup => Phase::Warmup {
                extractor: FeatureExtractor::decode_state(dec)?,
                epoch_start: CacheMetrics::decode_state(dec)?,
            },
            ControllerPhase::Identify => Phase::Identify(Identification {
                features: FeatureVector::decode_state(dec)?,
                size_dist: SizeDistribution::decode_state(dec)?,
                set: dec.seq(8, |d| d.usize())?,
                cluster: dec.usize()?,
                bandit: TrackAndStopSideInfo::decode_state(dec)?,
                round_start: CacheMetrics::decode_state(dec)?,
                round_seen: dec.usize()?,
                pending_arm: dec.usize()?,
                rounds: dec.usize()?,
            }),
            ControllerPhase::Deploy => Phase::Deploy { drift: dec.opt(DriftDetector::decode_state)? },
        })
    }
}

/// The first byte of [`OnlineController::save_state`]. Unversioned bytes
/// begin with the config fingerprint's length (66 or more), so they are
/// refused.
const STATE_LAYOUT: u8 = 2;

/// The online controller state machine.
pub struct OnlineController {
    model: Arc<DarwinModel>,
    cfg: OnlineConfig,
    phase: Phase,
    epoch_request: usize,
    global_request: u64,
    current_expert: usize,
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
            phase: Phase::Warmup {
                extractor: FeatureExtractor::paper_default(),
                epoch_start: CacheMetrics::default(),
            },
            epoch_request: 0,
            global_request: 0,
            current_expert: 0,
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
        self.phase.kind()
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

        let change = match &mut self.phase {
            Phase::Warmup { extractor, .. } => {
                extractor.observe(req);
                if self.epoch_request < self.cfg.warmup_requests {
                    None
                } else {
                    self.end_warmup(cumulative)
                }
            }
            Phase::Identify(id) => {
                id.round_seen += 1;
                if id.round_seen < self.cfg.round_requests {
                    None
                } else if id.end_round(&self.model, cumulative) {
                    let summary = id.summary();
                    self.epochs.push(summary);
                    // Switch before dropping the bandit so the deploy
                    // switch's journal event carries the final posterior.
                    let change = self.switch_to(summary.chosen_expert, ControllerPhase::Deploy);
                    self.phase = Phase::Deploy { drift: self.drift_detector() };
                    change
                } else {
                    let chosen = id.set[id.pending_arm];
                    self.switch_to(chosen, ControllerPhase::Identify)
                }
            }
            Phase::Deploy { drift } => {
                if drift.as_mut().is_some_and(|detector| detector.observe(req)) {
                    self.drift_restarts += 1;
                    self.pending_events.push(ControlEvent::Drift { restarts: self.drift_restarts });
                    self.start_new_epoch(cumulative);
                    return None;
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

    /// Warm-up complete: the extractor's per-object state is dropped ("this
    /// tree is deleted at the end of the stage"), the cluster is looked up
    /// and its expert set loaded.
    fn end_warmup(&mut self, cumulative: &CacheMetrics) -> Option<Expert> {
        let Phase::Warmup { extractor, epoch_start } =
            std::mem::replace(&mut self.phase, Phase::Deploy { drift: None })
        else {
            unreachable!("only a warm-up ends warm-up");
        };
        let (features, size_dist) = extractor.finish();
        let cluster = self.model.lookup_cluster(&features);
        let set = self.model.expert_set(cluster).to_vec();

        if set.len() == 1 {
            let chosen = set[0];
            self.phase = Phase::Deploy { drift: self.drift_detector() };
            self.epochs.push(EpochSummary {
                cluster,
                set_size: 1,
                identify_rounds: 0,
                chosen_expert: chosen,
            });
            return self.switch_to(chosen, ControllerPhase::Deploy);
        }

        // Bootstrap Σ from the warm-up expert's observed hit rate.
        let features = features.extended(&size_dist.fractions());
        let p_warm = cumulative.diff(&epoch_start).hoc_ohr();
        let marginals =
            self.model.bootstrap_marginals(&set, &features, Some((self.current_expert, p_warm)));
        let effective = (self.cfg.round_requests as f64 / self.cfg.correlation_length).max(1.0);
        let sigma = self.model.side_info(&set, &features, &marginals, effective, self.cfg.min_variance);
        let tas_cfg = TasConfig {
            stability_rounds: self.cfg.stability_rounds,
            max_rounds: self.cfg.max_identify_rounds,
            alpha_iters: self.cfg.alpha_iters,
            ..TasConfig::default()
        };
        // Two or more arms: the bandit starts unfinished.
        let mut bandit = TrackAndStopSideInfo::new(sigma, self.cfg.delta, tas_cfg);
        let pending_arm = bandit.next_arm();
        let chosen = set[pending_arm];
        self.phase = Phase::Identify(Identification {
            features,
            size_dist,
            set,
            cluster,
            bandit,
            round_start: *cumulative,
            round_seen: 0,
            pending_arm,
            rounds: 0,
        });
        self.switch_to(chosen, ControllerPhase::Identify)
    }

    /// The deploy phase's drift detector (extension; `None` with the
    /// paper's fixed epochs).
    fn drift_detector(&self) -> Option<DriftDetector> {
        self.cfg.drift_threshold.map(|t| DriftDetector::new(self.cfg.round_requests.max(1), t))
    }

    fn start_new_epoch(&mut self, cumulative: &CacheMetrics) {
        if let Phase::Identify(id) = &self.phase {
            // Epoch ended mid-identification: record the best-effort choice.
            self.epochs.push(id.summary());
        }
        // Keep the current expert through warm-up ("or one from the previous
        // epoch", §4.2).
        self.phase =
            Phase::Warmup { extractor: FeatureExtractor::paper_default(), epoch_start: *cumulative };
        self.epoch_request = 0;
    }

    /// Serializes the controller's dynamic state (everything except the
    /// immutable [`DarwinModel`] and [`OnlineConfig`], which the restoring
    /// side must already hold): a layout byte, a canonical fingerprint of
    /// the config so [`OnlineController::restore_state`] can refuse a
    /// restore into a controller configured differently, the counters and
    /// history, then the live phase's state alone.
    pub fn save_state(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u8(STATE_LAYOUT);
        enc.bytes(&online_config_fingerprint(&self.cfg));
        enc.usize(self.epoch_request);
        enc.u64(self.global_request);
        enc.usize(self.current_expert);
        enc.usize(self.drift_restarts);
        enc.seq(&self.switches, |e, s| {
            e.u64(s.at_request);
            e.usize(s.expert);
            e.u8(s.phase as u8);
        });
        enc.seq(&self.epochs, |e, ep| {
            e.usize(ep.cluster);
            e.usize(ep.set_size);
            e.usize(ep.identify_rounds);
            e.usize(ep.chosen_expert);
        });
        self.phase.encode_state(&mut enc);
        enc.into_bytes()
    }

    /// Restores the dynamic state saved by [`OnlineController::save_state`]
    /// into this controller (which must have been built with the same model
    /// and config). On error, `self` is left untouched.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let mut dec = Dec::new(bytes);
        let layout = dec.u8()?;
        if layout != STATE_LAYOUT {
            return Err(CkptError::Malformed(format!("unknown controller state layout {layout}")));
        }
        let fp = dec.bytes()?;
        if fp != online_config_fingerprint(&self.cfg).as_slice() {
            return Err(CkptError::Malformed("online config fingerprint mismatch".into()));
        }
        let epoch_request = dec.usize()?;
        let global_request = dec.u64()?;
        let current_expert = dec.usize()?;
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
        let phase = Phase::decode_state(&mut dec)?;
        dec.finish()?;

        let grid_len = self.model.grid().len();
        if current_expert >= grid_len {
            return Err(CkptError::Malformed("expert index out of grid range".into()));
        }
        if let Phase::Identify(id) = &phase {
            let arms = id.set.len();
            if id.set.iter().any(|&j| j >= grid_len)
                || id.bandit.k() != arms
                || id.pending_arm >= arms
                || id.bandit.finished()
            {
                return Err(CkptError::Malformed("identification state out of range".into()));
            }
        }

        self.phase = phase;
        self.epoch_request = epoch_request;
        self.global_request = global_request;
        self.current_expert = current_expert;
        self.drift_restarts = drift_restarts;
        self.switches = switches;
        self.epochs = epochs;
        // The telemetry buffer is not part of the persisted state; a
        // restored controller starts with nothing pending.
        self.pending_events.clear();
        Ok(())
    }

    /// Deploys `expert_idx` if it is not already deployed, recording the
    /// switch under `phase`. The journal event carries the identification
    /// round and the bandit's posterior while one is live.
    fn switch_to(&mut self, expert_idx: usize, phase: ControllerPhase) -> Option<Expert> {
        if expert_idx == self.current_expert {
            return None;
        }
        let from = self.current_expert;
        self.current_expert = expert_idx;
        self.switches.push(SwitchEvent { at_request: self.global_request, expert: expert_idx, phase });
        let (round, posterior) = match &self.phase {
            Phase::Identify(id) => {
                let means: Vec<String> = id.bandit.means().iter().map(|m| format!("{m:.4}")).collect();
                (id.rounds, means.join(" "))
            }
            _ => (0, String::new()),
        };
        self.pending_events.push(ControlEvent::Switch { from, to: expert_idx, round, posterior });
        Some(self.model.grid().get(expert_idx))
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

    /// θ = 100 % puts every expert in both clusters' sets, so every epoch
    /// identifies over four arms (at the paper's 1 % this small model's
    /// sets are singletons and the controller never leaves warm-up for
    /// Identify).
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
            theta_percent: 100.0,
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

    /// Saves the controller after `split` requests of a two-epoch run,
    /// asserts the saved phase, restores the bytes into a fresh controller
    /// beside a restored cache server, and checks every decision of the
    /// tail against the uninterrupted run.
    fn check_save_restore_resumes_bitwise(split: usize, phase: ControllerPhase) {
        let model = small_model();
        let cfg = test_cfg();
        let trace = TraceGenerator::new(
            MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5),
            42,
        )
        .generate(30_000);
        let requests = trace.requests();

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
        assert_eq!(ctrl.phase(), phase, "phase after {split} requests");

        let saved = ctrl.save_state();
        // The journal buffer is not state: compare only the tail's events.
        ctrl.drain_control_events();
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
            assert_eq!(restored.drain_control_events(), ctrl.drain_control_events());
        }
        assert!(ctrl.epochs().len() >= 2 && ctrl.epochs().iter().all(|e| e.identify_rounds > 0));
        assert_eq!(restored.expert_sequence(), ctrl.expert_sequence());
        assert_eq!(restored.epochs(), ctrl.epochs());
        assert_eq!(restored.save_state(), ctrl.save_state());
        assert_eq!(server2.metrics(), server.metrics());
    }

    // The second epoch starts at request 20 000; its warm-up ends on
    // request 21 000 and its identification by request 23 000.

    #[test]
    fn save_restore_mid_warmup_resumes_bitwise() {
        check_save_restore_resumes_bitwise(20_500, ControllerPhase::Warmup);
    }

    #[test]
    fn save_restore_before_the_request_that_ends_warmup_resumes_bitwise() {
        check_save_restore_resumes_bitwise(20_999, ControllerPhase::Warmup);
    }

    #[test]
    fn save_restore_mid_run_resumes_bitwise_identically() {
        check_save_restore_resumes_bitwise(21_500, ControllerPhase::Identify);
    }

    #[test]
    fn save_restore_mid_deploy_resumes_bitwise() {
        check_save_restore_resumes_bitwise(25_000, ControllerPhase::Deploy);
    }

    /// Drives 5 000 synthetic requests cycling through `distinct` objects;
    /// returns the state saved one request before warm-up ends, and the
    /// controller, deployed, at the end.
    fn warmup_and_deploy_state(distinct: u64) -> (Vec<u8>, OnlineController) {
        let cfg = OnlineConfig { max_identify_rounds: 6, ..test_cfg() };
        let mut ctrl = OnlineController::new(small_model(), cfg);
        let mut server =
            CacheServer::new(CacheConfig { hoc_bytes: 2 * 1024 * 1024, ..CacheConfig::small_test() });
        let mut warm = Vec::new();
        for i in 0..5_000u64 {
            let r = Request::new(i % distinct, 1_000 + (i * 7919) % 50_000, i * 1_000);
            server.process(&r);
            if let Some(e) = ctrl.observe(&r, &server.metrics()) {
                server.set_policy(e.policy);
            }
            if i + 2 == cfg.warmup_requests as u64 {
                warm = ctrl.save_state();
            }
        }
        assert_eq!(ctrl.phase(), ControllerPhase::Deploy);
        (warm, ctrl)
    }

    #[test]
    fn deploy_state_does_not_grow_with_the_warmup_catalog() {
        let (few_warm, few) = warmup_and_deploy_state(90);
        let (many_warm, many) = warmup_and_deploy_state(900);
        // The warm-up saves a ring per object...
        assert!(
            many_warm.len() > few_warm.len() + 800 * 16,
            "{} vs {}",
            many_warm.len(),
            few_warm.len()
        );
        // ... and none survives it: past the switch and epoch history, a
        // deployed controller's bytes are the same for either catalog.
        let own = |c: &OnlineController| {
            c.save_state().len() - c.switches().len() * (8 + 8 + 1) - c.epochs().len() * 4 * 8
        };
        assert_eq!(own(&few), own(&many));
    }

    /// The unversioned layout's bytes for an Identify controller with a
    /// two-arm bandit and no warm-up features or size distribution.
    fn unversioned_identify_without_features(cfg: &OnlineConfig) -> Vec<u8> {
        use darwin_bandit::SideInfo;
        let tas = TrackAndStopSideInfo::new(SideInfo::uniform(2, 0.1), 0.05, TasConfig::default());
        let mut enc = Enc::new();
        enc.bytes(&online_config_fingerprint(cfg));
        enc.u8(1); // phase: Identify
        enc.usize(1_500); // epoch request
        enc.u64(1_500); // global request
        enc.usize(0); // current expert
        FeatureExtractor::paper_default().encode_state(&mut enc);
        CacheMetrics::default().encode_state(&mut enc);
        enc.u8(0); // extended features: none
        enc.u8(0); // size distribution: none
        enc.seq(&[0usize, 1], |e, &v| e.usize(v));
        enc.usize(0); // cluster
        enc.opt(Some(&tas), |e, t| t.encode_state(e));
        CacheMetrics::default().encode_state(&mut enc);
        enc.usize(0); // round requests seen
        enc.usize(0); // pending arm
        enc.usize(0); // rounds this epoch
        enc.u8(0); // drift detector: none
        enc.usize(0); // drift restarts
        enc.usize(0); // switches
        enc.usize(0); // epochs
        enc.into_bytes()
    }

    #[test]
    fn identify_state_without_features_is_refused_and_the_controller_stays_cold() {
        let model = small_model();
        let cfg = test_cfg();
        let cold = OnlineController::new(Arc::clone(&model), cfg).save_state();
        let mut ctrl = OnlineController::new(Arc::clone(&model), cfg);
        assert!(ctrl.restore_state(&unversioned_identify_without_features(&cfg)).is_err());
        assert_eq!(ctrl.phase(), ControllerPhase::Warmup);
        assert_eq!(ctrl.expert_sequence(), vec![(0, 0)]);
        assert_eq!(ctrl.save_state(), cold, "a refused restore leaves the controller cold");
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
