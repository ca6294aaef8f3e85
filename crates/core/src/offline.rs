//! Offline training (step 1 of the Darwin workflow, §4.1 / Appendix A.1).
//!
//! Given a corpus of historical traces, the trainer:
//!
//! 1. **Evaluates every expert on every trace** with the HOC simulator —
//!    the experts of a trace as lanes of one simulator, in one pass —
//!    recording per-request hit bits, the objective reward, and the hit rate.
//! 2. **Extracts features** per trace (15-entry vector + bucketized size
//!    distribution) and computes, for every ordered expert pair, the
//!    conditional hit probabilities P(E_j hit | E_i hit/miss) from the joint
//!    hit bitsets.
//! 3. **Clusters** traces on normalized features (k-means) and associates
//!    each cluster with its *best expert set*: the union over member traces
//!    of the experts whose reward is within θ% of the trace's best.
//! 4. **Trains the cross-expert predictors**: for each ordered pair (i, j)
//!    that co-occurs in some cluster set (or all pairs when configured), a
//!    1-hidden-layer net maps extended features → the two conditionals.
//!
//! Expert evaluation is embarrassingly parallel and fans out through the
//! deterministic [`darwin_parallel`] engine at two levels — traces across the
//! corpus and shares of the expert grid within a trace (one share, the whole
//! grid, when the outer sweep is already parallel). Results are bitwise
//! identical at any thread count: every work item derives its seed and
//! output slot from its index alone. The paper notes CDN servers are not CPU-bound and offline
//! training is periodic background work.

use crate::bits::Bitset;
use crate::expert::ExpertGrid;
use crate::model::{DarwinModel, PairPredictor};
use darwin_cache::{CacheMetrics, EvictionKind, HocSim, Objective};
use darwin_cluster::{KMeans, Normalizer};
use darwin_features::{FeatureExtractor, FeatureVector, SizeDistribution};
use darwin_nn::{Mlp, OutputActivation, TrainConfig};
use darwin_trace::Trace;
use serde::{Deserialize, Serialize};

/// Configuration for [`OfflineTrainer`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OfflineConfig {
    /// The expert action space.
    pub grid: ExpertGrid,
    /// The objective rewards are computed under.
    pub objective: Objective,
    /// HOC capacity for expert evaluation (bytes).
    pub hoc_bytes: u64,
    /// HOC eviction policy.
    pub eviction: EvictionKind,
    /// θ: experts within this percentage of a trace's best reward join the
    /// trace's best-expert set (paper default 1%).
    pub theta_percent: f64,
    /// Number of k-means clusters; 0 = auto (≈ √#traces, min 2).
    pub n_clusters: usize,
    /// Train predictors for *all* ordered pairs instead of only pairs that
    /// co-occur in a cluster set (needed by the Fig 5c experiment over all
    /// 1260 pairs).
    pub train_all_pairs: bool,
    /// Hidden width of the predictor nets.
    pub nn_hidden: usize,
    /// Predictor training hyper-parameters.
    pub nn_train: TrainConfig,
    /// Use the size-distribution extension in predictor inputs (§4.1 says
    /// it sharpens the conditional estimates; the ablation experiment turns
    /// it off).
    pub predictor_use_size_dist: bool,
    /// Extract features from only the first this-many requests of each
    /// trace (0 = full trace). Setting it to the online warm-up length makes
    /// training see exactly the feature estimates the online lookup will
    /// produce — important below the paper's scale, where short warm-ups
    /// systematically under-estimate the higher-order IAT/stack-distance
    /// entries relative to full-trace features.
    pub feature_prefix_requests: usize,
    /// Master seed (clustering init, net init).
    pub seed: u64,
    /// Worker threads for expert evaluation; 0 = available parallelism.
    pub threads: usize,
}

impl Default for OfflineConfig {
    fn default() -> Self {
        Self {
            grid: ExpertGrid::paper_grid(),
            objective: Objective::HocOhr,
            hoc_bytes: 100 * 1024 * 1024,
            eviction: EvictionKind::Lru,
            theta_percent: 1.0,
            n_clusters: 0,
            train_all_pairs: false,
            nn_hidden: 8,
            nn_train: TrainConfig { epochs: 300, ..TrainConfig::default() },
            predictor_use_size_dist: true,
            feature_prefix_requests: 0,
            seed: 0,
            threads: 0,
        }
    }
}

/// Everything measured about one trace during offline evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvaluatedTrace {
    /// 15-entry base feature vector (clustering input).
    pub features: FeatureVector,
    /// Base features + size-distribution buckets (predictor input).
    pub extended: FeatureVector,
    /// Bucketized size distribution.
    pub size_dist: SizeDistribution,
    /// Full cache metrics per expert (lets any objective's rewards be
    /// derived without re-simulating).
    pub metrics: Vec<CacheMetrics>,
    /// Objective reward per expert (under the trainer's objective).
    pub rewards: Vec<f64>,
    /// HOC hit rate per expert.
    pub hit_rates: Vec<f64>,
    /// `cond[i][j] = (P(E_j hit | E_i hit), P(E_j hit | E_i miss))`.
    pub cond: Vec<Vec<(f64, f64)>>,
}

impl EvaluatedTrace {
    /// Index of the best expert by reward.
    pub fn best_expert(&self) -> usize {
        self.rewards
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty expert grid")
    }

    /// Trace-level best expert set: experts within θ% of the best reward.
    pub fn best_expert_set(&self, theta_percent: f64) -> Vec<usize> {
        best_set(&self.rewards, theta_percent)
    }

    /// Rewards recomputed under an arbitrary objective (from the stored
    /// per-expert metrics) — lets one evaluation pass serve the OHR, BMR and
    /// combined-objective experiments.
    pub fn rewards_under(&self, objective: Objective) -> Vec<f64> {
        self.metrics.iter().map(|m| objective.reward(m)).collect()
    }
}

/// Experts within θ% of the best reward (shared by trace- and cluster-level
/// set formation).
pub fn best_set(rewards: &[f64], theta_percent: f64) -> Vec<usize> {
    let best = rewards.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let floor = best - (theta_percent / 100.0) * best.abs();
    (0..rewards.len()).filter(|&e| rewards[e] >= floor).collect()
}

/// The offline trainer.
#[derive(Debug, Clone)]
pub struct OfflineTrainer {
    cfg: OfflineConfig,
}

impl OfflineTrainer {
    /// Trainer with the given configuration.
    pub fn new(cfg: OfflineConfig) -> Self {
        assert!(cfg.theta_percent >= 0.0, "theta must be non-negative");
        assert!(cfg.nn_hidden > 0, "predictor hidden width must be positive");
        Self { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &OfflineConfig {
        &self.cfg
    }

    /// Evaluates one trace: features, per-expert rewards/hit rates, and
    /// cross-expert conditional probabilities.
    pub fn evaluate_trace(&self, trace: &Trace) -> EvaluatedTrace {
        let n_experts = self.cfg.grid.len();
        let n = trace.len();

        // Features (over the configured prefix, matching the online
        // warm-up's view when `feature_prefix_requests` is set).
        let mut fx = FeatureExtractor::paper_default();
        let prefix = if self.cfg.feature_prefix_requests == 0 {
            trace.len()
        } else {
            self.cfg.feature_prefix_requests.min(trace.len())
        };
        for r in trace.requests()[..prefix].iter() {
            fx.observe(r);
        }
        let features = fx.features();
        let extended = fx.extended_features();
        let (_, size_dist) = fx.finish();

        // Per-expert simulation with per-request hit bits, in one pass per
        // worker: the grid is split into one share per worker, and each
        // share's experts are lanes of one simulator over one per-object
        // table. Each lane's result is its expert's alone, so the split does
        // not move a bit; when this trace is itself a work item of
        // `evaluate_corpus`, the one share is the whole grid.
        let per_expert = darwin_parallel::par_ranges(self.cfg.threads, n_experts, |experts| {
            let lanes =
                experts.map(|e| (self.cfg.hoc_bytes, self.cfg.eviction, self.cfg.grid.get(e).policy));
            let mut sim = HocSim::bank(lanes);
            let mut hits = vec![Bitset::new(n); sim.lanes()];
            for (i, r) in trace.iter().enumerate() {
                for (bits, &hit) in hits.iter_mut().zip(sim.process(r)) {
                    if hit {
                        bits.set(i);
                    }
                }
            }
            hits.into_iter().enumerate().map(|(lane, bits)| (bits, sim.metrics(lane))).collect()
        });
        let mut hits: Vec<Bitset> = Vec::with_capacity(n_experts);
        let mut metrics = Vec::with_capacity(n_experts);
        let mut rewards = Vec::with_capacity(n_experts);
        let mut hit_rates = Vec::with_capacity(n_experts);
        for (bits, m) in per_expert {
            rewards.push(self.cfg.objective.reward(&m));
            hit_rates.push(m.hoc_ohr());
            metrics.push(m);
            hits.push(bits);
        }

        // Pairwise conditionals from bit intersections.
        let mut cond = vec![vec![(0.0, 0.0); n_experts]; n_experts];
        for i in 0..n_experts {
            let hi = hits[i].count_ones();
            let mi = n - hi;
            for j in 0..n_experts {
                let hj = hits[j].count_ones();
                let marginal_j = if n == 0 { 0.0 } else { hj as f64 / n as f64 };
                let both = hits[i].and_count(&hits[j]);
                let j_given_i_miss_count = hits[i].andnot_count(&hits[j]);
                let p_hh = if hi == 0 { marginal_j } else { both as f64 / hi as f64 };
                let p_hm = if mi == 0 { marginal_j } else { j_given_i_miss_count as f64 / mi as f64 };
                cond[i][j] = (p_hh, p_hm);
            }
        }

        EvaluatedTrace { features, extended, size_dist, metrics, rewards, hit_rates, cond }
    }

    /// Evaluates a corpus, fanning traces out across worker threads.
    /// Results are bitwise identical at any thread count.
    pub fn evaluate_corpus(&self, traces: &[Trace]) -> Vec<EvaluatedTrace> {
        darwin_parallel::par_map(self.cfg.threads, traces, |t| self.evaluate_trace(t))
    }

    /// Clusters evaluations and forms per-cluster best expert sets for an
    /// arbitrary θ and objective *without* training predictors — the cheap
    /// path used by the clustering-effectiveness experiments (Fig 5b, 9, 11).
    pub fn cluster_expert_sets(
        &self,
        evals: &[EvaluatedTrace],
        theta_percent: f64,
        objective: Objective,
    ) -> (Vec<usize>, Vec<Vec<usize>>) {
        assert!(!evals.is_empty(), "no evaluations supplied");
        let base_rows: Vec<Vec<f64>> = evals.iter().map(|e| e.features.values().to_vec()).collect();
        let base_norm = Normalizer::fit(&base_rows);
        let k = if self.cfg.n_clusters > 0 {
            self.cfg.n_clusters
        } else {
            ((evals.len() as f64).sqrt().round() as usize).max(2)
        };
        let normalized: Vec<Vec<f64>> = base_rows.iter().map(|r| base_norm.transform(r)).collect();
        let kmeans = KMeans::fit(&normalized, k, 200, self.cfg.seed);
        let mut assignment = Vec::with_capacity(evals.len());
        let mut sets: Vec<Vec<usize>> = vec![Vec::new(); kmeans.k()];
        for (row, ev) in normalized.iter().zip(evals) {
            let c = kmeans.assign(row);
            assignment.push(c);
            let rewards = ev.rewards_under(objective);
            for e in best_set(&rewards, theta_percent) {
                if !sets[c].contains(&e) {
                    sets[c].push(e);
                }
            }
        }
        for set in &mut sets {
            set.sort_unstable();
        }
        (assignment, sets)
    }

    /// Full offline training: evaluate, cluster, form expert sets, train
    /// predictors, and assemble the model.
    pub fn train(&self, traces: &[Trace]) -> DarwinModel {
        assert!(!traces.is_empty(), "offline training needs at least one trace");
        let evals = self.evaluate_corpus(traces);
        self.train_from_evaluations(&evals)
    }

    /// Training entry point that reuses prior evaluations (the experiments
    /// evaluate once and train many model variants).
    pub fn train_from_evaluations(&self, evals: &[EvaluatedTrace]) -> DarwinModel {
        assert!(!evals.is_empty(), "no evaluations supplied");
        let n_experts = self.cfg.grid.len();

        // Normalizers.
        let base_rows: Vec<Vec<f64>> = evals.iter().map(|e| e.features.values().to_vec()).collect();
        let ext_rows: Vec<Vec<f64>> = evals.iter().map(|e| e.extended.values().to_vec()).collect();
        let base_norm = Normalizer::fit(&base_rows);
        let ext_norm = Normalizer::fit(&ext_rows);

        // Clustering.
        let k = if self.cfg.n_clusters > 0 {
            self.cfg.n_clusters
        } else {
            ((evals.len() as f64).sqrt().round() as usize).max(2)
        };
        let normalized: Vec<Vec<f64>> = base_rows.iter().map(|r| base_norm.transform(r)).collect();
        let kmeans = KMeans::fit(&normalized, k, 200, self.cfg.seed);

        // Cluster-level best expert sets (union of member trace sets),
        // under the trainer's objective (recomputed from stored metrics so
        // the same evaluations serve every objective).
        let mut cluster_sets: Vec<Vec<usize>> = vec![Vec::new(); kmeans.k()];
        for (row, ev) in normalized.iter().zip(evals) {
            let c = kmeans.assign(row);
            let rewards = ev.rewards_under(self.cfg.objective);
            for e in best_set(&rewards, self.cfg.theta_percent) {
                if !cluster_sets[c].contains(&e) {
                    cluster_sets[c].push(e);
                }
            }
        }
        for set in &mut cluster_sets {
            set.sort_unstable();
            if set.is_empty() {
                // A cluster with no member traces (k-means re-seeding corner
                // case): fall back to the full grid.
                set.extend(0..n_experts);
            }
        }

        // Which ordered pairs need predictors?
        let mut need = vec![vec![false; n_experts]; n_experts];
        if self.cfg.train_all_pairs {
            for (i, row) in need.iter_mut().enumerate() {
                for (j, cell) in row.iter_mut().enumerate() {
                    *cell = i != j;
                }
            }
        } else {
            for set in &cluster_sets {
                for &i in set {
                    for &j in set {
                        if i != j {
                            need[i][j] = true;
                        }
                    }
                }
            }
        }

        // Fallback conditionals: corpus means per pair.
        let mut fallback = vec![vec![(0.0, 0.0); n_experts]; n_experts];
        for (i, row) in fallback.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                let (mut shh, mut shm) = (0.0, 0.0);
                for ev in evals {
                    shh += ev.cond[i][j].0;
                    shm += ev.cond[i][j].1;
                }
                *cell = (shh / evals.len() as f64, shm / evals.len() as f64);
            }
        }

        // Train predictors. The ablation flag swaps the extended input for
        // the base features (no size-distribution buckets).
        let (pred_rows, pred_norm) = if self.cfg.predictor_use_size_dist {
            (&ext_rows, ext_norm)
        } else {
            (&base_rows, Normalizer::fit(&base_rows))
        };
        let ext_normalized: Vec<Vec<f64>> = pred_rows.iter().map(|r| pred_norm.transform(r)).collect();
        let mut predictors: Vec<Vec<Option<PairPredictor>>> =
            (0..n_experts).map(|_| (0..n_experts).map(|_| None).collect()).collect();
        let pairs: Vec<(usize, usize)> = (0..n_experts)
            .flat_map(|i| (0..n_experts).map(move |j| (i, j)))
            .filter(|&(i, j)| need[i][j])
            .collect();
        let trained = self.train_pairs(&pairs, &ext_normalized, evals);
        for ((i, j), net) in pairs.into_iter().zip(trained) {
            predictors[i][j] = Some(PairPredictor { net });
        }

        // Per-expert corpus-mean hit rates (online marginal bootstrap).
        let mut mean_hit_rates = vec![0.0; n_experts];
        for ev in evals {
            for (m, &h) in mean_hit_rates.iter_mut().zip(&ev.hit_rates) {
                *m += h;
            }
        }
        mean_hit_rates.iter_mut().for_each(|m| *m /= evals.len() as f64);

        DarwinModel::new(
            self.cfg.grid.clone(),
            self.cfg.objective,
            base_norm,
            pred_norm,
            kmeans,
            cluster_sets,
            predictors,
            fallback,
            mean_hit_rates,
            self.cfg.theta_percent,
        )
    }

    /// Trains one net per pair (parallel across pairs; each pair's net is
    /// seeded from the pair indices, so results are thread-count-invariant).
    fn train_pairs(
        &self,
        pairs: &[(usize, usize)],
        ext_normalized: &[Vec<f64>],
        evals: &[EvaluatedTrace],
    ) -> Vec<Mlp> {
        let n_in = ext_normalized.first().map(|r| r.len()).unwrap_or(1);
        darwin_parallel::par_map(self.cfg.threads, pairs, |&(i, j)| {
            let data: Vec<(Vec<f64>, Vec<f64>)> = ext_normalized
                .iter()
                .zip(evals)
                .map(|(x, ev)| {
                    let (p_hh, p_hm) = ev.cond[i][j];
                    (x.clone(), vec![p_hh, p_hm])
                })
                .collect();
            let seed =
                self.cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add((i * 1000 + j) as u64);
            let mut net = Mlp::new(n_in, self.cfg.nn_hidden, 2, OutputActivation::Sigmoid, seed);
            net.train(&data, &self.cfg.nn_train);
            net
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert::Expert;
    use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};

    fn tiny_cfg() -> OfflineConfig {
        OfflineConfig {
            grid: ExpertGrid::new(vec![
                Expert::new(1, 20),
                Expert::new(1, 500),
                Expert::new(5, 20),
                Expert::new(5, 500),
            ]),
            hoc_bytes: 2 * 1024 * 1024,
            nn_train: TrainConfig { epochs: 60, ..TrainConfig::default() },
            n_clusters: 2,
            ..OfflineConfig::default()
        }
    }

    fn corpus(n: usize, len: usize) -> Vec<Trace> {
        (0..n)
            .map(|i| {
                let share = i as f64 / (n - 1).max(1) as f64;
                TraceGenerator::new(
                    MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), share),
                    100 + i as u64,
                )
                .generate(len)
            })
            .collect()
    }

    #[test]
    fn evaluate_trace_produces_consistent_shapes() {
        let trainer = OfflineTrainer::new(tiny_cfg());
        let t = corpus(1, 20_000).pop().unwrap();
        let ev = trainer.evaluate_trace(&t);
        assert_eq!(ev.rewards.len(), 4);
        assert_eq!(ev.hit_rates.len(), 4);
        assert_eq!(ev.cond.len(), 4);
        assert_eq!(ev.features.len(), 15);
        assert_eq!(ev.extended.len(), 22);
        assert!(ev.hit_rates.iter().all(|&h| (0.0..=1.0).contains(&h)));
    }

    #[test]
    fn conditionals_are_valid_probabilities() {
        let trainer = OfflineTrainer::new(tiny_cfg());
        let t = corpus(1, 20_000).pop().unwrap();
        let ev = trainer.evaluate_trace(&t);
        for row in &ev.cond {
            for &(hh, hm) in row {
                assert!((0.0..=1.0).contains(&hh));
                assert!((0.0..=1.0).contains(&hm));
            }
        }
        // Self-conditionals are degenerate: P(Ei hit | Ei hit) = 1 when any
        // hits occurred; P(Ei hit | Ei miss) = 0 when any miss occurred.
        for i in 0..4 {
            if ev.hit_rates[i] > 0.0 {
                assert!((ev.cond[i][i].0 - 1.0).abs() < 1e-12);
            }
            if ev.hit_rates[i] < 1.0 {
                assert!(ev.cond[i][i].1.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn consistency_marginal_decomposition() {
        // P(Ej hit) = P(Ej|Ei hit)·P(Ei hit) + P(Ej|Ei miss)·P(Ei miss).
        let trainer = OfflineTrainer::new(tiny_cfg());
        let t = corpus(1, 20_000).pop().unwrap();
        let ev = trainer.evaluate_trace(&t);
        for i in 0..4 {
            for j in 0..4 {
                let (hh, hm) = ev.cond[i][j];
                let pi = ev.hit_rates[i];
                let recomposed = hh * pi + hm * (1.0 - pi);
                assert!(
                    (recomposed - ev.hit_rates[j]).abs() < 1e-9,
                    "pair ({i},{j}): {recomposed} vs {}",
                    ev.hit_rates[j]
                );
            }
        }
    }

    #[test]
    fn best_expert_set_contains_best() {
        let trainer = OfflineTrainer::new(tiny_cfg());
        let t = corpus(1, 20_000).pop().unwrap();
        let ev = trainer.evaluate_trace(&t);
        let set = ev.best_expert_set(1.0);
        assert!(set.contains(&ev.best_expert()));
        // Larger θ never shrinks the set.
        let set5 = ev.best_expert_set(5.0);
        assert!(set5.len() >= set.len());
        assert!(set.iter().all(|e| set5.contains(e)));
    }

    #[test]
    fn train_produces_model_with_cluster_sets() {
        let trainer = OfflineTrainer::new(tiny_cfg());
        let traces = corpus(6, 15_000);
        let model = trainer.train(&traces);
        assert_eq!(model.grid().len(), 4);
        assert!(model.num_clusters() >= 2);
        for c in 0..model.num_clusters() {
            let set = model.expert_set(c);
            assert!(!set.is_empty());
            assert!(set.iter().all(|&e| e < 4));
        }
    }

    #[test]
    fn model_predicts_reasonable_conditionals() {
        let trainer = OfflineTrainer::new(tiny_cfg());
        let traces = corpus(6, 15_000);
        let evals = trainer.evaluate_corpus(&traces);
        let model = trainer.train_from_evaluations(&evals);
        // On a training trace, predicted conditionals should be in [0,1] and
        // not wildly off the measured values.
        let ev = &evals[0];
        for i in 0..4 {
            for j in 0..4 {
                if i == j {
                    continue;
                }
                let (p_hh, p_hm) = model.conditionals(i, j, &ev.extended);
                assert!((0.0..=1.0).contains(&p_hh));
                assert!((0.0..=1.0).contains(&p_hm));
            }
        }
    }

    #[test]
    fn corpus_evaluation_matches_single_trace_evaluation() {
        let trainer = OfflineTrainer::new(OfflineConfig { threads: 2, ..tiny_cfg() });
        let traces = corpus(3, 8_000);
        let parallel = trainer.evaluate_corpus(&traces);
        for (t, ev) in traces.iter().zip(&parallel) {
            let single = trainer.evaluate_trace(t);
            assert_eq!(single.rewards, ev.rewards);
            assert_eq!(single.hit_rates, ev.hit_rates);
        }
    }

    /// The engine's core guarantee: evaluation results are bitwise identical
    /// whatever the worker count, including the cross-expert conditionals.
    #[test]
    fn corpus_evaluation_is_thread_count_invariant() {
        let traces = corpus(4, 8_000);
        let eval_at = |threads: usize| {
            OfflineTrainer::new(OfflineConfig { threads, ..tiny_cfg() }).evaluate_corpus(&traces)
        };
        let one = eval_at(1);
        let eight = eval_at(8);
        assert_eq!(one.len(), eight.len());
        for (a, b) in one.iter().zip(&eight) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.rewards), bits(&b.rewards));
            assert_eq!(bits(&a.hit_rates), bits(&b.hit_rates));
            assert_eq!(bits(a.features.values()), bits(b.features.values()));
            for (ra, rb) in a.cond.iter().zip(&b.cond) {
                for (&(hh_a, hm_a), &(hh_b, hm_b)) in ra.iter().zip(rb) {
                    assert_eq!(hh_a.to_bits(), hh_b.to_bits());
                    assert_eq!(hm_a.to_bits(), hm_b.to_bits());
                }
            }
        }
    }

    /// Trained models are also thread-count-invariant: per-pair nets seed
    /// from pair indices, never from work distribution.
    #[test]
    fn training_is_thread_count_invariant() {
        let traces = corpus(4, 6_000);
        let small = OfflineConfig {
            nn_train: TrainConfig { epochs: 10, ..TrainConfig::default() },
            ..tiny_cfg()
        };
        let evals =
            OfflineTrainer::new(OfflineConfig { threads: 1, ..small.clone() }).evaluate_corpus(&traces);
        let model_1 = OfflineTrainer::new(OfflineConfig { threads: 1, ..small.clone() })
            .train_from_evaluations(&evals);
        let model_8 =
            OfflineTrainer::new(OfflineConfig { threads: 8, ..small }).train_from_evaluations(&evals);
        let probe = &evals[0].extended;
        for i in 0..4 {
            for j in 0..4 {
                if i == j {
                    continue;
                }
                let (hh_1, hm_1) = model_1.conditionals(i, j, probe);
                let (hh_8, hm_8) = model_8.conditionals(i, j, probe);
                assert_eq!(hh_1.to_bits(), hh_8.to_bits(), "pair ({i},{j})");
                assert_eq!(hm_1.to_bits(), hm_8.to_bits(), "pair ({i},{j})");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::expert::Expert;
    use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};
    use proptest::prelude::*;

    fn trainer(theta: f64, clusters: usize) -> OfflineTrainer {
        OfflineTrainer::new(OfflineConfig {
            grid: ExpertGrid::new(vec![
                Expert::new(1, 20),
                Expert::new(1, 500),
                Expert::new(5, 20),
                Expert::new(5, 500),
            ]),
            hoc_bytes: 1024 * 1024,
            nn_train: TrainConfig { epochs: 2, ..TrainConfig::default() },
            n_clusters: clusters,
            theta_percent: theta,
            ..OfflineConfig::default()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// For arbitrary small corpora: every cluster set is a non-empty
        /// subset of the grid, every trace-level best expert is covered by
        /// its own cluster's set, and the reward decomposition identity
        /// P(Ej) = P(Ej|Ei hit)P(Ei) + P(Ej|Ei miss)(1-P(Ei)) holds.
        #[test]
        fn offline_invariants(
            seeds in proptest::collection::vec(0u64..10_000, 2..5),
            theta in 0.5f64..5.0,
        ) {
            let traces: Vec<_> = seeds
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    let share = (i as f64 / seeds.len() as f64).min(1.0);
                    TraceGenerator::new(
                        MixSpec::two_class(
                            TrafficClass::image(),
                            TrafficClass::download(),
                            share,
                        ),
                        s,
                    )
                    .generate(4_000)
                })
                .collect();
            let tr = trainer(theta, 2);
            let evals = tr.evaluate_corpus(&traces);
            for ev in &evals {
                // Decomposition identity per pair.
                for i in 0..4 {
                    for j in 0..4 {
                        let (hh, hm) = ev.cond[i][j];
                        let p = ev.hit_rates[i];
                        let recomposed = hh * p + hm * (1.0 - p);
                        prop_assert!((recomposed - ev.hit_rates[j]).abs() < 1e-9);
                    }
                }
                // The best expert set always includes the best expert.
                let set = ev.best_expert_set(theta);
                prop_assert!(set.contains(&ev.best_expert()));
            }
            let model = tr.train_from_evaluations(&evals);
            for c in 0..model.num_clusters() {
                let set = model.expert_set(c);
                prop_assert!(!set.is_empty());
                prop_assert!(set.iter().all(|&e| e < 4));
            }
            // Every training trace's cluster covers one of its near-best
            // experts.
            for ev in &evals {
                let c = model.lookup_cluster(&ev.features);
                let near = ev.best_expert_set(theta.max(1.0) * 2.0);
                prop_assert!(
                    near.iter().any(|e| model.expert_set(c).contains(e)),
                    "cluster {} misses all near-best experts", c
                );
            }
        }
    }
}
