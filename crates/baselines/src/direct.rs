//! The DirectMapping baseline (§4, evaluated in §6.1).
//!
//! "a more practical approach that maps features of arriving traffic
//! directly to the available knobs of a HOC admission policy (e.g. f or s or
//! jointly predict both) … its OHR performance is poor mainly because there
//! was no way to control the inherent error in the approach's parameter
//! prediction."
//!
//! Implementation: a regression net maps normalized 15-entry features to the
//! best expert's (f, log s), trained on the same offline evaluations Darwin
//! uses; online, every epoch's warm-up features are mapped and snapped to
//! the nearest grid expert, which is then deployed for the rest of the epoch.

use darwin::offline::EvaluatedTrace;
use darwin::{Expert, ExpertGrid};
use darwin_cache::{CacheConfig, CacheMetrics, CacheServer};
use darwin_cluster::Normalizer;
use darwin_features::FeatureExtractor;
use darwin_nn::{Mlp, OutputActivation, TrainConfig};
use darwin_trace::Trace;
use serde::{Deserialize, Serialize};

/// The trained DirectMapping baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DirectMapping {
    grid: ExpertGrid,
    normalizer: Normalizer,
    net: Mlp,
    /// (f, ln s) ranges used to normalize the regression targets.
    f_range: (f64, f64),
    ls_range: (f64, f64),
    /// Epoch length: features estimated over the first `warmup` requests,
    /// prediction deployed for the rest of `epoch`.
    pub epoch: usize,
    /// Warm-up length in requests.
    pub warmup: usize,
}

impl DirectMapping {
    /// Trains the mapper on offline evaluations (features → best expert).
    pub fn train(
        grid: ExpertGrid,
        evals: &[EvaluatedTrace],
        epoch: usize,
        warmup: usize,
        train_cfg: &TrainConfig,
        seed: u64,
    ) -> Self {
        assert!(!evals.is_empty(), "training needs evaluations");
        assert!(warmup > 0 && warmup < epoch, "warmup must fit inside the epoch");
        let rows: Vec<Vec<f64>> = evals.iter().map(|e| e.features.values().to_vec()).collect();
        let normalizer = Normalizer::fit(&rows);

        let fs: Vec<f64> = grid.experts().iter().map(|e| e.f() as f64).collect();
        let lss: Vec<f64> = grid.experts().iter().map(|e| (e.s_bytes() as f64).ln()).collect();
        let f_range = (
            fs.iter().cloned().fold(f64::INFINITY, f64::min),
            fs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        );
        let ls_range = (
            lss.iter().cloned().fold(f64::INFINITY, f64::min),
            lss.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        );

        let data: Vec<(Vec<f64>, Vec<f64>)> = evals
            .iter()
            .zip(&rows)
            .map(|(ev, row)| {
                let best = grid.get(ev.best_expert());
                let tf = norm_to(best.f() as f64, f_range);
                let ts = norm_to((best.s_bytes() as f64).ln(), ls_range);
                (normalizer.transform(row), vec![tf, ts])
            })
            .collect();

        let mut net = Mlp::new(rows[0].len(), 12, 2, OutputActivation::Sigmoid, seed);
        net.train(&data, train_cfg);
        Self { grid, normalizer, net, f_range, ls_range, epoch, warmup }
    }

    /// Predicts the expert for a raw feature vector (snapped to the grid).
    pub fn predict(&self, features: &darwin_features::FeatureVector) -> Expert {
        let z = self.normalizer.transform(features.values());
        let out = self.net.forward(&z);
        let f = denorm(out[0], self.f_range);
        let ls = denorm(out[1], self.ls_range);
        // Snap to the nearest grid expert in (f, ln s).
        self.grid.nearest(f, ls)
    }

    /// Runs the baseline over a trace on a fresh server.
    pub fn run(&self, trace: &Trace, cache: &CacheConfig) -> CacheMetrics {
        let mut server = CacheServer::new(cache.clone());
        server.set_policy(self.grid.get(0).policy);
        let mut fx = FeatureExtractor::paper_default();
        let mut in_epoch = 0usize;
        let mut predicted = false;
        for r in trace {
            server.process(r);
            in_epoch += 1;
            if !predicted {
                fx.observe(r);
                if in_epoch >= self.warmup {
                    let e = self.predict(&fx.features());
                    server.set_policy(e.policy);
                    predicted = true;
                }
            }
            if in_epoch >= self.epoch {
                in_epoch = 0;
                predicted = false;
                fx = FeatureExtractor::paper_default();
            }
        }
        server.metrics()
    }
}

fn norm_to(v: f64, (lo, hi): (f64, f64)) -> f64 {
    if hi <= lo {
        0.5
    } else {
        ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
    }
}

fn denorm(v: f64, (lo, hi): (f64, f64)) -> f64 {
    lo + v.clamp(0.0, 1.0) * (hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin::offline::{OfflineConfig, OfflineTrainer};
    use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};

    fn evals_and_grid() -> (ExpertGrid, Vec<EvaluatedTrace>) {
        let grid = ExpertGrid::new(vec![
            Expert::new(1, 20),
            Expert::new(1, 500),
            Expert::new(6, 20),
            Expert::new(6, 500),
        ]);
        let trainer = OfflineTrainer::new(OfflineConfig {
            grid: grid.clone(),
            hoc_bytes: 2 * 1024 * 1024,
            nn_train: TrainConfig { epochs: 30, ..TrainConfig::default() },
            ..OfflineConfig::default()
        });
        let traces: Vec<Trace> = (0..6)
            .map(|i| {
                TraceGenerator::new(
                    MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), i as f64 / 5.0),
                    30 + i as u64,
                )
                .generate(8_000)
            })
            .collect();
        let evals = trainer.evaluate_corpus(&traces);
        (grid, evals)
    }

    #[test]
    fn predicts_grid_experts() {
        let (grid, evals) = evals_and_grid();
        let dm = DirectMapping::train(
            grid.clone(),
            &evals,
            20_000,
            1_000,
            &TrainConfig { epochs: 200, ..TrainConfig::default() },
            1,
        );
        for ev in &evals {
            let e = dm.predict(&ev.features);
            assert!(grid.index_of(&e).is_some(), "prediction not in grid");
        }
    }

    #[test]
    fn run_accounts_all_requests() {
        let (grid, evals) = evals_and_grid();
        let dm = DirectMapping::train(
            grid,
            &evals,
            10_000,
            1_000,
            &TrainConfig { epochs: 100, ..TrainConfig::default() },
            2,
        );
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::download()), 9).generate(12_000);
        let m = dm.run(&trace, &CacheConfig::small_test());
        assert_eq!(m.requests as usize, trace.len());
    }

    #[test]
    #[should_panic(expected = "warmup must fit")]
    fn rejects_bad_epoch_shape() {
        let (grid, evals) = evals_and_grid();
        DirectMapping::train(grid, &evals, 100, 100, &TrainConfig::default(), 3);
    }
}
