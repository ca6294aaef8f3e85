//! Convenience drivers wiring a cache server to the online controller.

use crate::driver::{AdmissionDriver, DarwinDriver};
use crate::expert::Expert;
use crate::model::DarwinModel;
use crate::online::{EpochSummary, OnlineConfig, SwitchEvent};
use darwin_cache::{CacheConfig, CacheMetrics, CacheServer};
use darwin_trace::{Request, Trace};
use std::sync::Arc;

/// The outcome of running Darwin over a trace.
#[derive(Debug, Clone)]
pub struct DarwinReport {
    /// Metrics over the whole trace.
    pub metrics: CacheMetrics,
    /// Every expert switch the controller made.
    pub switches: Vec<SwitchEvent>,
    /// Per-epoch identification summaries.
    pub epochs: Vec<EpochSummary>,
    /// Grid index of the expert deployed when the trace ended.
    pub final_expert: usize,
    /// Adaptation timeline: `(request_index, windowed HOC OHR)` samples, one
    /// per timeline window (empty if no window length was requested).
    pub timeline: Vec<(u64, f64)>,
}

/// Runs Darwin (model + online controller) over `trace` on a fresh server.
pub fn run_darwin(
    model: &Arc<DarwinModel>,
    cfg: &OnlineConfig,
    trace: &Trace,
    cache: &CacheConfig,
) -> DarwinReport {
    run_darwin_with_timeline(model, cfg, trace, cache, 0)
}

/// Like [`run_darwin`], additionally sampling the windowed HOC OHR every
/// `timeline_window` requests (0 disables sampling) — the data behind
/// adaptation-over-time plots.
pub fn run_darwin_with_timeline(
    model: &Arc<DarwinModel>,
    cfg: &OnlineConfig,
    trace: &Trace,
    cache: &CacheConfig,
    timeline_window: usize,
) -> DarwinReport {
    let mut driver = DarwinDriver::new(Arc::clone(model), *cfg);
    let mut server = CacheServer::new(cache.clone());
    server.set_policy(driver.initial_policy());
    let mut timeline = Vec::new();
    let mut window_start = CacheMetrics::default();
    let chunk = if timeline_window == 0 { usize::MAX } else { timeline_window };
    for (i, requests) in trace.requests().chunks(chunk).enumerate() {
        serve(&mut server, &mut driver, requests);
        if requests.len() == timeline_window {
            let now = server.metrics();
            timeline.push((((i + 1) * chunk) as u64, now.diff(&window_start).hoc_ohr()));
            window_start = now;
        }
    }
    let ctrl = driver.controller();
    DarwinReport {
        metrics: server.metrics(),
        switches: ctrl.switches().to_vec(),
        epochs: ctrl.epochs().to_vec(),
        final_expert: ctrl.current_expert_index(),
        timeline,
    }
}

/// Serves `requests` on `server`, each processed, then observed by `driver`,
/// which may install a new policy before the next: the one sequential serve
/// loop, shared by [`run_darwin`] and the shard fleet's replay reference.
pub fn serve(server: &mut CacheServer, driver: &mut impl AdmissionDriver, requests: &[Request]) {
    for req in requests {
        server.process(req);
        if let Some(policy) = driver.observe(req, &server.metrics()) {
            server.set_policy(policy);
        }
    }
}

/// Runs a fixed expert over `trace` on a fresh server (the static baseline).
pub fn run_static(expert: Expert, trace: &Trace, cache: &CacheConfig) -> CacheMetrics {
    let mut server = CacheServer::new(cache.clone());
    server.set_policy(expert.policy);
    server.process_trace(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert::{Expert, ExpertGrid};
    use crate::offline::{OfflineConfig, OfflineTrainer};
    use darwin_nn::TrainConfig;
    use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};

    #[test]
    fn darwin_end_to_end_beats_worst_static() {
        let grid = ExpertGrid::new(vec![
            Expert::new(1, 1000), // generous: good for download-heavy
            Expert::new(7, 10),   // strict: starves most traffic
        ]);
        let cfg = OfflineConfig {
            grid: grid.clone(),
            hoc_bytes: 2 * 1024 * 1024,
            nn_train: TrainConfig { epochs: 40, ..TrainConfig::default() },
            n_clusters: 2,
            ..OfflineConfig::default()
        };
        let trainer = OfflineTrainer::new(cfg);
        let corpus: Vec<_> = (0..4)
            .map(|i| {
                TraceGenerator::new(
                    MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), i as f64 / 3.0),
                    20 + i as u64,
                )
                .generate(10_000)
            })
            .collect();
        let model = Arc::new(trainer.train(&corpus));

        let online = crate::online::OnlineConfig {
            epoch_requests: 30_000,
            warmup_requests: 1_500,
            round_requests: 400,
            ..Default::default()
        };
        let test_trace =
            TraceGenerator::new(MixSpec::single(TrafficClass::download()), 77).generate(30_000);
        let cache = darwin_cache::CacheConfig {
            hoc_bytes: 2 * 1024 * 1024,
            ..darwin_cache::CacheConfig::small_test()
        };

        let report = run_darwin(&model, &online, &test_trace, &cache);
        let worst = run_static(Expert::new(7, 10), &test_trace, &cache);
        assert!(
            report.metrics.hoc_ohr() >= worst.hoc_ohr(),
            "darwin {} < worst static {}",
            report.metrics.hoc_ohr(),
            worst.hoc_ohr()
        );
        assert!(report.epochs.first().map(|e| e.set_size >= 1).unwrap_or(false));
    }

    #[test]
    fn static_runner_matches_manual_simulation() {
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 4).generate(5_000);
        let cache = darwin_cache::CacheConfig::small_test();
        let e = Expert::new(2, 100);
        let a = run_static(e, &trace, &cache);
        let mut server = darwin_cache::CacheServer::new(cache);
        server.set_policy(e.policy);
        let b = server.process_trace(&trace);
        assert_eq!(a, b);
    }
}
