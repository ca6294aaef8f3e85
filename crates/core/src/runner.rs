//! Convenience drivers wiring a cache server to the online controller.

use crate::driver::{AdmissionDriver, DarwinDriver};
use crate::expert::Expert;
use crate::model::DarwinModel;
use crate::online::{EpochSummary, OnlineConfig, SwitchEvent};
use darwin_cache::{CacheConfig, CacheMetrics, CacheServer, RequestOutcome, ThresholdPolicy};
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
    let timeline = serve_timeline(&mut server, &mut driver, trace.requests(), timeline_window);
    let ctrl = driver.controller();
    DarwinReport {
        metrics: server.metrics(),
        switches: ctrl.switches().to_vec(),
        epochs: ctrl.epochs().to_vec(),
        final_expert: ctrl.current_expert_index(),
        timeline,
    }
}

/// [`serve`], sampling `(requests served, HOC OHR of the window)` after
/// every full `window` requests (0: no samples).
pub fn serve_timeline(
    server: &mut CacheServer,
    driver: &mut impl AdmissionDriver,
    requests: &[Request],
    window: usize,
) -> Vec<(u64, f64)> {
    let mut timeline = Vec::new();
    let mut start = server.metrics();
    for (i, chunk) in requests.chunks(if window == 0 { usize::MAX } else { window }).enumerate() {
        serve(server, driver, chunk);
        if chunk.len() == window {
            let now = server.metrics();
            timeline.push((((i + 1) * window) as u64, now.diff(&start).hoc_ohr()));
            start = now;
        }
    }
    timeline
}

/// Serves `requests` on `server` under `driver`, one [`step`] each: the
/// sequential serve loop of [`run_darwin`] and the shard fleet's replay
/// reference.
pub fn serve(server: &mut CacheServer, driver: &mut impl AdmissionDriver, requests: &[Request]) {
    for req in requests {
        step(server, driver, req, |_, _| {});
    }
}

/// The one place a request is processed, answered and observed, which every
/// loop running an [`AdmissionDriver`] drives. In order: process `req`; call
/// `served(outcome, admitted)`, `admitted` meaning the HOC's write count
/// grew; let `driver` observe the raw cumulative metrics; install the policy
/// it returns, if any. Answering first means a reply never waits on a
/// controller round and a driver that panics leaves its request answered.
#[inline]
pub fn step(
    server: &mut CacheServer,
    driver: &mut impl AdmissionDriver,
    req: &Request,
    served: impl FnOnce(RequestOutcome, bool),
) -> (RequestOutcome, Option<ThresholdPolicy>) {
    let writes = server.metrics().hoc_writes;
    let outcome = server.process(req);
    let metrics = server.metrics();
    served(outcome, metrics.hoc_writes > writes);
    let policy = driver.observe(req, &metrics);
    if let Some(policy) = policy {
        server.set_policy(policy);
    }
    (outcome, policy)
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

    /// Admit-all and admit-nothing, swapped after every request.
    struct Flip {
        n: u64,
    }

    fn open() -> ThresholdPolicy {
        ThresholdPolicy::new(0, u64::MAX)
    }

    fn shut() -> ThresholdPolicy {
        ThresholdPolicy::new(u32::MAX, 1)
    }

    impl AdmissionDriver for Flip {
        fn initial_policy(&mut self) -> ThresholdPolicy {
            shut()
        }
        fn observe(&mut self, _req: &Request, _m: &CacheMetrics) -> Option<ThresholdPolicy> {
            self.n += 1;
            Some(if self.n % 2 == 1 { open() } else { shut() })
        }
        fn label(&self) -> String {
            "flip".into()
        }
    }

    #[test]
    fn step_answers_then_observes_then_installs() {
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 9).generate(4_000);
        let cache = darwin_cache::CacheConfig::small_test();
        // The protocol written out by hand.
        let mut reference = Vec::new();
        let (mut server, mut driver) = (CacheServer::new(cache.clone()), Flip { n: 0 });
        server.set_policy(driver.initial_policy());
        for req in trace.requests() {
            let writes = server.metrics().hoc_writes;
            let outcome = server.process(req);
            let m = server.metrics();
            let policy = driver.observe(req, &m);
            server.set_policy(policy.unwrap());
            reference.push((outcome, m.hoc_writes > writes, policy));
        }
        let mut stepped = Vec::new();
        let (mut server2, mut driver2) = (CacheServer::new(cache), Flip { n: 0 });
        let mut in_force = driver2.initial_policy();
        server2.set_policy(in_force);
        for req in trace.requests() {
            let mut answer = None;
            let (outcome, policy) = step(&mut server2, &mut driver2, req, |o, admitted| {
                answer = Some((o, admitted));
            });
            let (o, admitted) = answer.expect("served runs inside the step");
            assert_eq!(o, outcome);
            assert!(!admitted || in_force == open(), "admitted under {in_force:?}");
            in_force = policy.unwrap();
            stepped.push((outcome, admitted, policy));
        }
        assert_eq!(stepped, reference);
        assert_eq!(server2.metrics(), server.metrics());
        assert!(stepped.iter().any(|&(_, admitted, _)| admitted), "nothing was admitted");
    }

    struct Panics;

    impl AdmissionDriver for Panics {
        fn initial_policy(&mut self) -> ThresholdPolicy {
            open()
        }
        fn observe(&mut self, _req: &Request, _m: &CacheMetrics) -> Option<ThresholdPolicy> {
            panic!("driver fault")
        }
        fn label(&self) -> String {
            "panics".into()
        }
    }

    #[test]
    fn a_driver_that_panics_leaves_its_request_answered() {
        let mut server = CacheServer::new(darwin_cache::CacheConfig::small_test());
        server.set_policy(open());
        let mut answer = None;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            step(&mut server, &mut Panics, &Request::new(7, 100, 0), |o, admitted| {
                answer = Some((o, admitted));
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(answer, Some((RequestOutcome::OriginFetch, true)));
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
