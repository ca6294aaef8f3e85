//! Integration tests for the prototype testbed with the full Darwin driver.

use darwin::prelude::*;
use darwin::{DarwinDriver, StaticDriver};
use darwin_nn::TrainConfig;
use darwin_testbed::{Testbed, TestbedConfig};
use darwin_trace::{concat_traces, MixSpec, TraceGenerator, TrafficClass};
use std::sync::Arc;

const HOC: u64 = 4 * 1024 * 1024;

fn cache() -> CacheConfig {
    CacheConfig { hoc_bytes: HOC, dc_bytes: 256 * 1024 * 1024, ..CacheConfig::paper_default() }
}

fn model() -> Arc<DarwinModel> {
    let corpus: Vec<_> = (0..5)
        .map(|i| {
            TraceGenerator::new(
                MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), i as f64 / 4.0),
                800 + i as u64,
            )
            .generate(15_000)
        })
        .collect();
    let cfg = darwin::OfflineConfig {
        grid: darwin::ExpertGrid::new(vec![
            Expert::new(1, 20),
            Expert::new(1, 500),
            Expert::new(5, 100),
        ]),
        hoc_bytes: HOC,
        nn_train: TrainConfig { epochs: 40, ..TrainConfig::default() },
        n_clusters: 2,
        feature_prefix_requests: 600,
        ..darwin::OfflineConfig::default()
    };
    Arc::new(OfflineTrainer::new(cfg).train(&corpus))
}

fn online() -> OnlineConfig {
    OnlineConfig {
        epoch_requests: 20_000,
        warmup_requests: 600,
        round_requests: 300,
        ..OnlineConfig::default()
    }
}

#[test]
fn darwin_driver_runs_in_testbed_and_switches_experts() {
    let m = model();
    let a = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 1).generate(20_000);
    let b = TraceGenerator::new(MixSpec::single(TrafficClass::download()), 2).generate(20_000);
    let workload = concat_traces(&[a, b]);
    let tb = Testbed::new(TestbedConfig { concurrency: 8, ..TestbedConfig::default() });
    let mut driver = DarwinDriver::new(Arc::clone(&m), online());
    let report = tb.run(&workload, &cache(), &mut driver);

    assert_eq!(report.completed as usize, workload.len());
    assert!(!driver.controller().switches().is_empty(), "Darwin never switched experts");
    assert_eq!(report.driver, "darwin");
    assert!(report.goodput_gbps > 0.0);
}

#[test]
fn darwin_matches_or_beats_static_in_testbed_ohr() {
    let m = model();
    let a = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 3).generate(20_000);
    let b = TraceGenerator::new(MixSpec::single(TrafficClass::download()), 4).generate(20_000);
    let workload = concat_traces(&[a, b]);
    let tb = Testbed::new(TestbedConfig { concurrency: 8, ..TestbedConfig::default() });

    let mut dd = DarwinDriver::new(Arc::clone(&m), online());
    let rd = tb.run(&workload, &cache(), &mut dd);

    // The worst static expert of the model's grid.
    let mut worst_ohr = f64::INFINITY;
    for e in m.grid().experts() {
        let mut sd = StaticDriver::new(e.policy);
        let rs = tb.run(&workload, &cache(), &mut sd);
        worst_ohr = worst_ohr.min(rs.cache.hoc_ohr());
    }
    assert!(
        rd.cache.hoc_ohr() >= worst_ohr,
        "darwin {} below worst static {}",
        rd.cache.hoc_ohr(),
        worst_ohr
    );
}

#[test]
fn testbed_latency_reflects_cache_outcomes() {
    // All-admit policy on a popular catalog: most requests become HOC hits
    // with ~2x client-proxy OWD latency; compare against a never-admit
    // configuration whose requests pay origin round trips.
    let trace = TraceGenerator::new(MixSpec::single(TrafficClass::download()), 5).generate(8_000);
    let tb = Testbed::new(TestbedConfig { concurrency: 4, ..TestbedConfig::default() });

    let mut admit = StaticDriver::new(ThresholdPolicy::new(0, u64::MAX));
    let ra = tb.run(&trace, &cache(), &mut admit);
    let mut never = StaticDriver::new(ThresholdPolicy::new(u32::MAX, 1));
    let rn = tb.run(&trace, &cache(), &mut never);

    assert!(ra.cache.hoc_ohr() > rn.cache.hoc_ohr());
    assert!(
        ra.latency.clone().mean() < rn.latency.clone().mean(),
        "higher OHR must lower mean first-byte latency"
    );
}

#[test]
fn shared_resources_create_saturation() {
    // Goodput must grow sub-linearly once the shared disk/origin saturate.
    let trace = TraceGenerator::new(MixSpec::single(TrafficClass::download()), 6).generate(12_000);
    let run_at = |c: usize| {
        let tb = Testbed::new(TestbedConfig { concurrency: c, ..TestbedConfig::default() });
        let mut d = StaticDriver::new(ThresholdPolicy::new(2, 100 * 1024));
        tb.run(&trace, &cache(), &mut d).goodput_gbps
    };
    let g64 = run_at(64);
    let g2048 = run_at(2048);
    assert!(g2048 < g64 * 32.0 * 0.8, "no saturation: 64 clients {g64} Gbps, 2048 clients {g2048} Gbps");
}
