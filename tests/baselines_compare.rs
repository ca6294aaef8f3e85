//! Integration tests for the baseline implementations and their qualitative
//! relationships to Darwin (§6.1).

use darwin::prelude::*;
use darwin_baselines::{AdaptSize, DirectMapping, HillClimbing, Percentile};
use darwin_nn::TrainConfig;
use darwin_trace::{concat_traces, MixSpec, Trace, TraceGenerator, TrafficClass};
use std::sync::Arc;

const HOC: u64 = 4 * 1024 * 1024;

fn cache() -> CacheConfig {
    CacheConfig { hoc_bytes: HOC, dc_bytes: 256 * 1024 * 1024, ..CacheConfig::paper_default() }
}

fn grid() -> darwin::ExpertGrid {
    darwin::ExpertGrid::new(vec![
        Expert::new(1, 20),
        Expert::new(1, 500),
        Expert::new(4, 20),
        Expert::new(4, 500),
        Expert::new(7, 100),
    ])
}

fn shifting_workload() -> Trace {
    let a = TraceGenerator::new(
        MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.9),
        41,
    )
    .generate(20_000);
    let b = TraceGenerator::new(
        MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.1),
        42,
    )
    .generate(20_000);
    concat_traces(&[a, b])
}

#[test]
fn every_baseline_processes_the_full_workload() {
    let w = shifting_workload();
    let n = w.len() as u64;

    assert_eq!(Percentile::new(grid(), 5_000).run(&w, &cache()).requests, n);
    assert_eq!(
        HillClimbing::new(ThresholdPolicy::new(4, 100 * 1024), 10 * 1024, 4_000)
            .run(&w, &cache())
            .requests,
        n
    );
    assert_eq!(AdaptSize::new(5_000, 1).run(&w, &cache()).requests, n);
}

#[test]
fn darwin_competitive_with_all_baselines_on_shifting_traffic() {
    // Train Darwin on the mixes the workload is drawn from.
    let corpus: Vec<Trace> = (0..6)
        .map(|i| {
            TraceGenerator::new(
                MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), i as f64 / 5.0),
                500 + i as u64,
            )
            .generate(20_000)
        })
        .collect();
    let offline = darwin::OfflineConfig {
        grid: grid(),
        hoc_bytes: HOC,
        nn_train: TrainConfig { epochs: 60, ..TrainConfig::default() },
        n_clusters: 3,
        feature_prefix_requests: 800,
        ..darwin::OfflineConfig::default()
    };
    let trainer = OfflineTrainer::new(offline);
    let evals = trainer.evaluate_corpus(&corpus);
    let model = Arc::new(trainer.train_from_evaluations(&evals));

    let w = shifting_workload();
    let online = OnlineConfig {
        epoch_requests: 20_000,
        warmup_requests: 800,
        round_requests: 400,
        ..OnlineConfig::default()
    };
    let darwin_ohr = darwin::run_darwin(&model, &online, &w, &cache()).metrics.hoc_ohr();

    let p = Percentile::new(grid(), 5_000).run(&w, &cache()).hoc_ohr();
    let hc = HillClimbing::new(ThresholdPolicy::new(4, 100 * 1024), 10 * 1024, 4_000)
        .run(&w, &cache())
        .hoc_ohr();
    let dm = DirectMapping::train(
        grid(),
        &evals,
        20_000,
        800,
        &TrainConfig { epochs: 120, ..TrainConfig::default() },
        3,
    )
    .run(&w, &cache())
    .hoc_ohr();

    // Darwin must at least match the weakest adaptive baseline and be within
    // striking distance of the strongest (shape claim, small-scale noise
    // tolerated).
    let weakest = p.min(hc).min(dm);
    let strongest = p.max(hc).max(dm);
    assert!(darwin_ohr >= weakest * 0.95, "darwin {darwin_ohr:.4} below weakest baseline {weakest:.4}");
    assert!(
        darwin_ohr >= strongest * 0.8,
        "darwin {darwin_ohr:.4} far below strongest baseline {strongest:.4}"
    );
}

#[test]
fn hillclimbing_converges_near_local_optimum_on_stationary_traffic() {
    let w = TraceGenerator::new(MixSpec::single(TrafficClass::download()), 77).generate(30_000);
    let start = ThresholdPolicy::new(6, 20 * 1024); // far from optimal
    let hc = HillClimbing::new(start, 20 * 1024, 3_000).run(&w, &cache());
    let stay = {
        let mut s = CacheServer::new(cache());
        s.set_policy(start);
        s.process_trace(&w)
    };
    assert!(hc.hoc_ohr() >= stay.hoc_ohr(), "climber should not end worse than start");
}

#[test]
fn adaptsize_beats_naive_admit_all_under_scan_pollution() {
    // Image traffic carries a 50 % one-hit-wonder scan; tuned probabilistic
    // size admission must beat always-admit (which churns on the scan).
    let w = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 78).generate(30_000);
    let adaptsize = AdaptSize::new(5_000, 2).run(&w, &cache());
    let always = {
        let mut s = CacheServer::new(cache());
        s.set_policy(darwin_cache::ThresholdPolicy::new(0, u64::MAX));
        s.process_trace(&w)
    };
    assert!(
        adaptsize.hoc_ohr() >= always.hoc_ohr() * 0.95,
        "adaptsize {:.4} should be at least comparable to admit-all {:.4}",
        adaptsize.hoc_ohr(),
        always.hoc_ohr()
    );
}

#[test]
fn percentile_tracks_the_traffic_mix() {
    // On download-heavy traffic the 90th size percentile is large, so the
    // Percentile baseline must end up on a large-s expert.
    let w = TraceGenerator::new(MixSpec::single(TrafficClass::download()), 79).generate(20_000);
    let p = Percentile::new(grid(), 4_000);
    let m = p.run(&w, &cache());
    // Behavioural check: it must clearly beat the smallest-s expert, which
    // a download mix starves.
    let small = darwin::run_static(Expert::new(4, 20), &w, &cache()).hoc_ohr();
    assert!(m.hoc_ohr() > small, "percentile {:.4} <= strict static {small:.4}", m.hoc_ohr());
}
