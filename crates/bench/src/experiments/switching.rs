//! Switching-cost accounting under a drifting workload
//! (`BENCH_switching.json`).
//!
//! The paper's central tension (§2.2) is that changing the deployed expert
//! is not free: the cache was populated under the old policy, so every
//! switch is followed by a transient hit-ratio dip while the content
//! turns over. This experiment measures that cost directly from the
//! fleet's own instrumentation: per-shard Darwin controllers serve a
//! three-phase drift trace (image-heavy → download-heavy → image-heavy),
//! and every expert switch opens a [`darwin_obs::SwitchCostTracker`]
//! window that journals a `SwitchCost` event — pre-switch baseline hit
//! ratio, worst trailing dip inside the window, and how many requests it
//! took to recover to baseline (if the window was long enough).
//!
//! Output: a console table, `<out>/switching.csv`, and
//! `<out>/BENCH_switching.json` with one row per closed switch window plus
//! fleet-level aggregates.

use crate::report::{f4, Report};
use crate::scale::Scale;
use darwin::DarwinDriver;
use darwin::{DarwinModel, Expert, ExpertGrid, OfflineConfig, OfflineTrainer, OnlineConfig};
use darwin_cache::CacheConfig;
use darwin_nn::TrainConfig;
use darwin_obs::EventKind;
use darwin_shard::{FleetConfig, HashRouter, ShardedFleet};
use darwin_trace::{concat_traces, MixSpec, Trace, TraceGenerator, TrafficClass};
use serde::Serialize;
use std::path::Path;
use std::sync::Arc;

/// Shards (= independent Darwin controllers) serving the drift trace.
const SHARDS: usize = 2;

/// One closed switch-cost window (`BENCH_switching.json` row).
#[derive(Debug, Clone, Serialize)]
pub struct SwitchRow {
    /// Shard whose controller switched.
    pub shard: u32,
    /// Per-shard request sequence at which the window closed.
    pub seq: u64,
    /// Expert index switched *to*.
    pub expert: u32,
    /// Trailing hit ratio over the pre-switch window.
    pub baseline: f64,
    /// Worst `baseline − trailing` dip observed post-switch (≥ 0).
    pub dip: f64,
    /// Requests from the switch until trailing hit ratio recovered to
    /// baseline; `null` when it never did inside the window.
    pub recovery_requests: Option<u64>,
    /// Post-switch observation window, in requests.
    pub window: u64,
}

/// The full `BENCH_switching.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct SwitchingBench {
    /// Experiment name.
    pub experiment: String,
    /// Scale factor the trace length derives from.
    pub scale: usize,
    /// Requests in the drift trace.
    pub requests: usize,
    /// Shard / controller count.
    pub shards: usize,
    /// Expert switches journaled across the fleet.
    pub expert_switches: usize,
    /// Closed switch-cost windows (≤ `expert_switches`; a switch inside an
    /// open window preempts it).
    pub switch_windows: usize,
    /// Mean dip depth across closed windows.
    pub mean_dip: f64,
    /// Worst dip depth across closed windows.
    pub max_dip: f64,
    /// Fraction of closed windows that recovered to baseline in-window.
    pub recovered_frac: f64,
    /// Per-window measurements.
    pub rows: Vec<SwitchRow>,
}

/// A small dedicated offline model: 4 experts, 2 clusters — enough expert
/// diversity that the per-phase optimum moves and the bandit actually
/// switches, cheap enough to train inside the benchmark.
fn model(scale: &Scale) -> Arc<DarwinModel> {
    let cfg = OfflineConfig {
        // Deliberately contrasty grid: small-object-only admission wins when
        // the mix is image-heavy (8 KB median), large-size admission wins
        // when it is download-heavy (200 KB median) — so the per-phase
        // optimum moves and the bandit has a real decision to make.
        grid: ExpertGrid::new(vec![
            Expert::new(1, 20),
            Expert::new(4, 20),
            Expert::new(1, 1000),
            Expert::new(4, 1000),
        ]),
        hoc_bytes: 2 * 1024 * 1024,
        nn_train: TrainConfig { epochs: 40, ..TrainConfig::default() },
        n_clusters: 2,
        // Train-time features must match what the online 500-request warm-up
        // will estimate, or the cluster lookup misclassifies every phase.
        feature_prefix_requests: 500,
        ..OfflineConfig::default()
    };
    let traces: Vec<Trace> = (0..4)
        .map(|i| {
            TraceGenerator::new(
                MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), i as f64 / 3.0),
                10 + i as u64,
            )
            .generate(10_000 * scale.factor())
        })
        .collect();
    Arc::new(OfflineTrainer::new(cfg).train(&traces))
}

/// Three stationary phases with an abrupt mix change at each seam — the
/// §2.1 "rapidly changing traffic mix" that forces re-identification.
fn drift_trace(scale: &Scale) -> Trace {
    let phase = 24_000 * scale.factor();
    let phases: Vec<Trace> = [(0.97, 71u64), (0.03, 72), (0.97, 73)]
        .iter()
        .map(|&(ratio, seed)| {
            TraceGenerator::new(
                MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), ratio),
                seed,
            )
            .generate(phase)
        })
        .collect();
    concat_traces(&phases)
}

/// Runs the drift replay and writes the table, CSV and
/// `BENCH_switching.json`.
pub fn run(scale: &Scale, out: &Path) {
    let model = model(scale);
    let trace = drift_trace(scale);
    let n = trace.len();
    // Each shard sees ~half the trace; epochs short enough that every drift
    // phase spans at least one re-identification round per shard.
    let online = OnlineConfig {
        epoch_requests: 6_000 * scale.factor(),
        warmup_requests: 500 * scale.factor(),
        round_requests: 200 * scale.factor(),
        ..OnlineConfig::default()
    };

    let mut fleet = ShardedFleet::new(
        FleetConfig { shards: SHARDS, queue_capacity: 8192, ..FleetConfig::default() },
        CacheConfig { hoc_bytes: 2 * 1024 * 1024, ..CacheConfig::small_test() },
        Box::new(HashRouter),
        {
            let model = Arc::clone(&model);
            move |_| DarwinDriver::new(Arc::clone(&model), online)
        },
    );
    let handle = fleet.metrics_handle();
    fleet.submit_trace(&trace);
    fleet.finish();

    let mut expert_switches = 0usize;
    let mut rows: Vec<SwitchRow> = Vec::new();
    for (shard, journal) in handle.journals() {
        for ev in &journal.events {
            match &ev.kind {
                EventKind::ExpertSwitch { .. } => expert_switches += 1,
                EventKind::SwitchCost { expert, baseline, dip, recovery, window } => {
                    rows.push(SwitchRow {
                        shard,
                        seq: ev.seq,
                        expert: *expert,
                        baseline: *baseline,
                        dip: *dip,
                        recovery_requests: *recovery,
                        window: *window,
                    });
                }
                _ => {}
            }
        }
    }
    rows.sort_by_key(|r| (r.shard, r.seq));
    assert!(expert_switches > 0, "the drift trace must force at least one expert switch");
    assert!(!rows.is_empty(), "every switch opens a cost window that eventually closes");

    let closed = rows.len();
    let mean_dip = rows.iter().map(|r| r.dip).sum::<f64>() / closed as f64;
    let max_dip = rows.iter().map(|r| r.dip).fold(0.0, f64::max);
    let recovered = rows.iter().filter(|r| r.recovery_requests.is_some()).count();

    let mut table = Report::new(
        "switching",
        "Hit-ratio cost of expert switches under drift",
        &["shard", "seq", "expert", "baseline", "dip", "recovery", "window"],
        out,
    );
    for r in &rows {
        table.row(&[
            r.shard.to_string(),
            r.seq.to_string(),
            r.expert.to_string(),
            f4(r.baseline),
            f4(r.dip),
            r.recovery_requests.map_or("-".into(), |v| v.to_string()),
            r.window.to_string(),
        ]);
    }
    table.finish().expect("write switching.csv");

    let bench = SwitchingBench {
        experiment: "switching".into(),
        scale: scale.factor(),
        requests: n,
        shards: SHARDS,
        expert_switches,
        switch_windows: closed,
        mean_dip,
        max_dip,
        recovered_frac: recovered as f64 / closed as f64,
        rows,
    };
    std::fs::create_dir_all(out).expect("create output dir");
    let json = serde_json::to_string_pretty(&bench).expect("serialize BENCH_switching");
    let path = out.join("BENCH_switching.json");
    std::fs::write(&path, &json).expect("write BENCH_switching.json");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_has_expected_shape() {
        let doc = SwitchingBench {
            experiment: "switching".into(),
            scale: 1,
            requests: 72_000,
            shards: SHARDS,
            expert_switches: 3,
            switch_windows: 2,
            mean_dip: 0.05,
            max_dip: 0.09,
            recovered_frac: 0.5,
            rows: vec![SwitchRow {
                shard: 0,
                seq: 25_000,
                expert: 2,
                baseline: 0.41,
                dip: 0.09,
                recovery_requests: None,
                window: 4_096,
            }],
        };
        let s = serde_json::to_string_pretty(&doc).unwrap();
        assert!(s.contains("\"experiment\""));
        assert!(s.contains("switch_windows"));
        assert!(s.contains("recovery_requests"));
        assert!(s.contains("null"), "unrecovered windows serialize as null");
    }

    #[test]
    fn drift_trace_has_three_phases() {
        let t = drift_trace(&Scale::new(1));
        assert_eq!(t.len(), 3 * 24_000);
        // Timestamps are globally monotone after concatenation.
        assert!(t.requests().windows(2).all(|w| w[0].timestamp_us <= w[1].timestamp_us));
    }
}
