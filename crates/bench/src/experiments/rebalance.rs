//! Elastic fleet rebalancing: the 4 → 8 → 4 resize scenario
//! (`BENCH_rebalance.json`).
//!
//! Part 1 drives a live [`ElasticFleet`] (threaded shard workers, blocking
//! backpressure) through the acceptance schedule: serve on 4 shards, grow
//! to 8 under load, serve, shrink back to 4, serve out the tail. After
//! every window of requests the harness drains the queues and samples the
//! merged fleet metrics, giving an exact windowed hit-ratio curve in
//! request space. The experiment asserts the determinism contract's
//! observable half:
//!
//! * **conservation** — `processed + dropped + unavailable == submitted`,
//!   with zero `Unavailable` and zero drops across both cutovers;
//! * **remap bound** — the fraction of the trace's distinct objects whose
//!   owner changes is within 10% of the theoretical `|M−N|/max(N,M)`;
//! * **bounded dip** — the windowed hit ratio returns to ≥95% of the
//!   pre-resize steady state within one checkpoint window (defined
//!   fleet-wide: `checkpoint_every × max(N,M)` requests — the span in
//!   which every shard of the wider fleet cuts one periodic checkpoint);
//! * **O(churn) handoff** — every survivor ships a delta envelope smaller
//!   than its full checkpoint frame.
//!
//! Part 2 is the cross-process warm boot: a loopback [`Gateway`] with
//! `--checkpoint-dir` semantics serves half the trace and shuts down; a
//! second gateway process pointed at the same directory must boot every
//! shard warm (`warm_boots == shards`) and serve the rest.
//!
//! Output: a console table, `<out>/rebalance.csv`, and
//! `<out>/BENCH_rebalance.json`.

use crate::report::{f4, Report};
use crate::scale::Scale;
use darwin_cache::ThresholdPolicy;
use darwin_gateway::{loadgen, Gateway, GatewayConfig, LoadgenConfig};
use darwin_rebalance::{
    theoretical_remap, ElasticFleet, RingRouter, TransferStat, DEFAULT_SEED, DEFAULT_VNODES,
};
use darwin_shard::{Backpressure, FaultPlan, FleetConfig, GenerationSummary, Router};
use darwin_testbed::StaticDriver;
use darwin_trace::{MixSpec, Request, Trace, TraceGenerator, TrafficClass};
use serde::Serialize;
use std::collections::HashSet;
use std::path::Path;

/// Fraction of steady-state hit ratio a post-resize window must regain.
pub const RECOVERY_THRESHOLD: f64 = 0.95;
/// Allowed relative error between measured and theoretical remap fraction.
pub const REMAP_TOLERANCE: f64 = 0.10;

/// One point of the windowed hit-ratio curve.
#[derive(Debug, Clone, Serialize)]
pub struct CurvePoint {
    /// Fleet-wide request sequence number at the window's end.
    pub seq: u64,
    /// HOC object hit ratio within the window.
    pub ohr: f64,
}

/// One resize's measurements.
#[derive(Debug, Clone, Serialize)]
pub struct ResizeRow {
    /// Shards before the resize.
    pub from_shards: usize,
    /// Shards after the resize.
    pub to_shards: usize,
    /// Fleet-wide request sequence number of the cutover.
    pub at_seq: u64,
    /// Fraction of the trace's distinct objects whose owner changed.
    pub measured_remap: f64,
    /// The `|M−N|/max(N,M)` bound.
    pub theoretical_remap: f64,
    /// Pre-resize steady-state windowed hit ratio (last quarter of the
    /// preceding phase).
    pub steady_ohr: f64,
    /// Lowest windowed hit ratio inside the recovery budget (the dip).
    pub dip_ohr: f64,
    /// Post-resize requests until a window first regained
    /// [`RECOVERY_THRESHOLD`] × `steady_ohr`.
    pub recovery_requests: u64,
    /// The recovery budget: one fleet-wide checkpoint window,
    /// `checkpoint_every × max(N,M)` requests.
    pub recovery_budget: u64,
    /// Transfer envelopes the resize shipped, one per survivor.
    pub transfers: Vec<TransferStat>,
}

/// The cross-process warm-boot measurements (part 2).
#[derive(Debug, Clone, Serialize)]
pub struct WarmBootRow {
    /// Shards behind each gateway process.
    pub shards: usize,
    /// Requests the first process served before shutdown.
    pub first_requests: u64,
    /// Requests the restarted process served.
    pub second_requests: u64,
    /// Shards the restarted process restored from spill files
    /// (the `warm_restarts > 0` acceptance criterion; boot-time restores
    /// are counted in the dedicated warm-boot counter so that
    /// `warm + cold == restarts` stays an invariant for in-process
    /// respawns).
    pub warm_boots: u32,
    /// Supervisor restarts in the second process (0: a warm boot is not a
    /// restart).
    pub restarts: u32,
}

/// The full `BENCH_rebalance.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct RebalanceBench {
    /// Experiment name.
    pub experiment: String,
    /// Scale factor the trace length derives from.
    pub scale: usize,
    /// Requests in the elastic-run trace.
    pub requests: usize,
    /// CPU cores visible to this process.
    pub cpu_cores: usize,
    /// Router label (ring seed + vnodes).
    pub router: String,
    /// Virtual nodes per shard.
    pub vnodes: u32,
    /// Shard counts the run moves through.
    pub shards_schedule: Vec<usize>,
    /// Per-shard checkpoint cadence, requests.
    pub checkpoint_every: u64,
    /// Window length of the hit-ratio curve, fleet-wide requests.
    pub window: u64,
    /// Requests submitted across the whole elastic run.
    pub submitted: u64,
    /// Requests processed (== submitted: nothing dropped or unavailable).
    pub processed: u64,
    /// Requests dropped (0).
    pub dropped: u64,
    /// Requests answered `Unavailable` (0).
    pub unavailable: u64,
    /// The exactly-once ledger held.
    pub conserved: bool,
    /// Per-generation ledger rows.
    pub generations: Vec<GenerationSummary>,
    /// Windowed hit-ratio curve over the whole run.
    pub curve: Vec<CurvePoint>,
    /// Per-resize measurements.
    pub resizes: Vec<ResizeRow>,
    /// Cross-process warm boot (part 2).
    pub warm_boot: WarmBootRow,
}

fn bench_trace(scale: &Scale) -> Trace {
    TraceGenerator::new(MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5), 2028)
        .generate(scale.online_trace_len())
}

fn policy() -> ThresholdPolicy {
    ThresholdPolicy::new(2, 100 * 1024)
}

fn fleet_cfg(shards: usize, checkpoint_every: u64) -> FleetConfig {
    FleetConfig {
        shards,
        queue_capacity: 4096,
        batch: 256,
        backpressure: Backpressure::Block,
        checkpoint_every: Some(checkpoint_every),
        ..Default::default()
    }
}

/// Fraction of `trace`'s *distinct* objects whose ring owner changes in a
/// `from → to` resize — the measured counterpart of [`theoretical_remap`],
/// weighted the way the fleet actually feels it (per object, not per id
/// drawn from a synthetic range).
fn measured_remap(ring: &RingRouter, trace: &Trace, from: usize, to: usize) -> f64 {
    let ids: HashSet<u64> = trace.iter().map(|r| r.id).collect();
    if ids.is_empty() {
        return 0.0;
    }
    let moved = ids.iter().filter(|&&id| ring.route(id, from) != ring.route(id, to)).count();
    moved as f64 / ids.len() as f64
}

/// Mean windowed hit ratio over the last quarter of the curve segment
/// `[lo, hi)` — the steady state the next resize is measured against.
fn steady_ohr(curve: &[CurvePoint], lo: usize, hi: usize) -> f64 {
    let seg = &curve[lo..hi];
    let tail = &seg[seg.len() * 3 / 4..];
    tail.iter().map(|p| p.ohr).sum::<f64>() / tail.len() as f64
}

/// Runs the elastic scenario and part 2 with the default 4 → 8 → 4
/// schedule, writes table, CSV and JSON.
pub fn run(scale: &Scale, out: &Path) {
    run_with(scale, out, 8);
}

/// Like [`run`], but scaling the fleet to `resize_to` shards mid-run
/// (the `--resize-to` flag): the schedule becomes `4 → resize_to → 4`.
pub fn run_with(scale: &Scale, out: &Path, resize_to: usize) {
    assert!(resize_to >= 1 && resize_to != 4, "--resize-to needs a shard count other than the base 4");
    let trace = bench_trace(scale);
    let n = trace.len();
    let cache = scale.cache_config();
    let window = (n as u64 / 50).max(500);
    let checkpoint_every = window;
    let schedule = [4usize, resize_to, 4];

    // --- Part 1: the live 4 -> 8 -> 4 elastic run -----------------------
    let ckpt_dir = out.join("rebalance-ckpt");
    std::fs::remove_dir_all(&ckpt_dir).ok();
    let ring = RingRouter::new(DEFAULT_SEED, DEFAULT_VNODES);
    let p = policy();
    let fleet = ElasticFleet::new(
        fleet_cfg(schedule[0], checkpoint_every),
        cache.clone(),
        Box::new(ring.clone()),
        move |_| StaticDriver::new(p),
        FaultPlan::default(),
        Some(ckpt_dir.clone()),
        false,
    );

    let frames: Vec<Vec<Request>> =
        trace.requests().chunks(window as usize).map(|c| c.to_vec()).collect();
    // Resize at 40% and 80% of the trace — window-aligned so the curve's
    // resize boundaries are exact.
    let r1 = frames.len() * 2 / 5;
    let r2 = frames.len() * 4 / 5;

    let mut curve: Vec<CurvePoint> = Vec::with_capacity(frames.len());
    let mut resizes: Vec<ResizeRow> = Vec::new();
    let mut prev = (0u64, 0u64); // cumulative (requests, hoc_hits)
    let mut boundaries: Vec<(usize, usize, usize, u64)> = Vec::new(); // (curve idx, from, to, seq)

    for (i, frame) in frames.iter().enumerate() {
        if i == r1 || i == r2 {
            let (from, to) =
                if i == r1 { (schedule[0], schedule[1]) } else { (schedule[1], schedule[2]) };
            let at_seq = fleet.submitted();
            fleet.resize(to).expect("live resize");
            boundaries.push((curve.len(), from, to, at_seq));
        }
        fleet.submit_frame(frame.iter().cloned());
        // Drain to the submission point so the curve is exact in request
        // space (the equivalence theorem makes the drained state a property
        // of the trace, not of thread timing).
        let submitted = fleet.submitted();
        loop {
            let m = fleet.metrics();
            if m.total_processed() + m.total_dropped() + m.total_unavailable() >= submitted {
                let c = m.fleet_cache();
                let (dr, dh) = (c.requests - prev.0, c.hoc_hits - prev.1);
                curve.push(CurvePoint {
                    seq: submitted,
                    ohr: if dr == 0 { 0.0 } else { dh as f64 / dr as f64 },
                });
                prev = (c.requests, c.hoc_hits);
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
    let report = fleet.finish(false);

    // Conservation: the exactly-once ledger, with zero Unavailable.
    assert!(report.conserved(), "processed + dropped + unavailable == submitted");
    assert_eq!(report.metrics.total_unavailable(), 0, "a resize never answers Unavailable");
    assert_eq!(report.metrics.total_dropped(), 0, "blocking backpressure drops nothing");
    assert_eq!(report.submitted, n as u64);

    // Per-resize rows: remap bound, dip, recovery.
    let mut seg_lo = 0usize;
    for &(cut_idx, from, to, at_seq) in &boundaries {
        let steady = steady_ohr(&curve, seg_lo, cut_idx);
        let budget = checkpoint_every * from.max(to) as u64;
        let in_budget: Vec<&CurvePoint> =
            curve[cut_idx..].iter().take_while(|p| p.seq - at_seq <= budget).collect();
        let dip = in_budget.iter().map(|p| p.ohr).fold(f64::INFINITY, f64::min);
        let recovery = in_budget
            .iter()
            .find(|p| p.ohr >= RECOVERY_THRESHOLD * steady)
            .map(|p| p.seq - at_seq)
            .unwrap_or_else(|| {
                panic!(
                    "{from}->{to}: hit ratio never regained {:.0}% of steady ({steady:.4}) \
                     within one checkpoint window ({budget} requests)",
                    RECOVERY_THRESHOLD * 100.0
                )
            });
        let measured = measured_remap(&ring, &trace, from, to);
        let theory = theoretical_remap(from, to);
        assert!(
            (measured - theory).abs() <= REMAP_TOLERANCE * theory,
            "{from}->{to}: measured remap {measured:.4} strays >10% from theory {theory:.4}"
        );
        let transfers: Vec<TransferStat> = report
            .transfers
            .iter()
            .filter(|t| t.from_generation == resizes.len() as u32)
            .cloned()
            .collect();
        assert_eq!(transfers.len(), from.min(to), "one envelope per survivor");
        for t in &transfers {
            assert!(t.delta, "shard {}: handoff ships a delta, not the full image", t.shard);
            assert!(t.shipped_bytes < t.full_bytes, "shard {}: O(churn) handoff", t.shard);
        }
        resizes.push(ResizeRow {
            from_shards: from,
            to_shards: to,
            at_seq,
            measured_remap: measured,
            theoretical_remap: theory,
            steady_ohr: steady,
            dip_ohr: dip,
            recovery_requests: recovery,
            recovery_budget: budget,
            transfers,
        });
        seg_lo = cut_idx;
    }
    std::fs::remove_dir_all(&ckpt_dir).ok();

    // --- Part 2: killed-and-restarted gateway warm-boots ----------------
    let gw_dir = out.join("rebalance-gw-ckpt");
    std::fs::remove_dir_all(&gw_dir).ok();
    let shards = schedule[0];
    let half = n / 2;
    let (head, tail) = {
        let reqs = trace.requests();
        (Trace::from_sorted(reqs[..half].to_vec()), Trace::from_sorted(reqs[half..].to_vec()))
    };
    let serve = |t: &Trace| {
        let p = policy();
        let gateway = Gateway::bind_with(
            "127.0.0.1:0",
            fleet_cfg(shards, checkpoint_every),
            cache.clone(),
            Box::new(RingRouter::new(DEFAULT_SEED, DEFAULT_VNODES)),
            GatewayConfig { checkpoint_dir: Some(gw_dir.clone()), ..GatewayConfig::default() },
            move |_| StaticDriver::new(p),
        )
        .expect("bind loopback gateway");
        let lg = LoadgenConfig { connections: 2, batch: 64, window: 8, ..LoadgenConfig::default() };
        let lg_report = loadgen::run(gateway.local_addr(), t, lg).expect("loadgen replay");
        assert_eq!(lg_report.tally.total(), t.len() as u64, "every request gets a verdict");
        let metrics = gateway.metrics();
        gateway.shutdown();
        let fleet_report = gateway.finish().expect("clean gateway shutdown");
        (metrics, fleet_report)
    };
    let (_, first_report) = serve(&head);
    // "Kill": the first process is gone; only the spill directory survives.
    let (second_metrics, second_report) = serve(&tail);
    let warm_boots = second_metrics.total_warm_boots();
    assert_eq!(
        warm_boots, shards as u32,
        "the restarted gateway restores every shard from --checkpoint-dir"
    );
    assert_eq!(second_report.total_restarts(), 0, "a warm boot is not a restart");
    let warm_boot = WarmBootRow {
        shards,
        first_requests: first_report.total_processed(),
        second_requests: second_report.total_processed(),
        warm_boots,
        restarts: second_report.total_restarts(),
    };
    std::fs::remove_dir_all(&gw_dir).ok();

    // --- Report ---------------------------------------------------------
    let description = format!(
        "Elastic {}->{}->{} resize: remap bound, hit-ratio dip and recovery",
        schedule[0], schedule[1], schedule[2]
    );
    let mut table = Report::new(
        "rebalance",
        &description,
        &["resize", "remap", "theory", "steady", "dip", "recovery_reqs", "budget", "delta_bytes"],
        out,
    );
    for r in &resizes {
        table.row(&[
            format!("{}->{}", r.from_shards, r.to_shards),
            f4(r.measured_remap),
            f4(r.theoretical_remap),
            f4(r.steady_ohr),
            f4(r.dip_ohr),
            r.recovery_requests.to_string(),
            r.recovery_budget.to_string(),
            r.transfers.iter().map(|t| t.shipped_bytes).sum::<u64>().to_string(),
        ]);
    }
    table.finish().expect("write rebalance.csv");
    println!(
        "conservation: submitted {} processed {} dropped {} unavailable {} | gateway warm boots {}/{}",
        report.submitted,
        report.metrics.total_processed(),
        report.metrics.total_dropped(),
        report.metrics.total_unavailable(),
        warm_boot.warm_boots,
        warm_boot.shards,
    );

    let bench = RebalanceBench {
        experiment: "rebalance".into(),
        scale: scale.factor(),
        requests: n,
        cpu_cores: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
        router: ring.label(),
        vnodes: DEFAULT_VNODES as u32,
        shards_schedule: schedule.to_vec(),
        checkpoint_every,
        window,
        submitted: report.submitted,
        processed: report.metrics.total_processed(),
        dropped: report.metrics.total_dropped(),
        unavailable: report.metrics.total_unavailable(),
        conserved: report.conserved(),
        generations: report.metrics.generations.clone(),
        curve,
        resizes,
        warm_boot,
    };
    std::fs::create_dir_all(out).expect("create output dir");
    let json = serde_json::to_string_pretty(&bench).expect("serialize BENCH_rebalance");
    let path = out.join("BENCH_rebalance.json");
    std::fs::write(&path, &json).expect("write BENCH_rebalance.json");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_ohr_uses_the_last_quarter() {
        let curve: Vec<CurvePoint> =
            (0..8).map(|i| CurvePoint { seq: i * 100, ohr: i as f64 / 10.0 }).collect();
        // Last quarter of [0, 8) is indices 6..8 -> mean of 0.6 and 0.7.
        assert!((steady_ohr(&curve, 0, 8) - 0.65).abs() < 1e-12);
    }

    #[test]
    fn measured_remap_counts_distinct_objects() {
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 5).generate(5_000);
        let ring = RingRouter::new(DEFAULT_SEED, DEFAULT_VNODES);
        let m = measured_remap(&ring, &trace, 4, 8);
        let t = theoretical_remap(4, 8);
        assert!(m > 0.0 && m < 1.0);
        assert!((m - t).abs() <= 0.2 * t, "measured {m} vs theory {t}");
        assert_eq!(measured_remap(&ring, &trace, 4, 4), 0.0);
    }

    #[test]
    fn bench_json_has_expected_shape() {
        let doc = RebalanceBench {
            experiment: "rebalance".into(),
            scale: 1,
            requests: 1_000,
            cpu_cores: 8,
            router: "ring".into(),
            vnodes: 64,
            shards_schedule: vec![4, 8, 4],
            checkpoint_every: 500,
            window: 500,
            submitted: 1_000,
            processed: 1_000,
            dropped: 0,
            unavailable: 0,
            conserved: true,
            generations: Vec::new(),
            curve: vec![CurvePoint { seq: 500, ohr: 0.4 }],
            resizes: Vec::new(),
            warm_boot: WarmBootRow {
                shards: 4,
                first_requests: 500,
                second_requests: 500,
                warm_boots: 4,
                restarts: 0,
            },
        };
        let s = serde_json::to_string_pretty(&doc).unwrap();
        assert!(s.contains("cpu_cores"));
        assert!(s.contains("conserved"));
        assert!(s.contains("warm_boots"));
        assert!(s.contains("shards_schedule"));
    }
}
