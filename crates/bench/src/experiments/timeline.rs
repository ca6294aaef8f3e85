//! Adaptation timeline (extension experiment): windowed HOC OHR over a
//! traffic-shift workload, comparing
//!
//! * the paper's fixed-epoch Darwin,
//! * Darwin with the drift-restart extension
//!   ([`darwin::OnlineConfig::drift_threshold`]), and
//! * two static experts (each phase's favourite).
//!
//! The shift lands *inside* a fixed epoch, so vanilla Darwin stays on the
//! stale expert until the next epoch boundary while the drift variant
//! re-identifies within a few detector chunks — the series make the
//! difference visible request-window by request-window.

use crate::corpus::SharedContext;
use crate::report::{f4, Report};
use darwin::runner::{run_darwin_with_timeline, serve_timeline};
use darwin::{Expert, StaticDriver};
use darwin_cache::CacheServer;
use darwin_trace::{concat_traces, MixSpec, Trace, TraceGenerator, TrafficClass};
use std::path::Path;

/// Runs the timeline experiment.
pub fn run(ctx: &SharedContext, out: &Path) {
    let cache = ctx.scale.cache_config();
    let len = ctx.scale.online_trace_len();
    let workload = shift_workload(len);
    let window = (len / 40).max(500);

    let mut base_cfg = ctx.scale.online_config();
    base_cfg.epoch_requests = workload.len().max(2); // one fixed epoch
    let drift_cfg = darwin::OnlineConfig { drift_threshold: Some(0.4), ..base_cfg };

    let fixed = run_darwin_with_timeline(&ctx.model, &base_cfg, &workload, &cache, window);
    let drift = run_darwin_with_timeline(&ctx.model, &drift_cfg, &workload, &cache, window);

    // Static timelines.
    let static_timeline = |e: Expert| {
        let mut server = CacheServer::new(cache.clone());
        server.set_policy(e.policy);
        serve_timeline(&mut server, &mut StaticDriver::new(e.policy), workload.requests(), window)
    };
    let s_img = static_timeline(Expert::new(5, 20));
    let s_dl = static_timeline(Expert::new(2, 1000));

    let mut rep = Report::new(
        "timeline",
        "Adaptation timeline: windowed OHR across a mid-epoch traffic shift",
        &["request", "darwin_fixed", "darwin_drift", "static_f5s20", "static_f2s1000"],
        out,
    );
    for i in 0..fixed.timeline.len() {
        rep.row(&[
            fixed.timeline[i].0.to_string(),
            f4(fixed.timeline[i].1),
            f4(drift.timeline.get(i).map(|&(_, o)| o).unwrap_or(0.0)),
            f4(s_img.get(i).map(|&(_, o)| o).unwrap_or(0.0)),
            f4(s_dl.get(i).map(|&(_, o)| o).unwrap_or(0.0)),
        ]);
    }
    rep.finish().expect("write timeline");
    println!(
        "[timeline] overall OHR: fixed-epoch {:.4} vs drift-restart {:.4} \
         (restarts happen only in the drift variant)",
        fixed.metrics.hoc_ohr(),
        drift.metrics.hoc_ohr()
    );
}

/// The shift workload: image-heavy for the first quarter, download-heavy
/// for the rest — the shift lands at 25 % of one long epoch.
pub fn shift_workload(len: usize) -> Trace {
    let a = TraceGenerator::new(
        MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.95),
        8101,
    )
    .generate(len / 4);
    let b = TraceGenerator::new(
        MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.05),
        8102,
    )
    .generate(len - len / 4);
    concat_traces(&[a, b])
}
