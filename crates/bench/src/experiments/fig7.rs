//! Figure 7: prototype latency and throughput (§6.4).
//!
//! * 7a — first-byte latency CDF over a concatenated four-trace workload
//!   with different best experts; Darwin's better OHR lowers the CDF's
//!   origin-round-trip tail.
//! * 7b — peak application throughput vs concurrency; both Darwin and the
//!   static (f=2, s=2 KB) expert peak at an interior concurrency (paper:
//!   ~200 clients; Darwin 10.4 Gbps vs static 9.3 Gbps), because lock
//!   contention grows with concurrency while hit rate amortizes origin
//!   round trips.

use crate::corpus::SharedContext;
use crate::report::Report;
use darwin::{DarwinDriver, Expert, StaticDriver};
use darwin_testbed::{Testbed, TestbedConfig};
use darwin_trace::concat_traces;
use std::path::Path;
use std::sync::Arc;

/// Fig 7a: first-byte latency CDF, Darwin vs a static expert.
pub fn run_a(ctx: &SharedContext, out: &Path) {
    // Four phases with different best experts, as in the paper. Run at a
    // concurrency where the shared disk/origin queues carry load: with the
    // testbed unloaded, HOC-vs-DC hits cost nearly the same and the CDF
    // degenerates to the two propagation plateaus.
    let picks = ctx.ensemble_indices();
    let parts: Vec<_> = picks.iter().rev().take(4).map(|&i| ctx.corpus.online_test[i].clone()).collect();
    let workload = concat_traces(&parts);
    let cache = ctx.scale.cache_config();
    let tb = Testbed::new(TestbedConfig { concurrency: 200, ..TestbedConfig::default() });

    let mut rep = Report::new(
        "fig7a",
        "Fig 7a: first-byte latency percentiles (ms)",
        &["driver", "p10", "p25", "p50", "p75", "p90", "p99", "mean"],
        out,
    );
    let mut darwin_driver = DarwinDriver::new(Arc::clone(&ctx.model), ctx.scale.online_config());
    let rd = tb.run(&workload, &cache, &mut darwin_driver);
    let mut static_driver = StaticDriver::new(Expert::new(2, 100).policy);
    let rs = tb.run(&workload, &cache, &mut static_driver);

    for (label, mut lat) in
        [("darwin".to_string(), rd.latency.clone()), ("f2s100".to_string(), rs.latency.clone())]
    {
        rep.row(&[
            label,
            format!("{:.1}", lat.percentile(10.0) as f64 / 1000.0),
            format!("{:.1}", lat.percentile(25.0) as f64 / 1000.0),
            format!("{:.1}", lat.percentile(50.0) as f64 / 1000.0),
            format!("{:.1}", lat.percentile(75.0) as f64 / 1000.0),
            format!("{:.1}", lat.percentile(90.0) as f64 / 1000.0),
            format!("{:.1}", lat.percentile(99.0) as f64 / 1000.0),
            format!("{:.1}", lat.mean() / 1000.0),
        ]);
    }
    rep.finish().expect("write fig7a");

    // Full CDF series for plotting.
    let mut cdf =
        Report::new("fig7a_cdf", "Fig 7a: latency CDF series", &["driver", "latency_ms", "cdf"], out);
    for (label, mut lat) in [("darwin".to_string(), rd.latency), ("f2s100".to_string(), rs.latency)] {
        for (us, frac) in lat.cdf(50) {
            cdf.row(&[label.clone(), format!("{:.2}", us as f64 / 1000.0), format!("{frac:.4}")]);
        }
    }
    cdf.finish().expect("write fig7a cdf");
}

/// Fig 7b: throughput vs concurrency sweep.
pub fn run_b(ctx: &SharedContext, out: &Path) {
    // Use the download-heavy end of the ensemble: its larger objects are
    // what push the shared disk and origin link toward saturation, making
    // the hit-rate → throughput coupling visible (as in the paper, whose
    // testbed served production-sized media objects).
    let picks = ctx.ensemble_indices();
    let parts: Vec<_> = picks.iter().rev().take(2).map(|&i| ctx.corpus.online_test[i].clone()).collect();
    let workload = concat_traces(&parts);
    let cache = ctx.scale.cache_config();

    let mut rep = Report::new(
        "fig7b",
        "Fig 7b: goodput (Gbps) vs concurrency",
        &["concurrency", "darwin_gbps", "darwin_ohr", "static_gbps", "static_ohr"],
        out,
    );
    // The paper compares against the static (f=2, s=2 KB) expert.
    for concurrency in [1usize, 4, 16, 50, 100, 200, 400, 800, 1600, 3200] {
        let tb = Testbed::new(TestbedConfig { concurrency, ..TestbedConfig::default() });
        let mut dd = DarwinDriver::new(Arc::clone(&ctx.model), ctx.scale.online_config());
        let rd = tb.run(&workload, &cache, &mut dd);
        let mut sd = StaticDriver::new(Expert::new(2, 2).policy);
        let rs = tb.run(&workload, &cache, &mut sd);
        rep.row(&[
            concurrency.to_string(),
            format!("{:.3}", rd.goodput_gbps),
            format!("{:.4}", rd.cache.hoc_ohr()),
            format!("{:.3}", rs.goodput_gbps),
            format!("{:.4}", rs.cache.hoc_ohr()),
        ]);
    }
    rep.finish().expect("write fig7b");
}
