//! Figure 4: Darwin vs baselines — OHR robustness to traffic changes.
//!
//! * 4a — simulation at the base ("100 MB") cache size over the ensemble set
//!   (one online trace per distinct hindsight-best static expert).
//! * 4b — same at the 5×-scaled ("500 MB") cache size with 5×-scaled traces
//!   and size thresholds.
//! * 4c — prototype (testbed simulation) at low concurrency.
//!
//! Paper headline: Darwin improves OHR by 3–43 % against baselines; no
//! static expert wins on every trace.

use crate::corpus::SharedContext;
use crate::report::{f4, Report};
use crate::runs::{self, tuning_sample, BaselineSuite};
use crate::scale::Scale;
use darwin::offline::OfflineTrainer;
use darwin::{DarwinDriver, ExpertGrid, StaticDriver};
use darwin_testbed::{Testbed, TestbedConfig};
use darwin_trace::{concat_traces, scale_trace};
use std::path::Path;
use std::sync::Arc;

/// Fig 4a: base cache size.
pub fn run_a(ctx: &SharedContext, out: &Path) {
    run_sim_comparison(
        ctx,
        &ctx.scale,
        1,
        "fig4a",
        "Fig 4a: OHR improvement of Darwin vs baselines (base cache)",
        out,
    );
}

/// Fig 4b: 5× cache with 5×-scaled traces (paper's 500 MB study).
pub fn run_b(ctx: &SharedContext, out: &Path) {
    // Build a scaled context: scale traces and thresholds by 5, retrain.
    eprintln!("[fig4b] building 5x-scaled corpus and model ...");
    let factor = 5u64;
    let scaled_train: Vec<_> = ctx
        .corpus
        .offline_train
        .iter()
        .enumerate()
        .map(|(i, t)| scale_trace(t, factor as f64, 0.2, 9000 + i as u64))
        .collect();
    let scaled_online: Vec<_> = ctx
        .corpus
        .online_test
        .iter()
        .enumerate()
        .map(|(i, t)| scale_trace(t, factor as f64, 0.2, 9500 + i as u64))
        .collect();

    let mut cfg = SharedContext::offline_config(&ctx.scale, false);
    cfg.grid = ExpertGrid::paper_grid_scaled(factor);
    cfg.hoc_bytes = ctx.scale.hoc_bytes() * factor;
    let trainer = OfflineTrainer::new(cfg.clone());
    let train_evals = trainer.evaluate_corpus(&scaled_train);
    let online_evals = trainer.evaluate_corpus(&scaled_online);
    let model = Arc::new(trainer.train_from_evaluations(&train_evals));

    // Ensemble over the scaled traces.
    let mut seen = Vec::new();
    let mut picks = Vec::new();
    for (i, ev) in online_evals.iter().enumerate() {
        let b = ev.best_expert();
        if !seen.contains(&b) {
            seen.push(b);
            picks.push(i);
        }
    }

    let cache = ctx.scale.cache_config_scaled(factor);
    let suite =
        BaselineSuite::build(&ctx.scale, &cfg.grid, &train_evals, &tuning_sample(&scaled_train), &cache);
    let mut rep = Report::new(
        "fig4b",
        "Fig 4b: OHR improvement of Darwin vs baselines (5x cache)",
        &["trace", "baseline", "baseline_ohr", "darwin_ohr", "improvement_pct"],
        out,
    );
    // Per-pick comparisons are independent; fan them out and aggregate the
    // report rows in pick order afterwards (the inner baseline suite runs
    // inline inside each worker).
    let per_pick = darwin_parallel::par_map(0, &picks, |&ti| {
        let trace = &scaled_online[ti];
        let d = runs::darwin_metrics(&model, &ctx.scale, trace, &cache).hoc_ohr();
        let mut rows: Vec<(String, f64)> = Vec::new();
        // Static experts (from the evaluations).
        for (e, &ohr) in online_evals[ti].hit_rates.iter().enumerate() {
            rows.push((runs::expert_label(&cfg.grid, e), ohr));
        }
        for (label, m) in suite.run_all(trace, &cache) {
            rows.push((label, m.hoc_ohr()));
        }
        (ti, d, rows)
    });
    let mut improvements: Vec<(String, Vec<f64>)> = Vec::new();
    for (ti, d, rows) in per_pick {
        for (label, ohr) in rows {
            let imp = runs::improvement_pct(d, ohr);
            rep.row(&[format!("mix{ti}"), label.clone(), f4(ohr), f4(d), format!("{imp:.2}")]);
            match improvements.iter_mut().find(|(l, _)| *l == label) {
                Some((_, v)) => v.push(imp),
                None => improvements.push((label, vec![imp])),
            }
        }
    }
    rep.finish().expect("write fig4b");
    summarize("fig4b_summary", "Fig 4b summary", improvements, out);
}

/// Fig 4c: prototype (testbed) comparison at low concurrency.
pub fn run_c(ctx: &SharedContext, out: &Path) {
    let picks = ctx.ensemble_indices();
    let parts: Vec<_> = picks.iter().take(4).map(|&i| ctx.corpus.online_test[i].clone()).collect();
    let workload = concat_traces(&parts);
    let cache = ctx.scale.cache_config();
    let tb = Testbed::new(TestbedConfig { concurrency: 8, ..TestbedConfig::default() });

    let mut rep = Report::new(
        "fig4c",
        "Fig 4c: prototype OHR, Darwin vs static experts (low concurrency)",
        &["driver", "hoc_ohr", "goodput_gbps", "mean_fb_latency_ms"],
        out,
    );
    let mut darwin_driver = DarwinDriver::new(Arc::clone(&ctx.model), ctx.scale.online_config());
    let r = tb.run(&workload, &cache, &mut darwin_driver);
    rep.row(&[
        "darwin".into(),
        f4(r.cache.hoc_ohr()),
        format!("{:.3}", r.goodput_gbps),
        format!("{:.1}", r.latency.clone().mean() / 1000.0),
    ]);
    // Each static expert's testbed run is independent; fan out and report
    // in expert order.
    let statics = runs::representative_static(ctx.model.grid());
    let static_runs = darwin_parallel::par_map(0, &statics, |e| {
        let mut d = StaticDriver::new(e.policy);
        (e.label(), tb.run(&workload, &cache, &mut d))
    });
    for (label, r) in static_runs {
        rep.row(&[
            label,
            f4(r.cache.hoc_ohr()),
            format!("{:.3}", r.goodput_gbps),
            format!("{:.1}", r.latency.clone().mean() / 1000.0),
        ]);
    }
    rep.finish().expect("write fig4c");
}

/// Shared Fig-4a-style simulation comparison.
fn run_sim_comparison(
    ctx: &SharedContext,
    scale: &Scale,
    cache_mult: u64,
    name: &str,
    title: &str,
    out: &Path,
) {
    let picks = ctx.ensemble_indices();
    let cache = scale.cache_config_scaled(cache_mult);
    let suite = BaselineSuite::build(
        scale,
        ctx.model.grid(),
        &ctx.train_evals,
        &tuning_sample(&ctx.corpus.offline_train),
        &cache,
    );
    let mut rep = Report::new(
        name,
        title,
        &["trace", "baseline", "baseline_ohr", "darwin_ohr", "improvement_pct"],
        out,
    );
    // One work item per ensemble pick: Darwin plus every baseline on that
    // trace. Aggregation happens in pick order, so reports are identical at
    // any thread count.
    let per_pick = darwin_parallel::par_map(0, &picks, |&ti| {
        let trace = &ctx.corpus.online_test[ti];
        let d = runs::darwin_metrics(&ctx.model, scale, trace, &cache).hoc_ohr();
        let mut rows: Vec<(String, f64)> = Vec::new();
        for (e, &ohr) in ctx.online_evals[ti].hit_rates.iter().enumerate() {
            rows.push((runs::expert_label(ctx.model.grid(), e), ohr));
        }
        for (label, m) in suite.run_all(trace, &cache) {
            rows.push((label, m.hoc_ohr()));
        }
        (ti, d, rows)
    });
    let mut improvements: Vec<(String, Vec<f64>)> = Vec::new();
    for (ti, d, rows) in per_pick {
        for (label, ohr) in rows {
            let imp = runs::improvement_pct(d, ohr);
            rep.row(&[format!("mix{ti}"), label.clone(), f4(ohr), f4(d), format!("{imp:.2}")]);
            match improvements.iter_mut().find(|(l, _)| *l == label) {
                Some((_, v)) => v.push(imp),
                None => improvements.push((label, vec![imp])),
            }
        }
    }
    rep.finish().expect("write fig4");
    summarize(&format!("{name}_summary"), &format!("{title} — summary"), improvements, out);
}

fn summarize(name: &str, title: &str, improvements: Vec<(String, Vec<f64>)>, out: &Path) {
    let mut rep = Report::new(
        name,
        title,
        &["baseline", "min_imp_pct", "median_imp_pct", "mean_imp_pct", "max_imp_pct"],
        out,
    );
    for (label, v) in improvements {
        let s = runs::Stats::of(&v);
        rep.row(&[
            label,
            format!("{:.2}", s.min),
            format!("{:.2}", s.median),
            format!("{:.2}", s.mean),
            format!("{:.2}", s.max),
        ]);
    }
    rep.finish().expect("write fig4 summary");
}
