//! The experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments <what> [--scale N] [--out DIR] [--cache]
//! ```
//!
//! `what` is `all` or one name of the `EXPERIMENTS` table (the usage line
//! lists them). `--scale 1` (default) is the laptop configuration; larger
//! factors move toward the paper's trace lengths and cache sizes
//! proportionally. `--cache` persists the expensive expert evaluations under
//! the output directory and reuses them on later invocations at the same
//! scale.

use darwin::offline::OfflineTrainer;
use darwin::DarwinModel;
use darwin_bench::experiments::{
    ablations, fig2, fig4, fig5, fig6, fig7, fig8_11, hindsight, switching, table2, timeline,
};
use darwin_bench::{Scale, SharedContext};
use std::path::{Path, PathBuf};

/// What an experiment is built from.
#[derive(Clone, Copy)]
enum Runner {
    /// Its own inputs only: runs without the shared offline context.
    Standalone(fn(&Scale, &Path)),
    /// The shared offline context.
    Context(fn(&SharedContext, &Path)),
    /// The shared context and the all-pairs predictor model.
    AllPairs(fn(&SharedContext, &DarwinModel, &Path)),
}

/// Every experiment, in the order `all` runs them. The usage line, name
/// validation, dispatch and `all` read this one table.
const EXPERIMENTS: &[(&str, Runner)] = &[
    ("fig2", Runner::Standalone(fig2::run)),
    ("fig4a", Runner::Context(fig4::run_a)),
    ("fig4b", Runner::Context(fig4::run_b)),
    ("fig4c", Runner::Context(fig4::run_c)),
    ("fig5a", Runner::Context(fig5::run_a)),
    ("fig5b", Runner::Context(fig5::run_b)),
    ("fig5c", Runner::AllPairs(fig5::run_c)),
    ("fig5d", Runner::Context(fig5::run_d)),
    ("fig6", Runner::Context(fig6::run)),
    ("fig7a", Runner::Context(fig7::run_a)),
    ("fig7b", Runner::Context(fig7::run_b)),
    ("table2", Runner::Context(table2::run)),
    ("fig8", Runner::Context(fig8_11::run_fig8)),
    ("fig9", Runner::Context(fig8_11::run_fig9)),
    ("fig10", Runner::AllPairs(fig8_11::run_fig10)),
    ("fig11", Runner::Context(fig8_11::run_fig11)),
    ("ablations", Runner::Context(ablations::run)),
    ("timeline", Runner::Context(timeline::run)),
    ("hindsight", Runner::Context(hindsight::run)),
    ("switching", Runner::Standalone(switching::run)),
];

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!("usage: experiments <all|{}> [--scale N] [--out DIR] [--cache]", names.join("|"));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let what = args[0].clone();
    let mut scale_factor = 1usize;
    let mut out = PathBuf::from("results");
    let mut use_cache = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale_factor = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--cache" => {
                use_cache = true;
            }
            _ => usage(),
        }
        i += 1;
    }
    let scale = Scale::new(scale_factor);

    // Validate the experiment name before building anything expensive.
    let all = what == "all";
    let selected: Vec<(&str, Runner)> = if all {
        EXPERIMENTS.to_vec()
    } else {
        match EXPERIMENTS.iter().find(|(name, _)| *name == what) {
            Some(&experiment) => vec![experiment],
            None => {
                eprintln!("unknown experiment {what:?}");
                usage();
            }
        }
    };

    // A lone standalone experiment needs no shared context.
    if let [(_, Runner::Standalone(run))] = selected[..] {
        run(&scale, &out);
        return;
    }

    eprintln!("[experiments] building shared context at scale {scale_factor} ...");
    let t0 = std::time::Instant::now();
    let ctx = SharedContext::build_with_cache(scale, false, use_cache.then_some(out.as_path()));
    eprintln!("[experiments] context ready in {:.1}s", t0.elapsed().as_secs_f64());

    let needs_all_pairs = selected.iter().any(|(_, runner)| matches!(runner, Runner::AllPairs(_)));
    let all_pairs_model = needs_all_pairs.then(|| {
        eprintln!("[experiments] training all-pairs predictor model (Fig 5c / Fig 10) ...");
        let mut cfg = ctx.offline_cfg.clone();
        cfg.train_all_pairs = true;
        OfflineTrainer::new(cfg).train_from_evaluations(&ctx.train_evals)
    });

    for (name, runner) in selected {
        let t = std::time::Instant::now();
        if all {
            eprintln!("\n[experiments] ===== {name} =====");
        }
        match runner {
            Runner::Standalone(run) => run(&scale, &out),
            Runner::Context(run) => run(&ctx, &out),
            Runner::AllPairs(run) => run(&ctx, all_pairs_model.as_ref().expect("all-pairs model"), &out),
        }
        if all {
            eprintln!("[experiments] {name} done in {:.1}s", t.elapsed().as_secs_f64());
        }
    }
}
