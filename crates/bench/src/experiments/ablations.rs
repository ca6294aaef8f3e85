//! Ablations of Darwin's design choices (called out in DESIGN.md):
//!
//! 1. **Side information on/off** — the Theorem 2 claim: identification
//!    rounds stay roughly flat in K with side information but grow with K
//!    under classical bandit feedback. Measured on synthetic Gaussian
//!    environments.
//! 2. **θ sweep end-to-end** — larger θ means bigger candidate sets: more
//!    robust coverage but longer identification.
//! 3. **Warm-up length sweep** — shorter warm-ups misestimate features and
//!    can pick the wrong cluster.
//! 4. **Cluster-count sweep** — k-means inertia and resulting set sizes.
//! 5. **Predictor features** — with vs without the bucketized size
//!    distribution (§4.1 claims it sharpens conditional estimates).

use crate::corpus::SharedContext;
use crate::experiments::fig5::order_accuracy;
use crate::report::{f4, Report};
use crate::runs;
use darwin::offline::OfflineTrainer;
use darwin_bandit::{ClassicalTrackAndStop, GaussianEnv, SideInfo, TasConfig, TrackAndStopSideInfo};
use darwin_cache::Objective;
use darwin_cluster::{KMeans, Normalizer};
use std::path::Path;
use std::sync::Arc;

/// Runs all ablations.
pub fn run(ctx: &SharedContext, out: &Path) {
    side_info_scaling(out);
    theta_sweep(ctx, out);
    warmup_sweep(ctx, out);
    round_length_sweep(ctx, out);
    cluster_count_sweep(ctx, out);
    predictor_features(ctx, out);
    eviction_policy(ctx, out);
    overhead(ctx, out);
}

/// Ablation 1: rounds vs K, with and without side information (Theorem 2).
pub fn side_info_scaling(out: &Path) {
    let mut rep = Report::new(
        "ablation_side_info",
        "Ablation: identification rounds vs K (side info vs classical)",
        &["K", "tas_si_mean_rounds", "classical_mean_rounds"],
        out,
    );
    let cfg = TasConfig { stability_rounds: None, max_rounds: 60_000, ..TasConfig::default() };
    // Each K is an independent (seeded) bandit study; fan out over K and
    // emit rows in K order.
    let ks = [2usize, 4, 8, 16, 32];
    let per_k = darwin_parallel::par_map(0, &ks, |&k| {
        // Means: one good arm, the rest staggered below it.
        let mu: Vec<f64> =
            (0..k).map(|i| if i == 0 { 0.6 } else { 0.5 - 0.01 * (i as f64 % 5.0) }).collect();
        let sigma = SideInfo::two_level(k, 0.05, 0.08);
        let mut si_rounds = 0usize;
        let mut cl_rounds = 0usize;
        let seeds = 5u64;
        for seed in 0..seeds {
            let mut env = GaussianEnv::new(mu.clone(), sigma.clone(), seed);
            let tas = TrackAndStopSideInfo::new(sigma.clone(), 0.05, cfg);
            si_rounds += tas.run(|arm| env.pull(arm)).1;

            let mut env2 = GaussianEnv::new(mu.clone(), sigma.clone(), 100 + seed);
            let classical = ClassicalTrackAndStop::homoscedastic(k, 0.05, 0.05, cfg);
            cl_rounds += classical.run(|arm| env2.pull(arm)[arm]).1;
        }
        (si_rounds as f64 / seeds as f64, cl_rounds as f64 / seeds as f64)
    });
    for (&k, (si_mean, cl_mean)) in ks.iter().zip(&per_k) {
        rep.row(&[k.to_string(), format!("{si_mean:.1}"), format!("{cl_mean:.1}")]);
    }
    rep.finish().expect("write side-info ablation");
}

/// Ablation 2: end-to-end OHR and identification rounds vs θ.
pub fn theta_sweep(ctx: &SharedContext, out: &Path) {
    let cache = ctx.scale.cache_config();
    let picks = ctx.ensemble_indices();
    let mut rep = Report::new(
        "ablation_theta",
        "Ablation: theta sweep (set size vs OHR vs rounds)",
        &["theta_pct", "mean_set_size", "mean_identify_rounds", "mean_ohr"],
        out,
    );
    for theta in [0.5, 1.0, 5.0] {
        let mut cfg = ctx.offline_cfg.clone();
        cfg.theta_percent = theta;
        let trainer = OfflineTrainer::new(cfg);
        let model = Arc::new(trainer.train_from_evaluations(&ctx.train_evals));
        // Per-pick Darwin runs are independent; aggregate in pick order.
        let per_pick = darwin_parallel::par_map(0, &picks, |&ti| {
            let trace = &ctx.corpus.online_test[ti];
            let rep2 = darwin::run_darwin(&model, &ctx.scale.online_config(), trace, &cache);
            let ep = rep2.epochs.first().map(|ep| (ep.set_size as f64, ep.identify_rounds as f64));
            (ep, rep2.metrics.hoc_ohr())
        });
        let mut sets = Vec::new();
        let mut rounds = Vec::new();
        let mut ohrs = Vec::new();
        for (ep, ohr) in per_pick {
            if let Some((set, round)) = ep {
                sets.push(set);
                rounds.push(round);
            }
            ohrs.push(ohr);
        }
        rep.row(&[
            format!("{theta}"),
            format!("{:.1}", runs::Stats::of(&sets).mean),
            format!("{:.1}", runs::Stats::of(&rounds).mean),
            f4(runs::Stats::of(&ohrs).mean),
        ]);
    }
    rep.finish().expect("write theta ablation");
}

/// Ablation 3: warm-up length sweep.
pub fn warmup_sweep(ctx: &SharedContext, out: &Path) {
    let cache = ctx.scale.cache_config();
    let picks = ctx.ensemble_indices();
    let base = ctx.scale.online_config();
    let mut rep = Report::new(
        "ablation_warmup",
        "Ablation: warm-up length vs OHR",
        &["warmup_pct_of_epoch", "mean_ohr"],
        out,
    );
    for pct in [0.5, 1.0, 3.0, 10.0] {
        let mut cfg = base;
        cfg.warmup_requests = ((base.epoch_requests as f64) * pct / 100.0) as usize;
        let ohrs = darwin_parallel::par_map(0, &picks, |&ti| {
            let trace = &ctx.corpus.online_test[ti];
            darwin::run_darwin(&ctx.model, &cfg, trace, &cache).metrics.hoc_ohr()
        });
        rep.row(&[format!("{pct}"), f4(runs::Stats::of(&ohrs).mean)]);
    }
    rep.finish().expect("write warmup ablation");
}

/// Ablation: round-length sweep. Too-short rounds leave rewards dominated
/// by the previous expert's cache state (§4.2's de-correlation requirement);
/// too-long rounds burn the epoch exploring.
pub fn round_length_sweep(ctx: &SharedContext, out: &Path) {
    let cache = ctx.scale.cache_config();
    let picks = ctx.ensemble_indices();
    let base = ctx.scale.online_config();
    let mut rep = Report::new(
        "ablation_round_length",
        "Ablation: bandit round length vs OHR and rounds",
        &["round_pct_of_epoch", "mean_identify_rounds", "mean_ohr"],
        out,
    );
    for pct in [0.2, 0.5, 1.0, 2.0] {
        let mut cfg = base;
        cfg.round_requests = (((base.epoch_requests as f64) * pct / 100.0) as usize).max(50);
        let per_pick = darwin_parallel::par_map(0, &picks, |&ti| {
            let trace = &ctx.corpus.online_test[ti];
            let r = darwin::run_darwin(&ctx.model, &cfg, trace, &cache);
            (r.epochs.first().map(|ep| ep.identify_rounds as f64), r.metrics.hoc_ohr())
        });
        let mut rounds = Vec::new();
        let mut ohrs = Vec::new();
        for (round, ohr) in per_pick {
            if let Some(round) = round {
                rounds.push(round);
            }
            ohrs.push(ohr);
        }
        rep.row(&[
            format!("{pct}"),
            format!("{:.1}", runs::Stats::of(&rounds).mean),
            f4(runs::Stats::of(&ohrs).mean),
        ]);
    }
    rep.finish().expect("write round-length ablation");
}

/// Ablation: HOC eviction policy under the best static expert per trace —
/// the cache substrate's eviction flexibility (LRU vs FIFO vs LFU vs S4LRU).
pub fn eviction_policy(ctx: &SharedContext, out: &Path) {
    use darwin_cache::{EvictionKind, HocSim};
    let picks = ctx.ensemble_indices();
    let mut rep = Report::new(
        "ablation_eviction",
        "Ablation: HOC eviction policy (best static expert per trace)",
        &["trace", "lru", "fifo", "lfu", "s4lru"],
        out,
    );
    // One work item per trace: the 4 eviction kinds are lanes of one
    // simulator, one pass over the trace.
    let kinds = [
        EvictionKind::Lru,
        EvictionKind::Fifo,
        EvictionKind::Lfu,
        EvictionKind::SegmentedLru { segments: 4 },
    ];
    let ohrs = darwin_parallel::par_map(0, &picks, |&ti| {
        let trace = &ctx.corpus.online_test[ti];
        let best = ctx.online_evals[ti].best_expert();
        let policy = ctx.model.grid().get(best).policy;
        let mut sim = HocSim::bank(kinds.map(|kind| (ctx.scale.hoc_bytes(), kind, policy)));
        sim.run_trace(trace).iter().map(|m| m.hoc_ohr()).collect::<Vec<_>>()
    });
    for (&ti, ohrs) in picks.iter().zip(&ohrs) {
        let mut cells = vec![format!("mix{ti}")];
        cells.extend(ohrs.iter().map(|&ohr| f4(ohr)));
        rep.row(&cells);
    }
    rep.finish().expect("write eviction ablation");
}

/// The §6.4-style overhead table: per-request time of the simulator with
/// and without Darwin's online machinery, plus the model's memory footprint.
pub fn overhead(ctx: &SharedContext, out: &Path) {
    let cache = ctx.scale.cache_config();
    let trace = &ctx.corpus.online_test[0];

    let t0 = std::time::Instant::now();
    let _ = darwin::run_static(darwin::Expert::new(2, 100), trace, &cache);
    let static_ns = t0.elapsed().as_nanos() as f64 / trace.len() as f64;

    let t1 = std::time::Instant::now();
    let _ = darwin::run_darwin(&ctx.model, &ctx.scale.online_config(), trace, &cache);
    let darwin_ns = t1.elapsed().as_nanos() as f64 / trace.len() as f64;

    let mut rep = Report::new(
        "overhead",
        "Overhead: per-request cost and model memory (cf. §6.4)",
        &["quantity", "value"],
        out,
    );
    rep.row(&["static ns/request".into(), format!("{static_ns:.0}")]);
    rep.row(&["darwin ns/request".into(), format!("{darwin_ns:.0}")]);
    rep.row(&[
        "darwin overhead %".into(),
        format!("{:.1}", (darwin_ns - static_ns) / static_ns * 100.0),
    ]);
    rep.row(&[
        "model memory footprint".into(),
        format!("{:.1} KiB", ctx.model.memory_footprint_bytes() as f64 / 1024.0),
    ]);
    // R4 contrast (§3.2.1): HillClimbing needs two live shadow caches — two
    // extra HOC-sized states — where Darwin only holds its predictor nets.
    rep.row(&[
        "hillclimbing shadow memory (2 x HOC)".into(),
        format!("{:.1} KiB", (2 * ctx.scale.hoc_bytes()) as f64 / 1024.0),
    ]);
    rep.row(&[
        "darwin / hillclimbing memory ratio".into(),
        format!("{:.4}", ctx.model.memory_footprint_bytes() as f64 / (2 * ctx.scale.hoc_bytes()) as f64),
    ]);
    rep.finish().expect("write overhead");
}

/// Ablation 4: cluster-count sweep (inertia and set sizes).
pub fn cluster_count_sweep(ctx: &SharedContext, out: &Path) {
    let rows: Vec<Vec<f64>> = ctx.train_evals.iter().map(|e| e.features.values().to_vec()).collect();
    let norm = Normalizer::fit(&rows);
    let z: Vec<Vec<f64>> = rows.iter().map(|r| norm.transform(r)).collect();
    let mut rep = Report::new(
        "ablation_clusters",
        "Ablation: number of clusters vs inertia and set size",
        &["k", "inertia", "mean_set_size"],
        out,
    );
    for k in [2usize, 4, 8, 16] {
        let km = KMeans::fit(&z, k, 200, 3);
        let mut cfg = ctx.offline_cfg.clone();
        cfg.n_clusters = k;
        let trainer = OfflineTrainer::new(cfg);
        let (assignment, sets) = trainer.cluster_expert_sets(&ctx.train_evals, 1.0, Objective::HocOhr);
        let sizes: Vec<f64> = assignment.iter().map(|&c| sets[c].len() as f64).collect();
        rep.row(&[
            k.to_string(),
            format!("{:.2}", km.inertia()),
            format!("{:.1}", runs::Stats::of(&sizes).mean),
        ]);
    }
    rep.finish().expect("write cluster ablation");
}

/// Ablation 5: predictor inputs with vs without the size distribution.
pub fn predictor_features(ctx: &SharedContext, out: &Path) {
    let mut rep = Report::new(
        "ablation_predictor_features",
        "Ablation: predictor order accuracy with/without size-distribution input (k=1%)",
        &["variant", "mean_acc", "frac_above_80pct"],
        out,
    );
    for (label, use_dist) in [("with_size_dist", true), ("without_size_dist", false)] {
        let mut cfg = ctx.offline_cfg.clone();
        cfg.train_all_pairs = true;
        cfg.predictor_use_size_dist = use_dist;
        let trainer = OfflineTrainer::new(cfg.clone());
        let model = trainer.train_from_evaluations(&ctx.train_evals);
        let n = cfg.grid.len();
        // All ordered (i, j) pairs are independent accuracy probes.
        let pairs: Vec<(usize, usize)> =
            (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j))).collect();
        let accs = darwin_parallel::par_map(0, &pairs, |&(i, j)| {
            order_accuracy(&model, i, j, &ctx.test_evals, 1.0)
        });
        let mean = accs.iter().sum::<f64>() / accs.len() as f64;
        let above = accs.iter().filter(|&&a| a > 0.8).count() as f64 / accs.len() as f64;
        rep.row(&[label.to_string(), f4(mean), f4(above)]);
    }
    rep.finish().expect("write predictor ablation");
}
