//! Diagnostic tool: for each online test trace, print the cluster Darwin
//! mapped it to, the candidate expert set, the bandit's choice, and how that
//! compares with the hindsight-best static expert.
//!
//! ```text
//! inspect [--scale N] [--trace IDX] [--fleet SHARDS]
//!         [--watch ADDR] [--interval-ms N] [--tail N]
//! ```
//!
//! `--fleet SHARDS` skips the Darwin pipeline entirely and instead replays a
//! generated trace through a static-expert [`ShardedFleet`], printing the
//! final [`FleetMetrics`] snapshot as JSON — byte-for-byte the same document
//! (and the same `FleetMetrics::to_json` code path) a gateway `STATS` frame
//! returns, minus the gateway's connection counters.
//!
//! `--watch ADDR` attaches a live dashboard to a running gateway: it polls
//! `STATS` and `EVENTS` frames every `--interval-ms` (default 1000) and
//! redraws per-shard rps, p50/p99 serve latency, queue depth,
//! restart/warm counters and the last `--tail` journal events. The loop
//! exits when the gateway stops answering (e.g. after a shutdown).

use darwin::StaticDriver;
use darwin_bench::{runs, watch, Scale, SharedContext};
use darwin_cache::ThresholdPolicy;
use darwin_gateway::loadgen;
use darwin_shard::{FleetConfig, FleetMetrics, HashRouter, ShardedFleet};
use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};
use std::time::Duration;

/// Replays a generated trace through a `shards`-wide static fleet and prints
/// the final metrics snapshot JSON (the gateway `STATS` code path).
fn inspect_fleet(scale: &Scale, shards: usize) {
    let trace = TraceGenerator::new(
        MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5),
        2025,
    )
    .generate(scale.online_trace_len());
    let mut fleet = ShardedFleet::new(
        FleetConfig::with_shards(shards),
        scale.cache_config(),
        Box::new(HashRouter),
        |_| StaticDriver::new(ThresholdPolicy::new(2, 100 * 1024)),
    );
    fleet.submit_trace(&trace);
    let report = fleet.finish();
    let snapshot: &FleetMetrics = report.snapshots.last().expect("final snapshot always taken");
    println!("{}", snapshot.to_json());
}

/// Polls a gateway's `STATS` + `EVENTS` frames and redraws the dashboard
/// until the gateway stops answering.
fn watch_gateway(addr: &str, interval: Duration, tail: usize) {
    let mut prev: Option<FleetMetrics> = None;
    loop {
        let metrics = match loadgen::fetch_stats(addr).map(|j| FleetMetrics::from_json(&j)) {
            Ok(Ok(m)) => m,
            Ok(Err(e)) => {
                eprintln!("watch: bad STATS reply: {e}");
                return;
            }
            Err(e) => {
                eprintln!("watch: gateway at {addr} stopped answering: {e}");
                return;
            }
        };
        let journals = loadgen::fetch_events(addr).unwrap_or_default();
        // ANSI clear + home, then one freshly rendered frame.
        print!("\x1b[2J\x1b[H{}", watch::render(prev.as_ref(), &metrics, &journals, interval, tail));
        prev = Some(metrics);
        std::thread::sleep(interval);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale_factor = 1usize;
    let mut only: Option<usize> = None;
    let mut fleet: Option<usize> = None;
    let mut watch_addr: Option<String> = None;
    let mut interval = Duration::from_millis(1_000);
    let mut tail = watch::DEFAULT_EVENT_TAIL;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale_factor = args[i].parse().expect("scale");
            }
            "--trace" => {
                i += 1;
                only = Some(args[i].parse().expect("trace idx"));
            }
            "--fleet" => {
                i += 1;
                fleet = Some(args[i].parse().expect("fleet shards"));
            }
            "--watch" => {
                i += 1;
                watch_addr = Some(args[i].clone());
            }
            "--interval-ms" => {
                i += 1;
                interval = Duration::from_millis(args[i].parse().expect("interval ms"));
            }
            "--tail" => {
                i += 1;
                tail = args[i].parse().expect("tail");
            }
            other => panic!("unknown arg {other}"),
        }
        i += 1;
    }
    if let Some(addr) = watch_addr {
        watch_gateway(&addr, interval, tail);
        return;
    }
    let scale = Scale::new(scale_factor);
    if let Some(shards) = fleet {
        inspect_fleet(&scale, shards);
        return;
    }
    let ctx = SharedContext::build(scale, false);
    let cache = scale.cache_config();

    // Show the offline cluster sets first.
    println!("clusters: {}", ctx.model.num_clusters());
    for c in 0..ctx.model.num_clusters() {
        let labels: Vec<String> =
            ctx.model.expert_set(c).iter().map(|&e| runs::expert_label(ctx.model.grid(), e)).collect();
        println!("  cluster {c}: {}", labels.join(" "));
    }

    for (ti, trace) in ctx.corpus.online_test.iter().enumerate() {
        if let Some(o) = only {
            if o != ti {
                continue;
            }
        }
        let report = darwin::run_darwin(&ctx.model, &scale.online_config(), trace, &cache);
        let ev = &ctx.online_evals[ti];
        let (best, best_ohr) = runs::hindsight_best(ev);
        println!(
            "\ntrace mix{ti}: darwin_ohr={:.4} hindsight={} ({:.4}) switches={}",
            report.metrics.hoc_ohr(),
            runs::expert_label(ctx.model.grid(), best),
            best_ohr,
            report.switches.len(),
        );
        for ep in &report.epochs {
            let chosen_label = runs::expert_label(ctx.model.grid(), ep.chosen_expert);
            let chosen_static_ohr = ev.hit_rates[ep.chosen_expert];
            println!(
                "  epoch: cluster={} set={} rounds={} chosen={} (static ohr {:.4})",
                ep.cluster, ep.set_size, ep.identify_rounds, chosen_label, chosen_static_ohr
            );
        }
        // What the cluster set contained (via a fresh lookup on the full
        // trace features — may differ from the warm-up lookup).
        let full_features = darwin_features::FeatureExtractor::extract(trace);
        let c_full = ctx.model.lookup_cluster(&full_features);
        println!("  full-trace feature cluster: {c_full}");
    }
}
