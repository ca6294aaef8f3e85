//! Load generator: replays a generated trace against a running gateway and
//! reports throughput and latency percentiles.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--requests N] [--connections N]
//!         [--batch N] [--window N] [--seed S]
//!         [--retries N] [--backoff-ms N] [--backoff-cap-ms N]
//!         [--read-timeout-ms N] [--resize M] [--stats] [--events]
//!         [--shutdown]
//! ```
//!
//! `--resize M` asks the gateway to re-shard to M shards after the
//! replay (before `--stats`), printing the acked generation ledger;
//! `--stats` fetches the gateway's JSON metrics snapshot after the replay;
//! `--events` dumps the per-shard event journals (deaths, restarts, expert
//! switches, checkpoint cuts — see `darwin-obs`);
//! `--shutdown` then asks the gateway to shut down gracefully. Transport
//! failures are retried with exponential backoff (`--retries` consecutive
//! failures before giving up) and reported as typed counters in the summary.
//! A flag with a missing or unparsable value, or an unknown flag, exits 2
//! with a message naming the flag.

mod cli;

use cli::{fail, value};
use darwin_gateway::loadgen;
use darwin_gateway::LoadgenConfig;
use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:4870".to_string();
    let mut requests = 200_000usize;
    let mut cfg = LoadgenConfig::default();
    let mut seed = 2024u64;
    let mut stats = false;
    let mut events = false;
    let mut shutdown = false;
    let mut resize: Option<u32> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = value(&args, &mut i),
            "--requests" => requests = value(&args, &mut i),
            "--connections" => cfg.connections = value(&args, &mut i),
            "--batch" => cfg.batch = value(&args, &mut i),
            "--window" => cfg.window = value(&args, &mut i),
            "--seed" => seed = value(&args, &mut i),
            "--retries" => cfg.retries = value(&args, &mut i),
            "--backoff-ms" => cfg.backoff = Duration::from_millis(value(&args, &mut i)),
            "--backoff-cap-ms" => cfg.backoff_cap = Duration::from_millis(value(&args, &mut i)),
            "--read-timeout-ms" => {
                cfg.read_timeout = Some(Duration::from_millis(value(&args, &mut i)));
            }
            "--resize" => resize = Some(value(&args, &mut i)),
            "--stats" => stats = true,
            "--events" => events = true,
            "--shutdown" => shutdown = true,
            other => fail(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    // One seed drives the whole run: the generated trace AND the per-
    // connection full-jitter backoff RNG. Without this, two runs with the
    // same --seed could retry on different schedules and (under load
    // shedding) produce different verdict tallies.
    cfg.seed = seed;
    let trace = TraceGenerator::new(
        MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5),
        seed,
    )
    .generate(requests);

    let report = loadgen::run(addr.as_str(), &trace, cfg).expect("loadgen run");
    let t = report.tally;
    assert_eq!(t.total(), report.requests, "every request must receive a verdict");
    println!(
        "{} requests over {} connection(s): {:.0} rps, p50 {:?}, p99 {:?}",
        report.requests,
        cfg.connections,
        report.rps(),
        report.latency_percentile(50.0),
        report.latency_percentile(99.0),
    );
    println!(
        "verdicts: hoc_hits={} dc_hits={} origin={} dropped={} unavailable={} admitted={}",
        t.hoc_hits, t.dc_hits, t.origin_fetches, t.dropped, t.unavailable, t.admitted,
    );
    let e = report.errors;
    println!(
        "errors: connect_failures={} timeouts={} resets={} other_io={} reconnects={} resubmitted={}",
        e.connect_failures, e.timeouts, e.resets, e.other_io, e.reconnects, e.resubmitted,
    );
    println!("overload: shed={} (Busy records retried to completion)", e.shed);

    if let Some(target) = resize {
        let ack = loadgen::send_resize(addr.as_str(), target).expect("send resize");
        match &ack.error {
            Some(err) => println!("resize refused: {err}"),
            None => println!(
                "resized to {} shard(s), generation {}, {} transfer(s), {} retired generation(s)",
                ack.shards,
                ack.generation,
                ack.transferred_shards,
                ack.ledger.len(),
            ),
        }
    }
    if stats {
        println!("{}", loadgen::fetch_stats(addr.as_str()).expect("fetch stats"));
    }
    if events {
        for (shard, journal) in loadgen::fetch_events(addr.as_str()).expect("fetch events") {
            if journal.events.is_empty() && journal.dropped == 0 {
                continue;
            }
            println!("shard {shard}: {} event(s), {} dropped", journal.events.len(), journal.dropped);
            for ev in &journal.events {
                println!("  {}", ev.render());
            }
        }
    }
    if shutdown {
        loadgen::send_shutdown(addr.as_str()).expect("send shutdown");
        println!("gateway acknowledged shutdown");
    }
}
