//! Standalone gateway server: a sharded fleet with static-expert admission
//! behind the TCP wire protocol.
//!
//! ```text
//! gateway [--addr HOST:PORT] [--shards N] [--queue N] [--batch N]
//!         [--drop-newest] [--hoc-mb N] [--freq F] [--size-kb S]
//!         [--max-restarts N] [--restart-window N]
//!         [--checkpoint-every N] [--checkpoint-dir DIR] [--cold-boot]
//!         [--router hash|jump]
//!         [--read-timeout-ms N] [--idle-timeout-ms N]
//!         [--shed-watermark N] [--conn-rate N] [--write-stall-ms N]
//!         [--replicas N]
//! ```
//!
//! A flag with a missing or unparsable value, an unknown flag, the retired
//! `--router ring` and an out-of-range size (`--shards` outside
//! 1..=`MAX_SHARDS`, a zero `--queue` or `--batch`, `--replicas` above 1 or
//! without `--checkpoint-every`) exit 2 with a message naming the flag.
//!
//! Serves until a client sends `SHUTDOWN` (e.g. `loadgen --shutdown`), then
//! drains, joins the shard workers and prints the final metrics snapshot.
//! Shard workers that panic are restarted against the
//! `--max-restarts`-per-`--restart-window` budget, the window counted in the
//! shard's own requests; a shard that exhausts it is buried and its requests are answered `Unavailable` (degraded mode).
//! With `--checkpoint-every N` each shard checkpoints its cache + driver
//! state every N per-shard requests and restarts resume *warm* from the
//! latest valid checkpoint (cold when none validates); `--checkpoint-dir`
//! additionally spills each checkpoint to `DIR/shard-{s}.ckpt` via atomic
//! rename. A restarted gateway process pointed at the same
//! `--checkpoint-dir` boots *warm*: each shard restores its spill file
//! (falling back detected-cold per shard on validation failure) instead of
//! starting empty. `--cold-boot` restores the old wipe-at-startup
//! semantics. `--router jump` routes by a jump consistent hash, so a later
//! fleet at a different shard count remaps only `|M−N|/max(N,M)` of the
//! keyspace; the default `hash` router keeps the historical fixed-fleet
//! routing.
//!
//! Overload control: `--shed-watermark N` sheds whole ingest batches with
//! `Busy` verdicts while a shard's queue sits at N or more requests
//! (recovering at N/2); `--conn-rate N` caps each connection at N records
//! per second via a token bucket (excess answered `Busy`); and
//! `--write-stall-ms N` evicts clients that stop reading replies for N ms.
//!
//! Replication: `--replicas 1` runs a hot standby per shard, fed at every
//! checkpoint cut (requires `--checkpoint-every`). A shard whose restart
//! budget is exhausted then *promotes* its standby instead of being buried,
//! so nothing is answered `Unavailable` past the budget.
//!
//! Elasticity: clients may re-shard any gateway live with `RESIZE` frames
//! (`loadgen --resize M`); the `RESIZE_ACK` carries the per-generation
//! ledger. Surviving shards keep their state (handed over as a delta);
//! the keyspace the router moves between the two shard counts arrives
//! cold, so start a gateway that expects resizes with `--router jump`.
//! With `--checkpoint-dir`, shutdown cuts a final checkpoint per shard for
//! the next process to warm-boot from.

mod cli;

use cli::{fail, value};
use darwin_cache::{CacheConfig, ThresholdPolicy};
use darwin_gateway::{Gateway, GatewayConfig};
use darwin_shard::{
    Backpressure, FleetConfig, HashRouter, JumpRouter, RestartBudget, Router, MAX_SHARDS,
};
use darwin_testbed::StaticDriver;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:4870".to_string();
    let mut shards = 4usize;
    let mut queue = 8192usize;
    let mut batch = 256usize;
    let mut backpressure = Backpressure::Block;
    let mut hoc_mb = 100u64;
    let mut freq = 2u32;
    let mut size_kb = 100u64;
    let mut restart_budget = RestartBudget::default();
    let mut checkpoint_every: Option<u64> = None;
    let mut routing: Box<dyn Router> = Box::new(HashRouter);
    let mut shed_watermark: Option<usize> = None;
    let mut replicas = 0usize;
    let mut gw = GatewayConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = value(&args, &mut i),
            "--shards" => shards = value(&args, &mut i),
            "--queue" => queue = value(&args, &mut i),
            "--batch" => batch = value(&args, &mut i),
            "--drop-newest" => backpressure = Backpressure::DropNewest,
            "--hoc-mb" => hoc_mb = value(&args, &mut i),
            "--freq" => freq = value(&args, &mut i),
            "--size-kb" => size_kb = value(&args, &mut i),
            "--max-restarts" => restart_budget.max_restarts = value(&args, &mut i),
            "--restart-window" => restart_budget.window_requests = value(&args, &mut i),
            "--checkpoint-every" => checkpoint_every = Some(value(&args, &mut i)),
            "--checkpoint-dir" => gw.checkpoint_dir = Some(value(&args, &mut i)),
            "--cold-boot" => gw.warm_boot = false,
            "--router" => {
                routing = match value::<String>(&args, &mut i).as_str() {
                    "hash" => Box::new(HashRouter),
                    "jump" => Box::new(JumpRouter),
                    "ring" => fail("--router ring is gone; --router jump keeps its resize guarantees"),
                    other => fail(&format!("--router takes hash or jump, got {other:?}")),
                }
            }
            "--read-timeout-ms" => gw.read_timeout = Duration::from_millis(value(&args, &mut i)),
            "--idle-timeout-ms" => gw.idle_timeout = Some(Duration::from_millis(value(&args, &mut i))),
            "--shed-watermark" => shed_watermark = Some(value(&args, &mut i)),
            "--replicas" => replicas = value(&args, &mut i),
            "--conn-rate" => gw.conn_rate = Some(value(&args, &mut i)),
            "--write-stall-ms" => gw.write_stall = Some(Duration::from_millis(value(&args, &mut i))),
            other => fail(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    if !(1..=MAX_SHARDS).contains(&shards) {
        fail(&format!("--shards takes 1..={MAX_SHARDS}, got {shards}"));
    }
    if let Some((flag, _)) = [("--queue", queue), ("--batch", batch)].iter().find(|(_, n)| *n == 0) {
        fail(&format!("{flag} must be positive"));
    }
    if replicas > 1 {
        fail(&format!("--replicas takes 0 or 1 (one hot standby per shard), got {replicas}"));
    }
    if replicas == 1 && checkpoint_every.is_none_or(|n| n == 0) {
        fail("--replicas 1 requires --checkpoint-every: a standby is fed at checkpoint cuts");
    }

    let cfg = FleetConfig {
        shards,
        queue_capacity: queue,
        batch,
        backpressure,
        restart_budget,
        checkpoint_every,
        shed_watermark,
        replicas,
        ..Default::default()
    };
    let cache = CacheConfig { hoc_bytes: hoc_mb * 1024 * 1024, ..CacheConfig::paper_default() };
    let policy = ThresholdPolicy::new(freq, size_kb * 1024);
    let router_label = routing.label();
    let gateway =
        Gateway::bind_with(addr.as_str(), cfg, cache, routing, gw, move |_| StaticDriver::new(policy))
            .expect("bind gateway");
    println!(
        "gateway listening on {} ({} shards, {}, {:?})",
        gateway.local_addr(),
        shards,
        router_label,
        backpressure
    );

    gateway.wait_shutdown();
    let metrics = gateway.metrics();
    let (report, life) = gateway.finish_with_ledger().expect("gateway finished cleanly");
    println!("{}", metrics.to_json());
    println!(
        "served {} requests ({} dropped, {} unavailable, {} shed), fleet OHR {:.4}, {} generation(s), {} handoff transfer(s); serving generation: {} restart(s) ({} warm), {} dead shard(s)",
        life.metrics.total_processed(),
        life.metrics.total_dropped(),
        life.metrics.total_unavailable(),
        life.metrics.total_shed(),
        life.metrics.fleet_cache().hoc_ohr(),
        life.metrics.generations.len(),
        life.transfers.len(),
        report.total_restarts(),
        report.total_warm_restarts(),
        report.dead_shards(),
    );
}
