//! Standalone gateway server: a sharded fleet with static-expert admission
//! behind the TCP wire protocol.
//!
//! ```text
//! gateway [--addr HOST:PORT] [--shards N] [--queue N] [--batch N]
//!         [--drop-newest] [--hoc-mb N] [--freq F] [--size-kb S]
//!         [--max-restarts N] [--restart-window N]
//!         [--checkpoint-every N] [--checkpoint-dir DIR] [--cold-boot]
//!         [--router ring|hash] [--vnodes N]
//!         [--read-timeout-ms N] [--idle-timeout-ms N]
//!         [--shed-watermark N] [--conn-rate N] [--write-stall-ms N]
//!         [--replicas N]
//! ```
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
//! semantics. `--router ring` routes by the consistent-hash ring
//! (`--vnodes` virtual nodes per shard) so a later fleet at a different
//! shard count remaps only `|M−N|/max(N,M)` of the keyspace; the default
//! `hash` router keeps the historical fixed-fleet routing.
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
//! cold, so start a gateway that expects resizes with `--router ring`.
//! With `--checkpoint-dir`, shutdown cuts a final checkpoint per shard for
//! the next process to warm-boot from.

use darwin_cache::{CacheConfig, ThresholdPolicy};
use darwin_gateway::{Gateway, GatewayConfig};
use darwin_rebalance::{RingRouter, DEFAULT_SEED, DEFAULT_VNODES};
use darwin_shard::{Backpressure, FleetConfig, HashRouter, RestartBudget, Router};
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
    let mut router = "hash".to_string();
    let mut vnodes = DEFAULT_VNODES;
    let mut shed_watermark: Option<usize> = None;
    let mut replicas = 0usize;
    let mut gw = GatewayConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                addr = args[i].clone();
            }
            "--shards" => {
                i += 1;
                shards = args[i].parse().expect("shards");
            }
            "--queue" => {
                i += 1;
                queue = args[i].parse().expect("queue capacity");
            }
            "--batch" => {
                i += 1;
                batch = args[i].parse().expect("batch");
            }
            "--drop-newest" => backpressure = Backpressure::DropNewest,
            "--hoc-mb" => {
                i += 1;
                hoc_mb = args[i].parse().expect("hoc mb");
            }
            "--freq" => {
                i += 1;
                freq = args[i].parse().expect("frequency threshold");
            }
            "--size-kb" => {
                i += 1;
                size_kb = args[i].parse().expect("size threshold kb");
            }
            "--max-restarts" => {
                i += 1;
                restart_budget.max_restarts = args[i].parse().expect("max restarts");
            }
            "--restart-window" => {
                i += 1;
                restart_budget.window_requests = args[i].parse().expect("restart window");
            }
            "--checkpoint-every" => {
                i += 1;
                checkpoint_every = Some(args[i].parse().expect("checkpoint cadence"));
            }
            "--checkpoint-dir" => {
                i += 1;
                gw.checkpoint_dir = Some(std::path::PathBuf::from(&args[i]));
            }
            "--cold-boot" => gw.warm_boot = false,
            "--router" => {
                i += 1;
                router = args[i].clone();
                assert!(
                    router == "ring" || router == "hash",
                    "--router takes ring or hash, got {router:?}"
                );
            }
            "--vnodes" => {
                i += 1;
                vnodes = args[i].parse().expect("vnodes per shard");
            }
            "--read-timeout-ms" => {
                i += 1;
                gw.read_timeout = Duration::from_millis(args[i].parse().expect("read timeout ms"));
            }
            "--idle-timeout-ms" => {
                i += 1;
                gw.idle_timeout = Some(Duration::from_millis(args[i].parse().expect("idle timeout ms")));
            }
            "--shed-watermark" => {
                i += 1;
                shed_watermark = Some(args[i].parse().expect("shed watermark"));
            }
            "--replicas" => {
                i += 1;
                replicas = args[i].parse().expect("replicas per shard");
            }
            "--conn-rate" => {
                i += 1;
                gw.conn_rate = Some(args[i].parse().expect("records per second"));
            }
            "--write-stall-ms" => {
                i += 1;
                gw.write_stall = Some(Duration::from_millis(args[i].parse().expect("write stall ms")));
            }
            other => panic!("unknown arg {other}"),
        }
        i += 1;
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
    let routing: Box<dyn Router> = match router.as_str() {
        "ring" => Box::new(RingRouter::new(DEFAULT_SEED, vnodes)),
        _ => Box::new(HashRouter),
    };
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
