//! One repetition: build the inputs, run the workload live (and, traced, the
//! shadow replay and kernels), check the outputs, print every metric by name.
//!
//! The metric names here are the ones `BENCHMARK.json` lists: an untraced
//! repetition prints the six end-to-end metrics, a traced one the per-layer
//! ledger (all of it but `trace.overhead_share`, which takes two repetitions
//! and is added by `reps::run`).

use crate::live::{self, Live};
use crate::procfs;
use crate::shadow::{self, Shadow};
use crate::spans::Spans;
use crate::workload::{self, Path, Placement, SHARDS};
use crate::{out_dir, RunArgs};
use darwin_cache::CacheMetrics;
use darwin_obs::{HistogramSnapshot, LatencySnapshot};
use darwin_shard::FleetMetrics;
use std::time::{Duration, Instant};

/// The six end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("rps", "1/s"),
    ("rtt_p50_us", "us"),
    ("hoc_ohr", "ratio"),
    ("bmr", "ratio"),
    ("heap_peak_mb", "MiB"),
    ("setup_s", "s"),
];

/// A named value with its unit.
#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

pub fn m(name: &str, value: f64, unit: &str) -> Metric {
    // A ratio over an empty base is reported as zero, never as NaN.
    let value = if value.is_finite() { value } else { 0.0 };
    Metric { name: name.to_string(), value, unit: unit.to_string() }
}

/// Prints the `metric` lines and, last, the result line a driver reads.
pub fn print_result(metrics: &[Metric], correct: bool, attempted: u64, failed: u64) {
    for x in metrics {
        println!("metric {} {} {}", x.name, x.value, x.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|x| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", x.name, x.value, x.unit))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Exact nearest-rank percentile of unsorted samples.
fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0 * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// `after − before`, bucket-wise, of two snapshots of one cumulative
/// histogram: the distribution of what was recorded in between.
fn hist_since(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut buckets = Vec::with_capacity(after.buckets.len());
    let mut earlier = before.buckets.iter().peekable();
    for &(idx, count) in &after.buckets {
        while earlier.peek().is_some_and(|&&(i, _)| i < idx) {
            earlier.next();
        }
        let base = earlier.peek().filter(|&&&(i, _)| i == idx).map_or(0, |&&(_, c)| c);
        if count > base {
            buckets.push((idx, count - base));
        }
    }
    HistogramSnapshot {
        count: after.count.saturating_sub(before.count),
        sum: after.sum.wrapping_sub(before.sum),
        max: after.max,
        buckets,
    }
}

/// Fleet-wide latency histograms of a snapshot (shards merged).
fn fleet_latency(snap: &FleetMetrics) -> LatencySnapshot {
    let mut all = LatencySnapshot::default();
    for l in snap.shards.iter().filter_map(|s| s.latency.as_ref()) {
        all.merge(l);
    }
    all
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The timed phase's cache activity.
fn timed_cache(live: &Live) -> CacheMetrics {
    live.timed.after.fleet_cache().diff(&live.timed.before.fleet_cache())
}

fn end_to_end(live: &Live) -> Vec<Metric> {
    let cache = timed_cache(live);
    let mut rtt = live.timed.times.rtt_ns.clone();
    let values = [
        live.timed_requests as f64 / secs(live.timed.wall),
        percentile(&mut rtt, 50.0) as f64 / 1e3,
        cache.hoc_ohr(),
        cache.total_bmr(),
        live.timed.heap_peak_bytes as f64 / (1024.0 * 1024.0),
        secs(live.timed.setup),
    ];
    END_TO_END.iter().zip(values).map(|(&(name, unit), v)| m(name, v, unit)).collect()
}

/// Output checks. Returns the failures, empty when the run is correct.
fn check(args: &RunArgs, live: &Live, shadow: Option<&Shadow>) -> Vec<String> {
    let mut bad = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            bad.push(what);
        }
    };
    let n = live.submitted;
    if let Some(e) = &live.timed.transport_error {
        require(false, format!("transport error: {e}"));
    }
    let t = live.timed.tally;
    require(t.answered() == n, format!("client: {} verdicts for {n} records", t.answered()));
    require(t.other == 0, format!("client: {} records not answered HocHit/DcHit/OriginFetch", t.other));
    let ledger = live.processed + live.dropped + live.unavailable + live.shed;
    require(
        ledger == n,
        format!("fleet ledger: processed+dropped+unavailable+shed = {ledger}, submitted {n}"),
    );
    require(
        live.dropped == 0 && live.unavailable == 0 && live.shed == 0,
        format!("fleet: dropped {} unavailable {} shed {}", live.dropped, live.unavailable, live.shed),
    );
    let c = live.report_cache;
    require(
        c.requests == n && c.hoc_hits == t.hoc && c.dc_hits == t.dc && c.origin_fetches == t.origin,
        format!("fleet counters {c:?} disagree with client verdicts {t:?}"),
    );
    if let Some(g) = live.gateway {
        require(
            g.requests_in == n && g.verdicts_out == n && g.shed == 0 && g.frames_rejected == 0,
            format!("gateway ledger: {g:?}, submitted {n}"),
        );
    }
    if args.workload.path == Path::Lanes {
        require(live.controllers.switches > 0, "lanes-darwin: no expert switch occurred".into());
    }
    if args.workload.checkpoint_every.is_some() {
        for s in &live.timed.after.shards {
            require(s.checkpoint_seq.is_some(), format!("shard {}: no checkpoint was cut", s.shard));
            require(
                s.standby_lost == 0,
                format!("shard {}: standby lost {} times", s.shard, s.standby_lost),
            );
        }
    }
    if let Some(shadow) = shadow {
        require(
            shadow.cache == c,
            format!("shadow replay {:?} differs from live fleet {c:?}", shadow.cache),
        );
        require(
            shadow.controllers == live.controllers,
            format!(
                "shadow controllers {:?} differ from live {:?}",
                shadow.controllers, live.controllers
            ),
        );
    }
    bad
}

/// Rates of half-second segments of the timed phase, requests/s.
fn segment_rates(live: &Live, frame: usize) -> Vec<f64> {
    const SEGMENT_NS: u64 = 500_000_000;
    let whole = (live.timed.wall.as_nanos() as u64 / SEGMENT_NS) as usize;
    let mut counts = vec![0u64; whole];
    for &done in &live.timed.times.done_ns {
        if let Some(c) = counts.get_mut((done / SEGMENT_NS) as usize) {
            *c += frame as u64;
        }
    }
    let mut rates: Vec<f64> = counts.iter().map(|&c| c as f64 * 1e9 / SEGMENT_NS as f64).collect();
    rates.sort_by(f64::total_cmp);
    rates
}

/// What the set-up stages cost.
struct Setup {
    generate: Duration,
    evaluate: Duration,
    train: Duration,
    calib: Duration,
}

fn per_layer(
    args: &RunArgs,
    nproc: usize,
    setup: &Setup,
    live: &Live,
    shadow: &Shadow,
    spans: &Spans,
    kernels: &[(&str, f64)],
) -> Vec<Metric> {
    let spec = args.workload;
    let cache = timed_cache(live);
    let wall = secs(live.timed.wall);
    let timed = live.timed_requests as f64;
    let kreq = timed / 1e3;
    let total = live.submitted as f64;
    let frames = live.timed.times.rtt_ns.len() as f64;
    let lat = {
        let (a, b) = (fleet_latency(&live.timed.after), fleet_latency(&live.timed.before));
        LatencySnapshot {
            serve: hist_since(&a.serve, &b.serve),
            queue_wait: hist_since(&a.queue_wait, &b.queue_wait),
            ckpt_pause: hist_since(&a.ckpt_pause, &b.ckpt_pause),
        }
    };
    let per_shard: Vec<u64> = live
        .timed
        .after
        .shards
        .iter()
        .zip(&live.timed.before.shards)
        .map(|(a, b)| a.processed.saturating_sub(b.processed))
        .collect();
    let balance = *per_shard.iter().min().unwrap_or(&0) as f64
        / (*per_shard.iter().max().unwrap_or(&1)).max(1) as f64;
    let shipped: u64 = live
        .timed
        .after
        .shards
        .iter()
        .zip(&live.timed.before.shards)
        .map(|(a, b)| a.replica_shipped_bytes.saturating_sub(b.replica_shipped_bytes))
        .sum();
    let journal_dropped: u64 = live.timed.after.shards.iter().map(|s| s.events_dropped).sum();
    let journal_kept: u64 = live.timed.after.shards.iter().map(|s| s.events.len() as u64).sum();
    let mut rtt = live.timed.times.rtt_ns.clone();
    let mut done = live.timed.times.done_ns.clone();
    done.sort_unstable();
    let stall_ns = done.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    let segments = segment_rates(live, spec.frame);
    let shard_time = wall * SHARDS as f64;
    let per = |name: &str, over: f64| spans.total(name).total_ns as f64 / over;
    let kernel = |name: &str| kernels.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, ns)| ns);
    let mb_per_s =
        |bytes: u64, name: &str| bytes as f64 / 1e6 / (spans.total(name).total_ns as f64 / 1e9);
    let traced_rps = timed / wall;
    let gw = live.gateway.unwrap_or_default();
    let saves = spans.total("cache.save_state");

    vec![
        m("trace.generate_ns_per_req", setup.generate.as_nanos() as f64 / total, "ns"),
        m("core.offline.train_s", secs(setup.train), "s"),
        m("core.offline.evaluate_s", secs(setup.evaluate), "s"),
        m("gateway.wire.encode_get_ns_per_rec", kernel("kernel.wire.encode_get"), "ns"),
        m("gateway.wire.decode_ns_per_rec", kernel("kernel.wire.decode_get"), "ns"),
        m("gateway.wire.verdicts_ns_per_rec", kernel("kernel.wire.verdicts"), "ns"),
        m("gateway.bytes_in_per_req", gw.bytes_in as f64 / total, "B"),
        m("gateway.bytes_out_per_req", gw.bytes_out as f64 / total, "B"),
        m("client.send_wait_share", per("client.send", 1e9) / wall, "ratio"),
        m("client.recv_wait_share", per("client.wait", 1e9) / wall, "ratio"),
        m("proc.syscalls_per_frame", live.timed.client_syscalls as f64 / frames, "count"),
        m("proc.ctx_switches_per_frame", live.timed.proc.ctx_switches as f64 / frames, "count"),
        m("shard.router.route_ns", per("shard.router.route", total), "ns"),
        m("shard.queue.push_pop_ns_per_item", per("shard.queue.push_pop", total), "ns"),
        m("shard.submit_frame_ns_per_req", kernel("kernel.shard.submit_frame"), "ns"),
        m("shard.queue.high_water", live.queue_high_water as f64, "count"),
        m("shard.queue_wait_p50_us", lat.queue_wait.quantile(50.0) as f64 / 1e3, "us"),
        m("shard.queue_wait_p99_us", lat.queue_wait.quantile(99.0) as f64 / 1e3, "us"),
        m("shard.queue_wait_count", lat.queue_wait.count as f64, "count"),
        m("shard.balance", balance, "ratio"),
        m("shard.serve_p50_ns", lat.serve.quantile(50.0) as f64, "ns"),
        m("shard.serve_p99_ns", lat.serve.quantile(99.0) as f64, "ns"),
        m("shard.serve_share", lat.serve.sum as f64 / 1e9 / shard_time, "ratio"),
        m("cache.process_ns_per_req", per("cache.process", total), "ns"),
        m("cache.dc_hit_share", cache.dc_hits as f64 / timed, "ratio"),
        m("cache.hoc_writes_per_kreq", cache.hoc_writes as f64 / kreq, "count"),
        m("cache.hoc_evictions_per_kreq", cache.hoc_evictions as f64 / kreq, "count"),
        m("cache.dc_writes_per_kreq", cache.dc_writes as f64 / kreq, "count"),
        m("cache.state_bytes", shadow.cache_state_bytes as f64, "B"),
        m("cache.state_bytes_per_kreq", shadow.cache_state_bytes as f64 / (total / 1e3), "B"),
        m("cache.save_state_ms", saves.total_ns as f64 / 1e6 / saves.count.max(1) as f64, "ms"),
        m("core.observe_ns_per_req", per("core.observe", total), "ns"),
        m("core.observe_ns_max", shadow.observe_max_ns as f64, "ns"),
        m("core.switches", live.controllers.switches as f64, "count"),
        m("core.epochs", live.controllers.epochs as f64, "count"),
        m("core.drift_restarts", live.controllers.drift_restarts as f64, "count"),
        m("core.save_state_bytes", shadow.driver_state_bytes as f64, "B"),
        m("features.extract_ns_per_req", kernel("kernel.features.extract"), "ns"),
        m("nn.predict_ns", kernel("kernel.nn.predict"), "ns"),
        m("bandit.round_ns", kernel("kernel.bandit.round"), "ns"),
        m("shard.ckpt.cuts", lat.ckpt_pause.count as f64, "count"),
        m("shard.ckpt.pause_p50_ms", lat.ckpt_pause.quantile(50.0) as f64 / 1e6, "ms"),
        m("shard.ckpt.pause_share", lat.ckpt_pause.sum as f64 / 1e9 / shard_time, "ratio"),
        m(
            "shard.ckpt.frame_bytes_mean",
            shadow.live_cut_bytes as f64 / shadow.live_cuts.max(1) as f64,
            "B",
        ),
        m("shard.ckpt.spill_bytes_per_kreq", shadow.live_cut_bytes as f64 / (total / 1e3), "B"),
        m("shard.standby.shipped_bytes_per_kreq", shipped as f64 / kreq, "B"),
        m("ckpt.crc64_mb_per_s", mb_per_s(shadow.crc_bytes, "ckpt.crc64"), "MB/s"),
        m("ckpt.delta_mb_per_s", mb_per_s(shadow.delta_bytes, "ckpt.delta"), "MB/s"),
        m("obs.hist_record_ns", kernel("kernel.obs.hist_record"), "ns"),
        m("obs.journal_events", (journal_kept + journal_dropped) as f64, "count"),
        m("obs.journal_dropped", journal_dropped as f64, "count"),
        m("client.rtt_p99_us", percentile(&mut rtt, 99.0) as f64 / 1e3, "us"),
        m("client.rtt_p999_us", percentile(&mut rtt, 99.9) as f64 / 1e3, "us"),
        m("client.stall_max_ms", stall_ns as f64 / 1e6, "ms"),
        m("client.seg_rps_med", segments.get(segments.len() / 2).copied().unwrap_or(traced_rps), "1/s"),
        m("client.seg_rps_min", segments.first().copied().unwrap_or(traced_rps), "1/s"),
        m("proc.cpu_us_per_kreq", live.timed.proc.cpu.as_micros() as f64 / kreq, "us"),
        m("proc.cores_busy", secs(live.timed.proc.cpu) / wall, "ratio"),
        m(
            "proc.allocs_per_req",
            (live.timed.heap_after.allocs - live.timed.heap_before.allocs) as f64 / timed,
            "count",
        ),
        m(
            "proc.alloc_bytes_per_req",
            (live.timed.heap_after.alloc_bytes - live.timed.heap_before.alloc_bytes) as f64 / timed,
            "B",
        ),
        m("host.calib_ms", secs(setup.calib) * 1e3, "ms"),
        m("host.nproc", nproc as f64, "count"),
    ]
}

/// Runs one repetition of a workload. `Ok(true)` when every output check
/// passed.
pub fn rep(process_start: Instant, args: &RunArgs) -> Result<bool, String> {
    let spec = args.workload;
    // Before anything is spawned: cores visible, then the placement.
    let nproc = procfs::nproc();
    let one_core = (spec.placement == Placement::OneCore).then(procfs::pin_process_to_one_core);
    let sizes = spec.sizes(args.seconds, args.scale);
    let io = |e: std::io::Error| format!("{}: {e}", spec.name);
    std::fs::create_dir_all(out_dir()).map_err(io)?;
    // Checkpoint spill of this process (the fleet creates it when it spills).
    let run_dir = out_dir().join(format!("run-{}", std::process::id()));

    // Set-up, single-threaded: calibration (traced only), trace, model.
    let calib = if args.traced { procfs::calibrate() } else { Duration::ZERO };
    let (trace, generate) = workload::build_trace(spec, sizes, args.seed);
    let trained = (spec.path == Path::Lanes).then(|| workload::train_model(args.scale));
    let setup = Setup {
        generate,
        evaluate: trained.as_ref().map_or(Duration::ZERO, |t| t.evaluate),
        train: trained.as_ref().map_or(Duration::ZERO, |t| t.train),
        calib,
    };

    let live =
        live::run(process_start, spec, sizes, &trace, trained.as_ref(), run_dir.clone(), args.traced);
    let _ = std::fs::remove_dir_all(&run_dir);
    let mut live = live.map_err(io)?;
    let placement = match one_core {
        Some(core) => format!("one-core:{}", core.map_or("refused".to_string(), |c| c.to_string())),
        None => format!("shard-per-core:{}-pinned", live.timed.shards_pinned),
    };

    println!(
        "workload {} seed {} seconds {} scale {} traced {} requests {} frames {} nproc {nproc} placement {placement}",
        spec.name,
        args.seed,
        args.seconds,
        args.scale,
        args.traced,
        live.timed_requests,
        live.timed.times.rtt_ns.len()
    );
    let e2e = end_to_end(&live);
    let (metrics, failures) = if args.traced {
        let mut spans = live.timed.spans.take().expect("traced run records spans").spans;
        let shadow = shadow::run(spec, sizes, &trace, trained.as_ref(), &mut spans);
        let kernels = shadow::kernels(&trace, &mut spans);
        let failures = check(args, &live, Some(&shadow));
        let layers = per_layer(args, nproc, &setup, &live, &shadow, &spans, &kernels);
        let path = out_dir().join(format!("{}.seed{}.d{}.trace.json", spec.name, args.seed, args.scale));
        std::fs::write(&path, spans.to_json(spec.name, args.seed)).map_err(io)?;
        println!("spans written to {}", path.display());
        // The traced repetition's own end-to-end numbers, for reference and
        // for `trace.overhead_share`.
        for x in &e2e {
            println!("traced-run {} {} {}", x.name, x.value, x.unit);
        }
        (layers, failures)
    } else {
        (e2e, check(args, &live, None))
    };

    for f in &failures {
        println!("check-failed {f}");
    }
    let failed = live.timed.tally.other + live.submitted.saturating_sub(live.timed.tally.answered());
    print_result(&metrics, failures.is_empty(), live.submitted, failed);
    Ok(failures.is_empty())
}
