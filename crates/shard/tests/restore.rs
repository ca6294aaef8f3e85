//! The warm-recovery contract, enforced end to end.
//!
//! A shard killed **exactly at a checkpoint boundary** and restored warm
//! resumes bitwise-identical — cumulative cache metrics, final HOC/DC
//! occupancy, and the full deployed-expert sequence — to an uninterrupted
//! sequential run of its partition (minus the one fatal request every
//! scripted death drops). Verified at 1, 2 and 8 shards with the full
//! per-shard Darwin controller, from cuts that hold it in warm-up,
//! identification and deployment; `verify.sh` runs them as the
//! restore-equivalence gate.
//!
//! The cold-fallback path is pinned just as tightly: with every checkpoint
//! candidate corrupted, the restart is *detected* as cold and its result
//! equals head-run + fresh tail-run ground truth. A disk-spill test proves
//! the atomic-rename spill file parses into a restorable checkpoint after
//! the fleet exits, and the conservation-law test (satellite: FleetMetrics
//! merge + warm/cold partition of `total_restarts`) closes the ledger. The
//! payoff is pinned too: after a boundary kill, a warm restart regains 95 %
//! of the steady-state hit ratio in fewer requests than a cold one.

use darwin::{
    ControllerPhase, DarwinModel, Expert, ExpertGrid, OfflineConfig, OfflineTrainer, OnlineConfig,
};
use darwin::{DarwinDriver, StaticDriver};
use darwin_cache::{CacheConfig, CacheMetrics, CacheServer, ThresholdPolicy};
use darwin_nn::TrainConfig;
use darwin_shard::{
    partition, run_partition, FaultEvent, FaultKind, FaultPlan, FleetBoot, FleetConfig, HashRouter,
    ShardCheckpoint, ShardedFleet,
};
use darwin_trace::{MixSpec, Trace, TraceGenerator, TrafficClass};
use std::sync::{Arc, OnceLock};

/// Per-shard request index the scripted panic fires at: a multiple of
/// [`CKPT_EVERY`], so the dying incarnation checkpoints at exactly this
/// sequence number right before the fatal request arrives.
const KILL_AT: u64 = 3_000;
/// Checkpoint cadence; `KILL_AT` is a boundary of it.
const CKPT_EVERY: u64 = 1_000;

/// One small offline-trained model shared by every test in this file (the
/// shape of `tests/equivalence.rs`'s, with θ = 100 % so every expert is in
/// both clusters' sets and each epoch's warm-up is followed by real
/// identification rounds: warm-up ends on each epoch's request 1 000 and
/// identification by its request 3 100 at 1, 2 and 8 shards).
fn model() -> Arc<DarwinModel> {
    static MODEL: OnceLock<Arc<DarwinModel>> = OnceLock::new();
    MODEL
        .get_or_init(|| {
            let cfg = OfflineConfig {
                grid: ExpertGrid::new(vec![
                    Expert::new(1, 20),
                    Expert::new(1, 500),
                    Expert::new(5, 20),
                    Expert::new(5, 500),
                ]),
                hoc_bytes: 2 * 1024 * 1024,
                nn_train: TrainConfig { epochs: 40, ..TrainConfig::default() },
                n_clusters: 2,
                theta_percent: 100.0,
                ..OfflineConfig::default()
            };
            let traces: Vec<Trace> = (0..4)
                .map(|i| {
                    TraceGenerator::new(
                        MixSpec::two_class(
                            TrafficClass::image(),
                            TrafficClass::download(),
                            i as f64 / 3.0,
                        ),
                        10 + i as u64,
                    )
                    .generate(10_000)
                })
                .collect();
            Arc::new(OfflineTrainer::new(cfg).train(&traces))
        })
        .clone()
}

fn cache_cfg() -> CacheConfig {
    CacheConfig { hoc_bytes: 2 * 1024 * 1024, ..CacheConfig::small_test() }
}

fn online_cfg() -> OnlineConfig {
    OnlineConfig {
        epoch_requests: 20_000,
        warmup_requests: 1_000,
        round_requests: 300,
        ..OnlineConfig::default()
    }
}

fn test_trace() -> Trace {
    // Long enough that shard 0 holds well over `KILL_AT` requests even at 8
    // shards, and over two epochs at 1 and 2 shards.
    TraceGenerator::new(MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5), 4242)
        .generate(48_000)
}

fn fleet_cfg(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        queue_capacity: 256,
        batch: 64,
        checkpoint_every: Some(CKPT_EVERY),
        ..FleetConfig::default()
    }
}

/// `part` minus its element at per-shard index `at` — the request a scripted
/// panic at `at` answers `Dropped`. What remains is exactly the stream the
/// dying incarnation (indices `0..at`) plus the respawned one (`at+1..`)
/// process between them.
fn minus_fatal(part: &Trace, at: u64) -> Trace {
    let mut reqs = part.requests().to_vec();
    reqs.remove(at as usize);
    Trace::from_sorted(reqs)
}

/// Keystone (a): boundary-kill warm restore is bitwise-identical to the
/// uninterrupted run, with the full Darwin controller per shard. Shard 0
/// checkpoints every `ckpt_every` requests and dies on request `kill_at`, a
/// multiple of it, so its last cut holds a controller in `phase`.
fn check_warm_boundary_restore(shards: usize, kill_at: u64, ckpt_every: u64, phase: ControllerPhase) {
    let model = model();
    let trace = test_trace();
    let parts = partition(&trace, &HashRouter, shards);
    assert!(
        parts[0].len() as u64 > kill_at + ckpt_every,
        "trace too short for a meaningful post-restore tail at {shards} shards"
    );
    let head = run_partition(
        cache_cfg(),
        DarwinDriver::new(Arc::clone(&model), online_cfg()),
        &parts[0].slice(0, kill_at as usize),
    );
    assert_eq!(head.driver.controller().phase(), phase, "the controller in the cut at {kill_at}");

    let mut fleet = ShardedFleet::with_fault_plan(
        FleetConfig { checkpoint_every: Some(ckpt_every), ..fleet_cfg(shards) },
        cache_cfg(),
        Box::new(HashRouter),
        {
            let model = Arc::clone(&model);
            move |_| DarwinDriver::new(Arc::clone(&model), online_cfg())
        },
        FaultPlan::new(vec![FaultEvent { unit: 0, at: kill_at, kind: FaultKind::Panic }]),
    );
    fleet.submit_trace(&trace);
    let report = fleet.finish();

    // Uninterrupted ground truth per shard; shard 0's partition loses the
    // one fatal request the death dropped.
    let seq: Vec<_> = parts
        .iter()
        .enumerate()
        .map(|(s, part)| {
            let ground = if s == 0 { minus_fatal(part, kill_at) } else { part.clone() };
            run_partition(cache_cfg(), DarwinDriver::new(Arc::clone(&model), online_cfg()), &ground)
        })
        .collect();

    // The death itself, as scripted: one warm restart, one dropped request,
    // nothing unavailable.
    let s0 = &report.metrics().shards[0];
    assert_eq!(s0.restarts, 1, "exactly one supervised restart");
    assert_eq!(s0.warm_restarts, 1, "the restart resumed warm from the boundary checkpoint");
    assert_eq!(s0.dropped, 1, "only the fatal request was lost");
    assert_eq!(report.total_unavailable(), 0);
    assert_eq!(
        report.total_processed() + report.total_dropped(),
        trace.len() as u64,
        "conservation across the warm restart"
    );

    // Bitwise identity, shard by shard: metrics, occupancy, expert sequence.
    let mut switched_anywhere = false;
    let ledger = report.metrics().shards.clone();
    for ((f, m), s) in report.shards.into_iter().zip(&ledger).zip(seq) {
        let shard = f.shard;
        assert_eq!(m.processed, s.processed, "shard {shard}: processed");
        assert_eq!(m.cache, s.cache, "shard {shard}: cache metrics across the restart");
        assert_eq!(f.hoc_used_bytes, s.hoc_used_bytes, "shard {shard}: HOC occupancy");
        assert_eq!(f.dc_used_bytes, s.dc_used_bytes, "shard {shard}: DC occupancy");
        let fleet_seq =
            f.driver.expect("restored shard keeps its driver").into_controller().expert_sequence();
        let replay_seq = s.driver.into_controller().expert_sequence();
        assert_eq!(fleet_seq, replay_seq, "shard {shard}: deployed-expert sequence");
        switched_anywhere |= fleet_seq.len() > 1;
    }
    assert!(
        switched_anywhere,
        "test must exercise real controller activity: no shard ever deployed a non-initial expert"
    );
}

/// Mid-identification: a live Track-and-Stop posterior in the cut.
const IDENTIFY_CUT: u64 = 2_000;

#[test]
fn warm_boundary_restore_bitwise_at_1_shard() {
    check_warm_boundary_restore(1, IDENTIFY_CUT, CKPT_EVERY, ControllerPhase::Identify);
}

#[test]
fn warm_boundary_restore_bitwise_at_2_shards() {
    check_warm_boundary_restore(2, IDENTIFY_CUT, CKPT_EVERY, ControllerPhase::Identify);
}

#[test]
fn warm_boundary_restore_bitwise_at_8_shards() {
    check_warm_boundary_restore(8, IDENTIFY_CUT, CKPT_EVERY, ControllerPhase::Identify);
}

/// Mid-warm-up of the second epoch: the extractor's per-object rings and
/// the epoch's starting metrics in the cut.
#[test]
fn warm_boundary_restore_bitwise_from_a_warmup_cut() {
    check_warm_boundary_restore(2, 20_500, CKPT_EVERY / 2, ControllerPhase::Warmup);
}

/// After identification: only the deployed phase's state in the cut.
#[test]
fn warm_boundary_restore_bitwise_from_a_deploy_cut() {
    check_warm_boundary_restore(2, 5_000, CKPT_EVERY, ControllerPhase::Deploy);
}

/// Cold fallback, pinned exactly: with every checkpoint candidate corrupted
/// the restart is *detected* cold (never a panic, never a silent mis-restore)
/// and the shard's result equals head-run + fresh-tail-run ground truth.
#[test]
fn corrupted_checkpoint_falls_back_cold_bitwise() {
    let model = model();
    let trace = test_trace();
    let shards = 2;

    let mut fleet = ShardedFleet::with_fault_plan(
        fleet_cfg(shards),
        cache_cfg(),
        Box::new(HashRouter),
        {
            let model = Arc::clone(&model);
            move |_| DarwinDriver::new(Arc::clone(&model), online_cfg())
        },
        FaultPlan::new(vec![
            // Bit rot on every candidate, then death at the same index: the
            // corruption fires first (fault ordering), so the respawn finds
            // no valid frame and must fall back cold — detectably.
            FaultEvent { unit: 0, at: KILL_AT, kind: FaultKind::CorruptCheckpoint { torn: false } },
            FaultEvent { unit: 0, at: KILL_AT, kind: FaultKind::Panic },
        ]),
    );
    fleet.submit_trace(&trace);
    let report = fleet.finish();

    let (s0, m0) = (&report.shards[0], &report.metrics().shards[0]);
    assert_eq!(m0.restarts, 1);
    assert_eq!(m0.warm_restarts, 0, "corrupted checkpoints must not restore warm");
    assert_eq!(m0.dropped, 1);
    assert_eq!(report.total_processed() + report.total_dropped(), trace.len() as u64);

    // Ground truth: the dying incarnation ran indices 0..KILL_AT; the cold
    // respawn ran a fresh server + fresh controller over KILL_AT+1.. .
    let parts = partition(&trace, &HashRouter, shards);
    let head = run_partition(
        cache_cfg(),
        DarwinDriver::new(Arc::clone(&model), online_cfg()),
        &parts[0].slice(0, KILL_AT as usize),
    );
    let tail = run_partition(
        cache_cfg(),
        DarwinDriver::new(Arc::clone(&model), online_cfg()),
        &parts[0].slice(KILL_AT as usize + 1, parts[0].len()),
    );
    assert_eq!(m0.processed, head.processed + tail.processed);
    assert_eq!(
        m0.cache,
        CacheMetrics::merge_all([&head.cache, &tail.cache]),
        "cumulative metrics = dead incarnation + cold tail"
    );
    assert_eq!(s0.hoc_used_bytes, tail.hoc_used_bytes, "occupancy is the cold tail's");
    assert_eq!(s0.dc_used_bytes, tail.dc_used_bytes);
    let fleet_seq = report.shards[0]
        .driver
        .as_ref()
        .expect("cold-restarted shard keeps its driver")
        .controller()
        .expert_sequence();
    assert_eq!(
        fleet_seq,
        tail.driver.into_controller().expert_sequence(),
        "the cold controller's history starts over with the tail"
    );
}

/// The torn-write flavor of the same fallback: truncated frames are caught
/// just like bit-flipped ones.
#[test]
fn torn_checkpoint_falls_back_cold() {
    let trace = test_trace();
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let mut fleet = ShardedFleet::with_fault_plan(
        fleet_cfg(2),
        cache_cfg(),
        Box::new(HashRouter),
        move |_| StaticDriver::new(policy),
        FaultPlan::new(vec![
            FaultEvent { unit: 0, at: KILL_AT, kind: FaultKind::CorruptCheckpoint { torn: true } },
            FaultEvent { unit: 0, at: KILL_AT, kind: FaultKind::Panic },
        ]),
    );
    fleet.submit_trace(&trace);
    let report = fleet.finish();
    assert_eq!(report.metrics().total_restarts(), 1);
    assert_eq!(report.metrics().total_warm_restarts(), 0, "torn frames must not restore warm");
    assert_eq!(report.metrics().shards.iter().map(|s| s.cold_restarts()).sum::<u32>(), 1);
    assert_eq!(report.total_processed() + report.total_dropped(), trace.len() as u64);
}

/// The on-disk spill: after a fleet with a checkpoint directory exits, each
/// shard's `shard-{s}.ckpt` holds a CRC-valid frame that decodes and restores
/// into a live `CacheServer` — the cross-process warm-restart artifact.
#[test]
fn disk_spill_parses_and_restores_after_exit() {
    let dir = std::env::temp_dir().join(format!("darwin-restore-spill-{}", std::process::id()));
    let shards = 2;
    let trace = test_trace();
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let mut fleet = ShardedFleet::with_boot(
        fleet_cfg(shards),
        cache_cfg(),
        Box::new(HashRouter),
        move |_| StaticDriver::new(policy),
        FaultPlan::new(vec![FaultEvent { unit: 0, at: KILL_AT, kind: FaultKind::Panic }]),
        FleetBoot { checkpoint_dir: Some(dir.clone()), ..FleetBoot::default() },
    );
    fleet.submit_trace(&trace);
    let report = fleet.finish();
    assert_eq!(
        report.metrics().total_warm_restarts(),
        1,
        "memory candidates still serve the in-process path"
    );

    let parts = partition(&trace, &HashRouter, shards);
    for (s, part) in parts.iter().enumerate().take(shards) {
        let path = dir.join(format!("shard-{s}.ckpt"));
        let frame = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("spill file {} must exist: {e}", path.display()));
        let ckpt = ShardCheckpoint::from_frame(&frame).expect("spill frame is CRC-valid");
        assert_eq!(ckpt.shard, s);
        // Latest boundary the shard reached (shard 0 keeps checkpointing
        // past the kill: the warm respawn re-arms the same slot).
        let expect_seq = (part.len() as u64 / CKPT_EVERY) * CKPT_EVERY;
        assert_eq!(ckpt.seq, expect_seq, "shard {s}: spill holds the latest boundary");
        let server = CacheServer::restore_state(cache_cfg(), &ckpt.cache)
            .expect("spilled cache state restores into a live server");
        // Shard 0's post-kill checkpoints are short the one request the death
        // dropped; every other shard's request count equals the boundary.
        let expect_requests = if s == 0 { expect_seq - 1 } else { expect_seq };
        assert_eq!(server.metrics().requests, expect_requests, "shard {s}: restored request count");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Sequential one-server replay of `trace` under the static policy:
/// checkpoint every `ckpt_every` requests when set, and at index `kill_at`
/// drop that request and replace the server — restored from the latest
/// checkpoint when there is one, cold otherwise. Returns the cumulative
/// metrics over every incarnation and the windowed HOC hit-ratio curve as
/// `(sequence at window end, ohr)` points.
fn recovery_replay(
    trace: &Trace,
    kill_at: Option<u64>,
    ckpt_every: Option<u64>,
    window: u64,
) -> (CacheMetrics, Vec<(u64, f64)>) {
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let mut server = CacheServer::new(cache_cfg());
    server.set_policy(policy);
    // The dead incarnation's metrics on the cold path; a warm restore
    // carries them inside the checkpoint.
    let mut folded = CacheMetrics::default();
    let mut saved: Option<Vec<u8>> = None;
    let (mut curve, mut prev, mut processed) = (Vec::new(), CacheMetrics::default(), 0u64);
    for (i, req) in trace.iter().enumerate() {
        let i = i as u64;
        if kill_at == Some(i) {
            server = match &saved {
                Some(frame) => CacheServer::restore_state(cache_cfg(), frame).expect("boundary restore"),
                None => {
                    folded = folded.merge(&server.metrics());
                    CacheServer::new(cache_cfg())
                }
            };
            server.set_policy(policy);
            continue;
        }
        server.process(req);
        processed += 1;
        if ckpt_every.is_some_and(|every| (i + 1).is_multiple_of(every)) {
            saved = Some(server.save_state());
        }
        if processed.is_multiple_of(window) {
            let cum = folded.merge(&server.metrics());
            let (reqs, hits) = (cum.requests - prev.requests, cum.hoc_hits - prev.hoc_hits);
            curve.push((i + 1, hits as f64 / reqs as f64));
            prev = cum;
        }
    }
    (folded.merge(&server.metrics()), curve)
}

/// Warm recovery pays: a shard killed at a checkpoint boundary gets back to
/// 95 % of its steady-state windowed hit ratio in strictly fewer post-crash
/// requests restored warm than restarted cold. The curves come from the
/// sequential replay, held bitwise against the threaded fleet's shard.
#[test]
fn warm_restart_recovers_hit_ratio_sooner_than_cold() {
    const RECOVERY_THRESHOLD: f64 = 0.95;
    let trace = test_trace();
    let window = CKPT_EVERY;
    let kill_at = (trace.len() as u64 * 2 / 5 / window) * window;
    let (_, clean) = recovery_replay(&trace, None, None, window);
    let tail = &clean[clean.len() * 3 / 4..];
    let steady = tail.iter().map(|&(_, ohr)| ohr).sum::<f64>() / tail.len() as f64;

    let recovery_requests = |ckpt_every: Option<u64>| {
        let (total, curve) = recovery_replay(&trace, Some(kill_at), ckpt_every, window);
        let policy = ThresholdPolicy::new(2, 100 * 1024);
        let mut fleet = ShardedFleet::with_fault_plan(
            FleetConfig { checkpoint_every: ckpt_every, ..fleet_cfg(1) },
            cache_cfg(),
            Box::new(HashRouter),
            move |_| StaticDriver::new(policy),
            FaultPlan::new(vec![FaultEvent { unit: 0, at: kill_at, kind: FaultKind::Panic }]),
        );
        fleet.submit_trace(&trace);
        let report = fleet.finish();
        let s0 = &report.metrics().shards[0];
        assert_eq!(s0.cache, total, "fleet ≡ sequential replay across the restart");
        assert_eq!((s0.restarts, s0.dropped), (1, 1), "one death, one dropped request");
        assert_eq!(s0.warm_restarts, u32::from(ckpt_every.is_some()), "restart temperature");
        curve
            .iter()
            .find(|&&(seq, ohr)| seq > kill_at && ohr >= RECOVERY_THRESHOLD * steady)
            .map(|&(seq, _)| seq - kill_at)
    };
    let warm = recovery_requests(Some(CKPT_EVERY)).expect("the warm restart recovers");
    let cold = recovery_requests(None).expect("the cold restart recovers within the tail");
    assert!(warm < cold, "warm recovery ({warm} requests) must beat cold ({cold} requests)");
}

/// Satellite: `FleetMetrics::merge` and the conservation law across warm
/// restarts; warm and cold counters always partition `total_restarts`.
#[test]
fn fleet_metrics_merge_and_conservation_across_warm_restarts() {
    let trace = test_trace();
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let shards = 4;
    let mut fleet = ShardedFleet::with_fault_plan(
        fleet_cfg(shards),
        cache_cfg(),
        Box::new(HashRouter),
        move |_| StaticDriver::new(policy),
        FaultPlan::new(vec![
            // One warm restart (boundary kill on shard 0) and one cold: shard
            // 1's candidates are corrupted right before its death.
            FaultEvent { unit: 0, at: KILL_AT, kind: FaultKind::Panic },
            FaultEvent { unit: 1, at: KILL_AT, kind: FaultKind::CorruptCheckpoint { torn: false } },
            FaultEvent { unit: 1, at: KILL_AT, kind: FaultKind::Panic },
        ]),
    );
    let handle = fleet.metrics_handle();
    fleet.submit_trace(&trace);
    let report = fleet.finish();
    let snap = handle.snapshot();

    // Conservation, on both the report and the live snapshot.
    let submitted = trace.len() as u64;
    assert_eq!(
        report.total_processed() + report.total_dropped() + report.total_unavailable(),
        submitted
    );
    assert_eq!(snap.total_processed() + snap.total_dropped() + snap.total_unavailable(), submitted);

    // Warm + cold partitions the restart count, fleet-wide and per shard.
    assert_eq!(snap.total_restarts(), 2);
    assert_eq!(snap.total_warm_restarts(), 1);
    assert_eq!(snap.shards.iter().map(|s| s.cold_restarts()).sum::<u32>(), 1);
    assert_eq!(
        snap.total_warm_restarts() + snap.shards.iter().map(|s| s.cold_restarts()).sum::<u32>(),
        snap.total_restarts()
    );
    for s in &snap.shards {
        assert!(s.warm_restarts + s.cold_restarts() == s.restarts, "shard {}: partition", s.shard);
    }
    // Checkpoint gauges: every shard checkpointed, and the age counts the
    // requests it processed past its latest boundary.
    for s in &snap.shards {
        let seq = s.checkpoint_seq.unwrap_or_else(|| panic!("shard {} checkpointed", s.shard));
        assert_eq!(s.checkpoint_age, s.processed.saturating_sub(seq), "shard {}: age gauge", s.shard);
    }

    // Merging per-shard-group snapshots (a split STATS view) loses nothing:
    // every total of the merged snapshot equals the sum of the parts'.
    let left = darwin_shard::FleetMetrics::from_shards(snap.shards[..2].to_vec());
    let right = darwin_shard::FleetMetrics::from_shards(snap.shards[2..].to_vec());
    let merged = left.merge(right);
    assert_eq!(merged.shards.len(), shards);
    assert_eq!(merged.total_processed(), snap.total_processed());
    assert_eq!(merged.total_dropped(), snap.total_dropped());
    assert_eq!(merged.total_unavailable(), snap.total_unavailable());
    assert_eq!(merged.total_restarts(), snap.total_restarts());
    assert_eq!(merged.total_warm_restarts(), snap.total_warm_restarts());
    for (m, s) in merged.shards.iter().zip(&snap.shards) {
        assert_eq!(
            (m.checkpoint_seq, m.checkpoint_age),
            (s.checkpoint_seq, s.checkpoint_age),
            "shard {}",
            s.shard
        );
    }
    assert_eq!(merged.fleet_cache(), snap.fleet_cache());
    assert_eq!(
        merged.total_processed() + merged.total_dropped() + merged.total_unavailable(),
        submitted,
        "conservation survives the merge"
    );
}
