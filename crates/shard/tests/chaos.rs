//! The chaos contract, enforced end to end: under **any** scripted
//! [`FaultPlan`] — panics, delays, queue-full stalls, at any per-shard
//! request index, against any restart budget — every submitted request is
//! answered exactly once (completed, dropped, or unavailable), the client's
//! view of those answers agrees with the fleet's own counters, and the empty
//! plan leaves the fleet bitwise identical to the sequential replay the
//! equivalence suite trusts.

use darwin::StaticDriver;
use darwin_cache::{CacheConfig, ThresholdPolicy};
use darwin_shard::{
    run_sequential, Backpressure, Envelope, FaultEvent, FaultKind, FaultPlan, FleetConfig, HashRouter,
    RestartBudget, ShardedFleet, Verdict,
};
use darwin_trace::{MixSpec, Request, Trace, TraceGenerator, TrafficClass};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn trace(n: usize, seed: u64) -> Trace {
    TraceGenerator::new(MixSpec::single(TrafficClass::image()), seed).generate(n)
}

fn driver(_shard: usize) -> StaticDriver {
    StaticDriver::new(ThresholdPolicy::new(1, 100 * 1024))
}

/// The client's independent ledger: one counter bump per envelope, from
/// whichever of the three answer paths fired.
#[derive(Default)]
struct Counts {
    completed: AtomicU64,
    dropped: AtomicU64,
    unavailable: AtomicU64,
}

struct CountingEnvelope {
    req: Request,
    counts: Arc<Counts>,
    answered: bool,
}

impl Envelope for CountingEnvelope {
    fn request(&self) -> &Request {
        &self.req
    }
    fn complete(mut self, _verdict: Verdict) {
        self.answered = true;
        self.counts.completed.fetch_add(1, Ordering::Relaxed);
    }
    fn unavailable(mut self) {
        self.answered = true;
        self.counts.unavailable.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for CountingEnvelope {
    fn drop(&mut self) {
        if !self.answered {
            self.counts.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Runs `trace` through a faulted fleet and checks the conservation law on
/// both sides of the envelope boundary.
fn check_conservation(shards: usize, plan: FaultPlan, budget: RestartBudget, bp: Backpressure) {
    let n = 6_000usize;
    let t = trace(n, 7);
    let counts = Arc::new(Counts::default());
    let mut fleet: ShardedFleet<StaticDriver, CountingEnvelope> = ShardedFleet::with_fault_plan(
        FleetConfig {
            shards,
            queue_capacity: 128,
            batch: 32,
            backpressure: bp,
            restart_budget: budget,
            ..FleetConfig::default()
        },
        CacheConfig::small_test(),
        Box::new(HashRouter),
        driver,
        plan,
    );
    for req in t.iter() {
        fleet.submit(CountingEnvelope { req: *req, counts: Arc::clone(&counts), answered: false });
    }
    let report = fleet.finish();

    let completed = counts.completed.load(Ordering::Relaxed);
    let dropped = counts.dropped.load(Ordering::Relaxed);
    let unavailable = counts.unavailable.load(Ordering::Relaxed);
    assert_eq!(
        completed + dropped + unavailable,
        n as u64,
        "client side: every envelope answered exactly once \
         (completed {completed}, dropped {dropped}, unavailable {unavailable})"
    );
    assert_eq!(
        report.total_processed() + report.total_dropped() + report.total_unavailable(),
        n as u64,
        "fleet side: processed + dropped + unavailable == submitted"
    );
    assert_eq!(completed, report.total_processed(), "both ledgers agree: processed");
    assert_eq!(dropped, report.total_dropped(), "both ledgers agree: dropped");
    assert_eq!(unavailable, report.total_unavailable(), "both ledgers agree: unavailable");
    assert_eq!(
        report.fleet_cache().requests,
        report.total_processed(),
        "cache metrics count exactly the processed requests"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation holds at 1, 2 and 8 shards under arbitrary seeded fault
    /// plans and arbitrary (small) restart budgets, with blocking
    /// backpressure.
    #[test]
    fn any_fault_plan_conserves_answers(seed in 0u64..1 << 48, n_events in 0usize..6) {
        let budget = RestartBudget {
            max_restarts: (seed % 3) as u32, // 0 exercises bury-on-first-death
            window_requests: 100_000,
        };
        for &shards in &[1usize, 2, 8] {
            let plan = FaultPlan::random(seed, shards, 4_000, n_events);
            check_conservation(shards, plan, budget, Backpressure::Block);
        }
    }

    /// Same law under `DropNewest`, where shedding adds a fourth way for an
    /// envelope to die — still exactly once each.
    #[test]
    fn fault_plans_conserve_answers_under_drop_newest(seed in 0u64..1 << 48, n_events in 1usize..5) {
        let plan = FaultPlan::random(seed, 2, 4_000, n_events);
        let budget = RestartBudget { max_restarts: 1, window_requests: 100_000 };
        check_conservation(2, plan, budget, Backpressure::DropNewest);
    }
}

/// Regression for the determinism contract: threading an **empty** fault
/// plan through the fleet is the identity — bitwise identical to the
/// sequential per-partition replay, exactly like a fleet built without a
/// plan, at every shard count the equivalence suite covers.
#[test]
fn empty_fault_plan_is_bitwise_identical_to_sequential_replay() {
    let t = trace(30_000, 4242);
    for &shards in &[1usize, 2, 8] {
        let mut fleet: ShardedFleet<StaticDriver> = ShardedFleet::with_fault_plan(
            FleetConfig { shards, queue_capacity: 64, batch: 16, ..FleetConfig::default() },
            CacheConfig::small_test(),
            Box::new(HashRouter),
            driver,
            FaultPlan::default(),
        );
        fleet.submit_trace(&t);
        let report = fleet.finish();
        assert_eq!(report.metrics().total_restarts(), 0);
        assert_eq!(report.metrics().dead_shards(), 0);
        assert_eq!(report.total_unavailable(), 0);
        assert_eq!(report.total_dropped(), 0);

        let seq = run_sequential(shards, CacheConfig::small_test(), &HashRouter, driver, &t);
        for ((f, m), s) in report.shards.iter().zip(&report.metrics().shards).zip(&seq) {
            assert_eq!(m.processed, s.processed, "shard {}: processed", f.shard);
            assert_eq!(m.cache, s.cache, "shard {}: cache metrics", f.shard);
            assert_eq!(f.hoc_used_bytes, s.hoc_used_bytes, "shard {}: HOC occupancy", f.shard);
            assert_eq!(f.dc_used_bytes, s.dc_used_bytes, "shard {}: DC occupancy", f.shard);
        }
    }
}

/// The harness's whole point: the same plan over the same trace reproduces
/// the same run, bit for bit — per-shard cache metrics, answer counts,
/// restart counts, dead flags — under blocking backpressure.
#[test]
fn fault_runs_reproduce_bit_for_bit() {
    let run = || {
        let t = trace(9_000, 11);
        let plan = FaultPlan::random(99, 2, 3_000, 4);
        let mut fleet: ShardedFleet<StaticDriver> = ShardedFleet::with_fault_plan(
            FleetConfig {
                shards: 2,
                queue_capacity: 128,
                batch: 32,
                restart_budget: RestartBudget { max_restarts: 1, window_requests: 100_000 },
                ..FleetConfig::default()
            },
            CacheConfig::small_test(),
            Box::new(HashRouter),
            driver,
            plan,
        );
        fleet.submit_trace(&t);
        let report = fleet.finish();
        report
            .shards
            .iter()
            .zip(&report.metrics().shards)
            .map(|(f, m)| {
                (
                    m.cache,
                    m.processed,
                    m.dropped,
                    m.unavailable,
                    m.restarts,
                    m.dead,
                    f.hoc_used_bytes,
                    f.dc_used_bytes,
                )
            })
            .collect::<Vec<_>>()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "identical plan + trace must reproduce identically");
    assert!(
        first.iter().any(|(_, _, dropped, ..)| *dropped > 0),
        "the plan must actually kill something for this test to mean anything"
    );
}

/// A delay or queue-full fault is observable (it stalls the worker) but must
/// never change the results — only panics do.
#[test]
fn stall_faults_are_result_invisible() {
    let t = trace(8_000, 5);
    let run = |plan: FaultPlan| {
        let mut fleet: ShardedFleet<StaticDriver> = ShardedFleet::with_fault_plan(
            FleetConfig { shards: 2, queue_capacity: 64, batch: 16, ..FleetConfig::default() },
            CacheConfig::small_test(),
            Box::new(HashRouter),
            driver,
            plan,
        );
        fleet.submit_trace(&t);
        fleet.finish()
    };
    let clean = run(FaultPlan::default());
    let stalled = run(FaultPlan::new(vec![
        FaultEvent { unit: 0, at: 50, kind: FaultKind::Delay { spins: 2_000 } },
        FaultEvent { unit: 1, at: 200, kind: FaultKind::QueueFull },
        FaultEvent { unit: 0, at: 1_000, kind: FaultKind::Delay { spins: 500 } },
    ]));
    assert_eq!(stalled.metrics().total_restarts(), 0);
    for (c, s) in clean.metrics().shards.iter().zip(&stalled.metrics().shards) {
        assert_eq!(c.cache, s.cache, "shard {}: stalls must not change metrics", c.shard);
        assert_eq!(c.processed, s.processed);
    }
}

/// Cache counters reach the cell once per drained batch and once more from
/// the dying worker's unwind. A panic scripted *inside* a batch — at a
/// sequence number that is a multiple of neither the batch size nor the
/// serve-timer's sampling period — must therefore still leave the dead
/// incarnation's counters exact: the requests before it counted, nothing
/// after it, none lost with the unpublished tail of the batch.
#[test]
fn mid_batch_panic_publishes_exactly_the_processed_requests() {
    const DIES_AT: u64 = 1_237;
    const BATCH: usize = 32;
    assert!(!DIES_AT.is_multiple_of(BATCH as u64) && !DIES_AT.is_multiple_of(16));
    let t = trace(4_000, 21);
    let mut fleet: ShardedFleet<StaticDriver> = ShardedFleet::with_fault_plan(
        FleetConfig {
            shards: 1,
            queue_capacity: 128,
            batch: BATCH,
            restart_budget: RestartBudget { max_restarts: 0, window_requests: 100_000 },
            ..FleetConfig::default()
        },
        CacheConfig::small_test(),
        Box::new(HashRouter),
        driver,
        FaultPlan::new(vec![FaultEvent { unit: 0, at: DIES_AT, kind: FaultKind::Panic }]),
    );
    fleet.submit_trace(&t);
    let report = fleet.finish();
    let dead = &report.metrics().shards[0];
    assert!(dead.dead, "no budget: the first death is final");
    assert_eq!(dead.processed, DIES_AT);
    assert_eq!(dead.cache.requests, DIES_AT, "counters of the unpublished batch tail were flushed");
    assert_eq!(dead.processed + dead.dropped + dead.unavailable, t.len() as u64);

    // And they are the right counters: the sequential replay of the prefix.
    let prefix = t.slice(0, DIES_AT as usize);
    let seq = run_sequential(1, CacheConfig::small_test(), &HashRouter, driver, &prefix);
    assert_eq!(dead.cache, seq[0].cache);
}

/// Every ingest front loses exactly the request a scripted panic falls on:
/// the lane delivers a run only up to its fatal request and settles the
/// death before it hands the shard anything more. Producer frames of 8, 64
/// and 256 records therefore end like the fleet's own submitter — one drop,
/// one restart, the same per-shard cache metrics — and rerun with
/// byte-identical journals.
#[test]
fn producer_frames_drop_only_the_fatal_request() {
    let t = trace(12_000, 21);
    let fleet = || -> ShardedFleet<StaticDriver> {
        ShardedFleet::with_fault_plan(
            FleetConfig { shards: 2, queue_capacity: 128, batch: 32, ..FleetConfig::default() },
            CacheConfig::small_test(),
            Box::new(HashRouter),
            driver,
            FaultPlan::new(vec![FaultEvent { unit: 0, at: 100, kind: FaultKind::Panic }]),
        )
    };
    let mut submitter = fleet();
    submitter.submit_trace(&t);
    let reference = submitter.finish();
    assert_eq!(reference.metrics().shards[0].dropped, 1, "the submitter front drops the fatal request");

    for frame in [8usize, 64, 256] {
        let mut journals = Vec::new();
        for rerun in 0..3 {
            let fleet = fleet();
            let handle = fleet.metrics_handle();
            {
                let mut producer = fleet.ingest().producer();
                for chunk in t.requests().chunks(frame) {
                    producer.submit_frame(chunk.iter().copied());
                }
            }
            let report = fleet.finish();
            let s0 = &report.metrics().shards[0];
            assert_eq!(s0.dropped, 1, "{frame}-record frames, rerun {rerun}: only the fatal request");
            assert_eq!(s0.restarts, 1, "{frame}-record frames, rerun {rerun}: one restart");
            assert_eq!(report.total_processed() + report.total_dropped(), t.len() as u64);
            for (p, r) in report.metrics().shards.iter().zip(&reference.metrics().shards) {
                assert_eq!(p.cache, r.cache, "{frame}-record frames: shard {} cache metrics", p.shard);
            }
            journals.push(darwin_obs::encode_fleet_events(&handle.journals()));
        }
        assert!(
            journals.windows(2).all(|w| w[0] == w[1]),
            "{frame}-record frames: journals byte-identical across reruns"
        );
    }
}
