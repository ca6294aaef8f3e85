//! Deterministic replay: the sequential half of the fleet-equivalence
//! contract.
//!
//! Because a [`Router`] is a pure function of `(id, shards)` and each
//! shard's SPSC queue preserves submission order, shard `s` of a fleet
//! processes exactly [`partition`]`(trace, router, shards)[s]`, request for
//! request, with nothing else touching its state. [`run_partition`] executes
//! that same per-shard loop single-threaded, so
//! [`run_sequential`] reproduces — bitwise, including per-shard metrics,
//! final occupancy and every controller decision — what the threaded fleet
//! computes. `tests/equivalence.rs` holds the two sides against each other
//! at 1, 2 and 8 shards.
//!
//! Batched ingest does not weaken the invariant: delivering a staged
//! per-shard run with one `push_batch` publishes the run's items in staging
//! order, and staging order is submission order, so the shard still consumes
//! exactly its partition in partition order however large the runs are
//! (`tests/batched_ingest.rs` proptests this, including with concurrent
//! producers over disjoint shard groups).
//!
//! The replay side is also the measurement instrument for scale-out
//! projections: the wall time of the slowest partition bounds the fleet's
//! serving time on one-core-per-shard hardware.

use crate::router::Router;
use darwin_cache::{CacheConfig, CacheMetrics, CacheServer};
use darwin_testbed::AdmissionDriver;
use darwin_trace::{Request, Trace};

/// Splits `trace` into the per-shard sub-traces a fleet with this `router`
/// would deliver: sub-trace `s` holds, in original order, exactly the
/// requests whose IDs route to shard `s`.
pub fn partition(trace: &Trace, router: &dyn Router, shards: usize) -> Vec<Trace> {
    assert!(shards > 0, "at least one shard");
    let mut parts: Vec<Vec<Request>> = vec![Vec::new(); shards];
    for req in trace.iter() {
        parts[router.route(req.id, shards)].push(*req);
    }
    parts.into_iter().map(Trace::from_sorted).collect()
}

/// What one sequential single-shard run produced — what a fleet's
/// [`ShardOutcome`](crate::fleet::ShardOutcome) and its final snapshot's
/// entry carry for that shard.
#[derive(Debug)]
pub struct ShardRun<D> {
    /// Final cumulative cache metrics.
    pub cache: CacheMetrics,
    /// Requests processed.
    pub processed: u64,
    /// Final HOC occupancy, bytes.
    pub hoc_used_bytes: u64,
    /// Final DC occupancy, bytes.
    pub dc_used_bytes: u64,
    /// The admission driver, returned for post-mortem inspection (switch
    /// histories of Darwin controllers, in particular).
    pub driver: D,
}

/// Runs one shard's partition sequentially: the exact per-request loop of
/// the fleet's worker thread (`fleet::worker`), minus the queue.
pub fn run_partition<D: AdmissionDriver>(
    cache: CacheConfig,
    mut driver: D,
    part: &Trace,
) -> ShardRun<D> {
    let mut server = CacheServer::new(cache);
    server.set_policy(driver.initial_policy());
    let mut processed = 0u64;
    for req in part.iter() {
        server.process(req);
        processed += 1;
        if let Some(policy) = driver.observe(req, &server.metrics()) {
            server.set_policy(policy);
        }
    }
    ShardRun {
        cache: server.metrics(),
        processed,
        hoc_used_bytes: server.hoc_used_bytes(),
        dc_used_bytes: server.dc_used_bytes(),
        driver,
    }
}

/// Replays `trace` as N sequential single-shard runs: partitions it with
/// `router` and runs each shard's sub-trace through [`run_partition`] with
/// the driver `factory(s)` builds for it. The returned vector, indexed by
/// shard, is the ground truth the threaded fleet must match bitwise.
pub fn run_sequential<D: AdmissionDriver>(
    shards: usize,
    cache: CacheConfig,
    router: &dyn Router,
    mut factory: impl FnMut(usize) -> D,
    trace: &Trace,
) -> Vec<ShardRun<D>> {
    partition(trace, router, shards)
        .iter()
        .enumerate()
        .map(|(s, part)| run_partition(cache.clone(), factory(s), part))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::HashRouter;
    use darwin_cache::ThresholdPolicy;
    use darwin_testbed::StaticDriver;
    use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};

    fn trace(n: usize, seed: u64) -> Trace {
        TraceGenerator::new(MixSpec::single(TrafficClass::image()), seed).generate(n)
    }

    #[test]
    fn partition_covers_every_request_in_order() {
        let t = trace(5_000, 1);
        for shards in [1usize, 2, 3, 8] {
            let parts = partition(&t, &HashRouter, shards);
            assert_eq!(parts.len(), shards);
            assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), t.len());
            for (s, p) in parts.iter().enumerate() {
                // Each sub-trace keeps submission (= timestamp) order and
                // contains only requests routed to shard s.
                assert!(p.requests().windows(2).all(|w| w[0].timestamp_us <= w[1].timestamp_us));
                assert!(p.iter().all(|r| HashRouter.route(r.id, shards) == s));
            }
        }
    }

    #[test]
    fn one_shard_partition_is_the_trace() {
        let t = trace(2_000, 2);
        assert!(t.iter().all(|r| HashRouter.route(r.id, 1) == 0));
        let parts = partition(&t, &HashRouter, 1);
        assert_eq!(parts[0], t);
    }

    #[test]
    fn run_partition_matches_direct_server_run() {
        let t = trace(10_000, 7);
        let run = run_partition(
            CacheConfig::small_test(),
            StaticDriver::new(ThresholdPolicy::new(1, 100 * 1024)),
            &t,
        );
        let mut server = CacheServer::new(CacheConfig::small_test());
        server.set_policy(ThresholdPolicy::new(1, 100 * 1024));
        let m = server.process_trace(&t);
        assert_eq!(run.cache, m);
        assert_eq!(run.processed, t.len() as u64);
        assert_eq!(run.hoc_used_bytes, server.hoc_used_bytes());
        assert_eq!(run.dc_used_bytes, server.dc_used_bytes());
    }

    #[test]
    fn sequential_runs_cover_the_trace() {
        let t = trace(8_000, 3);
        let runs = run_sequential(
            4,
            CacheConfig::small_test(),
            &HashRouter,
            |_| StaticDriver::new(ThresholdPolicy::new(1, 100 * 1024)),
            &t,
        );
        assert_eq!(runs.iter().map(|r| r.processed).sum::<u64>(), 8_000);
        let total = CacheMetrics::merge_all(runs.iter().map(|r| &r.cache));
        assert_eq!(total.requests, 8_000);
        assert_eq!(total.hoc_hits + total.dc_hits + total.origin_fetches, 8_000);
    }
}
