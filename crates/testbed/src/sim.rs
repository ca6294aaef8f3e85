//! The closed-loop discrete-event testbed.
//!
//! `concurrency` clients replay a shared request stream as fast as the
//! system allows (ab/wrk-style load generation, as in the paper's throughput
//! experiments). The proxy serializes HOC operations through a contended
//! critical section; misses traverse the origin link. Event ordering is
//! managed with a binary heap keyed on simulated microseconds.

use crate::latency::LatencyStats;
use darwin::AdmissionDriver;
use darwin_cache::{CacheConfig, CacheMetrics, CacheServer, RequestOutcome};
use darwin_trace::Trace;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Testbed parameters (defaults follow §6's testbed setup).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestbedConfig {
    /// Number of concurrent closed-loop clients.
    pub concurrency: usize,
    /// One-way client↔proxy delay in µs (paper injects 10 ms).
    pub client_proxy_owd_us: u64,
    /// One-way proxy↔origin delay in µs (paper injects 100 ms).
    pub proxy_origin_owd_us: u64,
    /// Link bandwidth in Gbps (paper: 20 Gbps links).
    pub link_gbps: f64,
    /// Base HOC critical-section service time per request, µs.
    pub hoc_service_base_us: f64,
    /// Additional critical-section time per concurrent client, µs (lock and
    /// cache-line contention; creates the Fig 7b throughput sweet spot).
    pub hoc_contention_us_per_client: f64,
    /// Disk seek time for a DC read, µs.
    pub disk_seek_us: u64,
    /// Disk read bandwidth, MB/s.
    pub disk_mbps: f64,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        Self {
            concurrency: 16,
            client_proxy_owd_us: 10_000,
            proxy_origin_owd_us: 100_000,
            link_gbps: 20.0,
            hoc_service_base_us: 4.0,
            hoc_contention_us_per_client: 0.03,
            disk_seek_us: 100,
            disk_mbps: 500.0,
        }
    }
}

impl TestbedConfig {
    /// Transfer time of `bytes` over the client/origin link, in µs.
    fn link_us(&self, bytes: u64) -> u64 {
        ((bytes as f64 * 8.0) / (self.link_gbps * 1e3)).ceil() as u64
    }

    /// Disk read time for `bytes`, in µs.
    fn disk_us(&self, bytes: u64) -> u64 {
        self.disk_seek_us + ((bytes as f64) / self.disk_mbps).ceil() as u64
    }

    /// Effective HOC critical-section time at the configured concurrency.
    fn hoc_service_us(&self) -> f64 {
        self.hoc_service_base_us + self.hoc_contention_us_per_client * self.concurrency as f64
    }
}

/// What a testbed run produced.
#[derive(Debug, Clone)]
pub struct TestbedReport {
    /// The proxy's cache metrics over the run.
    pub cache: CacheMetrics,
    /// First-byte latencies.
    pub latency: LatencyStats,
    /// Wall-clock makespan of the run, µs.
    pub makespan_us: u64,
    /// Application-level goodput in Gbps (bytes delivered / makespan).
    pub goodput_gbps: f64,
    /// Requests completed.
    pub completed: u64,
    /// Fraction of the makespan the HOC critical section was busy (the §6.4
    /// CPU-utilization proxy).
    pub hoc_busy_fraction: f64,
    /// Label of the driver that ran.
    pub driver: String,
}

/// The testbed simulator.
pub struct Testbed {
    cfg: TestbedConfig,
}

impl Testbed {
    /// Testbed with the given parameters.
    pub fn new(cfg: TestbedConfig) -> Self {
        assert!(cfg.concurrency > 0, "need at least one client");
        assert!(cfg.link_gbps > 0.0, "link bandwidth must be positive");
        Self { cfg }
    }

    /// Replays `trace` through a fresh proxy under `driver`'s admission
    /// control.
    pub fn run<D: AdmissionDriver>(
        &self,
        trace: &Trace,
        cache: &CacheConfig,
        driver: &mut D,
    ) -> TestbedReport {
        let cfg = &self.cfg;
        let mut server = CacheServer::new(cache.clone());
        server.set_policy(driver.initial_policy());

        let mut latency = LatencyStats::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new(); // (ready_at, client)
        for c in 0..cfg.concurrency as u64 {
            heap.push(Reverse((0, c)));
        }
        let mut next_req = 0usize;
        let requests = trace.requests();
        let mut lock_free_at = 0u64;
        let mut lock_busy_us = 0u64;
        // Shared-resource FIFO horizons: the disk serves DC reads at its
        // aggregate bandwidth, and the proxy-origin link carries misses at
        // its line rate. These are what saturate under load — and what a
        // higher HOC hit rate offloads (the Fig 7b effect).
        let mut disk_free_at = 0u64;
        let mut origin_free_at = 0u64;
        let mut bytes_delivered = 0u64;
        let mut completed = 0u64;
        let mut makespan = 0u64;
        let hoc_service = cfg.hoc_service_us().ceil() as u64;

        while let Some(Reverse((ready_at, client))) = heap.pop() {
            if next_req >= requests.len() {
                makespan = makespan.max(ready_at);
                continue;
            }
            let req = &requests[next_req];
            next_req += 1;

            // Client → proxy.
            let arrive = ready_at + cfg.client_proxy_owd_us;
            // HOC critical section (FIFO lock).
            let start = arrive.max(lock_free_at);
            lock_free_at = start + hoc_service;
            lock_busy_us += hoc_service;
            let (outcome, _) = darwin::step(&mut server, driver, req, |_, _| {});

            // Where the first byte comes from. DC reads queue on the shared
            // disk; origin fetches queue on the shared origin link.
            let first_byte_at_proxy = match outcome {
                RequestOutcome::HocHit => lock_free_at,
                RequestOutcome::DcHit => {
                    let start = lock_free_at.max(disk_free_at);
                    disk_free_at = start + cfg.disk_us(req.size);
                    disk_free_at
                }
                RequestOutcome::OriginFetch => {
                    let start = lock_free_at.max(origin_free_at);
                    origin_free_at = start + cfg.link_us(req.size);
                    origin_free_at + 2 * cfg.proxy_origin_owd_us
                }
            };
            let first_byte_at_client = first_byte_at_proxy + cfg.client_proxy_owd_us;
            latency.record(first_byte_at_client - ready_at);

            let done = first_byte_at_client + cfg.link_us(req.size);
            bytes_delivered += req.size;
            completed += 1;
            makespan = makespan.max(done);
            heap.push(Reverse((done, client)));
        }

        let goodput_gbps =
            if makespan == 0 { 0.0 } else { (bytes_delivered as f64 * 8.0) / (makespan as f64 * 1e3) };
        TestbedReport {
            cache: server.metrics(),
            latency,
            makespan_us: makespan,
            goodput_gbps,
            completed,
            hoc_busy_fraction: if makespan == 0 { 0.0 } else { lock_busy_us as f64 / makespan as f64 },
            driver: driver.label(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin::StaticDriver;
    use darwin_cache::ThresholdPolicy;
    use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};

    fn trace(n: usize, seed: u64) -> Trace {
        TraceGenerator::new(MixSpec::single(TrafficClass::image()), seed).generate(n)
    }

    fn run(concurrency: usize, policy: ThresholdPolicy, n: usize) -> TestbedReport {
        let tb = Testbed::new(TestbedConfig { concurrency, ..TestbedConfig::default() });
        let mut d = StaticDriver::new(policy);
        tb.run(&trace(n, 7), &CacheConfig::small_test(), &mut d)
    }

    #[test]
    fn completes_all_requests() {
        let r = run(8, ThresholdPolicy::new(1, 100 * 1024), 5_000);
        assert_eq!(r.completed, 5_000);
        assert_eq!(r.cache.requests, 5_000);
        assert!(r.makespan_us > 0);
        assert_eq!(r.latency.len(), 5_000);
    }

    #[test]
    fn hits_are_faster_than_misses() {
        let r = run(1, ThresholdPolicy::new(1, 1024 * 1024), 3_000);
        let mut lat = r.latency.clone();
        // Fastest possible: HOC hit = 2 × 10 ms + lock ≈ 20 ms.
        // Slowest: origin = 2 × 10 ms + 2 × 100 ms + transfer ≥ 220 ms.
        assert!(lat.percentile(1.0) < 25_000, "fast path {}", lat.percentile(1.0));
        assert!(lat.percentile(99.9) > 200_000, "slow path {}", lat.percentile(99.9));
    }

    #[test]
    fn higher_concurrency_raises_throughput_at_low_levels() {
        let r1 = run(1, ThresholdPolicy::new(1, 100 * 1024), 4_000);
        let r16 = run(16, ThresholdPolicy::new(1, 100 * 1024), 4_000);
        assert!(
            r16.goodput_gbps > r1.goodput_gbps,
            "16 clients {} ≤ 1 client {}",
            r16.goodput_gbps,
            r1.goodput_gbps
        );
    }

    #[test]
    fn extreme_concurrency_hits_contention() {
        // The contention model must eventually flatten/penalize throughput
        // per added client: goodput at 4096 clients must be less than
        // proportionally higher than at 256.
        let r256 = run(256, ThresholdPolicy::new(1, 100 * 1024), 4_000);
        let r4096 = run(4096, ThresholdPolicy::new(1, 100 * 1024), 4_000);
        assert!(
            r4096.goodput_gbps < r256.goodput_gbps * 16.0,
            "no contention visible: {} vs {}",
            r4096.goodput_gbps,
            r256.goodput_gbps
        );
    }

    #[test]
    fn better_admission_gives_better_latency() {
        // A permissive expert (high hit rate on image traffic) must beat a
        // never-admit expert on mean first-byte latency.
        let good = run(8, ThresholdPolicy::new(1, 1024 * 1024), 6_000);
        let bad = run(8, ThresholdPolicy::new(200, 1), 6_000);
        assert!(good.cache.hoc_ohr() > bad.cache.hoc_ohr());
        assert!(good.latency.clone().mean() < bad.latency.clone().mean());
    }

    #[test]
    fn busy_fraction_is_sane() {
        let r = run(32, ThresholdPolicy::new(1, 100 * 1024), 3_000);
        assert!((0.0..=1.0).contains(&r.hoc_busy_fraction));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use darwin::StaticDriver;
    use darwin_cache::ThresholdPolicy;
    use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// For any concurrency and expert, the run completes every request,
        /// the makespan bounds every latency sample, and goodput is finite.
        #[test]
        fn testbed_invariants(concurrency in 1usize..64, f in 0u32..8, s_kb in 1u64..2000) {
            let trace = TraceGenerator::new(
                MixSpec::single(TrafficClass::image()), 11).generate(2_000);
            let tb = Testbed::new(TestbedConfig { concurrency, ..TestbedConfig::default() });
            let mut d = StaticDriver::new(ThresholdPolicy::new(f, s_kb * 1024));
            let r = tb.run(&trace, &CacheConfig::small_test(), &mut d);
            prop_assert_eq!(r.completed, 2_000);
            prop_assert!(r.goodput_gbps.is_finite() && r.goodput_gbps > 0.0);
            let mut lat = r.latency.clone();
            prop_assert!(lat.percentile(100.0) <= r.makespan_us);
            prop_assert!((0.0..=1.0).contains(&r.hoc_busy_fraction));
        }
    }
}
