//! The AdaptSize baseline (Berger, Sitaraman & Harchol-Balter, NSDI'17).
//!
//! AdaptSize admits an object of size `s` into the HOC with probability
//! `exp(−s/c)` and re-tunes `c` periodically by maximizing a Markov-model
//! estimate of the OHR. The model (§3 of the AdaptSize paper, in its
//! Che-approximation form): an object `i` with request rate `λ_i` and size
//! `s_i` is in the cache with probability
//!
//! ```text
//! π_i(c, T) = p_i·(e^{λ_i T} − 1) / (1 + p_i·(e^{λ_i T} − 1)),
//! p_i = exp(−s_i / c)
//! ```
//!
//! where the characteristic time `T` solves the capacity constraint
//! `Σ_i s_i π_i(c, T) = C` (monotone in `T` ⇒ bisection). The predicted
//! OHR is `Σ_i λ_i π_i / Σ_i λ_i`; `c` is chosen from a log-spaced grid to
//! maximize it.
//!
//! §3.2.1 of the Darwin paper explains why this single-knob, OHR-specific
//! model cannot extend to frequency knobs or hardware-dependent objectives —
//! which is exactly the comparison the experiments reproduce.

use darwin_cache::policy::{Admission, ProbabilisticSizePolicy};
use darwin_cache::{CacheConfig, CacheMetrics, CacheServer};
use darwin_trace::{ObjectId, Trace};
use std::collections::HashMap;

/// The AdaptSize adaptive baseline.
#[derive(Debug, Clone)]
pub struct AdaptSize {
    /// Re-tuning interval in requests.
    pub window: usize,
    /// Initial size parameter `c` in bytes.
    pub initial_c: f64,
    /// Candidate grid: `c` is searched over `grid_points` log-spaced values
    /// in `[c_min, c_max]`.
    pub c_min: f64,
    /// Upper end of the search range.
    pub c_max: f64,
    /// Number of grid points.
    pub grid_points: usize,
    /// RNG seed for the admission coin flips.
    pub seed: u64,
}

impl AdaptSize {
    /// AdaptSize with a sensible default search range (1 KB – 100 MB).
    pub fn new(window: usize, seed: u64) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            window,
            initial_c: 100.0 * 1024.0,
            c_min: 1024.0,
            c_max: 100.0 * 1024.0 * 1024.0,
            grid_points: 24,
            seed,
        }
    }

    /// Runs the baseline over a trace on a fresh server.
    pub fn run(&self, trace: &Trace, cache: &CacheConfig) -> CacheMetrics {
        let mut server = CacheServer::new(cache.clone());
        let mut c = self.initial_c;
        server.set_policy(Admission::ProbabilisticSize(ProbabilisticSizePolicy::new(c, self.seed)));

        let mut stats: HashMap<ObjectId, (u64, u64)> = HashMap::new(); // id -> (count, size)
        let mut window_start_us = trace.requests().first().map(|r| r.timestamp_us).unwrap_or(0);
        let mut seen = 0usize;
        let mut reconfigs = 0u64;

        for r in trace {
            server.process(r);
            let e = stats.entry(r.id).or_insert((0, r.size));
            e.0 += 1;
            seen += 1;
            if seen >= self.window {
                let duration_s = ((r.timestamp_us - window_start_us) as f64 / 1e6).max(1e-6);
                c = self.tune(&stats, duration_s, cache.hoc_bytes as f64);
                reconfigs += 1;
                let coin = ProbabilisticSizePolicy::new(c, self.seed.wrapping_add(reconfigs));
                server.set_policy(Admission::ProbabilisticSize(coin));
                stats.clear();
                seen = 0;
                window_start_us = r.timestamp_us;
            }
        }
        server.metrics()
    }

    /// Picks the `c` maximizing the Markov-model OHR for the window's
    /// object statistics.
    pub fn tune(&self, stats: &HashMap<ObjectId, (u64, u64)>, duration_s: f64, capacity: f64) -> f64 {
        if stats.is_empty() {
            return self.initial_c;
        }
        let objects: Vec<(f64, f64)> =
            stats.values().map(|&(count, size)| (count as f64 / duration_s, size as f64)).collect();
        let total_rate: f64 = objects.iter().map(|&(l, _)| l).sum();

        let mut best = (self.initial_c, f64::NEG_INFINITY);
        for g in 0..self.grid_points {
            let frac = g as f64 / (self.grid_points - 1).max(1) as f64;
            let c = self.c_min * (self.c_max / self.c_min).powf(frac);
            let t = solve_characteristic_time(&objects, c, capacity);
            let ohr: f64 = objects.iter().map(|&(l, s)| l * pi_in(l, s, c, t)).sum::<f64>() / total_rate;
            if ohr > best.1 {
                best = (c, ohr);
            }
        }
        best.0
    }
}

/// Steady-state in-cache probability of an object under AdaptSize's Markov
/// model.
fn pi_in(lambda: f64, size: f64, c: f64, t: f64) -> f64 {
    let p_admit = (-size / c).exp();
    // e^{λT} − 1 overflows for hot objects; clamp via the limit π → 1.
    let x = lambda * t;
    if x > 500.0 {
        return if p_admit > 0.0 { 1.0 } else { 0.0 };
    }
    let grow = x.exp_m1();
    let num = p_admit * grow;
    num / (1.0 + num)
}

/// Bisection on the capacity constraint `Σ_i s_i π_i(c, T) = capacity`.
/// Returns a `T` within 0.1 % of the root (or the bracket end).
fn solve_characteristic_time(objects: &[(f64, f64)], c: f64, capacity: f64) -> f64 {
    let occupied = |t: f64| -> f64 { objects.iter().map(|&(l, s)| s * pi_in(l, s, c, t)).sum() };
    // If even a huge T does not fill the cache, everything admitted fits.
    let mut hi = 1e9;
    if occupied(hi) <= capacity {
        return hi;
    }
    let mut lo = 1e-9;
    for _ in 0..200 {
        let mid = (lo * hi).sqrt(); // geometric bisection: T spans decades
        if occupied(mid) > capacity {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi / lo < 1.001 {
            break;
        }
    }
    (lo * hi).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};

    #[test]
    fn characteristic_time_fills_capacity() {
        // 100 objects of size 10, rate 1 ⇒ capacity 500 ⇒ half resident.
        let objects: Vec<(f64, f64)> = (0..100).map(|_| (1.0, 10.0)).collect();
        let t = solve_characteristic_time(&objects, 1e12, 500.0);
        let occ: f64 = objects.iter().map(|&(l, s)| s * pi_in(l, s, 1e12, t)).sum();
        assert!((occ - 500.0).abs() / 500.0 < 0.01, "occupancy {occ}");
    }

    #[test]
    fn pi_in_monotone_in_rate_and_size() {
        let t = 10.0;
        assert!(pi_in(2.0, 100.0, 1000.0, t) > pi_in(1.0, 100.0, 1000.0, t));
        assert!(pi_in(1.0, 100.0, 1000.0, t) > pi_in(1.0, 10_000.0, 1000.0, t));
        // Hot-object overflow path.
        assert!((pi_in(1e3, 10.0, 1000.0, 1e3) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tune_prefers_small_c_when_large_objects_pollute() {
        // Many tiny popular objects + few huge unpopular ones: optimal c is
        // small enough to keep the huge ones out.
        let mut stats = HashMap::new();
        for i in 0..200u64 {
            stats.insert(i, (50, 10 * 1024)); // popular 10 KB
        }
        for i in 1000..1010u64 {
            stats.insert(i, (1, 5 * 1024 * 1024)); // one-hit 5 MB
        }
        let a = AdaptSize::new(1000, 1);
        let c = a.tune(&stats, 60.0, 1024.0 * 1024.0);
        assert!(c < 5.0 * 1024.0 * 1024.0, "c = {c} keeps the polluters admissible");
    }

    #[test]
    fn run_accounts_all_requests() {
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 5).generate(15_000);
        let a = AdaptSize::new(5_000, 2);
        let m = a.run(&trace, &CacheConfig::small_test());
        assert_eq!(m.requests as usize, trace.len());
        assert!(m.hoc_ohr() > 0.0, "AdaptSize should achieve some hits");
    }
}
