//! The Percentile baseline (§6):
//!
//! "In N-request windows, we update the empirical distributions of
//! frequencies and sizes of incoming requests. For the next N requests, it
//! deploys the expert (f, s) with f, s closest to the 60th, 90th percentiles
//! (respectively) of the empirical distribution hitherto."

use darwin::{AdmissionDriver, Expert, ExpertGrid};
use darwin_cache::{CacheConfig, CacheMetrics, CacheServer, ThresholdPolicy};
use darwin_trace::{ObjectId, Request, Trace};
use std::collections::HashMap;

/// The Percentile adaptive baseline.
#[derive(Debug, Clone)]
pub struct Percentile {
    grid: ExpertGrid,
    /// Window length N in requests.
    pub window: usize,
    /// Frequency percentile (paper: 60).
    pub f_percentile: f64,
    /// Size percentile (paper: 90).
    pub s_percentile: f64,
}

impl Percentile {
    /// Baseline over `grid` with window `n` and the paper's percentiles.
    pub fn new(grid: ExpertGrid, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self { grid, window, f_percentile: 60.0, s_percentile: 90.0 }
    }

    /// Tunes the percentile pair on training traces, as the paper does
    /// ("the percentile values are picked to be the best-performing ones
    /// for this window size"): grid-search over candidate (f, s) percentile
    /// pairs, maximizing mean HOC OHR.
    pub fn tuned(grid: ExpertGrid, window: usize, training: &[Trace], cache: &CacheConfig) -> Self {
        assert!(!training.is_empty(), "tuning needs at least one trace");
        let mut best = Self::new(grid.clone(), window);
        let mut best_ohr = f64::NEG_INFINITY;
        for &f_pct in &[40.0, 50.0, 60.0, 70.0, 80.0] {
            for &s_pct in &[70.0, 80.0, 90.0, 95.0] {
                let candidate =
                    Self { grid: grid.clone(), window, f_percentile: f_pct, s_percentile: s_pct };
                let mean_ohr: f64 =
                    training.iter().map(|t| candidate.run(t, cache).hoc_ohr()).sum::<f64>()
                        / training.len() as f64;
                if mean_ohr > best_ohr {
                    best_ohr = mean_ohr;
                    best = candidate;
                }
            }
        }
        best
    }

    /// The expert in the grid nearest to thresholds (f, s) (Euclidean in
    /// (f, log s) space — sizes span orders of magnitude).
    fn nearest_expert(&self, f: f64, s: f64) -> Expert {
        self.grid.nearest(f, s.max(1.0).ln())
    }

    /// Chooses the expert for the distribution observed in a window.
    /// `freqs` is the per-request frequency sample (the within-window request
    /// count of each request's object), `sizes` the per-request sizes.
    fn choose(&self, freqs: &mut [u32], sizes: &mut [u64]) -> Expert {
        let f = percentile(freqs, self.f_percentile) as f64;
        let s = percentile(sizes, self.s_percentile) as f64;
        self.nearest_expert(f, s)
    }

    /// Runs the baseline over a trace on a fresh server.
    pub fn run(&self, trace: &Trace, cache: &CacheConfig) -> CacheMetrics {
        let mut driver = PercentileState::new(self);
        let mut server = CacheServer::new(cache.clone());
        server.set_policy(driver.initial_policy());
        darwin::serve(&mut server, &mut driver, trace.requests());
        server.metrics()
    }
}

/// The baseline as an [`AdmissionDriver`], for any loop that owns the
/// server: the grid's first expert until the first window closes, then at
/// each window's end the expert chosen from that window.
#[derive(Debug, Clone)]
pub struct PercentileState<'a> {
    baseline: &'a Percentile,
    counts: HashMap<ObjectId, u32>,
    freqs: Vec<u32>,
    sizes: Vec<u64>,
}

impl<'a> PercentileState<'a> {
    /// An empty first window of `baseline`.
    pub fn new(baseline: &'a Percentile) -> Self {
        Self { baseline, counts: HashMap::new(), freqs: Vec::new(), sizes: Vec::new() }
    }
}

impl AdmissionDriver for PercentileState<'_> {
    fn initial_policy(&mut self) -> ThresholdPolicy {
        self.baseline.grid.get(0).policy
    }
    fn observe(&mut self, req: &Request, _cumulative: &CacheMetrics) -> Option<ThresholdPolicy> {
        let c = self.counts.entry(req.id).or_insert(0);
        *c += 1;
        self.freqs.push(*c);
        self.sizes.push(req.size);
        if self.freqs.len() < self.baseline.window {
            return None;
        }
        let expert = self.baseline.choose(&mut self.freqs, &mut self.sizes);
        self.counts.clear();
        self.freqs.clear();
        self.sizes.clear();
        Some(expert.policy)
    }
    fn label(&self) -> String {
        "percentile".into()
    }
}

fn percentile<T: Ord + Copy + Default>(v: &mut [T], p: f64) -> T {
    if v.is_empty() {
        return T::default();
    }
    v.sort_unstable();
    v[((p / 100.0) * (v.len() - 1) as f64).round() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};

    #[test]
    fn percentile_helpers() {
        let mut v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 60.0), 60);
        assert_eq!(percentile(&mut v, 0.0), 1);
        assert_eq!(percentile(&mut v, 100.0), 100);
        assert_eq!(percentile::<u32>(&mut [], 50.0), 0);
    }

    #[test]
    fn nearest_expert_prefers_close_thresholds() {
        let p = Percentile::new(ExpertGrid::paper_grid(), 1000);
        let e = p.nearest_expert(3.0, 95.0 * 1024.0);
        assert_eq!(e.f(), 3);
        assert_eq!(e.s_bytes(), 100 * 1024);
    }

    #[test]
    fn run_adapts_and_accounts_all_requests() {
        let trace = TraceGenerator::new(
            MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5),
            1,
        )
        .generate(20_000);
        let p = Percentile::new(ExpertGrid::paper_grid(), 5_000);
        let m = p.run(&trace, &CacheConfig::small_test());
        assert_eq!(m.requests as usize, trace.len());
        assert!(m.hoc_ohr() >= 0.0);
    }

    /// The loop `run` had before it drove `darwin::serve`, kept as the
    /// reference its driver must match.
    fn reference_run(p: &Percentile, trace: &Trace, cache: &CacheConfig) -> CacheMetrics {
        let mut server = CacheServer::new(cache.clone());
        server.set_policy(p.grid.get(0).policy);
        let mut counts: HashMap<ObjectId, u32> = HashMap::new();
        let mut freqs: Vec<u32> = Vec::with_capacity(p.window);
        let mut sizes: Vec<u64> = Vec::with_capacity(p.window);
        let mut seen = 0usize;
        for r in trace {
            server.process(r);
            let c = counts.entry(r.id).or_insert(0);
            *c += 1;
            freqs.push(*c);
            sizes.push(r.size);
            seen += 1;
            if seen >= p.window {
                let expert = p.choose(&mut freqs, &mut sizes);
                server.set_policy(expert.policy);
                counts.clear();
                freqs.clear();
                sizes.clear();
                seen = 0;
            }
        }
        server.metrics()
    }

    #[test]
    fn run_is_the_reference_loop_bitwise() {
        let trace = TraceGenerator::new(
            MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5),
            3,
        )
        .generate(17_500);
        let cache = CacheConfig::small_test();
        for window in [1, 2_000, 5_000] {
            let p = Percentile::new(ExpertGrid::paper_grid(), window);
            assert_eq!(p.run(&trace, &cache), reference_run(&p, &trace, &cache), "window {window}");
        }
    }

    #[test]
    fn observe_emits_expert_at_window_boundary() {
        let p = Percentile::new(ExpertGrid::paper_grid(), 10);
        let mut st = PercentileState::new(&p);
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 2).generate(25);
        let mut emitted = 0;
        for r in &trace {
            if st.observe(r, &CacheMetrics::default()).is_some() {
                emitted += 1;
            }
        }
        assert_eq!(emitted, 2, "two full windows of 10 in 25 requests");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Squared distance in (f, ln s) space, written out as the oracle.
    fn dist(e: &Expert, f: f64, ls: f64) -> f64 {
        let df = e.f() as f64 - f;
        let dls = (e.s_bytes() as f64).ln() - ls;
        df * df + dls * dls
    }

    proptest! {
        /// The snapped expert is genuinely the nearest grid point in
        /// (f, ln s) space.
        #[test]
        fn nearest_expert_is_optimal(f in 0.0f64..10.0, s_kb in 1.0f64..4000.0) {
            let p = Percentile::new(ExpertGrid::paper_grid(), 100);
            let s_bytes = s_kb * 1024.0;
            let chosen = p.nearest_expert(f, s_bytes);
            let d_chosen = dist(&chosen, f, s_bytes.ln());
            for e in ExpertGrid::paper_grid().experts() {
                prop_assert!(
                    d_chosen <= dist(e, f, s_bytes.ln()) + 1e-9,
                    "{} closer than chosen {}", e.label(), chosen.label()
                );
            }
        }

        /// Percentile helpers are order statistics: result is an element of
        /// the input and respects percentile monotonicity.
        #[test]
        fn percentile_is_monotone_order_statistic(
            mut v in proptest::collection::vec(0u32..1000, 1..100)
        ) {
            let p30 = percentile(&mut v, 30.0);
            let p70 = percentile(&mut v, 70.0);
            prop_assert!(v.contains(&p30));
            prop_assert!(p30 <= p70);
        }
    }
}
