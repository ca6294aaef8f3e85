//! The HillClimbing baseline (§6):
//!
//! "the learner deploys an expert (f, s) in the main cache for N requests
//! and concurrently runs two shadow caches; one each for experts
//! (f + Δf, s), (f, s + Δs). It then updates the main cache with the
//! best-performing expert of the three. When the expert deployed in the main
//! cache does not change, the shadow caches are updated to run (f − Δf, s),
//! (f, s − Δs)."
//!
//! The shadow caches are the approach's memory cost (R4 in §3.2.1) — here
//! they are the two lanes of one HOC-only simulator fed the same request
//! stream.

use darwin_cache::{
    CacheConfig, CacheMetrics, CacheServer, EvictionKind, HocSim, Objective, ThresholdPolicy,
};
use darwin_trace::Trace;

/// The HillClimbing adaptive baseline.
#[derive(Debug, Clone)]
pub struct HillClimbing {
    /// Frequency step Δf (paper: 1).
    pub delta_f: u32,
    /// Size step Δs in bytes (paper evaluates Δs ∈ {1 KB, 10 KB}; Table 2
    /// reports Δs ∈ {10 KB, 20 KB} variants).
    pub delta_s: u64,
    /// Epoch length N in requests (paper: 0.5 M).
    pub window: usize,
    /// Starting expert.
    pub start: ThresholdPolicy,
    /// Reward the climber maximizes.
    pub objective: Objective,
}

impl HillClimbing {
    /// Climber with the paper's defaults around a starting expert.
    pub fn new(start: ThresholdPolicy, delta_s: u64, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self { delta_f: 1, delta_s, window, start, objective: Objective::HocOhr }
    }

    /// Runs the baseline over a trace on a fresh server.
    pub fn run(&self, trace: &Trace, cache: &CacheConfig) -> CacheMetrics {
        let mut main = CacheServer::new(cache.clone());
        let mut current = self.start;
        main.set_policy(current);

        // Direction of the shadow probes: +1 explores upward, −1 downward.
        let mut direction: i64 = 1;
        let (pf, ps) = self.probe_policies(current, direction);
        // Shadows persist across windows (warm caches, like the main cache);
        // only their policies change between windows. Lane `F` probes the
        // frequency knob, lane `S` the size knob.
        const F: usize = 0;
        const S: usize = 1;
        let mut shadows = HocSim::bank([pf, ps].map(|p| (cache.hoc_bytes, EvictionKind::Lru, p)));

        let mut main_snapshot = main.metrics();
        let mut shadow_snapshots = [shadows.metrics(F), shadows.metrics(S)];
        let mut seen = 0usize;

        for r in trace {
            main.process(r);
            shadows.process(r);
            seen += 1;
            if seen < self.window {
                continue;
            }
            seen = 0;

            let rm = self.objective.reward(&main.metrics().diff(&main_snapshot));
            let rf = self.objective.reward(&shadows.metrics(F).diff(&shadow_snapshots[F]));
            let rs = self.objective.reward(&shadows.metrics(S).diff(&shadow_snapshots[S]));

            let moved = if rf > rm && rf >= rs {
                current = shadows.policy(F);
                main.set_policy(current);
                true
            } else if rs > rm && rs > rf {
                current = shadows.policy(S);
                main.set_policy(current);
                true
            } else {
                false
            };

            if moved {
                direction = 1; // explore upward again from the new position
            } else {
                direction = -direction; // flip probes (paper: try f−Δf, s−Δs)
            }
            let (pf, ps) = self.probe_policies(current, direction);
            shadows.set_policy(F, pf);
            shadows.set_policy(S, ps);

            main_snapshot = main.metrics();
            shadow_snapshots = [shadows.metrics(F), shadows.metrics(S)];
        }
        main.metrics()
    }

    /// The two probe policies (f ± Δf, s) and (f, s ± Δs).
    fn probe_policies(
        &self,
        current: ThresholdPolicy,
        direction: i64,
    ) -> (ThresholdPolicy, ThresholdPolicy) {
        let f = if direction > 0 {
            current.freq_threshold.saturating_add(self.delta_f)
        } else {
            current.freq_threshold.saturating_sub(self.delta_f)
        };
        let s = if direction > 0 {
            current.size_threshold.saturating_add(self.delta_s)
        } else {
            current.size_threshold.saturating_sub(self.delta_s).max(1024)
        };
        (
            ThresholdPolicy::new(f, current.size_threshold),
            ThresholdPolicy::new(current.freq_threshold, s),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};

    #[test]
    fn runs_and_accounts_all_requests() {
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 1).generate(15_000);
        let hc = HillClimbing::new(ThresholdPolicy::new(4, 50 * 1024), 10 * 1024, 3_000);
        let m = hc.run(&trace, &CacheConfig::small_test());
        assert_eq!(m.requests as usize, trace.len());
    }

    #[test]
    fn climbs_toward_better_expert() {
        // Download traffic strongly prefers permissive thresholds; starting
        // from a strict expert, climbing should improve on staying put.
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::download()), 2).generate(40_000);
        let cache = CacheConfig { hoc_bytes: 4 * 1024 * 1024, ..CacheConfig::small_test() };
        let strict = ThresholdPolicy::new(6, 20 * 1024);
        let hc = HillClimbing::new(strict, 20 * 1024, 4_000);
        let climbed = hc.run(&trace, &cache);

        let mut static_server = CacheServer::new(cache);
        static_server.set_policy(strict);
        let stayed = static_server.process_trace(&trace);

        assert!(
            climbed.hoc_ohr() >= stayed.hoc_ohr(),
            "climbing {} < static {}",
            climbed.hoc_ohr(),
            stayed.hoc_ohr()
        );
    }

    #[test]
    fn size_threshold_never_collapses_to_zero() {
        let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 3).generate(12_000);
        // Start at the minimum size; downward probes must clamp at 1 KB.
        let hc = HillClimbing::new(ThresholdPolicy::new(2, 1024), 10 * 1024, 2_000);
        let m = hc.run(&trace, &CacheConfig::small_test());
        assert_eq!(m.requests as usize, trace.len());
    }
}
