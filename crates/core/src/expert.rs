//! Experts: the admission policies Darwin selects among.
//!
//! "In Darwin, each expert is characterized by a tuple (f, s) of frequency
//! and size thresholds, and promotes to HOC all objects that occur more than
//! f times and … of size lesser than s. Darwin can be trivially extended to
//! include other knobs" (§4). The evaluation's static grid is f ∈ 2..=7 ×
//! s ∈ {10, 20, 50, 100, 500, 1000} KB (36 experts, §6 "Baselines"), and the
//! three-knob extension adds a recency threshold (Appendix A.3, Fig 11:
//! 6 frequencies × 2 sizes × 3 recencies).

use darwin_cache::ThresholdPolicy;
use serde::{Deserialize, Serialize};

/// An HOC admission expert. Thin, copyable wrapper over the threshold policy
/// it deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Expert {
    /// The underlying (f, s[, r]) policy.
    pub policy: ThresholdPolicy,
}

impl Expert {
    /// Two-knob expert: frequency threshold `f`, size threshold `s_kb` in KB.
    pub fn new(f: u32, s_kb: u64) -> Self {
        Self { policy: ThresholdPolicy::new(f, s_kb * 1024) }
    }

    /// Three-knob expert with a recency threshold in seconds.
    pub fn with_recency(f: u32, s_kb: u64, r_secs: u64) -> Self {
        Self { policy: ThresholdPolicy::with_recency(f, s_kb * 1024, r_secs * 1_000_000) }
    }

    /// Frequency threshold f.
    pub fn f(&self) -> u32 {
        self.policy.freq_threshold
    }

    /// Size threshold s in bytes.
    pub fn s_bytes(&self) -> u64 {
        self.policy.size_threshold
    }

    /// Label like `f2s100` (matching Table 2's row names).
    pub fn label(&self) -> String {
        self.policy.label()
    }
}

/// A named set of experts (the action space handed to Darwin).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpertGrid {
    experts: Vec<Expert>,
}

impl ExpertGrid {
    /// Wraps an explicit expert list (order defines expert indices).
    pub fn new(experts: Vec<Expert>) -> Self {
        assert!(!experts.is_empty(), "at least one expert required");
        Self { experts }
    }

    /// The paper's 36-expert evaluation grid:
    /// f ∈ {2..7} × s ∈ {10, 20, 50, 100, 500, 1000} KB.
    pub fn paper_grid() -> Self {
        let mut experts = Vec::with_capacity(36);
        for f in 2..=7u32 {
            for &s in &[10u64, 20, 50, 100, 500, 1000] {
                experts.push(Expert::new(f, s));
            }
        }
        Self::new(experts)
    }

    /// The paper grid with size thresholds scaled by `factor` ("we scale up
    /// the size thresholds for the larger cache sizes", §6).
    pub fn paper_grid_scaled(factor: u64) -> Self {
        let mut experts = Vec::with_capacity(36);
        for f in 2..=7u32 {
            for &s in &[10u64, 20, 50, 100, 500, 1000] {
                experts.push(Expert::new(f, s * factor));
            }
        }
        Self::new(experts)
    }

    /// The three-knob grid of Fig 11: 6 frequencies × 2 sizes × 3 recencies
    /// (36 experts).
    pub fn three_knob_grid() -> Self {
        let mut experts = Vec::with_capacity(36);
        for f in 2..=7u32 {
            for &s in &[20u64, 100] {
                for &r in &[10u64, 60, 600] {
                    experts.push(Expert::with_recency(f, s, r));
                }
            }
        }
        Self::new(experts)
    }

    /// Number of experts.
    pub fn len(&self) -> usize {
        self.experts.len()
    }

    /// True if the grid is empty (cannot happen via constructors).
    pub fn is_empty(&self) -> bool {
        self.experts.is_empty()
    }

    /// The experts, in index order.
    pub fn experts(&self) -> &[Expert] {
        &self.experts
    }

    /// Expert at `idx`.
    pub fn get(&self, idx: usize) -> Expert {
        self.experts[idx]
    }

    /// Index of `expert` in the grid, if present.
    pub fn index_of(&self, expert: &Expert) -> Option<usize> {
        self.experts.iter().position(|e| e == expert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_has_36_experts() {
        let g = ExpertGrid::paper_grid();
        assert_eq!(g.len(), 36);
        assert_eq!(g.get(0), Expert::new(2, 10));
        assert_eq!(g.get(35), Expert::new(7, 1000));
    }

    #[test]
    fn three_knob_grid_has_36_experts() {
        let g = ExpertGrid::three_knob_grid();
        assert_eq!(g.len(), 36);
        assert!(g.experts().iter().all(|e| e.policy.max_recency_us.is_some()));
    }

    #[test]
    fn scaled_grid_multiplies_sizes() {
        let g = ExpertGrid::paper_grid_scaled(5);
        assert_eq!(g.get(0).s_bytes(), 50 * 1024);
    }

    #[test]
    fn labels_match_table2_convention() {
        assert_eq!(Expert::new(2, 10).label(), "f2s10");
        assert_eq!(Expert::new(7, 1000).label(), "f7s1000");
    }

    #[test]
    fn index_of_roundtrips() {
        let g = ExpertGrid::paper_grid();
        for i in 0..g.len() {
            assert_eq!(g.index_of(&g.get(i)), Some(i));
        }
        assert_eq!(g.index_of(&Expert::new(99, 1)), None);
    }
}
