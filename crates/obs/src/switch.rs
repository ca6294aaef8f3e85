//! Switching-cost accounting: what does an expert switch actually churn?
//!
//! The bandit switches experts "for free", but a real switch perturbs the
//! cache's working set: admission thresholds change, recently admitted
//! objects stop being reinforced, and the hit ratio dips until the cache
//! re-converges. "Online Caching with Optimal Switching Regret" formalizes
//! this cost; before a switching-aware deployment rule can trade it off,
//! it has to be measured.
//!
//! [`SwitchCostTracker`] maintains a trailing hit-ratio window from integer
//! bin counters (deterministic — no wall clock, no floats until the final
//! ratio). On every switch it snapshots the trailing ratio as the
//! *baseline*, then observes a fixed post-switch window: the worst
//! `baseline − trailing` drop is the **dip**, and the first request offset
//! at which the trailing ratio regains the baseline is the **recovery
//! time**. When the window closes (or another switch preempts it) the
//! tracker emits an [`EventKind::SwitchCost`] event for the journal.

use crate::journal::{Event, EventKind};
use std::collections::VecDeque;

/// Shape of the trailing window and post-switch observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchCostConfig {
    /// Requests per trailing-ratio bin.
    pub bin_size: u64,
    /// Completed bins retained; the trailing window spans
    /// `bin_size × bins` requests (plus the partial current bin).
    pub bins: usize,
    /// Requests a post-switch window observes before emitting its event.
    pub window: u64,
}

impl Default for SwitchCostConfig {
    fn default() -> Self {
        Self { bin_size: 512, bins: 8, window: 4096 }
    }
}

struct OpenWindow {
    expert: u32,
    baseline: f64,
    min_ratio: f64,
    recovered_after: Option<u64>,
    seen: u64,
}

/// Tracks hit-ratio churn around expert switches. One per shard, owned by
/// the worker; purely sequential and deterministic in the request stream.
pub struct SwitchCostTracker {
    cfg: SwitchCostConfig,
    done_bins: VecDeque<(u64, u64)>, // (hits, requests) per completed bin
    cur_hits: u64,
    cur_total: u64,
    active: Option<OpenWindow>,
}

impl Default for SwitchCostTracker {
    fn default() -> Self {
        Self::new(SwitchCostConfig::default())
    }
}

impl SwitchCostTracker {
    /// A tracker with the given window shape.
    pub fn new(cfg: SwitchCostConfig) -> Self {
        Self {
            cfg: SwitchCostConfig {
                bin_size: cfg.bin_size.max(1),
                bins: cfg.bins.max(1),
                window: cfg.window.max(1),
            },
            done_bins: VecDeque::new(),
            cur_hits: 0,
            cur_total: 0,
            active: None,
        }
    }

    /// Trailing hit ratio over the retained bins plus the current partial
    /// bin; `None` until the first request.
    pub fn trailing_ratio(&self) -> Option<f64> {
        trailing(&self.done_bins, self.cur_hits, self.cur_total)
    }

    /// Feeds one served request (`hit` = HOC or DC hit). Returns the
    /// [`EventKind::SwitchCost`] event if this request closed an open
    /// post-switch window.
    pub fn observe(&mut self, hit: bool, seq: u64) -> Option<Event> {
        self.cur_total += 1;
        if hit {
            self.cur_hits += 1;
        }
        if self.cur_total >= self.cfg.bin_size {
            self.done_bins.push_back((self.cur_hits, self.cur_total));
            if self.done_bins.len() > self.cfg.bins {
                self.done_bins.pop_front();
            }
            self.cur_hits = 0;
            self.cur_total = 0;
        }
        // Only an open post-switch window reads the ratio.
        let w = self.active.as_mut()?;
        let ratio = trailing(&self.done_bins, self.cur_hits, self.cur_total).unwrap_or(0.0);
        w.seen += 1;
        if ratio < w.min_ratio {
            w.min_ratio = ratio;
        }
        if w.recovered_after.is_none() && ratio >= w.baseline {
            w.recovered_after = Some(w.seen);
        }
        if w.seen >= self.cfg.window {
            return Some(self.close(seq));
        }
        None
    }

    /// Notes an expert switch at sequence number `seq`. If a previous
    /// window was still open it closes early and its event is returned.
    pub fn on_switch(&mut self, seq: u64, expert: u32) -> Option<Event> {
        let preempted = self.active.is_some().then(|| self.close(seq));
        let baseline = self.trailing_ratio().unwrap_or(0.0);
        self.active =
            Some(OpenWindow { expert, baseline, min_ratio: baseline, recovered_after: None, seen: 0 });
        preempted
    }

    /// Closes any open window immediately (end of run), returning its event.
    pub fn finish(&mut self, seq: u64) -> Option<Event> {
        self.active.is_some().then(|| self.close(seq))
    }

    fn close(&mut self, seq: u64) -> Event {
        let w = self.active.take().expect("close without an open window");
        Event {
            seq,
            kind: EventKind::SwitchCost {
                expert: w.expert,
                baseline: w.baseline,
                dip: (w.baseline - w.min_ratio).max(0.0),
                recovery: w.recovered_after,
                window: w.seen,
            },
        }
    }
}

/// The hit ratio over the completed bins plus the partial one; `None`
/// before any request.
fn trailing(done_bins: &VecDeque<(u64, u64)>, cur_hits: u64, cur_total: u64) -> Option<f64> {
    let (mut hits, mut total) = (cur_hits, cur_total);
    for &(h, t) in done_bins {
        hits += h;
        total += t;
    }
    (total > 0).then(|| hits as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(t: &mut SwitchCostTracker, hits: &[bool], from_seq: u64) -> Vec<Event> {
        let mut out = Vec::new();
        for (i, &h) in hits.iter().enumerate() {
            if let Some(e) = t.observe(h, from_seq + i as u64 + 1) {
                out.push(e);
            }
        }
        out
    }

    #[test]
    fn dip_and_recovery_are_measured() {
        let mut t = SwitchCostTracker::new(SwitchCostConfig { bin_size: 4, bins: 2, window: 32 });
        // Warm up at 100% hit ratio.
        drive(&mut t, &[true; 16], 0);
        assert_eq!(t.trailing_ratio(), Some(1.0));
        assert!(t.on_switch(16, 3).is_none());
        // Post-switch: 8 misses fill both retained bins (trailing ratio
        // hits 0), then pure hits refill them — the baseline is regained
        // only once the miss bins age out, 8 hit-requests later.
        let mut events = drive(&mut t, &[false; 8], 16);
        events.extend(drive(&mut t, &[true; 24], 24));
        assert_eq!(events.len(), 1, "window of 32 closes exactly once");
        match &events[0].kind {
            EventKind::SwitchCost { expert, baseline, dip, recovery, window } => {
                assert_eq!(*expert, 3);
                assert_eq!(*baseline, 1.0);
                assert_eq!(*dip, 1.0, "both retained bins went all-miss");
                assert_eq!(*recovery, Some(16), "misses age out after 8 more hits");
                assert_eq!(*window, 32);
            }
            other => panic!("expected SwitchCost, got {other:?}"),
        }
        assert_eq!(events[0].seq, 48, "stamped with the closing request's seq");
    }

    #[test]
    fn second_switch_preempts_open_window() {
        let mut t = SwitchCostTracker::new(SwitchCostConfig { bin_size: 4, bins: 2, window: 100 });
        drive(&mut t, &[true; 8], 0);
        assert!(t.on_switch(8, 1).is_none());
        drive(&mut t, &[false; 4], 8);
        let preempted = t.on_switch(12, 2).expect("open window closes early");
        match preempted.kind {
            EventKind::SwitchCost { expert, window, .. } => {
                assert_eq!(expert, 1);
                assert_eq!(window, 4, "only 4 requests observed before preemption");
            }
            other => panic!("expected SwitchCost, got {other:?}"),
        }
        assert!(t.finish(20).is_some(), "the second window closes at finish");
        assert!(t.finish(20).is_none(), "nothing left to close");
    }

    #[test]
    fn no_switch_no_events() {
        let mut t = SwitchCostTracker::default();
        assert!(drive(&mut t, &[true, false, true, false], 0).is_empty());
        assert!(t.finish(4).is_none());
    }

    /// `observe` as it was when it computed the trailing ratio on every
    /// request, open window or not: the reference the lazy one must match.
    fn observe_eagerly(t: &mut SwitchCostTracker, hit: bool, seq: u64) -> Option<Event> {
        t.cur_total += 1;
        if hit {
            t.cur_hits += 1;
        }
        if t.cur_total >= t.cfg.bin_size {
            t.done_bins.push_back((t.cur_hits, t.cur_total));
            if t.done_bins.len() > t.cfg.bins {
                t.done_bins.pop_front();
            }
            t.cur_hits = 0;
            t.cur_total = 0;
        }
        let ratio = t.trailing_ratio().unwrap_or(0.0);
        let w = t.active.as_mut()?;
        w.seen += 1;
        if ratio < w.min_ratio {
            w.min_ratio = ratio;
        }
        if w.recovered_after.is_none() && ratio >= w.baseline {
            w.recovered_after = Some(w.seen);
        }
        if w.seen >= t.cfg.window {
            return Some(t.close(seq));
        }
        None
    }

    #[test]
    fn the_ratio_taken_only_in_a_window_yields_the_reference_events() {
        let cfg = SwitchCostConfig { bin_size: 16, bins: 4, window: 200 };
        // Switches close together (one preempts the next), far apart (the
        // window closes on its own first) and at the very start.
        let switches = [0, 150, 260, 1_000, 1_050, 1_120, 3_000, 4_990];
        let run = |observe: fn(&mut SwitchCostTracker, bool, u64) -> Option<Event>| {
            let mut t = SwitchCostTracker::new(cfg);
            let mut rng = 0x9E37_79B9_7F4A_7C15u64;
            let mut events = Vec::new();
            for i in 0..5_000u64 {
                if let Ok(k) = switches.binary_search(&i) {
                    events.extend(t.on_switch(i, k as u32));
                }
                // A hit ratio that drifts between 20 % and 80 % over the run.
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let p = 20 + (i / 50) % 61;
                events.extend(observe(&mut t, rng % 100 < p, i + 1));
            }
            events.extend(t.finish(5_000));
            events
        };
        let lazy = run(SwitchCostTracker::observe);
        assert_eq!(lazy.len(), switches.len());
        assert_eq!(lazy, run(observe_eagerly));
    }

    #[test]
    fn deterministic_in_the_request_stream() {
        let run = || {
            let mut t = SwitchCostTracker::new(SwitchCostConfig { bin_size: 3, bins: 3, window: 16 });
            let mut events = Vec::new();
            for i in 0..200u64 {
                if i == 50 || i == 120 {
                    events.extend(t.on_switch(i, (i / 50) as u32));
                }
                events.extend(t.observe(i % 3 != 0, i + 1));
            }
            events.extend(t.finish(200));
            events
        };
        assert_eq!(run(), run());
    }
}
