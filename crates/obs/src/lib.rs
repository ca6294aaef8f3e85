//! Deterministic observability for the Darwin serving fleet.
//!
//! Three pillars, all std-only:
//!
//! * [`Histogram`] — a fixed-size, log-bucketed latency histogram that is
//!   lock-free to record into and whose sparse [`HistogramSnapshot`]s merge
//!   exactly (bucket-wise), so per-shard histograms aggregate into fleet
//!   percentiles without losing information. Quantiles are computed
//!   nearest-rank directly from the buckets with a bounded relative error
//!   of `2^-5` ≈ 3.1% (see [`hist`]).
//! * [`Journal`] — a bounded ring of typed [`Event`]s per shard (worker
//!   deaths, restart verdicts, warm/cold restores, expert switches, drift,
//!   fault injection, checkpoint cuts). Events are stamped with per-shard
//!   *request sequence numbers*, never wall clock, so a seeded run
//!   reproduces its journal bit-for-bit — the property the
//!   journal-determinism gate in `verify.sh` pins.
//! * [`SwitchCostTracker`] — opens a post-switch observation window on
//!   every expert switch and quantifies the hit-ratio dip against the
//!   pre-switch trailing baseline, emitting a [`EventKind::SwitchCost`]
//!   event when the window closes. This is the churn-per-switch telemetry
//!   a switching-aware deployment rule needs.
//!
//! Histograms record wall-clock durations and are therefore *not* part of
//! the determinism contract; the journal and switch-cost events are derived
//! purely from request sequence numbers and integer counters and *are*.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod journal;
pub mod switch;

pub use hist::{Histogram, HistogramSnapshot, LatencySnapshot, NUM_BUCKETS, SUB_BITS};
pub use journal::{
    decode_fleet_events, encode_fleet_events, encode_fleet_events_within, Event, EventKind, Journal,
    JournalSnapshot, DEFAULT_JOURNAL_CAPACITY,
};
pub use switch::{SwitchCostConfig, SwitchCostTracker};

/// One shard's observability state: the three serve-path latency histograms
/// plus the shard's event journal. Owned by the shard's metrics cell so it
/// survives worker restarts (histograms and journal accumulate across
/// incarnations, like every other per-shard counter).
#[derive(Debug)]
pub struct ShardObs {
    /// Request service time (the `process` call itself).
    pub serve: Histogram,
    /// Producer-side blocking time on a full shard queue.
    pub queue_wait: Histogram,
    /// Worker pause while building and storing a checkpoint.
    pub ckpt_pause: Histogram,
    /// The shard's bounded event journal.
    pub journal: Journal,
}

impl Default for ShardObs {
    fn default() -> Self {
        Self::new(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl ShardObs {
    /// Fresh observability state with the given journal capacity.
    pub fn new(journal_capacity: usize) -> Self {
        Self {
            serve: Histogram::new(),
            queue_wait: Histogram::new(),
            ckpt_pause: Histogram::new(),
            journal: Journal::new(journal_capacity),
        }
    }

    /// Snapshots the three histograms together.
    pub fn latency_snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            serve: self.serve.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            ckpt_pause: self.ckpt_pause.snapshot(),
        }
    }
}
