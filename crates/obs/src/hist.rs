//! Log-bucketed latency histograms with exact bucket-wise merging.
//!
//! ## Bucket scheme
//!
//! Values are nanoseconds. The first 64 buckets are exact (one per value);
//! above that each power-of-two octave is split into `2^SUB_BITS = 32`
//! sub-buckets, so a recorded value lands in a bucket whose lower bound is
//! within a factor of `1 + 2^-5` of the value — a bounded relative error
//! of ≈ 3.1%. With 64-bit values that is `(63 - 4) · 32 = 1888` log-linear
//! buckets plus the 32 exact ones: [`NUM_BUCKETS`] = 1920 total, ~15 KiB
//! of `AtomicU64` per histogram. Recording is a handful of relaxed atomic
//! adds — no locks, no allocation — so it can sit on the shard serve path.
//!
//! ## Snapshots merge exactly
//!
//! [`HistogramSnapshot`] is the sparse (index, count) form. Because the
//! bucket boundaries are fixed, merging two snapshots is exact bucket-wise
//! addition: quantiles of the merged snapshot equal quantiles of a
//! histogram that had recorded both streams. That is what lets per-shard
//! histograms aggregate into fleet-wide percentiles in `FleetMetrics`
//! without shipping raw samples.
//!
//! Quantiles are nearest-rank over the bucket counts and report the bucket
//! *lower bound*, so a reported quantile never exceeds the true sample and
//! undershoots it by at most the 3.1% bucket width.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets.
pub const SUB_BITS: u32 = 5;

const SUB_BUCKETS: u32 = 1 << SUB_BITS;

/// Total bucket count covering the full `u64` nanosecond range.
pub const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_BUCKETS as usize;

/// The bucket a value lands in.
#[inline]
pub fn bucket_index(v: u64) -> u32 {
    if v < u64::from(SUB_BUCKETS) {
        v as u32
    } else {
        let exp = 63 - v.leading_zeros();
        let sub = ((v >> (exp - SUB_BITS)) & u64::from(SUB_BUCKETS - 1)) as u32;
        (exp - (SUB_BITS - 1)) * SUB_BUCKETS + sub
    }
}

/// The lower bound (smallest value) of bucket `index` — the value quantile
/// queries report for samples in that bucket.
#[inline]
pub fn bucket_floor(index: u32) -> u64 {
    if index < 2 * SUB_BUCKETS {
        u64::from(index)
    } else {
        let exp = index / SUB_BUCKETS + (SUB_BITS - 1);
        let sub = index % SUB_BUCKETS;
        u64::from(SUB_BUCKETS + sub) << (exp - SUB_BITS)
    }
}

/// A lock-free log-bucketed histogram of nanosecond values.
///
/// Writers call [`record`](Histogram::record) concurrently with readers
/// taking [`snapshot`](Histogram::snapshot)s; all updates are relaxed
/// atomics, so a snapshot is a consistent-enough view for telemetry (it
/// may miss in-flight records but never tears a counter).
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self { buckets: buckets.into_boxed_slice(), sum: AtomicU64::new(0), max: AtomicU64::new(0) }
    }

    /// Records one value (nanoseconds).
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of `v` at the cost of one: exactly what `n`
    /// calls of [`record`](Histogram::record) leave behind. A caller that
    /// times one event in `n` records it with weight `n`, so `count`, `sum`
    /// and the quantiles keep estimating the whole stream.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        let idx = bucket_index(v) as usize;
        self.buckets[idx].fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration, saturating to `u64::MAX` nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// A sparse copy of the current bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut total = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((i as u32, c));
                total += c;
            }
        }
        // Derive count from the buckets themselves so the snapshot is
        // internally consistent even if a record() is mid-flight.
        HistogramSnapshot {
            count: total,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// The sparse, mergeable, serializable form of a [`Histogram`].
///
/// `buckets` holds `(bucket_index, count)` pairs sorted by index with no
/// zero counts; `count` always equals the sum of the bucket counts.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total recorded values (= sum of bucket counts).
    pub count: u64,
    /// Sum of recorded values, in nanoseconds (wrapping on overflow).
    pub sum: u64,
    /// Largest recorded value, in nanoseconds.
    pub max: u64,
    /// Sparse `(bucket index, count)` pairs, sorted by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Folds `other` into `self` bucket-wise. Exact: quantiles of the
    /// result equal quantiles of one histogram fed both streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.buckets.is_empty() {
            self.count += other.count;
            self.sum = self.sum.wrapping_add(other.sum);
            self.max = self.max.max(other.max);
            return;
        }
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut i, mut j) = (0, 0);
        while i < self.buckets.len() || j < other.buckets.len() {
            match (self.buckets.get(i), other.buckets.get(j)) {
                (Some(&(ai, ac)), Some(&(bi, bc))) => {
                    if ai == bi {
                        merged.push((ai, ac + bc));
                        i += 1;
                        j += 1;
                    } else if ai < bi {
                        merged.push((ai, ac));
                        i += 1;
                    } else {
                        merged.push((bi, bc));
                        j += 1;
                    }
                }
                (Some(&a), None) => {
                    merged.push(a);
                    i += 1;
                }
                (None, Some(&b)) => {
                    merged.push(b);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The `p`-th percentile (nearest-rank over bucket counts), reported as
    /// the lower bound of the bucket holding that rank; zero when empty.
    ///
    /// # Panics
    ///
    /// If `p` is not a number in `[0, 100]`.
    pub fn quantile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} outside [0, 100]");
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bucket_floor(idx);
            }
        }
        bucket_floor(self.buckets.last().map(|&(i, _)| i).unwrap_or(0))
    }

    /// Mean recorded value in nanoseconds; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Checks the sparse-bucket invariants a snapshot from outside the
    /// process may break: every index below [`NUM_BUCKETS`], indices
    /// strictly increasing, counts nonzero and summing to `count`.
    /// [`quantile`](Self::quantile) relies on the first.
    pub fn check(&self) -> Result<(), String> {
        let mut total = 0u64;
        let mut prev: Option<u32> = None;
        for &(i, c) in &self.buckets {
            if i as usize >= NUM_BUCKETS {
                return Err(format!("bucket index {i} out of range"));
            }
            if prev.is_some_and(|p| p >= i) {
                return Err("bucket indices not increasing".into());
            }
            if c == 0 {
                return Err("zero bucket count".into());
            }
            prev = Some(i);
            total = total.checked_add(c).ok_or("bucket counts overflow")?;
        }
        if total != self.count {
            return Err(format!("bucket counts sum to {total}, count says {}", self.count));
        }
        Ok(())
    }
}

/// The three per-shard latency histograms the fleet records.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LatencySnapshot {
    /// Serve-path latency: one `CacheServer::process` call. The shard worker
    /// times one request in 16 and records it with weight 16
    /// ([`Histogram::record_n`]), so `count` and `sum` estimate every request.
    pub serve: HistogramSnapshot,
    /// Producer-side queue wait: time a delivery blocked on a full shard
    /// queue (only under `Backpressure::Block`).
    pub queue_wait: HistogramSnapshot,
    /// Checkpoint pause: serve-loop stall while a `ShardCheckpoint` frame
    /// is built and stored.
    pub ckpt_pause: HistogramSnapshot,
}

impl LatencySnapshot {
    /// Folds `other` into `self`, histogram by histogram.
    pub fn merge(&mut self, other: &LatencySnapshot) {
        self.serve.merge(&other.serve);
        self.queue_wait.merge(&other.queue_wait);
        self.ckpt_pause.merge(&other.ckpt_pause);
    }

    /// [`HistogramSnapshot::check`] over all three histograms.
    pub fn check(&self) -> Result<(), String> {
        self.serve.check()?;
        self.queue_wait.check()?;
        self.ckpt_pause.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_exact_below_64() {
        for v in 0..64u64 {
            assert_eq!(bucket_index(v), v as u32);
            assert_eq!(bucket_floor(v as u32), v);
        }
    }

    #[test]
    fn floors_are_monotone_and_within_error_bound() {
        let mut prev = None;
        for idx in 0..NUM_BUCKETS as u32 {
            let floor = bucket_floor(idx);
            if let Some(p) = prev {
                assert!(floor > p, "bucket {idx} floor {floor} not above {p}");
            }
            prev = Some(floor);
            // The floor must map back to its own bucket.
            assert_eq!(bucket_index(floor), idx, "floor {floor} of bucket {idx}");
        }
        // Relative error: the next bucket's floor is within 1/32 above.
        for idx in 64..NUM_BUCKETS as u32 - 1 {
            let lo = bucket_floor(idx);
            let hi = bucket_floor(idx + 1);
            assert!(hi - lo <= lo / 32 + 1, "bucket {idx}: width {} vs floor {lo}", hi - lo);
        }
    }

    #[test]
    fn extremes_land_in_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX) as usize, NUM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_nearest_rank_on_exact_buckets() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.quantile(50.0), 2, "nearest-rank p50 of [1,2,3,4]");
        assert_eq!(s.quantile(75.0), 3);
        assert_eq!(s.quantile(99.0), 4);
        assert_eq!(s.quantile(100.0), 4);
        assert_eq!(s.max, 4);
        assert_eq!(s.sum, 10);
    }

    #[test]
    fn record_n_equals_n_records() {
        let (weighted, repeated) = (Histogram::new(), Histogram::new());
        for (v, n) in [(0u64, 3u64), (17, 16), (950, 16), (1_000_003, 1), (u64::MAX / 32, 16), (40, 0)] {
            weighted.record_n(v, n);
            for _ in 0..n {
                repeated.record(v);
            }
        }
        let (w, r) = (weighted.snapshot(), repeated.snapshot());
        assert_eq!(w, r, "count, sum, max and every bucket");
        assert_eq!(w.count, 52);
        for p in [0.0, 1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(w.quantile(p), r.quantile(p), "p{p}");
        }
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        assert_eq!(HistogramSnapshot::default().quantile(99.0), 0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 100]")]
    fn quantile_rejects_out_of_range() {
        let _ = HistogramSnapshot::default().quantile(100.5);
    }

    #[test]
    fn large_values_within_bucket_error() {
        let h = Histogram::new();
        let two_ms = 2_000_000u64;
        h.record(two_ms);
        let got = h.snapshot().quantile(50.0);
        assert!(got <= two_ms, "bucket floor never exceeds the sample");
        assert!(two_ms - got <= two_ms / 32, "reconstruction {got} off by more than 1/32 from {two_ms}");
    }

    #[test]
    fn merge_matches_single_histogram() {
        let (a, b, all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in 0..1000u64 {
            let x = v * v % 7_777_777;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            all.record(x);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn check_accepts_recorded_snapshots_and_rejects_broken_buckets() {
        let h = Histogram::new();
        for v in [0u64, 5, 500, 50_000, 5_000_000] {
            h.record(v);
        }
        let good = h.snapshot();
        assert_eq!(good.check(), Ok(()));
        let broken = |buckets: Vec<(u32, u64)>| {
            let count = buckets.iter().map(|&(_, c)| c).sum();
            HistogramSnapshot { count, sum: 0, max: 0, buckets }
        };
        assert!(broken(vec![(NUM_BUCKETS as u32, 1)]).check().is_err(), "index out of range");
        assert!(broken(vec![(7, 1), (7, 1)]).check().is_err(), "repeated index");
        assert!(broken(vec![(9, 1), (7, 1)]).check().is_err(), "descending indices");
        assert!(broken(vec![(7, 0)]).check().is_err(), "zero count");
        let mut short = good.clone();
        short.count += 1;
        assert!(short.check().is_err(), "counts must sum to count");
    }

    #[test]
    fn serde_roundtrip() {
        let h = Histogram::new();
        for v in [12u64, 9_000, 123_456_789] {
            h.record(v);
        }
        let snap = LatencySnapshot { serve: h.snapshot(), ..LatencySnapshot::default() };
        let json = serde_json::to_string(&snap).unwrap();
        let back: LatencySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
