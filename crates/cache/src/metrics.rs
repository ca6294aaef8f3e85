//! Cache performance accounting.
//!
//! Tracks every counter needed by the paper's metrics (§2.2 "CDN Caching
//! Objectives"):
//!
//! * **OHR** — object hit rate, overall and per-level;
//! * **BMR** — byte miss ratio (bytes served on misses / total bytes);
//! * **disk writes** — bytes and operations written to the disk cache, the
//!   resource-related metric (SSD endurance / CAPEX) of §2.2 and §6.3.
//!
//! Counters are plain sums, so a *window* of activity is `later.diff(earlier)`
//! of two snapshots — this is how online algorithms (Darwin's bandit rounds,
//! HillClimbing's epochs, Percentile's windows) extract per-round rewards.

use darwin_ckpt::{CkptError, Dec, Enc};
use serde::{Deserialize, Serialize};

/// Monotone cache counters. All byte quantities are in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheMetrics {
    /// Requests processed.
    pub requests: u64,
    /// Requests served from the HOC.
    pub hoc_hits: u64,
    /// Requests served from the DC (HOC miss, DC hit).
    pub dc_hits: u64,
    /// Requests served from the origin (full miss).
    pub origin_fetches: u64,
    /// Total bytes requested.
    pub bytes_total: u64,
    /// Bytes served from the HOC.
    pub bytes_hoc_hit: u64,
    /// Bytes served from the DC.
    pub bytes_dc_hit: u64,
    /// Bytes served from the origin.
    pub bytes_origin: u64,
    /// Bytes written into the DC (admissions).
    pub dc_write_bytes: u64,
    /// DC write operations (object admissions).
    pub dc_writes: u64,
    /// Bytes written into the HOC (promotions).
    pub hoc_write_bytes: u64,
    /// HOC promotions.
    pub hoc_writes: u64,
    /// Objects evicted from the HOC.
    pub hoc_evictions: u64,
    /// Objects evicted from the DC.
    pub dc_evictions: u64,
}

impl CacheMetrics {
    /// HOC object hit rate: HOC hits / requests. The paper's headline metric
    /// ("we present Darwin in the context of admission policies that maximize
    /// the HOC hit rate").
    pub fn hoc_ohr(&self) -> f64 {
        ratio(self.hoc_hits, self.requests)
    }

    /// Overall object hit rate: (HOC hits + DC hits) / requests.
    pub fn total_ohr(&self) -> f64 {
        ratio(self.hoc_hits + self.dc_hits, self.requests)
    }

    /// HOC byte miss ratio: bytes *not* served from the HOC / total bytes.
    /// §6.3 minimizes this "to reduce the bytes written to the DC or to the
    /// origin server".
    pub fn hoc_bmr(&self) -> f64 {
        ratio(self.bytes_total - self.bytes_hoc_hit, self.bytes_total)
    }

    /// Server byte miss ratio: origin bytes / total bytes (midgress measure).
    pub fn total_bmr(&self) -> f64 {
        ratio(self.bytes_origin, self.bytes_total)
    }

    /// Disk (DC) write bytes per request.
    pub fn disk_write_bytes_per_request(&self) -> f64 {
        ratio(self.dc_write_bytes, self.requests)
    }

    /// HOC-missed bytes per request — the paper's §6.3 approximation of disk
    /// writes ("we approximate the disk write bytes to be the bytes missed in
    /// HOC").
    pub fn hoc_miss_bytes_per_request(&self) -> f64 {
        ratio(self.bytes_total - self.bytes_hoc_hit, self.requests)
    }

    /// Counter-wise difference `self − earlier`; the activity of the window
    /// between the two snapshots.
    ///
    /// Subtraction saturates at zero: if `earlier` is not actually an earlier
    /// snapshot of the same counter stream (a reset or wrapped counter), the
    /// affected counters clamp to zero instead of panicking in debug builds.
    pub fn diff(&self, earlier: &CacheMetrics) -> CacheMetrics {
        CacheMetrics {
            requests: self.requests.saturating_sub(earlier.requests),
            hoc_hits: self.hoc_hits.saturating_sub(earlier.hoc_hits),
            dc_hits: self.dc_hits.saturating_sub(earlier.dc_hits),
            origin_fetches: self.origin_fetches.saturating_sub(earlier.origin_fetches),
            bytes_total: self.bytes_total.saturating_sub(earlier.bytes_total),
            bytes_hoc_hit: self.bytes_hoc_hit.saturating_sub(earlier.bytes_hoc_hit),
            bytes_dc_hit: self.bytes_dc_hit.saturating_sub(earlier.bytes_dc_hit),
            bytes_origin: self.bytes_origin.saturating_sub(earlier.bytes_origin),
            dc_write_bytes: self.dc_write_bytes.saturating_sub(earlier.dc_write_bytes),
            dc_writes: self.dc_writes.saturating_sub(earlier.dc_writes),
            hoc_write_bytes: self.hoc_write_bytes.saturating_sub(earlier.hoc_write_bytes),
            hoc_writes: self.hoc_writes.saturating_sub(earlier.hoc_writes),
            hoc_evictions: self.hoc_evictions.saturating_sub(earlier.hoc_evictions),
            dc_evictions: self.dc_evictions.saturating_sub(earlier.dc_evictions),
        }
    }

    /// Counter-wise sum `self + other`: the combined activity of two disjoint
    /// counter streams (e.g. the shards of a fleet). Rates of the merged
    /// value are fleet-wide rates because all counters are plain sums.
    pub fn merge(&self, other: &CacheMetrics) -> CacheMetrics {
        CacheMetrics {
            requests: self.requests + other.requests,
            hoc_hits: self.hoc_hits + other.hoc_hits,
            dc_hits: self.dc_hits + other.dc_hits,
            origin_fetches: self.origin_fetches + other.origin_fetches,
            bytes_total: self.bytes_total + other.bytes_total,
            bytes_hoc_hit: self.bytes_hoc_hit + other.bytes_hoc_hit,
            bytes_dc_hit: self.bytes_dc_hit + other.bytes_dc_hit,
            bytes_origin: self.bytes_origin + other.bytes_origin,
            dc_write_bytes: self.dc_write_bytes + other.dc_write_bytes,
            dc_writes: self.dc_writes + other.dc_writes,
            hoc_write_bytes: self.hoc_write_bytes + other.hoc_write_bytes,
            hoc_writes: self.hoc_writes + other.hoc_writes,
            hoc_evictions: self.hoc_evictions + other.hoc_evictions,
            dc_evictions: self.dc_evictions + other.dc_evictions,
        }
    }

    /// Merges an iterator of per-shard metrics into fleet-wide totals.
    pub fn merge_all<'a, I: IntoIterator<Item = &'a CacheMetrics>>(parts: I) -> CacheMetrics {
        parts.into_iter().fold(CacheMetrics::default(), |acc, m| acc.merge(m))
    }

    /// Serializes every counter, in declaration order.
    pub fn encode_state(&self, enc: &mut Enc) {
        for v in [
            self.requests,
            self.hoc_hits,
            self.dc_hits,
            self.origin_fetches,
            self.bytes_total,
            self.bytes_hoc_hit,
            self.bytes_dc_hit,
            self.bytes_origin,
            self.dc_write_bytes,
            self.dc_writes,
            self.hoc_write_bytes,
            self.hoc_writes,
            self.hoc_evictions,
            self.dc_evictions,
        ] {
            enc.u64(v);
        }
    }

    /// Exact number of bytes [`CacheMetrics::encode_state`] writes.
    pub const ENCODED_LEN: usize = 14 * 8;

    /// Reads counters written by [`CacheMetrics::encode_state`].
    pub fn decode_state(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        Ok(CacheMetrics {
            requests: dec.u64()?,
            hoc_hits: dec.u64()?,
            dc_hits: dec.u64()?,
            origin_fetches: dec.u64()?,
            bytes_total: dec.u64()?,
            bytes_hoc_hit: dec.u64()?,
            bytes_dc_hit: dec.u64()?,
            bytes_origin: dec.u64()?,
            dc_write_bytes: dec.u64()?,
            dc_writes: dec.u64()?,
            hoc_write_bytes: dec.u64()?,
            hoc_writes: dec.u64()?,
            hoc_evictions: dec.u64()?,
            dc_evictions: dec.u64()?,
        })
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CacheMetrics {
        CacheMetrics {
            requests: 100,
            hoc_hits: 40,
            dc_hits: 30,
            origin_fetches: 30,
            bytes_total: 1000,
            bytes_hoc_hit: 300,
            bytes_dc_hit: 350,
            bytes_origin: 350,
            dc_write_bytes: 500,
            dc_writes: 20,
            hoc_write_bytes: 200,
            hoc_writes: 10,
            hoc_evictions: 5,
            dc_evictions: 2,
        }
    }

    #[test]
    fn rates_computed_correctly() {
        let m = sample();
        assert!((m.hoc_ohr() - 0.4).abs() < 1e-12);
        assert!((m.total_ohr() - 0.7).abs() < 1e-12);
        assert!((m.hoc_bmr() - 0.7).abs() < 1e-12);
        assert!((m.total_bmr() - 0.35).abs() < 1e-12);
        assert!((m.disk_write_bytes_per_request() - 5.0).abs() < 1e-12);
        assert!((m.hoc_miss_bytes_per_request() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_have_zero_rates() {
        let m = CacheMetrics::default();
        assert_eq!(m.hoc_ohr(), 0.0);
        assert_eq!(m.hoc_bmr(), 0.0);
        assert_eq!(m.total_bmr(), 0.0);
    }

    #[test]
    fn diff_isolates_window() {
        let early = CacheMetrics { requests: 10, hoc_hits: 5, bytes_total: 50, ..Default::default() };
        let late = CacheMetrics { requests: 30, hoc_hits: 20, bytes_total: 90, ..Default::default() };
        let w = late.diff(&early);
        assert_eq!(w.requests, 20);
        assert_eq!(w.hoc_hits, 15);
        assert_eq!(w.bytes_total, 40);
        assert!((w.hoc_ohr() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn diff_of_self_is_zero() {
        let m = sample();
        assert_eq!(m.diff(&m), CacheMetrics::default());
    }

    #[test]
    fn diff_saturates_on_out_of_order_snapshots() {
        // Regression: an out-of-order (reset / wrapped) earlier snapshot used
        // to panic in debug builds; it must clamp to zero instead.
        let early = CacheMetrics { requests: 10, hoc_hits: 5, bytes_total: 50, ..Default::default() };
        let late = CacheMetrics { requests: 30, hoc_hits: 2, bytes_total: 90, ..Default::default() };
        let w = late.diff(&early);
        assert_eq!(w.requests, 20);
        assert_eq!(w.hoc_hits, 0, "wrapped counter saturates to zero");
        assert_eq!(w.bytes_total, 40);
        // Saturation is per-counter: in the inverted diff the genuinely
        // out-of-order counters clamp to zero while a counter that is still
        // ordered (early.hoc_hits=5 > late.hoc_hits=2) diffs normally.
        let inv = early.diff(&late);
        assert_eq!(inv.requests, 0);
        assert_eq!(inv.hoc_hits, 3);
        assert_eq!(inv.bytes_total, 0);
        // Diffing a zero snapshot against anything is all zeros.
        assert_eq!(CacheMetrics::default().diff(&sample()), CacheMetrics::default());
    }

    #[test]
    fn merge_sums_counters_and_rates_are_fleet_wide() {
        let a = sample();
        let b = CacheMetrics { requests: 50, hoc_hits: 10, bytes_total: 500, ..Default::default() };
        let m = a.merge(&b);
        assert_eq!(m.requests, 150);
        assert_eq!(m.hoc_hits, 50);
        assert_eq!(m.bytes_total, 1500);
        assert!((m.hoc_ohr() - 50.0 / 150.0).abs() < 1e-12);
        // merge_all over shards equals pairwise merging.
        let parts = [a, b, sample()];
        assert_eq!(CacheMetrics::merge_all(&parts), a.merge(&b).merge(&sample()));
        // Identity element.
        assert_eq!(a.merge(&CacheMetrics::default()), a);
    }
}
