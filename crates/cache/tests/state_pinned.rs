//! Checkpoint bytes and counters pinned to constants.
//!
//! The request path's bookkeeping (the per-object table, the id hasher, the
//! `Store` probes) may be rebuilt freely, but nothing a checkpoint holds or
//! a counter reports may move. The constants below were captured at commit
//! 32f191d — before the per-object table replaced the two SipHash maps — by
//! running this file's `capture` output there; `PINNED_LONG` at 91edcc8,
//! before the id map was split into segments.
//!
//! The image CRCs and lengths were captured again on top of 7e796d3, when
//! the saved per-object table became one sequence of `(id, last_ts,
//! count)` rows in place of an `(id, count)` and an `(id, last_ts)`
//! sequence (`CKPT_VERSION` 3). The values they replaced are kept in
//! `LEGACY` and `LEGACY_LONG`: each new image, split back into the two
//! sequences by [`legacy_image`], hashes to them — the one table holds
//! exactly what the two did. The metrics CRCs and the HOC hits did not
//! move.
//! Four more rows pinned a counting-sketch frequency mode and were deleted
//! with it; not one byte of the rows below moved then.

use darwin_cache::idmap::{segment_of, SEGMENTS};
use darwin_cache::{CacheConfig, CacheMetrics, CacheServer, EvictionKind, ThresholdPolicy};
use darwin_ckpt::rows::Table;
use darwin_ckpt::{crc64, Enc};
use darwin_trace::{MixSpec, Trace, TraceGenerator, TrafficClass};

const KINDS: [EvictionKind; 4] = [
    EvictionKind::Lru,
    EvictionKind::Fifo,
    EvictionKind::Lfu,
    EvictionKind::SegmentedLru { segments: 4 },
];

/// `(crc64(save_state()), save_state().len(), crc64(encoded CacheMetrics),
/// hoc_hits)` per kind, in `KINDS` order.
const PINNED: [(u64, usize, u64, u64); 4] = [
    (10906584196113574203, 1726430, 6803933773477939010, 27855),
    (8158000519989540686, 1729918, 14471377265216940013, 24379),
    (12342404108991320785, 1710814, 15286072755442842163, 34477),
    (14557643354915282488, 1716402, 8951360748970912455, 32556),
];

/// The same four numbers after [`LONG`] requests, LRU.
const PINNED_LONG: (u64, usize, u64, u64) = (8503670456272836618, 5052618, 8149425235242627277, 96369);

/// `(crc64, len)` of the images as two sequences, in `KINDS` order: what
/// `PINNED`'s rows held before the table was one.
const LEGACY: [(u64, usize); 4] = [
    (785758817553515089, 2345310),
    (11587065778772876751, 2348798),
    (11474868418780926590, 2329694),
    (7127526834650013556, 2335282),
];

/// The same for [`PINNED_LONG`].
const LEGACY_LONG: (u64, usize) = (2453541034780981842, 6998594);

/// An `image` with its one per-object table split back into the
/// two sequences the format held before: `(id u64, count u32)` rows, then
/// `(id u64, last_ts u64)` rows, each behind its own length prefix.
fn legacy_image(image: &[u8]) -> Vec<u8> {
    let layout = CacheServer::state_layout(image).expect("an image lays out");
    let [Table { offset, rows, width: 20 }] = layout[..] else {
        panic!("not one table of 20-byte rows: {layout:?}")
    };
    let table = &image[offset..offset + 20 * rows];
    let mut enc = Enc::new();
    enc.raw(&image[..offset - 8]);
    enc.usize(rows);
    for row in table.chunks(20) {
        enc.raw(&row[..8]);
        enc.raw(&row[16..]);
    }
    enc.usize(rows);
    for row in table.chunks(20) {
        enc.raw(&row[..16]);
    }
    enc.raw(&image[offset + 20 * rows..]);
    enc.into_bytes()
}

/// Checks an `image` against the `(crc64, len)` it had as two
/// sequences: one length prefix and one id per object fewer, and the same
/// bytes once split back.
fn holds_the_legacy_image(image: &[u8], (crc, len): (u64, usize), what: &str) {
    let objects = CacheServer::state_layout(image).expect("an image lays out")[0].rows;
    assert_eq!(image.len(), len - 8 - 8 * objects, "{what}: not one prefix and one id per object fewer");
    let legacy = legacy_image(image);
    assert_eq!((crc64(&legacy), legacy.len()), (crc, len), "{what}: the split is not the old image");
}

const SHORT: usize = 200_000;
const LONG: usize = 700_000;

fn trace_of(requests: usize) -> Trace {
    let mix = MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5);
    TraceGenerator::new(mix, 16).generate(requests)
}

fn trace() -> Trace {
    trace_of(SHORT)
}

fn config(kind: EvictionKind) -> CacheConfig {
    CacheConfig {
        hoc_bytes: 4 * 1024 * 1024,
        dc_bytes: 256 * 1024 * 1024,
        hoc_eviction: kind,
        dc_eviction: kind,
        expected_unique_objects: 100_000,
    }
}

fn metrics_crc(m: &CacheMetrics) -> u64 {
    let mut enc = Enc::new();
    m.encode_state(&mut enc);
    crc64(&enc.into_bytes())
}

#[test]
fn state_bytes_and_counters_match_the_parent_commit() {
    let trace = trace();
    let mut got = Vec::new();
    for (kind, legacy) in KINDS.into_iter().zip(LEGACY) {
        let cfg = config(kind);
        let mut server = CacheServer::new(cfg.clone());
        // All three knobs live, so frequency and recency both decide.
        server.set_policy(ThresholdPolicy::with_recency(1, 200 * 1024, 600_000_000));
        let m = server.process_trace(&trace);
        assert!(m.hoc_writes > 1_000 && m.hoc_evictions > 1_000, "{kind:?}: HOC idle");
        assert!(m.dc_evictions > 100, "{kind:?}: DC never evicted");
        let state = server.save_state();
        got.push((crc64(&state), state.len(), metrics_crc(&m), m.hoc_hits));
        holds_the_legacy_image(&state, legacy, &format!("{kind:?}"));

        let restored = CacheServer::restore_state(cfg, &state).expect("own image restores");
        assert_eq!(restored.metrics(), m);
        assert!(restored.save_state() == state, "{kind:?}: re-save moved bytes");
    }
    for (i, (g, p)) in got.iter().zip(&PINNED).enumerate() {
        assert_eq!(g, p, "row {i} ({:?}); all rows: {got:#?}", KINDS[i]);
    }
}

/// The rows above end where every segment of the per-object table is still
/// small. This trace runs on until each segment holds more than twice what
/// it held there — so each has doubled at least once more on the way,
/// whatever the table's load factor — and pins the same four numbers.
#[test]
fn state_bytes_match_the_parent_commit_across_a_segment_doubling() {
    let trace = trace_of(LONG);
    let mut held = [[0usize; SEGMENTS]; 2];
    let mut seen = std::collections::BTreeSet::new();
    for (i, r) in trace.iter().enumerate() {
        if seen.insert(r.id) {
            held[usize::from(i >= SHORT)][segment_of(r.id)] += 1;
        }
    }
    for (segment, (early, late)) in held[0].iter().zip(&held[1]).enumerate() {
        assert!(late > early, "segment {segment} holds {early} ids early and only {late} more late");
    }

    let cfg = config(EvictionKind::Lru);
    let mut server = CacheServer::new(cfg.clone());
    server.set_policy(ThresholdPolicy::with_recency(1, 200 * 1024, 600_000_000));
    let m = server.process_trace(&trace);
    let state = server.save_state();
    assert_eq!((crc64(&state), state.len(), metrics_crc(&m), m.hoc_hits), PINNED_LONG);
    holds_the_legacy_image(&state, LEGACY_LONG, "long");

    let restored = CacheServer::restore_state(cfg, &state).expect("own image restores");
    assert_eq!(restored.metrics(), m);
    assert!(restored.save_state() == state, "re-save moved bytes");
}
