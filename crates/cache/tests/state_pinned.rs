//! Checkpoint bytes and counters pinned to constants.
//!
//! The request path's bookkeeping (the per-object table, the id hasher, the
//! `Store` probes) may be rebuilt freely, but nothing a checkpoint holds or
//! a counter reports may move. The constants below were captured at commit
//! 32f191d — before the per-object table replaced the two SipHash maps — by
//! running this file's `capture` output there; `PINNED_LONG` at 91edcc8,
//! before the id map was split into segments.

use darwin_cache::idmap::{segment_of, SEGMENTS};
use darwin_cache::server::FrequencyMode;
use darwin_cache::{CacheConfig, CacheMetrics, CacheServer, EvictionKind, ThresholdPolicy};
use darwin_ckpt::{crc64, Enc};
use darwin_trace::{MixSpec, Trace, TraceGenerator, TrafficClass};

const KINDS: [EvictionKind; 4] = [
    EvictionKind::Lru,
    EvictionKind::Fifo,
    EvictionKind::Lfu,
    EvictionKind::SegmentedLru { segments: 4 },
];
const MODES: [FrequencyMode; 2] =
    [FrequencyMode::Exact, FrequencyMode::Sketch { expected_objects: 50_000 }];

/// `(crc64(save_state()), save_state().len(), crc64(encoded CacheMetrics),
/// hoc_hits)` per mode × kind, in `MODES` × `KINDS` order.
const PINNED: [(u64, usize, u64, u64); 8] = [
    (785758817553515089, 2345310, 6803933773477939010, 27855),
    (11587065778772876751, 2348798, 14471377265216940013, 24379),
    (11474868418780926590, 2329694, 15286072755442842163, 34477),
    (7127526834650013556, 2335282, 8951360748970912455, 32556),
    (13245192131017391869, 1941318, 6803933773477939010, 27855),
    (4040166198050695512, 1944806, 14471377265216940013, 24379),
    (15787713341891562685, 1925702, 15286072755442842163, 34477),
    (11418797123254105342, 1931290, 8951360748970912455, 32556),
];

/// The same four numbers after [`LONG`] requests, Exact mode, LRU.
const PINNED_LONG: (u64, usize, u64, u64) = (2453541034780981842, 6998594, 8149425235242627277, 96369);

const SHORT: usize = 200_000;
const LONG: usize = 700_000;

fn trace_of(requests: usize) -> Trace {
    let mix = MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5);
    TraceGenerator::new(mix, 16).generate(requests)
}

fn trace() -> Trace {
    trace_of(SHORT)
}

fn config(frequency: FrequencyMode, kind: EvictionKind) -> CacheConfig {
    CacheConfig {
        hoc_bytes: 4 * 1024 * 1024,
        dc_bytes: 256 * 1024 * 1024,
        hoc_eviction: kind,
        dc_eviction: kind,
        frequency,
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
    for mode in MODES {
        for kind in KINDS {
            let cfg = config(mode, kind);
            let mut server = CacheServer::new(cfg.clone());
            // All three knobs live, so frequency and recency both decide.
            server.set_policy(ThresholdPolicy::with_recency(1, 200 * 1024, 600_000_000));
            let m = server.process_trace(&trace);
            assert!(m.hoc_writes > 1_000 && m.hoc_evictions > 1_000, "{mode:?}/{kind:?}: HOC idle");
            assert!(m.dc_evictions > 100, "{mode:?}/{kind:?}: DC never evicted");
            let state = server.save_state();
            got.push((crc64(&state), state.len(), metrics_crc(&m), m.hoc_hits));

            let restored = CacheServer::restore_state(cfg, &state).expect("own image restores");
            assert_eq!(restored.metrics(), m);
            assert!(restored.save_state() == state, "{mode:?}/{kind:?}: re-save moved bytes");
        }
    }
    for (i, (g, p)) in got.iter().zip(&PINNED).enumerate() {
        assert_eq!(g, p, "row {i} ({:?} / {:?}); all rows: {got:#?}", MODES[i / 4], KINDS[i % 4]);
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

    let cfg = config(FrequencyMode::Exact, EvictionKind::Lru);
    let mut server = CacheServer::new(cfg.clone());
    server.set_policy(ThresholdPolicy::with_recency(1, 200 * 1024, 600_000_000));
    let m = server.process_trace(&trace);
    let state = server.save_state();
    assert_eq!((crc64(&state), state.len(), metrics_crc(&m), m.hoc_hits), PINNED_LONG);

    let restored = CacheServer::restore_state(cfg, &state).expect("own image restores");
    assert_eq!(restored.metrics(), m);
    assert!(restored.save_state() == state, "re-save moved bytes");
}
