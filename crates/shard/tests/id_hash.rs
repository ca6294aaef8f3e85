//! The cache's id hasher over the id sets a shard really holds.
//!
//! A shard's tables only ever see ids of one `HashRouter` residue, drawn
//! from a catalogue that namespaces traffic classes in an id's high bits
//! and counts ranks up from zero in the low ones. The standard table takes
//! its bucket from a hash's low bits and a 7-bit tag from its top, and the
//! id map picks one of its segments by the bits right under the tag, so all
//! three must stay flat over exactly such sets — a segment pick that echoed
//! the router's `mix64` would fill a few segments of every shard and leave
//! the rest empty.

use darwin_cache::idmap::{fold_id, segment_of, SEGMENTS};
use darwin_shard::{HashRouter, Router};
use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};
use std::collections::BTreeSet;

/// The benchmark's catalogue (`perf/src/workload.rs`: Image/Download 50:50,
/// catalogue seed 2025), as far as a million requests reveal it.
fn catalogue_ids() -> Vec<u64> {
    let mix = MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5);
    let trace = TraceGenerator::new(mix, 2025).generate(1_000_000);
    trace.iter().map(|r| r.id).collect::<BTreeSet<u64>>().into_iter().collect()
}

/// Asserts that no bucket holds more than `mean + 6·√mean + 4` of `ids`
/// when `bucket_of` spreads them — the load a uniformly random hash
/// stays under with overwhelming probability (a Poisson tail six deviations
/// out, plus slack for means below one).
fn assert_flat(ids: &[u64], buckets: usize, what: &str, bucket_of: impl Fn(u64) -> usize) {
    let mut load = vec![0u32; buckets];
    for &id in ids {
        load[bucket_of(id)] += 1;
    }
    let max = f64::from(*load.iter().max().unwrap());
    let mean = ids.len() as f64 / buckets as f64;
    let bound = mean + 6.0 * mean.sqrt() + 4.0;
    assert!(
        max <= bound,
        "{what}: fullest of {buckets} buckets holds {max}, mean {mean:.2}, bound {bound:.1}"
    );
}

#[test]
fn per_shard_id_sets_spread_flat_at_both_ends_of_the_hash() {
    let ids = catalogue_ids();
    assert!(ids.len() > 100_000, "catalogue too small to say anything: {}", ids.len());
    for shards in [2usize, 8] {
        for residue in 0..shards {
            let mine: Vec<u64> =
                ids.iter().copied().filter(|&id| HashRouter.route(id, shards) == residue).collect();
            let what = format!("residue {residue} of {shards}, {} ids", mine.len());
            assert_flat(&mine, 1 << 16, &format!("{what}, low 16 bits"), |id| {
                (fold_id(id) & 0xFFFF) as usize
            });
            assert_flat(&mine, 1 << 7, &format!("{what}, top 7 bits"), |id| {
                (fold_id(id) >> 57) as usize
            });
            assert_flat(&mine, SEGMENTS, &format!("{what}, segment"), segment_of);
            // Within the fullest segment the inner table's two ends are as
            // flat as over the whole shard: the three bit fields are disjoint.
            let fullest = (0..SEGMENTS)
                .max_by_key(|&s| mine.iter().filter(|&&id| segment_of(id) == s).count())
                .expect("at least one segment");
            let inside: Vec<u64> =
                mine.iter().copied().filter(|&id| segment_of(id) == fullest).collect();
            let what = format!("{what}, segment {fullest} ({} ids)", inside.len());
            assert_flat(&inside, 1 << 11, &format!("{what}, low 11 bits"), |id| {
                (fold_id(id) & 0x7FF) as usize
            });
            assert_flat(&inside, 1 << 7, &format!("{what}, top 7 bits"), |id| {
                (fold_id(id) >> 57) as usize
            });
        }
    }
}
