//! Pins `TraceGenerator`'s output: each case records the trace length and
//! a stable hash of every request. The constants were captured before the
//! generator's per-rank tables were introduced; a change that moves any
//! request's id, size or timestamp by one bit fails here.

use darwin_trace::{ClassKind, MixSpec, SizeModel, Trace, TraceGenerator, TrafficClass};

/// FNV-1a (64-bit) over the little-endian bytes of every request's
/// `(id, size, timestamp_us)`: stable across platforms and releases, unlike
/// `DefaultHasher`.
fn fnv1a(trace: &Trace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in trace.iter() {
        for field in [r.id, r.size, r.timestamp_us] {
            for byte in field.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn custom(num_objects: u64, zipf_alpha: f64, one_hit_fraction: f64) -> TrafficClass {
    TrafficClass {
        name: "custom".into(),
        kind: ClassKind::Custom,
        num_objects,
        zipf_alpha,
        sizes: SizeModel::from_median(16.0 * 1024.0, 1.2, 64, 8 * 1024 * 1024),
        rate_rps: 100.0,
        one_hit_fraction,
    }
}

/// `(name, spec, seed, requests)` for every pinned case.
fn cases() -> Vec<(&'static str, MixSpec, u64, usize)> {
    let (image, download, web) = (TrafficClass::image(), TrafficClass::download(), TrafficClass::web());
    let sweep = MixSpec::sweep(image.clone(), download.clone(), 5);
    vec![
        ("image", MixSpec::single(image.clone()), 1, 60_000),
        ("download", MixSpec::single(download.clone()), 2, 60_000),
        ("web", MixSpec::single(web.clone()), 3, 60_000),
        ("bench 50:50", MixSpec::two_class(image.clone(), download.clone(), 0.5), 2025, 100_000),
        ("sweep 100:0", sweep[0].clone(), 7, 40_000),
        ("sweep 0:100", sweep[4].clone(), 7, 40_000),
        ("three classes", MixSpec::new(vec![image, download, web], vec![0.3, 0.3, 0.4]), 11, 40_000),
        ("num_objects 0", MixSpec::single(custom(0, 0.9, 0.2)), 5, 5_000),
        ("num_objects 1", MixSpec::single(custom(1, 0.9, 0.2)), 5, 5_000),
        ("zipf_alpha 1.0", MixSpec::single(custom(5_000, 1.0, 0.1)), 6, 30_000),
        ("one_hit_fraction 0", MixSpec::single(custom(5_000, 0.8, 0.0)), 8, 30_000),
        ("one_hit_fraction 1", MixSpec::single(custom(5_000, 0.8, 1.0)), 9, 10_000),
        ("catalog of 3 M", MixSpec::single(custom(3_000_000, 0.6, 0.1)), 10, 30_000),
    ]
}

/// `(len, fnv1a)` per case, in the order of [`cases`].
const PINNED: [(usize, u64); 13] = [
    (60000, 0x3dd0_199e_633b_801a),
    (60000, 0x73d2_1d17_da02_1f80),
    (60000, 0x1194_4156_6e6e_26a4),
    (100000, 0x252e_e662_153c_1653),
    (40000, 0x3e6a_9f70_9859_1314),
    (40000, 0x469b_21e6_212a_0002),
    (40000, 0x7a9b_5a65_a7b7_9c09),
    (5000, 0xa98d_fed9_a855_7003),
    (5000, 0xda0e_87ec_a5fa_05fc),
    (30000, 0xa667_0429_e746_417d),
    (30000, 0x0d35_34ac_c3f1_d28d),
    (10000, 0x67e6_d7c2_f7ca_5075),
    (30000, 0xd46b_bfac_f9d8_1d88),
];

#[test]
fn generated_traces_match_their_pins() {
    let cases = cases();
    assert_eq!(cases.len(), PINNED.len());
    let mut wrong = Vec::new();
    for ((name, spec, seed, n), &(len, hash)) in cases.into_iter().zip(&PINNED) {
        let trace = TraceGenerator::new(spec, seed).generate(n);
        let got = (trace.len(), fnv1a(&trace));
        println!("({}, {:#018x}), // {name}", got.0, got.1);
        if got != (len, hash) {
            wrong.push(name);
        }
    }
    assert!(wrong.is_empty(), "traces differ from their pins: {wrong:?}");
}

/// A generator that is asked twice continues its stream: the second call
/// draws where the first stopped, through the same per-class tables.
#[test]
fn a_second_generate_continues_the_stream() {
    let spec = MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5);
    let whole = TraceGenerator::new(spec.clone(), 3).generate(20_000);
    let mut split = TraceGenerator::new(spec, 3);
    let first = split.generate(12_000);
    let second = split.generate(8_000);
    let tail = &whole.requests()[12_000..];
    assert_eq!(first.requests(), &whole.requests()[..12_000]);
    // The second call restarts the clock at 0; ids and sizes continue.
    assert!(second.iter().zip(tail).all(|(a, b)| a.id == b.id && a.size == b.size));
}
