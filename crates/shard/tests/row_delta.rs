//! The row-delta oracle: a cut shipped as a row delta rebuilds the sender's
//! checkpoint frame bit for bit.
//!
//! Both images are real: `CacheServer` state after a request prefix and
//! after a continuation of it, sealed into `ShardCheckpoint` frames, under
//! every store policy and both frequency modes, with a live `DarwinDriver`'s
//! state riding in the frame's untabled bytes. The delta is shipped and
//! applied through the cut envelope exactly as the standby feed and the
//! resize handoff do, under `ShardCheckpoint::layout`; the rebuilt image is
//! compared with the target byte for byte, and must open as the target's
//! checkpoint.

use darwin::{DarwinModel, Expert, ExpertGrid, OfflineConfig, OfflineTrainer, OnlineConfig};
use darwin_cache::server::FrequencyMode;
use darwin_cache::{CacheConfig, CacheServer, EvictionKind, ThresholdPolicy};
use darwin_ckpt::replica::{CutFrame, CutPayload, CutRole, Held};
use darwin_ckpt::Dec;
use darwin_nn::TrainConfig;
use darwin_shard::ShardCheckpoint;
use darwin_testbed::{AdmissionDriver, DarwinDriver};
use darwin_trace::{MixSpec, Request, Trace, TraceGenerator, TrafficClass};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const STORES: [EvictionKind; 4] = [
    EvictionKind::Lru,
    EvictionKind::Fifo,
    EvictionKind::Lfu,
    EvictionKind::SegmentedLru { segments: 4 },
];

fn config(store: EvictionKind, sketch: bool) -> CacheConfig {
    CacheConfig {
        hoc_bytes: 256 * 1024,
        dc_bytes: 2 * 1024 * 1024,
        hoc_eviction: store,
        dc_eviction: store,
        frequency: if sketch {
            FrequencyMode::Sketch { expected_objects: 1024 }
        } else {
            FrequencyMode::Exact
        },
        expected_unique_objects: 1024,
    }
}

fn request(i: usize, id: u64) -> Request {
    Request::new(id, 1 + id * 7_919 % 120_000, i as u64)
}

/// Shard 3's checkpoint of `server` after `seq` requests, carrying `driver`.
fn cut(server: &CacheServer, seq: u64, driver: Vec<u8>) -> Vec<u8> {
    let policy = ThresholdPolicy::new(1, 64 * 1024);
    ShardCheckpoint {
        shard: 3,
        seq,
        policy,
        cache: Vec::new(),
        driver,
        restarts: 2,
        budget_marks: vec![seq / 3],
    }
    .to_frame_of(server)
}

/// Ships `target` against `base` through a replica envelope and returns the
/// rebuilt image, after checking it shipped rows, opens as shard 3's cut
/// and stayed inside `base + wire` bytes.
fn ship(base: &[u8], target: &[u8]) -> (u64, Vec<u8>) {
    let held = Some(Held { seq: 1, image: base });
    let wire = CutFrame::ship(3, 0, CutRole::Replica, 2, target, held, ShardCheckpoint::layout);
    let cut = CutFrame::apply(&wire, 3, 0, CutRole::Replica, held, ShardCheckpoint::layout).unwrap();
    assert_eq!(cut.base_seq, Some(1), "real cuts lay out, so a row delta ships");
    assert!(cut.image.capacity() <= base.len() + wire.len());
    assert_eq!(ShardCheckpoint::header(&cut.image).map(|(shard, _)| shard), Ok(3));
    (cut.shipped_bytes, cut.image)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any prefix and continuation, any store, either frequency mode: the
    /// delta from the earlier cut to the later one rebuilds the later one,
    /// and the delta back — the later cut as base, holding objects the
    /// earlier one never saw — rebuilds the earlier one, through removals.
    #[test]
    fn row_delta_rebuilds_real_cuts_bitwise(
        prefix in proptest::collection::vec(0u64..400, 1..800),
        more in proptest::collection::vec(0u64..600, 0..400),
        store in 0usize..4,
        sketch in proptest::bool::ANY,
    ) {
        let mut server = CacheServer::new(config(STORES[store], sketch));
        server.set_policy(ThresholdPolicy::new(1, 64 * 1024));
        for (i, &id) in prefix.iter().enumerate() {
            server.process(&request(i, id));
        }
        let earlier = cut(&server, prefix.len() as u64, vec![1; 64]);
        for (i, &id) in more.iter().enumerate() {
            server.process(&request(prefix.len() + i, id));
        }
        let later = cut(&server, (prefix.len() + more.len()) as u64, vec![2; 64]);
        prop_assert!(ship(&earlier, &later).1 == later, "forward delta moved a byte");
        prop_assert!(ship(&later, &earlier).1 == earlier, "backward delta moved a byte");
    }
}

/// The ids a row delta removes, per table, read off the documented
/// encoding.
fn removals(target: &[u8], base: &[u8]) -> Vec<Vec<u64>> {
    let held = Some(Held { seq: 1, image: base });
    let wire = CutFrame::ship(3, 0, CutRole::Replica, 2, target, held, ShardCheckpoint::layout);
    let CutPayload::Rows { rows, .. } = CutFrame::from_frame(&wire).unwrap().payload else {
        panic!("a row delta was shipped")
    };
    let mut d = Dec::new(&rows);
    d.u64().unwrap();
    (0..d.u64().unwrap())
        .map(|_| {
            d.bytes().unwrap();
            let (width, _rows) = (d.usize().unwrap(), d.u64().unwrap());
            let upserts = d.usize().unwrap();
            d.sub(upserts * width).unwrap();
            (0..d.u64().unwrap()).map(|_| d.u64().unwrap()).collect()
        })
        .collect()
}

/// A base holding objects its target never saw — what a per-object table
/// that forgets will ship at every cut — sends their ids as removals from
/// both tables, and the merge drops exactly those rows.
#[test]
fn a_base_holding_ids_the_target_lacks_ships_removals() {
    for sketch in [false, true] {
        let (mut with, mut without) = (
            CacheServer::new(config(EvictionKind::Lru, sketch)),
            CacheServer::new(config(EvictionKind::Lru, sketch)),
        );
        for i in 0..2_000 {
            let id = (i as u64 * 37) % 500;
            with.process(&request(i, id));
            without.process(&request(i, id));
        }
        for (i, id) in [(2_000, 9_001), (2_001, 9_002), (2_002, 4), (2_003, 9_003)] {
            with.process(&request(i, id));
        }
        without.process(&request(2_002, 4));
        let (base, target) = (cut(&with, 2_004, vec![5; 32]), cut(&without, 2_003, vec![5; 32]));
        let tables = if sketch { 1 } else { 2 };
        assert_eq!(
            removals(&target, &base),
            vec![vec![9_001, 9_002, 9_003]; tables],
            "sketch: {sketch}"
        );
        assert!(ship(&base, &target).1 == target, "sketch: {sketch}");
    }
}

/// Where the frame's tables are: the cache image's, moved to where the
/// frame holds it — and nothing for a frame whose cache blob is not an
/// image. The layout reads no CRC, so a damaged frame still lays out; its
/// holder's open is what refuses it.
#[test]
fn the_frame_layout_is_the_cache_layout_where_the_frame_holds_it() {
    let mut server = CacheServer::new(config(EvictionKind::Lru, false));
    for i in 0..300 {
        server.process(&request(i, i as u64 % 90));
    }
    let frame = cut(&server, 300, vec![9; 10]);
    let image = server.save_state();
    let at = frame.windows(image.len()).position(|w| w == image).expect("the frame holds the image");
    let mut expected = CacheServer::state_layout(&image).unwrap();
    expected.iter_mut().for_each(|t| t.offset += at);
    assert_eq!(ShardCheckpoint::layout(&frame), Some(expected.clone()));
    let mut damaged = frame.clone();
    damaged[expected[1].offset + 9] ^= 1;
    assert_eq!(ShardCheckpoint::layout(&damaged), Some(expected));
    assert!(ShardCheckpoint::header(&damaged).is_err());

    let synthetic = ShardCheckpoint {
        shard: 0,
        seq: 1,
        policy: ThresholdPolicy::new(1, 1),
        cache: vec![0xAA; 4096],
        driver: Vec::new(),
        restarts: 0,
        budget_marks: Vec::new(),
    };
    assert_eq!(ShardCheckpoint::layout(&synthetic.to_frame()), None);
    assert_eq!(ShardCheckpoint::layout(&frame[..frame.len() - 1]), None);
    assert_eq!(ShardCheckpoint::layout(b"not a frame"), None);
}

/// A small offline-trained model, enough for a controller with state.
fn model() -> Arc<DarwinModel> {
    static MODEL: OnceLock<Arc<DarwinModel>> = OnceLock::new();
    MODEL
        .get_or_init(|| {
            let cfg = OfflineConfig {
                grid: ExpertGrid::new(vec![Expert::new(1, 20), Expert::new(5, 500)]),
                hoc_bytes: 256 * 1024,
                nn_train: TrainConfig { epochs: 10, ..TrainConfig::default() },
                n_clusters: 2,
                ..OfflineConfig::default()
            };
            let traces: Vec<Trace> = (0..2)
                .map(|i| {
                    let mix =
                        MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), i as f64);
                    TraceGenerator::new(mix, 30 + i).generate(4_000)
                })
                .collect();
            Arc::new(OfflineTrainer::new(cfg).train(&traces))
        })
        .clone()
}

/// A Darwin controller's state — posterior, candidate set, feature
/// extractor — is untabled bytes: it ships whole beside the changed rows,
/// and the rebuilt frame restores the very driver state the sender cut.
#[test]
fn a_darwin_driver_state_rides_in_the_untabled_bytes() {
    let online = OnlineConfig {
        epoch_requests: 4_000,
        warmup_requests: 500,
        round_requests: 200,
        ..Default::default()
    };
    let mut driver = DarwinDriver::new(model(), online);
    let mut server = CacheServer::new(config(EvictionKind::Lru, false));
    server.set_policy(driver.initial_policy());
    let trace = TraceGenerator::new(
        MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5),
        77,
    )
    .generate(3_000);
    let mut frames = Vec::new();
    for (i, r) in trace.requests().iter().enumerate() {
        server.process(r);
        if let Some(policy) = driver.observe(r, &server.metrics()) {
            server.set_policy(policy);
        }
        if i + 1 == 2_000 || i + 1 == 3_000 {
            frames.push(cut(&server, i as u64 + 1, driver.save_state().expect("Darwin state saves")));
        }
    }
    let (shipped, rebuilt) = ship(&frames[0], &frames[1]);
    assert!(rebuilt == frames[1], "the rebuild moved a byte");
    assert!(shipped < frames[1].len() as u64, "{shipped} of {} bytes", frames[1].len());
    let restored = ShardCheckpoint::from_frame(&rebuilt).unwrap();
    assert!(DarwinDriver::new(model(), online).load_state(&restored.driver));
    assert_eq!(Some(restored.driver), driver.save_state());
}
