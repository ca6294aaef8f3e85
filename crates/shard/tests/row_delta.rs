//! The row-delta oracle: a cut shipped as a row delta rebuilds the sender's
//! checkpoint frame bit for bit.
//!
//! Both images are real: `CacheServer` state after a request prefix and
//! after a continuation of it, sealed into `ShardCheckpoint` frames, under
//! every store policy, with a live `DarwinDriver`'s
//! state riding in the frame's untabled bytes. The delta is shipped and
//! applied through the cut envelope exactly as the standby feed and the
//! resize handoff do, under `ShardCheckpoint::layout`; the rebuilt image is
//! compared with the target byte for byte, and must open as the target's
//! checkpoint.
//!
//! The change list a cut's encode returns is held to the same oracle: the
//! envelope planned from it is the one the diff plans, cut after cut, and a
//! standby that holds another cut than the list's base gets the diff.

use darwin::{AdmissionDriver, DarwinDriver};
use darwin::{DarwinModel, Expert, ExpertGrid, OfflineConfig, OfflineTrainer, OnlineConfig};
use darwin_cache::{CacheConfig, CacheServer, EvictionKind, ThresholdPolicy};
use darwin_ckpt::replica::{CutFrame, CutPayload, CutRole, Held};
use darwin_ckpt::rows::Changes;
use darwin_ckpt::Dec;
use darwin_nn::TrainConfig;
use darwin_shard::{CheckpointSlot, FeedOutcome, ShardCheckpoint, StandbySlot};
use darwin_trace::{MixSpec, Request, Trace, TraceGenerator, TrafficClass};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const STORES: [EvictionKind; 4] = [
    EvictionKind::Lru,
    EvictionKind::Fifo,
    EvictionKind::Lfu,
    EvictionKind::SegmentedLru { segments: 4 },
];

fn config(store: EvictionKind) -> CacheConfig {
    CacheConfig {
        hoc_bytes: 256 * 1024,
        dc_bytes: 2 * 1024 * 1024,
        hoc_eviction: store,
        dc_eviction: store,
        expected_unique_objects: 1024,
    }
}

fn request(i: usize, id: u64) -> Request {
    Request::new(id, 1 + id * 7_919 % 120_000, i as u64)
}

/// Shard 3's checkpoint after `seq` requests, carrying `driver`, for a
/// server to fill in.
fn checkpoint(seq: u64, driver: Vec<u8>) -> ShardCheckpoint {
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
}

/// Shard 3's checkpoint of `server` after `seq` requests, carrying `driver`.
fn cut(server: &mut CacheServer, seq: u64, driver: Vec<u8>) -> Vec<u8> {
    checkpoint(seq, driver).to_frame_of(server)
}

/// What a worker's cut does: `server`'s checkpoint at `seq`, merged into its
/// base, which it then replaces. Returns the frame and the rows it changed.
fn cut_and_record(server: &mut CacheServer, seq: u64) -> (Vec<u8>, Option<Changes>) {
    let (frame, changes) = checkpoint(seq, vec![seq as u8; 48]).cut_of(server, Vec::new());
    server.record_base(seq, Arc::new(frame.clone()), ShardCheckpoint::layout(&frame));
    (frame, changes)
}

/// Ships `target` against `base` through a replica envelope and returns the
/// rebuilt image, after checking it shipped rows, opens as shard 3's cut
/// and stayed inside `base + wire` bytes.
fn ship(base: &[u8], target: &[u8]) -> (u64, Vec<u8>) {
    let held = Some(Held { seq: 1, image: base });
    let layout = ShardCheckpoint::layout;
    let wire = CutFrame::ship(3, 0, CutRole::Replica, 2, target, held, None, layout);
    let mut image = base.to_vec();
    let cut = CutFrame::rebuild(&wire, 3, 0, CutRole::Replica, Some(1), &mut image, layout).unwrap();
    assert_eq!(cut.base_seq, Some(1), "real cuts lay out, so a row delta ships");
    assert!(image.capacity() <= base.len() + wire.len());
    assert_eq!(ShardCheckpoint::header(&image).map(|(shard, _)| shard), Ok(3));
    (cut.shipped_bytes, image)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any prefix and continuation, any store: the
    /// delta from the earlier cut to the later one rebuilds the later one,
    /// and the delta back — the later cut as base, holding objects the
    /// earlier one never saw — rebuilds the earlier one, through removals.
    #[test]
    fn row_delta_rebuilds_real_cuts_bitwise(
        prefix in proptest::collection::vec(0u64..400, 1..800),
        more in proptest::collection::vec(0u64..600, 0..400),
        store in 0usize..4,
    ) {
        let mut server = CacheServer::new(config(STORES[store]));
        server.set_policy(ThresholdPolicy::new(1, 64 * 1024));
        for (i, &id) in prefix.iter().enumerate() {
            server.process(&request(i, id));
        }
        let earlier = cut(&mut server, prefix.len() as u64, vec![1; 64]);
        for (i, &id) in more.iter().enumerate() {
            server.process(&request(prefix.len() + i, id));
        }
        let later = cut(&mut server, (prefix.len() + more.len()) as u64, vec![2; 64]);
        prop_assert!(ship(&earlier, &later).1 == later, "forward delta moved a byte");
        prop_assert!(ship(&later, &earlier).1 == earlier, "backward delta moved a byte");
    }

    /// Every consecutive pair of real cuts — any stream, store and cut
    /// points, repeated points included — ships the envelope
    /// planned from the encode's change list byte for byte as the one
    /// `CutFrame::ship` plans by diffing, and it rebuilds the later cut.
    #[test]
    fn change_list_envelopes_are_the_diffs(
        stream in proptest::collection::vec(0u64..600, 1..1_500),
        mut cuts in proptest::collection::vec(0.0f64..1.0, 1..5),
        store in 0usize..4,
    ) {
        let layout = ShardCheckpoint::layout;
        let mut server = CacheServer::new(config(STORES[store]));
        server.set_policy(ThresholdPolicy::new(1, 64 * 1024));
        cuts.sort_by(f64::total_cmp);
        let ends = cuts.iter().map(|c| (c * stream.len() as f64) as usize).chain([stream.len()]);
        let (mut done, mut previous) = (0, None::<(u64, Vec<u8>)>);
        for (k, end) in ends.enumerate() {
            for (i, &id) in stream.iter().enumerate().take(end).skip(done) {
                server.process(&request(i, id));
            }
            done = done.max(end);
            let seq = k as u64 + 1;
            let (frame, changes) = cut_and_record(&mut server, seq);
            prop_assert_eq!(changes.as_ref().map(|c| c.base_seq), previous.as_ref().map(|(s, _)| *s));
            if let Some((base_seq, base)) = &previous {
                let held = Some(Held { seq: *base_seq, image: base });
                let (role, changes) = (CutRole::Replica, changes.as_ref());
                let listed = CutFrame::ship(3, 0, role, seq, &frame, held, changes, layout);
                let diffed = CutFrame::ship(3, 0, role, seq, &frame, held, None, layout);
                prop_assert!(listed == diffed, "cut {}: the list planned another envelope", seq);
                let mut rebuilt = base.clone();
                CutFrame::rebuild(&listed, 3, 0, role, Some(*base_seq), &mut rebuilt, layout).unwrap();
                prop_assert!(rebuilt == frame, "cut {}: the rebuild moved a byte", seq);
            }
            previous = Some((seq, frame));
        }
    }
}

/// A worker's stream, requests `from..to` over 2 000 objects.
fn serve(server: &mut CacheServer, from: usize, to: usize) {
    for i in from..to {
        server.process(&request(i, (i as u64).wrapping_mul(2_654_435_761) % 2_000));
    }
}

/// Feeds a cut and its change list, as the worker does.
fn fed(slot: &StandbySlot, seq: u64, (frame, changes): &(Vec<u8>, Option<Changes>)) -> FeedOutcome {
    slot.feed(0, seq, frame, changes.clone())
}

/// What a feed that applied a delta shipped, and the lag it closed; `None`
/// for any other outcome.
fn applied(outcome: FeedOutcome) -> Option<(u64, u64)> {
    match outcome {
        FeedOutcome::Applied { shipped_bytes, lag } => Some((shipped_bytes, lag)),
        _ => None,
    }
}

/// The bytes of the row delta the diff plans for `target` against `held`.
fn diffed(held: &[u8], held_seq: u64, target: &[u8]) -> u64 {
    let held = Some(Held { seq: held_seq, image: held });
    let wire = CutFrame::ship(3, 0, CutRole::Replica, 0, target, held, None, ShardCheckpoint::layout);
    match CutFrame::from_frame(&wire).unwrap().payload {
        CutPayload::Rows { rows, .. } => rows.len() as u64,
        CutPayload::Full(_) => panic!("real cuts lay out"),
    }
}

/// After a `CorruptStandby` loss the standby is re-seeded whole. A list
/// whose base is not the cut it was re-seeded with — the worker did not
/// record that cut as its base — is not used: the feed ships what the diff
/// plans. The next list is against the cut the standby holds and is used.
/// Every feed rebuilds the primary's cut bit for bit (a rebuild that is not
/// fails its open and loses the standby).
#[test]
fn a_replaced_standby_takes_the_diff_until_the_list_is_against_its_cut() {
    let slot = StandbySlot::new(3);
    let mut server = CacheServer::new(config(EvictionKind::Lru));
    server.set_policy(ThresholdPolicy::new(1, 64 * 1024));
    serve(&mut server, 0, 1_000);
    let first = cut_and_record(&mut server, 1_000);
    assert!(first.1.is_none(), "nothing to merge into yet");
    assert!(matches!(fed(&slot, 1_000, &first), FeedOutcome::Seeded { .. }));
    serve(&mut server, 1_000, 2_000);
    let second = cut_and_record(&mut server, 2_000);
    let expected = (diffed(&first.0, 1_000, &second.0), 1_000);
    assert_eq!(applied(fed(&slot, 2_000, &second)), Some(expected));

    slot.poison();
    serve(&mut server, 2_000, 3_000);
    let unrecorded = checkpoint(3_000, vec![0; 48]).cut_of(&mut server, Vec::new());
    assert!(matches!(fed(&slot, 3_000, &unrecorded), FeedOutcome::Replaced { .. }));
    serve(&mut server, 3_000, 4_000);
    let against_older = cut_and_record(&mut server, 4_000);
    assert_eq!(against_older.1.as_ref().map(|c| c.base_seq), Some(2_000));
    let expected = (diffed(&unrecorded.0, 3_000, &against_older.0), 1_000);
    assert_eq!(applied(fed(&slot, 4_000, &against_older)), Some(expected));
    serve(&mut server, 4_000, 5_000);
    let last = cut_and_record(&mut server, 5_000);
    let expected = (diffed(&against_older.0, 4_000, &last.0), 1_000);
    assert_eq!(applied(fed(&slot, 5_000, &last)), Some(expected));
    assert_eq!(slot.take_for_promotion(), Some((last.0, 5_000)));
}

/// A worker restored from the previous buffer's cut merges into that cut,
/// while its standby holds the newer one: the feed ships what the diff
/// against the newer cut plans, and rebuilds the new cut bit for bit; the
/// next feed is against the cut the standby holds.
#[test]
fn a_worker_restored_from_the_previous_cut_ships_the_diff() {
    let (cfg, policy) =
        (config(EvictionKind::SegmentedLru { segments: 4 }), ThresholdPolicy::new(1, 64 * 1024));
    let slot = StandbySlot::new(3);
    let mut server = CacheServer::new(cfg.clone());
    server.set_policy(policy);
    serve(&mut server, 0, 1_000);
    let previous = cut_and_record(&mut server, 1_000);
    fed(&slot, 1_000, &previous);
    serve(&mut server, 1_000, 2_000);
    let newer = cut_and_record(&mut server, 2_000);
    assert!(matches!(fed(&slot, 2_000, &newer), FeedOutcome::Applied { .. }));

    let image = ShardCheckpoint::from_frame(&previous.0).unwrap().cache;
    let mut restored = CacheServer::restore_state(cfg, &image).unwrap();
    restored.set_policy(policy);
    let tables = ShardCheckpoint::layout(&previous.0);
    restored.record_base(1_000, Arc::new(previous.0), tables);
    serve(&mut restored, 1_000, 2_500);
    let from_previous = cut_and_record(&mut restored, 2_500);
    assert_eq!(from_previous.1.as_ref().map(|c| c.base_seq), Some(1_000));
    let expected = (diffed(&newer.0, 2_000, &from_previous.0), 500);
    assert_eq!(applied(fed(&slot, 2_500, &from_previous)), Some(expected));
    serve(&mut restored, 2_500, 3_000);
    let next = cut_and_record(&mut restored, 3_000);
    let expected = (diffed(&from_previous.0, 2_500, &next.0), 500);
    assert_eq!(applied(fed(&slot, 3_000, &next)), Some(expected));
    assert_eq!(slot.take_for_promotion(), Some((next.0, 3_000)));
}

/// A worker's cuts as the fleet takes them — each sealed over the slot's
/// inactive frame, two cuts old, and fed to a standby that rebuilds it over
/// the image it holds — are the cuts a fresh buffer takes, byte for byte,
/// and the standby holds each one.
#[test]
fn cuts_written_over_the_inactive_frame_are_the_fresh_cuts() {
    let (slot, standby) = (CheckpointSlot::new(3, None), StandbySlot::new(3));
    let mut server = CacheServer::new(config(EvictionKind::Lru));
    server.set_policy(ThresholdPolicy::new(1, 64 * 1024));
    let mut done = 0;
    for seq in [700, 1_500, 1_600, 3_000, 3_001, 4_200] {
        serve(&mut server, done, seq);
        done = seq;
        let ckpt = checkpoint(seq as u64, vec![seq as u8; 48]);
        let (frame, changes) = ckpt.cut_of(&mut server, slot.take_inactive());
        assert!(frame == ckpt.to_frame_of(&mut server), "cut {seq}");
        let frame = slot.store(frame);
        server.record_base(seq as u64, Arc::clone(&frame), ShardCheckpoint::layout(&frame));
        let outcome = fed(&standby, seq as u64, &(frame.to_vec(), changes));
        assert!(!matches!(outcome, FeedOutcome::Lost), "cut {seq}");
        assert_eq!(standby.applied_seq(), Some(seq as u64));
    }
    let newest = slot.candidates().next().unwrap();
    assert_eq!(standby.take_for_promotion(), Some((newest.to_vec(), 4_200)));
}

/// A list against a cut the standby never got — it holds an older one —
/// names too few rows for what the standby holds, and is not used: the
/// feed diffs and rebuilds the cut bit for bit.
#[test]
fn a_list_against_a_cut_the_standby_missed_is_not_used() {
    let slot = StandbySlot::new(3);
    let mut server = CacheServer::new(config(EvictionKind::Fifo));
    server.set_policy(ThresholdPolicy::new(1, 64 * 1024));
    serve(&mut server, 0, 1_000);
    let held = cut_and_record(&mut server, 1_000);
    fed(&slot, 1_000, &held);
    serve(&mut server, 1_000, 2_000);
    cut_and_record(&mut server, 2_000);
    serve(&mut server, 2_000, 3_000);
    let cut = cut_and_record(&mut server, 3_000);
    assert_eq!(cut.1.as_ref().map(|c| c.base_seq), Some(2_000));
    assert_eq!(applied(fed(&slot, 3_000, &cut)), Some((diffed(&held.0, 1_000, &cut.0), 2_000)));
    assert_eq!(slot.take_for_promotion(), Some((cut.0, 3_000)));
}

/// The ids a row delta removes, per table, read off the documented
/// encoding.
fn removals(target: &[u8], base: &[u8]) -> Vec<Vec<u64>> {
    let held = Some(Held { seq: 1, image: base });
    let wire = CutFrame::ship(3, 0, CutRole::Replica, 2, target, held, None, ShardCheckpoint::layout);
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
/// the one table, and the merge drops exactly
/// those rows.
#[test]
fn a_base_holding_ids_the_target_lacks_ships_removals() {
    let (mut with, mut without) =
        (CacheServer::new(config(EvictionKind::Lru)), CacheServer::new(config(EvictionKind::Lru)));
    for i in 0..2_000 {
        let id = (i as u64 * 37) % 500;
        with.process(&request(i, id));
        without.process(&request(i, id));
    }
    for (i, id) in [(2_000, 9_001), (2_001, 9_002), (2_002, 4), (2_003, 9_003)] {
        with.process(&request(i, id));
    }
    without.process(&request(2_002, 4));
    let (base, target) = (cut(&mut with, 2_004, vec![5; 32]), cut(&mut without, 2_003, vec![5; 32]));
    assert_eq!(removals(&target, &base), vec![vec![9_001, 9_002, 9_003]]);
    assert!(ship(&base, &target).1 == target);
}

/// Where the frame's table is: the cache image's one table, moved to where
/// the frame holds it — and nothing for a frame whose cache blob is not an
/// image. The layout reads no CRC, so a damaged frame still lays out; its
/// holder's open is what refuses it.
#[test]
fn the_frame_layout_is_the_cache_layout_where_the_frame_holds_it() {
    let mut server = CacheServer::new(config(EvictionKind::Lru));
    for i in 0..300 {
        server.process(&request(i, i as u64 % 90));
    }
    let frame = cut(&mut server, 300, vec![9; 10]);
    let image = server.save_state();
    let at = frame.windows(image.len()).position(|w| w == image).expect("the frame holds the image");
    let mut expected = CacheServer::state_layout(&image).unwrap();
    assert_eq!(expected.len(), 1, "one per-object table");
    expected[0].offset += at;
    assert_eq!(ShardCheckpoint::layout(&frame), Some(expected.clone()));
    let mut damaged = frame.clone();
    damaged[expected[0].offset + 9] ^= 1;
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
    let mut server = CacheServer::new(config(EvictionKind::Lru));
    server.set_policy(driver.initial_policy());
    let trace = TraceGenerator::new(
        MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5),
        77,
    )
    .generate(3_000);
    let mut frames = Vec::new();
    for (i, r) in trace.requests().iter().enumerate() {
        darwin::step(&mut server, &mut driver, r, |_, _| {});
        if i + 1 == 2_000 || i + 1 == 3_000 {
            frames.push(cut(
                &mut server,
                i as u64 + 1,
                driver.save_state().expect("Darwin state saves"),
            ));
        }
    }
    let (shipped, rebuilt) = ship(&frames[0], &frames[1]);
    assert!(rebuilt == frames[1], "the rebuild moved a byte");
    assert!(shipped < frames[1].len() as u64, "{shipped} of {} bytes", frames[1].len());
    let restored = ShardCheckpoint::from_frame(&rebuilt).unwrap();
    assert!(DarwinDriver::new(model(), online).load_state(&restored.driver));
    assert_eq!(Some(restored.driver), driver.save_state());
}
