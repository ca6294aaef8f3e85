//! A bounded per-object table forgets, and every state movement keeps up.
//!
//! A `CacheServer` keeps at most `SEGMENT_ROWS` (14 335) rows in each of
//! its table's 32 segments, forgetting a full segment's least recently
//! requested quarter when a new object arrives. These tests stream enough
//! distinct objects through one shard to fill every segment and make it
//! forget, then hold the cut path to it: a cut after a forget names the
//! forgotten rows as removals, ships the envelope a diff of the two images
//! ships, and the standby rebuilds the cut bit for bit; and a shard
//! promoted from that standby, still forgetting after the promotion, ends
//! bitwise where an uninterrupted sequential run of its partition does.
//! The cut points are derived from the bound, so the table still fills
//! between the second cut and the third if the bound moves.

use darwin::StaticDriver;
use darwin_cache::idmap::SEGMENTS;
use darwin_cache::server::SEGMENT_ROWS;
use darwin_cache::{CacheConfig, CacheServer, ThresholdPolicy};
use darwin_ckpt::replica::{CutFrame, CutRole, Held};
use darwin_shard::{
    partition, run_partition, FaultEvent, FaultKind, FaultPlan, FeedOutcome, FleetConfig, HashRouter,
    RestartBudget, ShardCheckpoint, ShardedFleet, StandbySlot,
};
use darwin_trace::{Request, Trace};
use std::sync::Arc;

/// Rows a server's table holds at most.
const BOUND: usize = SEGMENTS * SEGMENT_ROWS;

/// Where [`a_cut_after_a_forget_ships_its_removals`] cuts, in requests: at
/// ½, 1 and 1½ times the bound. Three requests in four are new objects, so
/// the table holds ⅜ and ¾ of the bound at the first two cuts — no
/// segment full — and at the third has seen 1⅛ of it and forgotten.
const CUTS: [u64; 3] = [BOUND as u64 / 2, BOUND as u64, BOUND as u64 * 3 / 2];

fn cache_cfg() -> CacheConfig {
    CacheConfig {
        hoc_bytes: 2 * 1024 * 1024,
        expected_unique_objects: 4_096,
        ..CacheConfig::small_test()
    }
}

fn policy() -> ThresholdPolicy {
    ThresholdPolicy::new(1, 64 * 1024)
}

/// Request `i` of a stream in which three requests in four ask for an
/// object never seen before and the fourth for any object seen before —
/// which, once the table is full, may have been forgotten, and then counts
/// as new: a server that forgets otherwise admits other objects.
fn request(i: u64) -> Request {
    let fresh = i - i / 4;
    let id = if i % 4 == 3 {
        let back = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        fresh - 1 - back % fresh
    } else {
        fresh
    };
    Request::new(id, 1 + id * 7_919 % 60_000, i)
}

fn stream(n: u64) -> Trace {
    Trace::from_sorted((0..n).map(request).collect())
}

/// Rows of the per-object table in a sealed checkpoint frame.
fn rows(frame: &[u8]) -> usize {
    ShardCheckpoint::layout(frame).expect("a cut lays out")[0].rows
}

/// Cuts at [`CUTS`], each merged into the last and fed to a standby, as
/// the worker does. The table fills between the second and the third, so
/// the third cut's change list names removals; its envelope is the one the
/// diff of the two images plans, and the standby rebuilds the cut bit for
/// bit.
#[test]
fn a_cut_after_a_forget_ships_its_removals() {
    let standby = StandbySlot::new(0);
    let mut server = CacheServer::new(cache_cfg());
    server.set_policy(policy());
    let (mut done, mut held): (u64, Option<(u64, Vec<u8>)>) = (0, None);
    for seq in CUTS {
        for i in done..seq {
            server.process(&request(i));
        }
        done = seq;
        let ckpt = ShardCheckpoint {
            shard: 0,
            seq,
            policy: policy(),
            cache: Vec::new(),
            driver: Vec::new(),
            restarts: 0,
            budget_marks: Vec::new(),
        };
        let (frame, changes) = ckpt.cut_of(&mut server, Vec::new());
        server.record_base(seq, Arc::new(frame.clone()), ShardCheckpoint::layout(&frame));
        let removed = changes.as_ref().map_or(0, |c| c.tables[0].removals.len());
        if let Some((held_seq, held)) = &held {
            let held = Some(Held { seq: *held_seq, image: held });
            let ship = |changes| {
                CutFrame::ship(
                    0,
                    0,
                    CutRole::Replica,
                    seq,
                    &frame,
                    held,
                    changes,
                    ShardCheckpoint::layout,
                )
            };
            assert!(ship(changes.as_ref()) == ship(None), "cut {seq}: the list shipped other bytes");
        }
        let outcome = standby.feed(0, seq, &frame, changes);
        assert!(!matches!(outcome, FeedOutcome::Lost), "cut {seq}");
        if seq < CUTS[2] {
            assert_eq!(removed, 0, "cut {seq}: nothing is forgotten before the table fills");
            assert_eq!(rows(&frame) as u64, seq - seq / 4, "every object held");
        } else {
            let seen = seq - seq / 4;
            assert!(rows(&frame) <= BOUND && (rows(&frame) as u64) < seen, "the table forgot");
            assert!(removed > 100_000, "cut {seq}: {removed} forgotten rows removed");
            assert!(matches!(outcome, FeedOutcome::Applied { .. }), "cut {seq}: a row delta");
        }
        held = Some((seq, frame));
    }
    let (frame, seq) = standby.take_for_promotion().expect("the standby holds the last cut");
    assert_eq!((seq, &frame), (CUTS[2], &held.unwrap().1), "the standby rebuilt the cut bitwise");
}

/// One death within the restart budget at 400 k requests, then at 1.2 M —
/// a cut whose row delta carries the forgotten rows — a corrupted
/// checkpoint and a death past the budget: the shard is promoted from the
/// standby's rebuilt frame and keeps forgetting for 200 k more requests.
/// Its metrics and occupancy are those of a sequential run of the
/// partition minus the two fatal requests, which never restored.
#[test]
fn a_promotion_after_forgetting_is_bitwise() {
    const KILL1_AT: u64 = 400_000;
    const KILL2_AT: u64 = 1_200_000;
    let trace = stream(1_400_000);
    let fleet_cfg = FleetConfig {
        shards: 1,
        queue_capacity: 256,
        batch: 64,
        restart_budget: RestartBudget { max_restarts: 1, window_requests: 10_000_000 },
        checkpoint_every: Some(400_000),
        replicas: 1,
        ..FleetConfig::default()
    };
    let plan = FaultPlan::new(vec![
        FaultEvent { unit: 0, at: KILL1_AT, kind: FaultKind::Panic },
        FaultEvent { unit: 0, at: KILL2_AT, kind: FaultKind::CorruptCheckpoint { torn: false } },
        FaultEvent { unit: 0, at: KILL2_AT, kind: FaultKind::Panic },
    ]);
    let mut fleet = ShardedFleet::with_fault_plan(
        fleet_cfg,
        cache_cfg(),
        Box::new(HashRouter),
        |_| StaticDriver::new(policy()),
        plan,
    );
    fleet.submit_trace(&trace);
    let report = fleet.finish();

    let part = partition(&trace, &HashRouter, 1).remove(0);
    let mut requests = part.requests().to_vec();
    requests.remove(KILL2_AT as usize);
    requests.remove(KILL1_AT as usize);
    let sequential =
        run_partition(cache_cfg(), StaticDriver::new(policy()), &Trace::from_sorted(requests));

    let s0 = &report.metrics().shards[0];
    assert_eq!((s0.warm_restarts, s0.failovers, s0.dropped), (2, 1, 2), "one restart, one promotion");
    assert_eq!(report.total_unavailable(), 0);
    let shard = &report.shards[0];
    assert_eq!(s0.cache, sequential.cache, "cache metrics across the promotion");
    assert_eq!(shard.hoc_used_bytes, sequential.hoc_used_bytes, "HOC occupancy");
    assert_eq!(shard.dc_used_bytes, sequential.dc_used_bytes, "DC occupancy");
}
