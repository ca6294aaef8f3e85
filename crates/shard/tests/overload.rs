//! Overload-shedding conservation: with a `shed_watermark` armed, the fleet
//! ledger extends by one term — **processed + dropped + unavailable + shed
//! == submitted** — and it must hold exactly, on both sides of the envelope
//! boundary, however the queues back up.
//!
//! The runs here manufacture a flash crowd deterministically: scripted
//! `Delay` faults stall each shard worker early in its stream while a
//! submitter floods requests at memcpy speed, so queue depth punches
//! through the watermark and the shed path (`Envelope::shed`) fires for
//! real — through a producer's frames and through the fleet's own
//! `submit` alike. `verify.sh` runs these gates at 1, 2 and 8 shards.

use darwin::StaticDriver;
use darwin_cache::{CacheConfig, ThresholdPolicy};
use darwin_shard::{
    Envelope, EventKind, FaultEvent, FaultKind, FaultPlan, FleetConfig, HashRouter, ShardedFleet,
    Verdict,
};
use darwin_trace::{MixSpec, Request, Trace, TraceGenerator, TrafficClass};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn trace(n: usize, seed: u64) -> Trace {
    TraceGenerator::new(MixSpec::single(TrafficClass::image()), seed).generate(n)
}

fn driver(_shard: usize) -> StaticDriver {
    StaticDriver::new(ThresholdPolicy::new(1, 100 * 1024))
}

#[derive(Default)]
struct Counts {
    completed: AtomicU64,
    dropped: AtomicU64,
    unavailable: AtomicU64,
    shed: AtomicU64,
}

/// Counts exactly one answer per envelope; panics if a shed hint is outside
/// the 1–7 range the producer promises.
struct CountingEnvelope {
    req: Request,
    counts: Arc<Counts>,
    answered: bool,
}

impl Envelope for CountingEnvelope {
    fn request(&self) -> &Request {
        &self.req
    }

    fn complete(mut self, _v: Verdict) {
        self.answered = true;
        self.counts.completed.fetch_add(1, Ordering::Relaxed);
    }

    fn unavailable(mut self) {
        self.answered = true;
        self.counts.unavailable.fetch_add(1, Ordering::Relaxed);
    }

    fn shed(mut self, retry_after: u8) {
        assert!(
            (1..=7).contains(&retry_after),
            "shed hint must be expressible and non-zero, got {retry_after}"
        );
        self.answered = true;
        self.counts.shed.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for CountingEnvelope {
    fn drop(&mut self) {
        if !self.answered {
            self.counts.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The two ways into a fleet.
#[derive(Debug, Clone, Copy)]
enum Front {
    /// `FleetProducer::submit_frame`, 64 records a frame.
    Producer,
    /// `ShardedFleet::submit`, one request at a time.
    Submitter,
}

/// Floods a stalled fleet through `front` and checks the extended
/// conservation law plus the shed journal protocol.
fn check_shed_conservation(shards: usize, front: Front) {
    const WATERMARK: usize = 32;
    let n = 16_000usize;
    let t = trace(n, 11);
    // Stall every worker on its first 8 requests so the producer's flood
    // outruns the drain and queue depth punches through the watermark.
    let plan = FaultPlan::new(
        (0..shards)
            .flat_map(|s| {
                (0..8).map(move |at| FaultEvent {
                    unit: s,
                    at,
                    kind: FaultKind::Delay { spins: 500_000 },
                })
            })
            .collect(),
    );
    let counts = Arc::new(Counts::default());
    let mut fleet: ShardedFleet<StaticDriver, CountingEnvelope> = ShardedFleet::with_fault_plan(
        FleetConfig {
            shards,
            queue_capacity: 128,
            batch: 32,
            shed_watermark: Some(WATERMARK),
            ..FleetConfig::default()
        },
        CacheConfig::small_test(),
        Box::new(HashRouter),
        driver,
        plan,
    );
    let metrics = fleet.metrics_handle();
    let envelope =
        |req: &Request| CountingEnvelope { req: *req, counts: Arc::clone(&counts), answered: false };
    match front {
        Front::Producer => {
            let mut producer = fleet.ingest().producer();
            for chunk in t.requests().chunks(64) {
                producer.submit_frame(chunk.iter().map(envelope));
            }
        }
        Front::Submitter => t.iter().for_each(|req| fleet.submit(envelope(req))),
    }
    let report = fleet.finish();

    let completed = counts.completed.load(Ordering::Relaxed);
    let dropped = counts.dropped.load(Ordering::Relaxed);
    let unavailable = counts.unavailable.load(Ordering::Relaxed);
    let shed = counts.shed.load(Ordering::Relaxed);
    assert!(shed > 0, "the stall must force real shedding ({shards} shards, {front:?})");
    assert_eq!(
        completed + dropped + unavailable + shed,
        n as u64,
        "client side: every envelope answered exactly once (completed {completed}, \
         dropped {dropped}, unavailable {unavailable}, shed {shed})"
    );
    assert_eq!(
        report.total_processed()
            + report.total_dropped()
            + report.total_unavailable()
            + report.total_shed(),
        n as u64,
        "fleet side: processed + dropped + unavailable + shed == submitted"
    );
    assert_eq!(completed, report.total_processed(), "both ledgers agree: processed");
    assert_eq!(shed, report.total_shed(), "both ledgers agree: shed");

    // The journal brackets every shed episode: ShedStart when the watermark
    // engages, ShedStop when depth recovers — at most one episode can still
    // be open per shard at shutdown.
    let mut starts = 0usize;
    let mut stops = 0usize;
    for (shard, journal) in metrics.journals() {
        let (s, e) = journal.events.iter().fold((0usize, 0usize), |(s, e), ev| match ev.kind {
            EventKind::ShedStart { .. } => (s + 1, e),
            EventKind::ShedStop { .. } => (s, e + 1),
            _ => (s, e),
        });
        assert!(s >= e && s - e <= 1, "shard {shard}: shed episodes must nest (starts {s}, stops {e})");
        starts += s;
        stops += e;
    }
    assert!(starts > 0, "shedding must journal at least one ShedStart");
    assert!(starts >= stops, "episodes can only close after opening");
}

#[test]
fn shed_conservation_holds_at_1_shard() {
    check_shed_conservation(1, Front::Producer);
    check_shed_conservation(1, Front::Submitter);
}

#[test]
fn shed_conservation_holds_at_2_shards() {
    check_shed_conservation(2, Front::Producer);
    check_shed_conservation(2, Front::Submitter);
}

#[test]
fn shed_conservation_holds_at_8_shards() {
    check_shed_conservation(8, Front::Producer);
    check_shed_conservation(8, Front::Submitter);
}

/// Without a watermark the shed path must stay cold: the historical
/// three-term ledger and a zero shed column.
#[test]
fn no_watermark_means_no_shedding() {
    let n = 4_000usize;
    let t = trace(n, 13);
    let counts = Arc::new(Counts::default());
    let fleet: ShardedFleet<StaticDriver, CountingEnvelope> = ShardedFleet::new(
        FleetConfig { shards: 2, queue_capacity: 128, batch: 32, ..FleetConfig::default() },
        CacheConfig::small_test(),
        Box::new(HashRouter),
        driver,
    );
    let ingest = fleet.ingest();
    {
        let mut producer = ingest.producer();
        for chunk in t.requests().chunks(64) {
            producer.submit_frame(chunk.iter().map(|req| CountingEnvelope {
                req: *req,
                counts: Arc::clone(&counts),
                answered: false,
            }));
        }
    }
    let report = fleet.finish();
    assert_eq!(counts.shed.load(Ordering::Relaxed), 0);
    assert_eq!(report.total_shed(), 0);
    assert_eq!(report.total_processed(), n as u64, "Block backpressure stays lossless");
}
