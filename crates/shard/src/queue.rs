//! Bounded SPSC request queues with explicit backpressure.
//!
//! Each shard worker is fed by exactly one of these: a single producer
//! endpoint (serialized by the fleet's per-shard lane lock) and the shard's
//! worker thread as the single consumer (enforced by move semantics —
//! neither endpoint is `Clone`). Capacity is fixed at construction; when the
//! queue fills, the producer either *blocks* until the worker drains
//! (lossless backpressure, the replay/determinism mode) or *drops* the
//! overflow while counting it (the load-shedding mode a production
//! front-end would run).
//!
//! The queue is a lock-free ring on the hot path: items live in a
//! fixed-size slot array, the producer and consumer each own a monotonic
//! index, and the two indices are padded onto separate cache lines so a
//! pushing gateway connection and a draining shard worker never false-share.
//! Batch operations ([`Producer::push_batch`] / [`Consumer::pop_batch`])
//! publish a whole run of items with **one** release-store of the index and
//! **one** gauge update, so per-request synchronization cost amortizes away
//! at fleet throughput. Blocking is hybrid: the fast path never touches a
//! lock, a consumer that finds the queue empty first looks again
//! `EMPTY_POLLS` times, and a would-be sleeper parks on a condvar behind a
//! Dekker-style waiting flag (seq-cst fences pair the flag with the index
//! publish, so a wakeup can never be lost).
//!
//! Depth and high-water gauges are published through [`QueueGauges`] for the
//! fleet metrics aggregator. Gauge updates are *relative*
//! (`fetch_add`/`fetch_sub`), never absolute stores: the producer adds
//! before publishing its tail and the consumer subtracts before publishing
//! its head, which keeps the counter within `[0, capacity]` and means a
//! concurrent pop can never overwrite (and thereby hide) a depth peak
//! before `fetch_max` records it.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// How often a consumer that found its queue empty looks again, one
/// `yield_now` apart, before it parks. Under load a shard's next batch is
/// some tens of microseconds away. Parking for such a gap costs a futex
/// sleep, a futex wake on the producer's side and, on a virtual core, a halt
/// whose price is the host's to set: the serving throughput then follows the
/// host's state more closely than the program's work does. A yield hands the
/// core to any thread that is runnable on it and returns at once otherwise,
/// so an idle worker polls for some tens of microseconds and then sleeps as
/// before (measurements in DESIGN.md, "Cost of a request").
const EMPTY_POLLS: u32 = 50;

/// Pads (and aligns) a value to its own 128-byte cache-line pair, so the
/// producer's tail index and the consumer's head index never share a line
/// (128 covers adjacent-line prefetching on current x86).
#[repr(align(128))]
struct CachePadded<T>(T);

/// Live occupancy gauges of one queue, readable from any thread.
#[derive(Debug, Default)]
pub struct QueueGauges {
    depth: AtomicUsize,
    high_water: AtomicUsize,
}

impl QueueGauges {
    /// Items currently enqueued.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Maximum depth ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Producer side: `n` items entering the queue. The returned sum is
    /// exact at this instant (no read-modify-write gap), so the high-water
    /// mark can never miss a peak.
    fn add_depth(&self, n: usize) {
        let now = self.depth.fetch_add(n, Ordering::Relaxed) + n;
        self.high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// Consumer side: `n` items leaving the queue.
    fn sub_depth(&self, n: usize) {
        self.depth.fetch_sub(n, Ordering::Relaxed);
    }
}

/// The shared ring. `head`/`tail` are monotonic; the slot for index `i` is
/// `i & mask` (the slot array is the capacity rounded up to a power of two,
/// while *logical* occupancy is bounded by the exact `capacity`).
struct Ring<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    capacity: usize,
    /// Consumer's pop index (next slot to read). Written only by the
    /// consumer, with `Release`; read by the producer with `Acquire`.
    head: CachePadded<AtomicUsize>,
    /// Producer's push index (next slot to write). Written only by the
    /// producer, with `Release`; read by the consumer with `Acquire`.
    tail: CachePadded<AtomicUsize>,
    producer_closed: AtomicBool,
    consumer_closed: AtomicBool,
    /// Hybrid-blocking support: sleepers park here; the fast path never
    /// touches it.
    sleep: Mutex<()>,
    not_full: Condvar,
    not_empty: Condvar,
    producer_waiting: AtomicBool,
    consumer_waiting: AtomicBool,
    gauges: Arc<QueueGauges>,
}

// SAFETY: the slot array is a hand-rolled SPSC channel. Items are only ever
// accessed by the endpoint that currently owns their index range (producer:
// [tail, head+capacity); consumer: [head, tail)), with ownership transferred
// by the Release/Acquire index publications below.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    /// SAFETY: caller owns slot `index` (see the Send/Sync note).
    unsafe fn write_slot(&self, index: usize, item: T) {
        (*self.slots[index & self.mask].get()).write(item);
    }

    /// SAFETY: caller owns slot `index` and it holds an initialized item.
    unsafe fn read_slot(&self, index: usize) -> T {
        (*self.slots[index & self.mask].get()).assume_init_read()
    }

    fn occupancy(&self, tail: usize, head: usize) -> usize {
        tail.wrapping_sub(head)
    }

    /// Wakes a parked consumer, if any. Callers publish their state change
    /// (tail store or close flag) *before* this; the seq-cst fence pairs
    /// with the one in [`Ring::wait_not_empty`] so either the sleeper's
    /// re-check sees the new state or this load sees its waiting flag —
    /// both missing (the lost-wakeup interleaving) is the store-buffering
    /// outcome seq-cst fences forbid.
    fn wake_consumer(&self) {
        fence(Ordering::SeqCst);
        if self.consumer_waiting.load(Ordering::Relaxed) {
            // Acquiring the sleep lock serializes with the sleeper between
            // its flag store and its `wait`, so the notify cannot land in
            // that window and vanish.
            drop(self.sleep.lock().expect("queue sleep lock poisoned"));
            self.not_empty.notify_all();
        }
    }

    /// Wakes a parked producer, if any (same protocol as
    /// [`Ring::wake_consumer`], against [`Ring::wait_not_full`]).
    fn wake_producer(&self) {
        fence(Ordering::SeqCst);
        if self.producer_waiting.load(Ordering::Relaxed) {
            drop(self.sleep.lock().expect("queue sleep lock poisoned"));
            self.not_full.notify_all();
        }
    }

    /// Parks the producer until the queue may have space (or the consumer
    /// closed). Spurious returns are fine — the caller re-checks.
    fn wait_not_full(&self) {
        let guard = self.sleep.lock().expect("queue sleep lock poisoned");
        self.producer_waiting.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Acquire);
        if self.occupancy(tail, head) >= self.capacity && !self.consumer_closed.load(Ordering::Acquire) {
            drop(self.not_full.wait(guard).expect("queue sleep lock poisoned"));
        } else {
            drop(guard);
        }
        self.producer_waiting.store(false, Ordering::Relaxed);
    }

    /// Parks the consumer until the queue may have items (or the producer
    /// closed). Spurious returns are fine — the caller re-checks.
    fn wait_not_empty(&self) {
        let guard = self.sleep.lock().expect("queue sleep lock poisoned");
        self.consumer_waiting.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Acquire);
        if self.occupancy(tail, head) == 0 && !self.producer_closed.load(Ordering::Acquire) {
            drop(self.not_empty.wait(guard).expect("queue sleep lock poisoned"));
        } else {
            drop(guard);
        }
        self.consumer_waiting.store(false, Ordering::Relaxed);
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Both endpoints are gone (`&mut self` proves exclusivity): destroy
        // whatever is still buffered — e.g. items a producer raced into the
        // ring after the consumer's close-drain. Their destructors answer
        // any envelopes riding inside.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        let n = self.occupancy(tail, head);
        for k in 0..n {
            drop(unsafe { self.read_slot(head.wrapping_add(k)) });
        }
        if n > 0 {
            self.gauges.sub_depth(n);
        }
    }
}

/// Creates a bounded SPSC queue of `capacity` items.
pub fn channel<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "queue capacity must be positive");
    let slots = capacity.next_power_of_two();
    let ring = Arc::new(Ring {
        slots: (0..slots).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect(),
        mask: slots - 1,
        capacity,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        producer_closed: AtomicBool::new(false),
        consumer_closed: AtomicBool::new(false),
        sleep: Mutex::new(()),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        producer_waiting: AtomicBool::new(false),
        consumer_waiting: AtomicBool::new(false),
        gauges: Arc::new(QueueGauges::default()),
    });
    (Producer { ring: Arc::clone(&ring) }, Consumer { ring })
}

/// The sending endpoint. Dropping it closes the queue; the consumer drains
/// what remains and then observes end-of-stream.
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
}

/// The receiving endpoint. Dropping it makes subsequent pushes fail fast
/// (the items are returned/dropped, never silently lost in a dead queue).
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
}

impl<T> Producer<T> {
    /// The queue's occupancy gauges.
    pub fn gauges(&self) -> Arc<QueueGauges> {
        Arc::clone(&self.ring.gauges)
    }

    /// Blocking push of every item in `batch` (drained front-to-back,
    /// preserving order). Each run of items that fits is published with a
    /// single tail store; the call blocks while the queue is full. Returns
    /// the number of items *not* delivered because the consumer disappeared
    /// (0 on success); the undelivered remainder is destroyed.
    pub fn push_batch(&self, batch: &mut Vec<T>) -> usize {
        let ring = &*self.ring;
        let total = batch.len();
        let mut delivered = 0usize;
        let mut iter = batch.drain(..);
        while delivered < total {
            if ring.consumer_closed.load(Ordering::Acquire) {
                break;
            }
            let tail = ring.tail.0.load(Ordering::Relaxed);
            let head = ring.head.0.load(Ordering::Acquire);
            let free = ring.capacity - ring.occupancy(tail, head);
            if free == 0 {
                ring.wait_not_full();
                continue;
            }
            let run = free.min(total - delivered);
            for k in 0..run {
                let item = iter.next().expect("drain yields every remaining item");
                unsafe { ring.write_slot(tail.wrapping_add(k), item) };
            }
            // Gauge *before* the tail publish (and the consumer subtracts
            // before its head publish): the producer's free-space check can
            // only observe head values whose subtraction already landed, so
            // the depth counter stays within [0, capacity].
            ring.gauges.add_depth(run);
            ring.tail.0.store(tail.wrapping_add(run), Ordering::Release);
            ring.wake_consumer();
            delivered += run;
        }
        // `iter`'s drop destroys the undelivered remainder (consumer gone).
        total - delivered
    }

    /// Non-blocking push: the items that fit are enqueued in order with one
    /// tail store, the overflow is dropped. Returns the number of dropped
    /// items (also counting every item when the consumer is gone).
    pub fn try_push_batch(&self, batch: &mut Vec<T>) -> usize {
        let ring = &*self.ring;
        let total = batch.len();
        if ring.consumer_closed.load(Ordering::Acquire) {
            batch.clear();
            return total;
        }
        let tail = ring.tail.0.load(Ordering::Relaxed);
        let head = ring.head.0.load(Ordering::Acquire);
        let free = ring.capacity - ring.occupancy(tail, head);
        let deliver = total.min(free);
        {
            let mut iter = batch.drain(..);
            for k in 0..deliver {
                let item = iter.next().expect("drain yields every remaining item");
                unsafe { ring.write_slot(tail.wrapping_add(k), item) };
            }
            // The drain's drop destroys the shed overflow.
        }
        if deliver > 0 {
            ring.gauges.add_depth(deliver);
            ring.tail.0.store(tail.wrapping_add(deliver), Ordering::Release);
            ring.wake_consumer();
        }
        total - deliver
    }

    /// True once the consumer endpoint is gone (worker thread exited or
    /// panicked): subsequent pushes will fail fast. This is the supervisor's
    /// death-detection signal on the `DropNewest` path, where a failed push
    /// is otherwise indistinguishable from ordinary overflow.
    pub fn is_closed(&self) -> bool {
        self.ring.consumer_closed.load(Ordering::Acquire)
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.ring.producer_closed.store(true, Ordering::Release);
        self.ring.wake_consumer();
    }
}

impl<T> Consumer<T> {
    /// The queue's occupancy gauges.
    pub fn gauges(&self) -> Arc<QueueGauges> {
        Arc::clone(&self.ring.gauges)
    }

    /// The queue's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity
    }

    /// True once the producer endpoint has been dropped (end of stream —
    /// possibly with items still buffered).
    pub fn is_producer_closed(&self) -> bool {
        self.ring.producer_closed.load(Ordering::Acquire)
    }

    /// Closes the queue from the consumer side and destroys everything still
    /// buffered, returning how many items that was. A panicking shard worker
    /// calls this from its unwind handler so in-flight envelopes are answered
    /// (their destructors file `Dropped` verdicts) *and counted*; afterwards
    /// every producer push fails fast, which is what the supervisor's
    /// organic-death detection keys on. (An item a producer races in after
    /// the drain below is destroyed at ring teardown instead.)
    pub fn close(&self) -> usize {
        let ring = &*self.ring;
        ring.consumer_closed.store(true, Ordering::Release);
        let mut destroyed = 0usize;
        loop {
            let head = ring.head.0.load(Ordering::Relaxed);
            let tail = ring.tail.0.load(Ordering::Acquire);
            let n = ring.occupancy(tail, head);
            if n == 0 {
                break;
            }
            for k in 0..n {
                drop(unsafe { ring.read_slot(head.wrapping_add(k)) });
            }
            ring.gauges.sub_depth(n);
            ring.head.0.store(head.wrapping_add(n), Ordering::Release);
            destroyed += n;
        }
        ring.wake_producer();
        destroyed
    }

    /// Blocks until at least one item is available (or the producer closed),
    /// then moves up to `max` items into `out` preserving order. Returns
    /// false when the stream is exhausted (producer closed and queue empty).
    /// An empty queue is polled `EMPTY_POLLS` times before the call parks.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> bool {
        let ring = &*self.ring;
        let mut polls = 0;
        loop {
            let head = ring.head.0.load(Ordering::Relaxed);
            let tail = ring.tail.0.load(Ordering::Acquire);
            let avail = ring.occupancy(tail, head);
            if avail == 0 {
                if ring.producer_closed.load(Ordering::Acquire) {
                    // The close flag is set after the final tail publish;
                    // re-load the tail now so the last items are never
                    // missed.
                    if ring.occupancy(ring.tail.0.load(Ordering::Acquire), head) == 0 {
                        return false;
                    }
                    continue;
                }
                if polls < EMPTY_POLLS {
                    polls += 1;
                    std::thread::yield_now();
                    continue;
                }
                ring.wait_not_empty();
                continue;
            }
            let take = avail.min(max.max(1));
            out.reserve(take);
            for k in 0..take {
                out.push(unsafe { ring.read_slot(head.wrapping_add(k)) });
            }
            // Subtract before the head publish — see `push_batch` for why
            // this ordering bounds the depth gauge.
            ring.gauges.sub_depth(take);
            ring.head.0.store(head.wrapping_add(take), Ordering::Release);
            ring.wake_producer();
            return true;
        }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        // A consumer that dies with items still buffered (a panicking shard
        // worker) must not strand them until producer teardown: drain them
        // now so item destructors run promptly; gateway envelopes, for
        // example, answer their pending request with a `Dropped` verdict
        // from `Drop`.
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved_across_batches() {
        let (tx, rx) = channel::<u32>(128);
        let mut batch: Vec<u32> = (0..100).collect();
        assert_eq!(tx.push_batch(&mut batch), 0);
        assert!(batch.is_empty());
        drop(tx);
        let mut got = Vec::new();
        let mut buf = Vec::new();
        while rx.pop_batch(&mut buf, 7) {
            got.append(&mut buf);
        }
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn try_push_drops_overflow_and_counts_it() {
        let (tx, rx) = channel::<u32>(4);
        let mut batch: Vec<u32> = (0..10).collect();
        let dropped = tx.try_push_batch(&mut batch);
        assert_eq!(dropped, 6, "only 4 fit");
        assert_eq!(rx.gauges().depth(), 4);
        assert_eq!(rx.gauges().high_water(), 4);
        // The 4 oldest survive (drop-newest policy).
        let mut buf = Vec::new();
        assert!(rx.pop_batch(&mut buf, 10));
        assert_eq!(buf, vec![0, 1, 2, 3]);
    }

    #[test]
    fn blocking_push_waits_for_consumer() {
        let (tx, rx) = channel::<u64>(8);
        let producer = std::thread::spawn(move || {
            let mut total = 0usize;
            for chunk in 0..50u64 {
                let mut batch: Vec<u64> = (chunk * 10..chunk * 10 + 10).collect();
                total += batch.len();
                assert_eq!(tx.push_batch(&mut batch), 0);
            }
            total
        });
        let mut got = Vec::new();
        let mut buf = Vec::new();
        while rx.pop_batch(&mut buf, 16) {
            got.append(&mut buf);
        }
        assert_eq!(producer.join().unwrap(), 500);
        assert_eq!(got.len(), 500);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "order preserved under blocking");
        assert!(rx.gauges().high_water() <= 8, "capacity bound respected");
    }

    #[test]
    fn consumer_drop_fails_pushes_fast() {
        let (tx, rx) = channel::<u32>(2);
        drop(rx);
        let mut batch = vec![1, 2, 3];
        assert_eq!(tx.push_batch(&mut batch), 3, "all undelivered");
        let mut batch = vec![4, 5];
        assert_eq!(tx.try_push_batch(&mut batch), 2);
    }

    #[test]
    fn producer_drop_ends_stream_after_drain() {
        let (tx, rx) = channel::<u32>(8);
        let mut batch = vec![1, 2];
        tx.push_batch(&mut batch);
        drop(tx);
        let mut buf = Vec::new();
        assert!(rx.pop_batch(&mut buf, 10));
        assert_eq!(buf, vec![1, 2]);
        assert!(!rx.pop_batch(&mut buf, 10), "closed and empty ⇒ end of stream");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = channel::<u32>(0);
    }

    #[test]
    fn close_counts_and_destroys_buffered_items() {
        let (tx, rx) = channel::<u32>(8);
        let mut batch = vec![1, 2, 3];
        assert_eq!(tx.push_batch(&mut batch), 0);
        assert!(!tx.is_closed());
        assert_eq!(rx.capacity(), 8);
        assert!(!rx.is_producer_closed());
        assert_eq!(rx.close(), 3, "all buffered items destroyed and counted");
        assert_eq!(rx.gauges().depth(), 0);
        assert!(tx.is_closed());
        let mut batch = vec![4];
        assert_eq!(tx.push_batch(&mut batch), 1, "pushes fail fast after close");
        drop(tx);
        assert!(rx.is_producer_closed());
    }

    #[test]
    fn consumer_drop_runs_destructors_of_buffered_items() {
        // A dead consumer (panicked worker) must not strand buffered items:
        // their destructors run at consumer drop, not at producer teardown.
        let flag = Arc::new(AtomicUsize::new(0));
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (tx, rx) = channel::<Probe>(8);
        let mut batch = vec![Probe(Arc::clone(&flag)), Probe(Arc::clone(&flag))];
        assert_eq!(tx.push_batch(&mut batch), 0);
        assert_eq!(flag.load(Ordering::SeqCst), 0, "buffered items are alive");
        drop(rx);
        assert_eq!(flag.load(Ordering::SeqCst), 2, "consumer drop released them");
        assert_eq!(tx.gauges().depth(), 0);
    }

    #[test]
    fn exact_capacity_is_enforced_for_non_power_of_two() {
        // The slot array rounds up to a power of two internally, but the
        // *logical* capacity stays exact: a 6-slot queue holds 6, not 8.
        let (tx, rx) = channel::<u32>(6);
        let mut batch: Vec<u32> = (0..10).collect();
        assert_eq!(tx.try_push_batch(&mut batch), 4, "exactly 6 fit");
        assert_eq!(rx.gauges().depth(), 6);
        assert_eq!(rx.capacity(), 6);
        let mut buf = Vec::new();
        assert!(rx.pop_batch(&mut buf, 10));
        assert_eq!(buf, (0..6).collect::<Vec<_>>());
    }

    /// Regression for the gauge race: with absolute `store` + `fetch_max`
    /// updates from both endpoints, a pop-side store of a *stale* low depth
    /// could overwrite a concurrent producer's higher depth before
    /// `fetch_max` recorded it. Relative updates make the first full-queue
    /// push observable forever: the peak can never be missed.
    #[test]
    fn concurrent_gauge_updates_never_miss_the_peak() {
        for _ in 0..50 {
            let (tx, rx) = channel::<u64>(4);
            let gauges = rx.gauges();
            let producer = std::thread::spawn(move || {
                // The first chunk lands on an empty queue, so the very first
                // add_depth reaches exactly 4 — deterministically.
                let mut batch: Vec<u64> = (0..4).collect();
                assert_eq!(tx.push_batch(&mut batch), 0);
                for chunk in 1..200u64 {
                    let mut batch: Vec<u64> = (chunk * 4..chunk * 4 + 4).collect();
                    assert_eq!(tx.push_batch(&mut batch), 0);
                }
            });
            let mut got = 0usize;
            let mut buf = Vec::new();
            while rx.pop_batch(&mut buf, 3) {
                got += buf.len();
                buf.clear();
            }
            producer.join().unwrap();
            assert_eq!(got, 800);
            assert_eq!(gauges.depth(), 0, "all adds matched by subs");
            assert_eq!(gauges.high_water(), 4, "the full-queue peak was recorded, exactly once");
            assert!(gauges.high_water() <= 4, "depth never exceeds capacity");
        }
    }

    #[test]
    fn depth_gauge_tracks_partial_drains() {
        let (tx, rx) = channel::<u32>(8);
        let mut batch: Vec<u32> = (0..5).collect();
        assert_eq!(tx.push_batch(&mut batch), 0);
        assert_eq!(rx.gauges().depth(), 5);
        let mut buf = Vec::new();
        assert!(rx.pop_batch(&mut buf, 2));
        assert_eq!(rx.gauges().depth(), 3);
        assert!(rx.pop_batch(&mut buf, 10));
        assert_eq!(rx.gauges().depth(), 0);
        assert_eq!(rx.gauges().high_water(), 5);
    }
}
