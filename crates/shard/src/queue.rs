//! Bounded SPSC request queues with explicit backpressure.
//!
//! Each shard worker is fed by one of these: one producer endpoint
//! (serialized by the fleet's per-shard lane lock), and the worker thread
//! as the consumer; neither endpoint is `Clone`. When the queue fills, the
//! producer either *blocks* until the worker drains (lossless, the
//! replay/determinism mode) or *drops* the overflow and counts it (load
//! shedding).
//!
//! The queue is a `VecDeque` of exactly `capacity` slots behind one
//! `Mutex`, with a condvar per side. [`Producer::push_batch`] and
//! [`Consumer::pop_batch`] move a whole run in **one** lock round. A side
//! registers as waiting, under the lock, before it sleeps, and the other
//! side notifies only a registered sleeper, so a batch costs no futex wake
//! when nobody sleeps. No item destructor runs under the lock: a gateway
//! envelope's `Drop` answers its connection.
//!
//! [`QueueGauges`] depth and high-water are set under the lock from the
//! queue's length, so they are exact; they are atomics because the fleet
//! reads the depth without the lock.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// How often a consumer that found its queue empty looks again, one
/// `yield_now` apart, before it parks. Under load a shard's next batch is
/// tens of microseconds away, less than a futex sleep and wake cost on a
/// virtual core (measurements in DESIGN.md, "Cost of a request").
const EMPTY_POLLS: u32 = 50;

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

    /// Records the queue's length; every length it had passes through here.
    fn set(&self, len: usize) {
        self.depth.store(len, Ordering::Relaxed);
        self.high_water.fetch_max(len, Ordering::Relaxed);
    }
}

/// What the lock guards.
struct State<T> {
    items: VecDeque<T>,
    producer_closed: bool,
    consumer_closed: bool,
    /// Threads parked on `not_full` / `not_empty`, counted in and out
    /// under the lock, so a notify is skipped only when nobody sleeps.
    producers_waiting: usize,
    consumers_waiting: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
    gauges: Arc<QueueGauges>,
}

impl<T> Shared<T> {
    /// Every update leaves the state valid, so a poisoned lock is taken as
    /// is, and the endpoints' `Drop`s cannot panic on it.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `items` to the locked queue and wakes a parked consumer.
    fn enqueue(&self, state: &mut State<T>, items: impl Iterator<Item = T>) {
        state.items.extend(items);
        self.gauges.set(state.items.len());
        if state.consumers_waiting > 0 {
            self.not_empty.notify_all();
        }
    }
}

/// Creates a bounded SPSC queue of `capacity` items.
pub fn channel<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "queue capacity must be positive");
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            items: VecDeque::with_capacity(capacity),
            producer_closed: false,
            consumer_closed: false,
            producers_waiting: 0,
            consumers_waiting: 0,
        }),
        capacity,
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        gauges: Arc::new(QueueGauges::default()),
    });
    (Producer { shared: Arc::clone(&shared) }, Consumer { shared })
}

/// The sending endpoint. Dropping it closes the queue; the consumer drains
/// what remains and then observes end-of-stream.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving endpoint. Dropping it makes subsequent pushes fail fast
/// (the items are returned/dropped, never silently lost in a dead queue).
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Producer<T> {
    /// The queue's occupancy gauges.
    pub fn gauges(&self) -> Arc<QueueGauges> {
        Arc::clone(&self.shared.gauges)
    }

    /// Blocking push of every item in `batch` (drained front-to-back,
    /// preserving order). Each run of items that fits goes in under one lock
    /// round; the call blocks while the queue is full. Returns the number of
    /// items *not* delivered because the consumer disappeared (0 on
    /// success); the undelivered remainder is destroyed.
    pub fn push_batch(&self, batch: &mut Vec<T>) -> usize {
        let shared = &*self.shared;
        let mut items = batch.drain(..);
        let mut state = shared.lock();
        while items.len() > 0 && !state.consumer_closed {
            let free = shared.capacity - state.items.len();
            if free == 0 {
                state.producers_waiting += 1;
                state = shared.not_full.wait(state).unwrap_or_else(PoisonError::into_inner);
                state.producers_waiting -= 1;
                continue;
            }
            shared.enqueue(&mut state, items.by_ref().take(free));
        }
        drop(state);
        // `items`' drop destroys the undelivered remainder (consumer gone).
        items.len()
    }

    /// Non-blocking push: the items that fit are enqueued in order under one
    /// lock round, the overflow is dropped. Returns the number of dropped
    /// items (also counting every item when the consumer is gone).
    pub fn try_push_batch(&self, batch: &mut Vec<T>) -> usize {
        let total = batch.len();
        let mut state = self.shared.lock();
        let deliver =
            if state.consumer_closed { 0 } else { total.min(self.shared.capacity - state.items.len()) };
        self.shared.enqueue(&mut state, batch.drain(..deliver));
        drop(state);
        batch.clear(); // the shed overflow, destroyed outside the lock
        total - deliver
    }

    /// True once the consumer endpoint is gone (worker exited or panicked):
    /// later pushes fail fast. The supervisor's death signal on the
    /// `DropNewest` path, where a failed push looks like ordinary overflow.
    pub fn is_closed(&self) -> bool {
        self.shared.lock().consumer_closed
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.producer_closed = true;
        if state.consumers_waiting > 0 {
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Consumer<T> {
    /// The queue's occupancy gauges.
    pub fn gauges(&self) -> Arc<QueueGauges> {
        Arc::clone(&self.shared.gauges)
    }

    /// The queue's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// True once the producer endpoint has been dropped (end of stream —
    /// possibly with items still buffered).
    pub fn is_producer_closed(&self) -> bool {
        self.shared.lock().producer_closed
    }

    /// Closes the queue from the consumer side and destroys everything still
    /// buffered, returning how many items that was. A panicking worker calls
    /// this so in-flight envelopes are answered (`Dropped`) *and counted*;
    /// afterwards every push fails fast, the supervisor's death signal.
    pub fn close(&self) -> usize {
        let mut state = self.shared.lock();
        state.consumer_closed = true;
        let buffered = std::mem::take(&mut state.items);
        self.shared.gauges.set(0);
        if state.producers_waiting > 0 {
            self.shared.not_full.notify_all();
        }
        drop(state);
        buffered.len()
    }

    /// Blocks until at least one item is available (or the producer closed),
    /// then moves up to `max` items into `out` preserving order. Returns
    /// false when the stream is exhausted (producer closed and queue empty).
    /// An empty queue is polled `EMPTY_POLLS` times before the call parks.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> bool {
        let shared = &*self.shared;
        let mut polls = 0;
        let mut state = shared.lock();
        loop {
            if !state.items.is_empty() {
                let take = state.items.len().min(max.max(1));
                out.extend(state.items.drain(..take));
                shared.gauges.set(state.items.len());
                if state.producers_waiting > 0 {
                    shared.not_full.notify_all();
                }
                return true;
            }
            if state.producer_closed {
                return false;
            }
            if polls < EMPTY_POLLS {
                polls += 1;
                drop(state);
                std::thread::yield_now();
                state = shared.lock();
                continue;
            }
            state.consumers_waiting += 1;
            state = shared.not_empty.wait(state).unwrap_or_else(PoisonError::into_inner);
            state.consumers_waiting -= 1;
        }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        // A dying worker's buffered envelopes are answered now.
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
