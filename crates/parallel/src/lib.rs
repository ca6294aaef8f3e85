//! Deterministic scoped fan-out for sweep workloads.
//!
//! Every parallel sweep in the workspace — corpus evaluation, predictor
//! training pairs, figure grids, baseline suites, ablations — goes through
//! [`par_run`] / [`par_map`]. The contract that makes parallelism safe for a
//! reproduction repository is **bitwise determinism**: results are identical
//! whatever the worker count, because
//!
//! - each work item is identified by its index and must derive all of its
//!   randomness from that index (callers seed per-item RNGs, never share one);
//! - each worker returns its items tagged with their indices, and the
//!   results are placed by index once every worker has joined, so there is
//!   no order-dependent aggregation — the returned `Vec` is in item order;
//! - work distribution (an atomic counter) affects only *which thread* runs
//!   an item, never *what* the item computes.
//!
//! Thread count resolution is centralized in [`resolve_threads`]: an explicit
//! request wins, then the `DARWIN_THREADS` environment variable, then the
//! machine's available parallelism. Nested calls degrade to sequential
//! execution automatically (a worker thread that calls [`par_run`] again runs
//! the inner sweep inline), so outer-level parallelism is never oversubscribed
//! and callers can parallelize freely at every layer.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable consulted when no explicit thread count is given.
pub const THREADS_ENV: &str = "DARWIN_THREADS";

thread_local! {
    /// True while this thread is executing work items inside [`par_run`];
    /// used to run nested sweeps inline instead of oversubscribing.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Resolves a requested worker count to an effective one.
///
/// `requested > 0` is honored as-is. `requested == 0` means "auto": the
/// `DARWIN_THREADS` environment variable if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`].
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(s) = std::env::var(THREADS_ENV) {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// True when the calling thread is already a [`par_run`] worker (a nested
/// sweep would run inline).
pub fn in_pool() -> bool {
    IN_POOL.with(|f| f.get())
}

/// Runs `f` with this thread marked as a sweep worker, so any [`par_run`] /
/// [`par_map`] call inside `f` executes inline instead of spawning threads.
///
/// Long-lived worker threads that the engine did not create — e.g. the shard
/// workers of `darwin-shard`'s fleet, each already pinned to its own thread —
/// wrap their serving loop in this so that model code they call cannot
/// oversubscribe the machine with `N_workers × N_threads` nested pools. The
/// flag is restored on exit (including unwinds).
pub fn inline_sweeps<T, F: FnOnce() -> T>(f: F) -> T {
    let _guard = PoolGuard::enter();
    f()
}

/// Restores the thread's pool flag on drop (including unwinds).
struct PoolGuard {
    prev: bool,
}

impl PoolGuard {
    fn enter() -> Self {
        let prev = IN_POOL.with(|f| f.replace(true));
        Self { prev }
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_POOL.with(|f| f.set(prev));
    }
}

/// Runs `f(0..n)` across `threads` workers and returns the results in index
/// order. `threads == 0` means auto (see [`resolve_threads`]).
///
/// `f` must be deterministic in its index argument alone for the engine's
/// bitwise-reproducibility guarantee to hold; the function is executed
/// exactly once per index regardless of worker count.
pub fn par_run<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = resolve_threads(threads).min(n);
    if threads <= 1 || in_pool() {
        // Sequential fallback: same index order, same per-index computation,
        // so results are bitwise identical to the parallel path.
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    // Each worker claims indices off the counter and keeps what it
    // computes, tagged with the index.
    let work = || {
        let _guard = PoolGuard::enter();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            done.push((i, f(i)));
        }
        done
    };

    let parts = std::thread::scope(|scope| {
        // The calling thread participates as a worker, so `threads` is the
        // total worker count, not an extra-thread count.
        let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut parts = vec![work()];
        for worker in spawned {
            parts.push(worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        parts
    });

    // The counter handed each index to exactly one worker.
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, value) in parts.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots.into_iter().map(|v| v.expect("work item completed")).collect()
}

/// Splits `0..n` into contiguous ranges, one per worker (one in all when
/// nested, see [`par_run`]), runs `f` on each and returns what it made, in
/// index order. `f(range)` returns one result per index of `range`, each
/// computed from its index alone, so the results are bitwise identical at
/// any thread count — this is [`par_run`] for work whose items share a
/// setup cost a worker pays once for its whole range. `threads == 0` means
/// auto.
pub fn par_ranges<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    let workers = if in_pool() { 1 } else { resolve_threads(threads) }.min(n);
    let parts = par_run(threads, workers, |w| {
        let range = w * n / workers..(w + 1) * n / workers;
        let made = f(range.clone());
        assert_eq!(made.len(), range.len(), "one result per index of {range:?}");
        made
    });
    parts.into_iter().flatten().collect()
}

/// Parallel map over a slice, preserving order. `threads == 0` means auto.
pub fn par_map<I, T, F>(threads: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    par_run(threads, items.len(), |i| f(&items[i]))
}

/// Parallel map over a slice with the item index, preserving order.
/// `threads == 0` means auto.
pub fn par_map_indexed<I, T, F>(threads: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    par_run(threads, items.len(), |i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn results_are_in_index_order() {
        for threads in [1, 2, 3, 8] {
            let out = par_run(threads, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let seen = Mutex::new(Vec::new());
        par_run(4, 1000, |i| seen.lock().unwrap().push(i));
        let v = seen.into_inner().unwrap();
        assert_eq!(v.len(), 1000);
        assert_eq!(v.iter().copied().collect::<HashSet<_>>().len(), 1000);
    }

    #[test]
    fn matches_sequential_bitwise() {
        // A computation with enough structure that ordering bugs would show:
        // a per-item RNG-ish hash chain seeded by the index.
        let work = |i: usize| {
            let mut h = i as u64 ^ 0x9E37_79B9_7F4A_7C15;
            for _ in 0..100 {
                h = h.wrapping_mul(0x100_0000_01B3).rotate_left(17);
            }
            h as f64 / u64::MAX as f64
        };
        let seq = par_run(1, 257, work);
        for threads in [2, 4, 8] {
            let par = par_run(threads, 257, work);
            assert!(seq.iter().zip(&par).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn nested_calls_run_inline() {
        let out = par_run(4, 8, |i| {
            assert!(in_pool());
            // The nested sweep must degrade to sequential, not deadlock or
            // oversubscribe.
            let inner = par_run(4, 5, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        assert_eq!(out[3], 30 + 31 + 32 + 33 + 34);
        assert!(!in_pool());
    }

    #[test]
    fn par_map_preserves_order_and_items() {
        let items: Vec<String> = (0..50).map(|i| format!("item-{i}")).collect();
        let out = par_map(3, &items, |s| s.len());
        assert_eq!(out, items.iter().map(|s| s.len()).collect::<Vec<_>>());
        let out = par_map_indexed(3, &items, |i, s| (i, s.clone()));
        for (i, (j, s)) in out.iter().enumerate() {
            assert_eq!(i, *j);
            assert_eq!(s, &items[i]);
        }
    }

    #[test]
    fn zero_items_and_explicit_threads() {
        let out: Vec<usize> = par_run(0, 0, |i| i);
        assert!(out.is_empty());
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn ranges_cover_every_index_once_in_order() {
        for threads in [1, 2, 3, 8] {
            for n in [0, 1, 2, 7, 100] {
                let out = par_ranges(threads, n, |range| range.map(|i| i * 3).collect());
                assert_eq!(
                    out,
                    (0..n).map(|i| i * 3).collect::<Vec<_>>(),
                    "{threads} threads, {n} items"
                );
            }
        }
        // Nested: the whole range at once, on the calling worker.
        let out = par_run(2, 2, |_| par_ranges(4, 10, |range| vec![range.len(); range.len()]));
        assert_eq!(out, vec![vec![10; 10]; 2]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = par_run(64, 3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn inline_sweeps_forces_sequential_nested_runs() {
        assert!(!in_pool());
        let out = inline_sweeps(|| {
            assert!(in_pool(), "scope must mark the thread as a worker");
            par_run(8, 4, |i| i * 2)
        });
        assert_eq!(out, vec![0, 2, 4, 6]);
        assert!(!in_pool(), "flag restored after the scope");
        // Restored on unwind too.
        let r = std::panic::catch_unwind(|| inline_sweeps(|| panic!("boom")));
        assert!(r.is_err());
        assert!(!in_pool());
    }

    #[test]
    fn panics_propagate() {
        let r = std::panic::catch_unwind(|| {
            par_run(2, 10, |i| {
                if i == 7 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(r.is_err());
        // The pool flag must be restored even after an unwind.
        assert!(!in_pool());
    }
}
