//! Counting global allocator: live bytes, peak live bytes, allocation count
//! and allocated bytes, all process-wide. Feeds `heap_peak_mb`,
//! `proc.allocs_per_req` and `proc.alloc_bytes_per_req`.
//!
//! The counters are statistics (they publish no other data), so every
//! access is `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// `System` plus the four counters.
pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own arguments
// and returns its result unchanged; the counters never influence a pointer
// or a layout.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// A reading of the allocator counters.
#[derive(Debug, Clone, Copy)]
pub struct HeapMark {
    pub live: usize,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Reads the counters and restarts peak tracking from the current live size,
/// so a later [`peak_since_mark`] covers only what happened after this call.
pub fn mark() -> HeapMark {
    let now = read();
    PEAK.store(now.live, Relaxed);
    now
}

/// Reads the counters without touching the peak.
pub fn read() -> HeapMark {
    HeapMark {
        live: LIVE.load(Relaxed),
        allocs: ALLOCS.load(Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Relaxed),
    }
}

/// Peak live bytes since the last [`mark`].
pub fn peak_since_mark() -> usize {
    PEAK.load(Relaxed)
}
