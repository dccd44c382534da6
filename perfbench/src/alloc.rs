//! A counting global allocator, installed in the benchmark binary only.
//!
//! It forwards to the system allocator and keeps three statistics: the
//! number of allocations, the live heap and its high-water mark since the
//! last [`reset`]. They are exact for a deterministic run, so they are
//! reported as counts, not as speed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

pub struct Counting;

// Statistics only: no other data is published through these, so `Relaxed`
// suffices even when sharded runs allocate from several threads.
static COUNT: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping touches
// only atomics and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            COUNT.fetch_add(1, Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            COUNT.fetch_add(1, Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            COUNT.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// What the heap did between a [`reset`] and [`snapshot`].
#[derive(Clone, Copy, Debug, Default)]
pub struct HeapUse {
    /// Allocations, reallocations included.
    pub count: u64,
    /// High-water mark of live heap above the level at the reset, bytes.
    pub peak_bytes: usize,
}

/// Start a measurement window; returns the live heap it starts from.
pub fn reset() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    COUNT.store(0, Relaxed);
    live
}

/// Read the window opened by the [`reset`] that returned `base`.
pub fn snapshot(base: usize) -> HeapUse {
    HeapUse {
        count: COUNT.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed).saturating_sub(base),
    }
}
