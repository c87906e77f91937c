//! Counting global allocator: every allocation and reallocation bumps two
//! process-wide counters, so the benchmark can report allocations and bytes
//! as deltas around each timed public call. The counts are a pure function
//! of the work done on the sequential path, so they repeat exactly from run
//! to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with allocation counters.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics that publish no other data (hence `Relaxed`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations and bytes allocated so far in this process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocCount {
    pub fn now() -> Self {
        AllocCount {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// Allocations and bytes since `self` was taken.
    pub fn since(self) -> AllocCount {
        let now = AllocCount::now();
        AllocCount {
            allocs: now.allocs - self.allocs,
            bytes: now.bytes - self.bytes,
        }
    }
}

/// Runs `f`, returning its result and the allocations it made.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, AllocCount) {
    let start = AllocCount::now();
    let out = f();
    (out, start.since())
}
