//! The counting `#[global_allocator]` of the memory tests
//! (`tests/metrics_memory.rs`, `tests/trace_memory.rs`,
//! `tests/ckpt_memory.rs`, `tests/allgather_memory.rs`): each includes this
//! file by `#[path]` and installs [`Counting`] for its own binary, which
//! holds one test so that nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// glibc's default `M_MMAP_THRESHOLD`: a request this large is served by
/// its own `mmap`.
pub const MMAP_THRESHOLD: usize = 128 * 1024;

/// Bytes requested from the allocator so far, on every thread.
static REQUESTED: AtomicU64 = AtomicU64::new(0);
/// Allocations (`alloc` and `realloc` calls) so far, on every thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Single requests above [`MMAP_THRESHOLD`] so far.
static LARGE_REQUESTS: AtomicU64 = AtomicU64::new(0);
/// The size of the latest of them.
static LAST_LARGE: AtomicU64 = AtomicU64::new(0);

/// `(bytes requested, requests above the threshold)` so far.
#[allow(dead_code)] // not every binary that includes this file asks
pub fn requested() -> (u64, u64) {
    (REQUESTED.load(Ordering::Relaxed), LARGE_REQUESTS.load(Ordering::Relaxed))
}

/// Allocations so far: every `alloc`, and every `realloc` (a `Vec` that
/// grows in place still costs an allocator call).
#[allow(dead_code)] // not every binary that includes this file asks
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The size of the latest request above the threshold (0 before any).
#[allow(dead_code)] // not every binary that includes this file asks
pub fn last_large_request() -> u64 {
    LAST_LARGE.load(Ordering::Relaxed)
}

fn count(grown_by: usize, size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    REQUESTED.fetch_add(grown_by as u64, Ordering::Relaxed);
    if size > MMAP_THRESHOLD {
        LARGE_REQUESTS.fetch_add(1, Ordering::Relaxed);
        LAST_LARGE.store(size as u64, Ordering::Relaxed);
    }
}

pub struct Counting;

// SAFETY: defers every request to `System` unchanged; the only addition is
// relaxed adds on static atomics, which neither allocate nor re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()), new_size);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
