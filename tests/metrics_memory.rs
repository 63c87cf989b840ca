//! What the metrics plane allocates follows the scrape-grid cells a run
//! touches, not the counter increments it makes: a failure-free CG solve
//! twice as long bumps its counters twice as often, and turning metrics on
//! costs it the same number of bytes. (The per-increment log this pins the
//! absence of cost 24 bytes a bump, three times over.)
//!
//! One test in this binary, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use redcr::apps::cg::CgConfig;
use redcr::core::apps::CgApp;
use redcr::core::{ExecutorConfig, ResilientExecutor};
use redcr::metrics::CounterKey;

/// Bytes requested from the allocator so far, on every thread.
static REQUESTED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: defers every request to `System` unchanged; the only addition is
// a relaxed add on a static atomic, which neither allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs an un-padded, failure-free CG of `iterations` steps on one worker
/// and returns the bytes it requested and the sends it counted (0 with
/// metrics off).
fn solve(iterations: u64, metrics: bool) -> (u64, u64) {
    let config = ExecutorConfig::new(4, 2.0).workers(1).metrics(metrics);
    let app = CgApp::new(CgConfig::small(32), iterations);
    let before = REQUESTED.load(Ordering::Relaxed);
    let report = ResilientExecutor::new(config).run(&app).unwrap();
    let requested = REQUESTED.load(Ordering::Relaxed) - before;
    assert_eq!(report.attempts, 1);
    let sends = report.metrics.map_or(0, |m| {
        assert_eq!(m.series.len(), 2, "the whole solve is inside the first grid second");
        m.totals.counter(CounterKey::Sends)
    });
    (requested, sends)
}

#[test]
fn metrics_memory_does_not_grow_with_the_iteration_count() {
    let cost = |iterations| {
        let (off, _) = solve(iterations, false);
        let (on, sends) = solve(iterations, true);
        (on - off, sends)
    };
    let (short, short_sends) = cost(200);
    let (long, long_sends) = cost(400);
    assert!(long_sends >= 2 * short_sends - 100, "{short_sends} -> {long_sends} sends");
    assert!(short_sends > 10_000, "enough increments to tell: {short_sends}");
    assert_eq!(long, short, "metrics cost {short} B at 200 iterations, {long} B at 400");
}
