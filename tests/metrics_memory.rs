//! What the metrics plane allocates follows the scrape-grid cells a run
//! touches, not the counter increments it makes: a failure-free CG solve
//! twice as long bumps its counters twice as often, and turning metrics on
//! costs it the same number of bytes. (The per-increment log this pins the
//! absence of cost 24 bytes a bump, three times over.)
//!
//! One test in this binary, so nothing else allocates while it counts.

use redcr::apps::cg::CgConfig;
use redcr::core::apps::CgApp;
use redcr::core::{ExecutorConfig, ResilientExecutor};
use redcr::metrics::CounterKey;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{requested, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs an un-padded, failure-free CG of `iterations` steps on one worker
/// and returns the bytes it requested and the sends it counted (0 with
/// metrics off).
fn solve(iterations: u64, metrics: bool) -> (u64, u64) {
    let config = ExecutorConfig::new(4, 2.0).workers(1).metrics(metrics);
    let app = CgApp::new(CgConfig::small(32), iterations);
    let before = requested().0;
    let report = ResilientExecutor::new(config).run(&app).unwrap();
    let bytes = requested().0 - before;
    assert_eq!(report.attempts, 1);
    let sends = report.metrics.map_or(0, |m| {
        assert_eq!(m.series.len(), 2, "the whole solve is inside the first grid second");
        m.totals.counter(CounterKey::Sends)
    });
    (bytes, sends)
}

#[test]
fn metrics_memory_does_not_grow_with_the_iteration_count() {
    // The solve requests the same bytes every time; the harness's own
    // thread, waiting for this test, now and then requests a few hundred
    // more while it runs. That only ever adds, so the least of three is
    // the solve's.
    let least = |iterations, metrics| (0..3).map(|_| solve(iterations, metrics)).min().unwrap();
    let cost = |iterations| {
        let (off, _) = least(iterations, false);
        let (on, sends) = least(iterations, true);
        (on - off, sends)
    };
    let (short, short_sends) = cost(200);
    let (long, long_sends) = cost(400);
    assert!(long_sends >= 2 * short_sends - 100, "{short_sends} -> {long_sends} sends");
    assert!(short_sends > 10_000, "enough increments to tell: {short_sends}");
    assert_eq!(long, short, "metrics cost {short} B at 200 iterations, {long} B at 400");
}
