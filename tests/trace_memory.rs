//! The flight recorder stores each event once, encoded: what a traced run
//! requests from the allocator beyond the same run untraced is at most
//! [`BYTES_PER_EVENT`] a recorded event — the encoded events (11–13 B for
//! the `Send`, `Recv` and `Vote` that make up nearly all of them) plus the
//! slack: each rank's part-filled last chunk, which is requested whole,
//! the chunk lists, the collector's own small chunks — and none of it in
//! one piece large enough for the allocator to map (and unmap, and fault
//! in again on the next run) on its own. (Recording 56-byte `Event`s into
//! a `Vec` a rank and copying that into the collector's, each grown by
//! doubling, requested 3.07 × 56 B an event on this solve, 32 of the
//! requests above the threshold; storing those `Event`s in fixed chunks
//! once, about 57 B.)
//!
//! One test in this binary, so nothing else allocates while it counts.

use redcr::apps::cg::CgConfig;
use redcr::core::apps::CgApp;
use redcr::core::{ExecutorConfig, ResilientExecutor};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{requested, Counting, MMAP_THRESHOLD};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most a traced run may request per recorded event, in bytes.
const BYTES_PER_EVENT: u64 = 16;

/// Runs an un-padded, failure-free CG on one worker and returns the bytes
/// it requested, its requests above the threshold, and the events it
/// recorded (0 with tracing off).
fn solve(tracing: bool) -> (u64, u64, u64) {
    let config = ExecutorConfig::new(4, 2.0).workers(1).tracing(tracing);
    let app = CgApp::new(CgConfig::small(32), 500);
    let before = requested();
    let report = ResilientExecutor::new(config).run(&app).unwrap();
    let after = requested();
    assert_eq!(report.attempts, 1);
    (after.0 - before.0, after.1 - before.1, report.trace.map_or(0, |t| t.len() as u64))
}

#[test]
fn a_traced_run_requests_each_event_once_and_in_small_pieces() {
    let (off, off_large, _) = solve(false);
    let (on, on_large, events) = solve(true);
    assert!(events > 100_000, "enough events to tell: {events}");
    let per_event = (on - off) as f64 / events as f64;
    assert!(
        on - off <= BYTES_PER_EVENT * events,
        "tracing requested {per_event:.1} B for each of its {events} events"
    );
    assert_eq!(on_large, off_large, "the recorder made a request above {MMAP_THRESHOLD} B");
}
