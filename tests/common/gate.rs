//! The determinism-gate scenario, written once: a CG solve at r = 2 whose
//! three node deaths are all masked by the replicas (live failover,
//! degraded spheres, three committed checkpoints, one attempt), and the
//! report totals and trace it was captured at. `tests/determinism_gate.rs`,
//! `tests/profiler_gate.rs` and `tests/sched_workers.rs` include this file
//! by `#[path]` and rerun the scenario with the flight recorder, every
//! sink or a pinned pool width; none of those may move a pinned bit.

use redcr_apps::cg::{CgConfig, CgState};
use redcr_core::apps::CgApp;
use redcr_core::{ExecutionReport, ExecutorConfig, ResilientExecutor};
use redcr_sweep::spec::fnv1a;

/// The scenario's executor settings, every sink off.
pub fn config() -> ExecutorConfig {
    ExecutorConfig::new(8, 2.0)
        .node_mtbf(150.0)
        .checkpoint_interval(10.0)
        .checkpoint_cost(0.5)
        .restart_cost(2.0)
        .seed(7)
}

/// Runs the scenario under `cfg`: [`config`] with sinks or a worker
/// count set.
pub fn run(cfg: ExecutorConfig) -> ExecutionReport<CgState> {
    let app = CgApp::new(CgConfig::small(256), 40).with_step_pad(1.0);
    ResilientExecutor::new(cfg).run(&app).expect("gate run")
}

// Captured on the pre-swap mailbox (flat Mutex<VecDeque>, notify_all) and
// thread-per-rank executor, 30/30 identical repetitions, long before the
// scheduler or the profiler existed.
const PRE_SWAP_TOTAL_BITS: u64 = 0x4044c01fa3bce69a; // 41.500965564 s
const PRE_SWAP_DEGRADED_BITS: u64 = 0x405276e3bd7a12a0; // 73.857650155 s
const PRE_SWAP_TRACE_LINES: usize = 20263;
const PRE_SWAP_TRACE_FNV: u64 = 0xade83d686de079ae;

/// The eight pinned report totals; `what` names the run in a failure.
pub fn assert_totals(report: &ExecutionReport<CgState>, what: &str) {
    assert_eq!(report.total_virtual_time.to_bits(), PRE_SWAP_TOTAL_BITS, "{what}");
    assert_eq!(report.degraded_sphere_seconds.to_bits(), PRE_SWAP_DEGRADED_BITS, "{what}");
    assert_eq!(report.attempts, 1, "{what}");
    assert_eq!(report.failures, 0, "{what}");
    assert_eq!(report.masked_failures, 3, "{what}");
    assert_eq!(report.checkpoints_committed, 3, "{what}");
    assert_eq!(report.physical_messages, 7911, "{what}");
    assert_eq!(report.physical_bytes, 2_353_184, "{what}");
}

/// The pinned trace: the line count and FNV of its JSONL, which is
/// returned for further checks.
pub fn assert_trace(report: &ExecutionReport<CgState>, what: &str) -> String {
    let jsonl = report.trace.as_ref().expect("tracing was on").to_jsonl();
    assert_eq!(jsonl.lines().count(), PRE_SWAP_TRACE_LINES, "{what}");
    assert_eq!(
        fnv1a(jsonl.as_bytes()),
        PRE_SWAP_TRACE_FNV,
        "{what}: trace JSONL bytes differ from the pre-swap capture"
    );
    jsonl
}
