//! Determinism gate for the simmpi delivery-path overhaul.
//!
//! No delivery-path change may move a virtual-time result. This test
//! pins, bit-for-bit, the `ExecutionReport` totals and the JSONL
//! flight-recorder trace of a CG run **with live failures at r=2** as
//! they were produced by the flat `Mutex<VecDeque>` mailbox *before* it
//! was swapped for a per-(source, wire-tag) channel index. The constants
//! below were captured on that baseline (30/30 identical runs), held
//! through the index, and hold again now that the mailbox is one
//! arrival-ordered queue with targeted wakeups.
//!
//! Scenario notes: the run injects three node deaths, all masked by the
//! r=2 replicas (live failover, degraded spheres, three committed
//! checkpoints) in a single attempt. Runs whose failure *forces a
//! restart* are excluded on purpose: when these constants were captured,
//! the restart path had a wall-clock race (running ranks polled the
//! physically-timed abort flag, so the abort edge cut each attempt at a
//! host-timing-dependent point), and those traces were not byte-stable
//! even before the mailbox swap. That race has since been fixed by abort
//! finality (a parked receive sees the abort only once the scheduler
//! finds the batch stalled, see `redcr_mpi::mailbox`;
//! `tests/abort_determinism.rs` pins the restart path bit-exactly on both
//! backends), but this gate keeps the
//! abort-free scenario so its constants stay comparable with the
//! original flat-mailbox baseline. What it proves is that the delivery
//! path is semantics-preserving where the old path was deterministic.

use std::sync::Arc;

use redcr_apps::cg::CgState;
use redcr_apps::jacobi::{JacobiConfig, JacobiState};
use redcr_ckpt::restart::latest_complete;
use redcr_ckpt::storage::{MemoryStorage, SnapshotKey, StableStorage};
use redcr_core::apps::JacobiApp;
use redcr_core::{ExecutionReport, ExecutorConfig, ResilientExecutor};
use redcr_sweep::spec::fnv1a;
use redcr_trace::{EventKind, Trace};

mod common;
#[path = "common/gate.rs"]
mod gate;

fn gate_run() -> ExecutionReport<CgState> {
    gate::run(gate::config().tracing(true))
}

#[test]
fn report_totals_match_pre_swap_capture_bit_for_bit() {
    gate::assert_totals(&gate_run(), "gate");
}

#[test]
fn trace_jsonl_matches_pre_swap_capture_and_round_trips() {
    let jsonl = gate::assert_trace(&gate_run(), "gate");
    // redcr-trace round-trip: parsing the pinned bytes and re-rendering
    // them must reproduce the same bytes, so the hash pins the *trace*,
    // not an accident of the serializer.
    let reparsed = Trace::from_jsonl(&jsonl).expect("round-trip parse");
    assert_eq!(reparsed.to_jsonl(), jsonl);
}

#[test]
fn gate_scenario_is_run_to_run_deterministic() {
    // Two in-process runs (fresh executor each) must agree byte-for-byte —
    // guards against wall-clock scheduling leaking into virtual time
    // independently of the pinned constants above.
    let a = gate_run();
    let b = gate_run();
    assert_eq!(a.total_virtual_time.to_bits(), b.total_virtual_time.to_bits());
    assert_eq!(a.trace.as_ref().unwrap().to_jsonl(), b.trace.as_ref().unwrap().to_jsonl());
}

#[test]
fn failure_log_agrees_with_the_report() {
    common::assert_failure_log_agrees("gate", &gate_run());
}

// The checkpoint path: a Jacobi solve at r=2 whose node deaths restart it
// twice, each time from a stored generation (restarts are bit-stable since
// abort finality, see above). Captured before the in-place sweep, the
// one-pass image writer and generation retention; all three must leave
// every number alone. (The final states do not depend on the failures: any
// restart replays the same sweeps.)
const JACOBI_VIRTUAL: u32 = 4;
const JACOBI_TOTAL_BITS: u64 = 0x4053_8007_a1b2_cb5c; // 78.000465798 s
const JACOBI_STATES_FNV: u64 = 0xb77b_5aa5_fb3d_bd6d;

/// 1 500 points a rank = 93 full 16-lane chunks and a 12-point remainder,
/// so a sweep takes both paths of the in-place relaxation.
fn jacobi_app() -> JacobiApp {
    let config =
        JacobiConfig { left_boundary: -0.5, right_boundary: 2.0, ..JacobiConfig::small(1500) };
    JacobiApp::new(config, 60).with_step_pad(1.0)
}

fn jacobi_run(storage: &Arc<MemoryStorage>, cfg: ExecutorConfig) -> ExecutionReport<JacobiState> {
    let storage: Arc<dyn StableStorage> = storage.clone();
    ResilientExecutor::with_storage(cfg, storage).run(&jacobi_app()).expect("jacobi run")
}

fn jacobi_gate_run(storage: &Arc<MemoryStorage>) -> ExecutionReport<JacobiState> {
    let cfg = ExecutorConfig::new(u64::from(JACOBI_VIRTUAL), 2.0)
        .node_mtbf(60.0)
        .checkpoint_interval(5.0)
        .checkpoint_cost(0.5)
        .restart_cost(2.0)
        .seed(0);
    jacobi_run(storage, cfg)
}

fn states_fnv(report: &ExecutionReport<JacobiState>) -> u64 {
    fnv1a(&redcr_ckpt::to_bytes(&report.final_states).unwrap())
}

#[test]
fn jacobi_checkpoint_path_matches_its_capture_and_keeps_two_generations() {
    let storage = Arc::new(MemoryStorage::new());
    let report = jacobi_gate_run(&storage);
    assert_eq!(report.total_virtual_time.to_bits(), JACOBI_TOTAL_BITS);
    assert_eq!(report.attempts, 3);
    assert_eq!(report.failures, 2);
    assert_eq!(report.masked_failures, 7);
    assert_eq!(report.checkpoints_committed, 3);
    assert_eq!(report.physical_messages, 3626);
    assert_eq!(report.physical_bytes, 49_488);
    assert_eq!(states_fnv(&report), JACOBI_STATES_FNV);
    // Eleven generations were committed over the three attempts; the
    // newest two are left.
    let keys = storage.list().unwrap();
    assert!(keys.len() <= 2 * JACOBI_VIRTUAL as usize, "{} images kept: {keys:?}", keys.len());
    let newest = latest_complete(storage.as_ref(), JACOBI_VIRTUAL).unwrap().expect("a generation");
    assert_eq!(newest, 10);
    assert!(keys.iter().all(|k| k.seq + 1 >= newest), "{keys:?}");
}

#[test]
fn a_torn_newest_generation_resumes_from_the_one_before() {
    let storage = Arc::new(MemoryStorage::new());
    jacobi_gate_run(&storage);
    let newest = latest_complete(storage.as_ref(), JACOBI_VIRTUAL).unwrap().expect("a generation");
    storage.delete(SnapshotKey::new(newest, 1)).unwrap();
    assert_eq!(latest_complete(storage.as_ref(), JACOBI_VIRTUAL).unwrap(), Some(newest - 1));

    // A failure-free restart of the same job from what storage holds.
    let cfg = ExecutorConfig::new(u64::from(JACOBI_VIRTUAL), 2.0).tracing(true);
    let report = jacobi_run(&storage, cfg);
    let trace = report.trace.as_ref().expect("tracing was on");
    let restored: Vec<u64> = trace
        .events()
        .filter_map(|e| match e.kind {
            EventKind::Restore { seq, .. } => Some(seq),
            _ => None,
        })
        .collect();
    assert!(!restored.is_empty() && restored.iter().all(|&seq| seq == newest - 1), "{restored:?}");
    assert_eq!(states_fnv(&report), JACOBI_STATES_FNV, "the solve finishes as it did");
}
