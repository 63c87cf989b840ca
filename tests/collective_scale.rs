//! The many-rank collective path, pinned bit for bit.
//!
//! A 128-rank CG solve at r = 2 (256 physical ranks) spends its messages
//! in the per-step allgather: every rank receives the whole framed search
//! direction and runs its matvec over it in place. How that frame is laid
//! out and read is host-side work only. This gate pins what it must leave
//! alone — message count, wire bytes, total virtual time, the final states
//! and the flight recorder's JSONL — so a change to the unpacking that
//! moved any of them fails here. CI runs it at one worker, at the host's
//! width and at three.
//!
//! The constants were captured while `allgather` still returned one
//! `Bytes` per part, and hold unchanged with the borrowed-view return and
//! with the header-first frame that CG reads without a copy.

use redcr_apps::cg::{CgConfig, CgState};
use redcr_core::apps::CgApp;
use redcr_core::{ExecutionReport, ExecutorConfig, ResilientExecutor};
use redcr_sweep::spec::fnv1a;

fn scale_run() -> ExecutionReport<CgState> {
    let cfg = ExecutorConfig::new(128, 2.0)
        .node_mtbf(1e12)
        .checkpoint_interval(10.0)
        .checkpoint_cost(0.5)
        .restart_cost(2.0)
        .seed(2012)
        .tracing(true);
    let app = CgApp::new(CgConfig { seed: 2012, ..CgConfig::small(1024) }, 8);
    ResilientExecutor::new(cfg).run(&app).expect("scale run")
}

const MESSAGES: u64 = 32_512;
const BYTES: u64 = 37_941_504;
const TOTAL_BITS: u64 = 0x3f58_ac7c_d3c3_bed4;
const STATES_FNV: u64 = 0x30ea_b3ea_476f_9c0e;
const TRACE_EVENTS: usize = 82_050;
const TRACE_FNV: u64 = 0xefc4_60e5_016c_b3ba;

#[test]
fn a_128_rank_solve_matches_its_capture_bit_for_bit() {
    let report = scale_run();
    assert_eq!(report.attempts, 1);
    assert_eq!(report.failures, 0);
    assert_eq!(report.physical_messages, MESSAGES);
    assert_eq!(report.physical_bytes, BYTES);
    assert_eq!(report.total_virtual_time.to_bits(), TOTAL_BITS);
    assert_eq!(fnv1a(&redcr_ckpt::to_bytes(&report.final_states).unwrap()), STATES_FNV);
    let trace = report.trace.as_ref().expect("tracing was on");
    assert_eq!(trace.len(), TRACE_EVENTS);
    assert_eq!(fnv1a(trace.to_jsonl().as_bytes()), TRACE_FNV);
}
