//! Worker-count independence gate for the M:N rank scheduler.
//!
//! The scheduler (DESIGN.md §4e.1) multiplexes rank coroutines onto a
//! work-stealing pool; the pool's width is a host-side throughput knob
//! and **must not** be able to change a single virtual quantity. This
//! gate reruns the determinism-gate scenario with the worker count
//! pinned to 1 (pure event loop, no stealing possible), 2 (the smallest
//! pool where cross-worker wakes and steals exist), 3 (block placement
//! cuts through a sphere's neighbourhood: 16 tasks in blocks of 6/5/5),
//! 8 and 16 (one worker per virtual / per physical rank — maximally
//! oversubscribed relative to this host), and asserts the same pre-swap
//! pinned constants bit-for-bit — report totals AND the full trace FNV.
//!
//! A second test is a seeded steal storm: an oversubscribed CG run at a
//! worker count far above the host's cores, where tasks yield and park
//! constantly, compared bit-for-bit against the single-worker run of
//! the same scenario. No pinned constants there — the property is
//! pool-width invariance itself, on a scenario shaped to maximize
//! scheduler interleaving churn.
//!
//! A third test is placement invariance: the same r = 3 program run
//! through `ReplicatedWorld` (which homes the replicas of a virtual rank
//! on one worker) and through a bare `World` wrapped in `ReplicaComm`
//! by hand (no hint, so plain rank blocks) must agree bit-for-bit.

use std::sync::Arc;

use redcr::mpi::collectives::ReduceOp;
use redcr::mpi::trace::Collector;
use redcr::mpi::{Communicator, Sinks, Tag, World};
use redcr::red::{ReplicaComm, ReplicatedWorld, VirtualMap, VoteCost, VotingMode};
use redcr_apps::cg::CgConfig;
use redcr_core::apps::CgApp;
use redcr_core::{ExecutorConfig, ResilientExecutor};
use redcr_model::partition::RedundancyPartition;
use redcr_sweep::spec::fnv1a;

#[path = "common/gate.rs"]
mod gate;

#[test]
fn gate_is_bit_identical_at_every_pool_width() {
    for workers in [1usize, 2, 3, 8, 16] {
        let report = gate::run(gate::config().tracing(true).workers(workers));
        let what = format!("workers={workers}: pool width leaked");
        gate::assert_totals(&report, &what);
        gate::assert_trace(&report, &what);
    }
}

#[test]
fn steal_storm_matches_single_worker_bit_for_bit() {
    // 16 virtual ranks at r = 2 → 32 rank tasks on a 16-worker pool:
    // every worker juggles parked tasks, steals fire on every idle scan,
    // and cross-worker wakes dominate. Seeded failures keep the failover
    // and re-vote paths in play while the pool is churning.
    let run = |workers: usize| {
        let cfg = ExecutorConfig::new(16, 2.0)
            .node_mtbf(200.0)
            .checkpoint_interval(15.0)
            .checkpoint_cost(0.5)
            .restart_cost(2.0)
            .seed(2012)
            .tracing(true)
            .workers(workers);
        let app = CgApp::new(CgConfig::small(128), 24).with_step_pad(1.0);
        ResilientExecutor::new(cfg).run(&app).expect("steal-storm run")
    };
    let narrow = run(1);
    let wide = run(16);
    assert_eq!(narrow.total_virtual_time.to_bits(), wide.total_virtual_time.to_bits());
    assert_eq!(narrow.degraded_sphere_seconds.to_bits(), wide.degraded_sphere_seconds.to_bits());
    assert_eq!(narrow.attempts, wide.attempts);
    assert_eq!(narrow.masked_failures, wide.masked_failures);
    assert_eq!(narrow.checkpoints_committed, wide.checkpoints_committed);
    assert_eq!(narrow.physical_messages, wide.physical_messages);
    assert_eq!(narrow.physical_bytes, wide.physical_bytes);
    let (nt, wt) = (narrow.trace.expect("traced"), wide.trace.expect("traced"));
    let (nj, wj) = (nt.to_jsonl(), wt.to_jsonl());
    assert_eq!(
        fnv1a(nj.as_bytes()),
        fnv1a(wj.as_bytes()),
        "a 16-worker steal storm produced different trace bytes than one worker"
    );
}

/// Ring exchange plus an allreduce, forty times over: every virtual
/// message fans out r² = 9 physical copies and is voted on receipt.
fn ring_rounds(comm: &impl Communicator) -> redcr::mpi::Result<f64> {
    let (me, n) = (comm.rank(), comm.size());
    let mut acc = me.index() as f64;
    for round in 0..40u64 {
        comm.send_f64s(me.offset(1, n), Tag::new(round), &[acc])?;
        let (vals, _) = comm.recv_f64s(me.offset(-1, n).into(), Tag::new(round).into())?;
        acc = comm.allreduce_f64(&[vals[0] + 1.0], ReduceOp::Sum)?[0];
    }
    Ok(acc)
}

#[test]
fn virtual_rank_placement_hint_changes_no_bit() {
    // (virtual time bits, messages, bytes, per-rank results, trace FNV)
    type Outcome = (u64, u64, u64, Vec<u64>, u64);
    let bits = |rs: Vec<redcr::mpi::Result<f64>>| -> Vec<u64> {
        rs.into_iter().map(|r| r.expect("rank result").to_bits()).collect()
    };
    let hinted = |workers: usize| -> Outcome {
        let trace = Arc::new(Collector::new());
        let r = ReplicatedWorld::builder(8, 3.0)
            .expect("r = 3 is a valid degree")
            .obs(Sinks { trace: Some(Arc::clone(&trace)), ..Sinks::default() })
            .workers(workers)
            .run(|comm| ring_rounds(comm))
            .expect("hinted run");
        let fnv = fnv1a(trace.take().to_jsonl().as_bytes());
        (r.max_virtual_time.to_bits(), r.physical_messages, r.physical_bytes, bits(r.results), fnv)
    };
    let unhinted = |workers: usize| -> Outcome {
        let partition = RedundancyPartition::new(8, 3.0).expect("r = 3 is a valid degree");
        let vmap = Arc::new(VirtualMap::new(partition));
        let trace = Arc::new(Collector::new());
        let r = World::builder(vmap.n_physical())
            .obs(Sinks { trace: Some(Arc::clone(&trace)), ..Sinks::default() })
            .workers(workers)
            .run(|base| {
                let mode = VotingMode::default();
                ring_rounds(&ReplicaComm::new(base, vmap.clone(), mode, VoteCost::default()))
            })
            .expect("unhinted run");
        let fnv = fnv1a(trace.take().to_jsonl().as_bytes());
        (r.max_virtual_time.to_bits(), r.messages_sent, r.bytes_sent, bits(r.results), fnv)
    };
    let reference = hinted(1);
    assert!(reference.1 > 40 * 8 * 9, "scenario must replicate its traffic: {reference:?}");
    for workers in [2usize, 3, 8] {
        assert_eq!(hinted(workers), reference, "with the hint, workers={workers}");
        assert_eq!(unhinted(workers), reference, "without the hint, workers={workers}");
    }
}
