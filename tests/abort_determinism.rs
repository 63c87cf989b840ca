//! Tier-1 gate: the restart (abort) path is bit-deterministic on *both*
//! execution backends.
//!
//! Historically the abort edge was physically timed: the world-abort flag
//! is raised at a wall-clock instant (whichever rank escalates
//! `SphereDead` first), and running ranks polled it in `check_abort`, so
//! each stopped after a host-timing-dependent number of sends — physical
//! message counts on `cg_resilient` varied run-to-run under
//! `REDCR_EXEC=threads`. The fix removes the poll from running ranks
//! entirely and lets parked ranks observe the abort only once it is
//! *final*: the scheduler finds the batch stalled (every unfinished rank
//! parked, no wake committed, so no rank can ever push again; the stall
//! rule in `redcr-sched`, read by `redcr_mpi::mailbox`). That makes the
//! final mailbox state — and therefore every physical counter — a pure
//! function of virtual time.
//!
//! This test pins exactly the `cg_resilient` example scenario (restarts
//! included) and requires bit-identical reports across repeated runs on
//! the coroutine backend, the threads backend, and *between* the two.

use redcr::apps::cg::CgConfig;
use redcr::core::apps::CgApp;
use redcr::core::{ExecutorConfig, ResilientExecutor};

/// A run's complete observable fingerprint. Everything is compared
/// bit-exactly (f64s via `to_bits`).
#[derive(Debug, PartialEq)]
struct Fingerprint {
    attempts: u64,
    failures: u64,
    physical_messages: u64,
    physical_bytes: u64,
    total_virtual_time_bits: u64,
    final_iteration: u64,
    final_residual_bits: u64,
}

fn run_cg_resilient() -> Fingerprint {
    // Must stay in lock-step with examples/cg_resilient.rs: the satellite
    // contract is that *that* scenario is bit-exact on both backends.
    let app = CgApp::new(CgConfig::small(512), 60).with_step_pad(1.0);
    let config = ExecutorConfig::new(8, 2.0)
        .node_mtbf(90.0)
        .checkpoint_interval(10.0)
        .checkpoint_cost(0.5)
        .restart_cost(2.0)
        .seed(2012)
        .metrics(true);
    let report = ResilientExecutor::new(config).run(&app).expect("cg_resilient scenario runs");
    let state = &report.final_states[0];
    Fingerprint {
        attempts: report.attempts,
        failures: report.failures,
        physical_messages: report.physical_messages,
        physical_bytes: report.physical_bytes,
        total_virtual_time_bits: report.total_virtual_time.to_bits(),
        final_iteration: state.iteration,
        final_residual_bits: state.residual_norm().to_bits(),
    }
}

#[test]
fn cg_resilient_is_bit_identical_on_both_backends() {
    // Single #[test] on purpose: REDCR_EXEC is process-global, so the
    // backend switch must not race a concurrently running test.
    let saved = std::env::var("REDCR_EXEC").ok();

    std::env::remove_var("REDCR_EXEC");
    let coroutine_a = run_cg_resilient();
    let coroutine_b = run_cg_resilient();
    assert_eq!(
        coroutine_a, coroutine_b,
        "coroutine backend: repeated runs of cg_resilient diverged"
    );
    assert!(
        coroutine_a.failures > 0 && coroutine_a.attempts > 1,
        "scenario must exercise the restart (abort) path to gate it: {coroutine_a:?}"
    );

    std::env::set_var("REDCR_EXEC", "threads");
    let threads_a = run_cg_resilient();
    let threads_b = run_cg_resilient();
    match saved {
        Some(v) => std::env::set_var("REDCR_EXEC", v),
        None => std::env::remove_var("REDCR_EXEC"),
    }
    assert_eq!(threads_a, threads_b, "threads backend: repeated runs of cg_resilient diverged");

    // The backends must agree with each other, not merely each be
    // self-consistent: the simulation result is a function of virtual
    // time alone, never of how tasks are multiplexed onto the host.
    assert_eq!(coroutine_a, threads_a, "coroutine and threads backends diverged");
}
