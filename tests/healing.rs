//! End-to-end self-healing acceptance: a 3× replicated CG run loses
//! replicas (3→2), the heartbeat detector flags them, the executor
//! respawns each from a surviving donor's checkpoint image and replays the
//! virtual map (2→3), and the run finishes bit-deterministically with the
//! trace analyzer reproducing every heal total exactly.

use redcr::red::HealPolicy;
use redcr_apps::cg::CgConfig;
use redcr_core::apps::CgApp;
use redcr_core::validation::ModelValidation;
use redcr_core::{ExecutionReport, ExecutorConfig, ResilientExecutor};
use redcr_sweep::spec::fnv1a;
use redcr_trace::{Analysis, EventKind};

mod common;

fn heal_cfg(policy: HealPolicy) -> ExecutorConfig {
    ExecutorConfig::new(4, 3.0)
        .node_mtbf(60.0)
        .checkpoint_interval(6.0)
        .checkpoint_cost(0.2)
        .restart_cost(1.0)
        .seed(0)
        .tracing(true)
        .heal_policy(policy)
        .heartbeat_period(0.5)
        .suspicion_timeout(0.5)
        .respawn_cost(0.5)
        .transfer_cost_per_byte(1e-4)
}

fn heal_run(policy: HealPolicy) -> ExecutionReport<redcr_apps::cg::CgState> {
    let app = CgApp::new(CgConfig::small(32), 20).with_step_pad(1.0);
    ResilientExecutor::new(heal_cfg(policy)).run(&app).expect("heal run")
}

#[test]
fn heals_3_to_2_to_3_and_returns_to_full_voting() {
    let report = heal_run(HealPolicy::OnDegrade);

    // The run really healed: replicas died, were respawned, and the job
    // completed without a single restart.
    assert_eq!(report.attempts, 1, "healing must avoid restarts here");
    assert_eq!(report.failures, 0);
    assert!(report.respawns >= 1, "a replica must have been respawned");
    assert!(report.heal_latency_seconds > 0.0);
    assert!(report.recovered_voting_seconds > 0.0);
    assert!(report.masked_failures >= report.respawns, "every healed death was masked");
    for state in &report.final_states {
        assert_eq!(state.iteration, 20);
    }

    // The trace narrates the full 3→2→3 cycle: a heartbeat miss, a respawn
    // begin/commit pair, and a rejoin that restores r = 3 voting.
    let trace = report.trace.as_ref().expect("tracing was on");
    let mut misses = 0u64;
    let mut begins = 0u64;
    let mut commits = 0u64;
    let mut rejoins = 0u64;
    for e in trace.events() {
        match &e.kind {
            EventKind::HeartbeatMiss { .. } => misses += 1,
            EventKind::RespawnBegin { .. } => begins += 1,
            EventKind::RespawnCommit { rel, latency, .. } => {
                assert!(*rel > 0.0 && *latency > 0.0);
                commits += 1;
            }
            EventKind::RejoinVote { copies, .. } => {
                assert_eq!(*copies, 3, "rejoin must restore full 3x voting");
                rejoins += 1;
            }
            _ => {}
        }
    }
    assert_eq!(misses, report.respawns);
    assert_eq!(begins, report.respawns);
    assert_eq!(commits, report.respawns);
    assert_eq!(rejoins, report.respawns);

    // Healed execution is transparent to the numerics: bitwise identical
    // to a failure-free unreplicated run.
    let clean = ResilientExecutor::new(ExecutorConfig::new(4, 1.0))
        .run(&CgApp::new(CgConfig::small(32), 20))
        .expect("clean run");
    for (a, b) in report.final_states.iter().zip(&clean.final_states) {
        assert_eq!(a.iteration, b.iteration);
        for (x, y) in a.x.iter().zip(&b.x) {
            assert_eq!(x.to_bits(), y.to_bits(), "bitwise identical despite healing");
        }
    }
}

#[test]
fn analyzer_reproduces_heal_totals_bit_for_bit() {
    let report = heal_run(HealPolicy::OnDegrade);
    let analysis = Analysis::analyze(report.trace.as_ref().unwrap()).expect("replay");
    let totals = analysis.totals();
    assert_eq!(totals.attempts, report.attempts);
    assert_eq!(totals.failures, report.failures);
    assert_eq!(totals.masked_failures, report.masked_failures);
    assert_eq!(totals.checkpoints_committed, report.checkpoints_committed);
    assert_eq!(totals.respawns, report.respawns);
    assert_eq!(
        totals.degraded_sphere_seconds.to_bits(),
        report.degraded_sphere_seconds.to_bits(),
        "degraded accounting must replay exactly"
    );
    assert_eq!(
        totals.heal_latency_seconds.to_bits(),
        report.heal_latency_seconds.to_bits(),
        "heal latency must replay exactly"
    );
    assert_eq!(
        totals.recovered_voting_seconds.to_bits(),
        report.recovered_voting_seconds.to_bits(),
        "recovered voting time must replay exactly"
    );
    // The heal stall the validation layer charges is visible in the replay.
    let stall: f64 = analysis.attempts.iter().map(|a| a.heal_stall_seconds).sum();
    assert!(stall > 0.0, "respawn+transfer stall must be measured");
}

#[test]
fn healing_run_is_bit_deterministic() {
    let a = heal_run(HealPolicy::OnDegrade);
    let b = heal_run(HealPolicy::OnDegrade);
    assert_eq!(a.total_virtual_time.to_bits(), b.total_virtual_time.to_bits());
    assert_eq!(a.degraded_sphere_seconds.to_bits(), b.degraded_sphere_seconds.to_bits());
    assert_eq!(a.heal_latency_seconds.to_bits(), b.heal_latency_seconds.to_bits());
    assert_eq!(a.recovered_voting_seconds.to_bits(), b.recovered_voting_seconds.to_bits());
    assert_eq!(a.respawns, b.respawns);
    let ja = a.trace.as_ref().unwrap().to_jsonl();
    let jb = b.trace.as_ref().unwrap().to_jsonl();
    assert_eq!(fnv1a(ja.as_bytes()), fnv1a(jb.as_bytes()), "trace FNV must repeat");
    assert_eq!(ja, jb);
}

#[test]
fn healed_run_is_strictly_less_degraded_than_never() {
    // Satellite regression: `degraded_sphere_seconds` stops accruing at the
    // heal commit, so a healed run must be strictly less degraded than the
    // same seed left to limp along under `Never`.
    let healed = heal_run(HealPolicy::OnDegrade);
    let never = heal_run(HealPolicy::Never);
    assert_eq!(never.respawns, 0);
    assert_eq!(never.heal_latency_seconds, 0.0);
    assert_eq!(never.recovered_voting_seconds, 0.0);
    assert!(healed.respawns > 0);
    assert!(
        healed.degraded_sphere_seconds < never.degraded_sphere_seconds,
        "healed {} must be strictly below never {}",
        healed.degraded_sphere_seconds,
        never.degraded_sphere_seconds
    );
}

#[test]
fn at_checkpoint_policy_heals_at_quiesce_points() {
    let report = heal_run(HealPolicy::AtCheckpoint);
    assert_eq!(report.attempts, 1);
    assert!(report.respawns >= 1, "AtCheckpoint must still heal this schedule");
    for state in &report.final_states {
        assert_eq!(state.iteration, 20);
    }
    // Deterministic too.
    let again = heal_run(HealPolicy::AtCheckpoint);
    assert_eq!(report.total_virtual_time.to_bits(), again.total_virtual_time.to_bits());
}

#[test]
fn healing_run_validates_against_repair_extended_model() {
    // The repair-extended Eqs. 9–14 chain covers healing runs: μ is
    // measured from the run and the predicted total stays within the
    // existing 20% validation gate.
    let report = heal_run(HealPolicy::OnDegrade);
    let v = ModelValidation::from_run(&heal_cfg(HealPolicy::OnDegrade), &report).expect("validate");
    assert_eq!(v.respawns, report.respawns);
    assert!(v.repair_rate > 0.0, "measured repair rate must be positive");
    assert!(v.heal_stall_seconds > 0.0);
    assert!(
        v.relative_error.abs() < 0.2,
        "repair-extended model off by {:+.1}% (predicted {:.3} vs observed {:.3})",
        v.relative_error * 100.0,
        v.predicted_total,
        v.observed_total
    );
    // The sidecar carries the heal block.
    let json = v.to_json();
    assert!(json.contains("\"respawns\""));
    assert!(json.contains("\"repair_rate\""));
    assert!(json.contains("\"heal_stall_seconds\""));
}

#[test]
fn failure_log_agrees_with_the_report_under_every_policy() {
    for policy in [HealPolicy::Never, HealPolicy::OnDegrade, HealPolicy::AtCheckpoint] {
        common::assert_failure_log_agrees(&format!("{policy:?}"), &heal_run(policy));
    }
}
