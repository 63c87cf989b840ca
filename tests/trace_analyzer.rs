//! Flight-recorder integration tests through the `redcr` facade: a seeded
//! storm run's trace, replayed by the analyzer, must reproduce the
//! `ExecutionReport` counters **exactly** — including the floating-point
//! degraded-sphere total — and survive a JSONL round trip unchanged.

use redcr::apps::cg::CgConfig;
use redcr::core::apps::CgApp;
use redcr::core::{ExecutorConfig, ResilientExecutor};
use redcr::mpi::CostModel;
use redcr::red::HealPolicy;
use redcr::trace::critical::fifo_pairs;
use redcr::trace::{Analysis, CriticalPath, EventKind, Trace};

mod common;

fn cg_app(n: usize, iterations: u64, pad: f64) -> CgApp {
    CgApp::new(CgConfig::small(n), iterations).with_step_pad(pad)
}

/// A 2x run under harsh MTBF: several restarts, several masked deaths.
fn storm_config() -> ExecutorConfig {
    ExecutorConfig::new(4, 2.0)
        .node_mtbf(25.0)
        .checkpoint_interval(4.0)
        .checkpoint_cost(0.1)
        .restart_cost(0.5)
        .seed(8)
        .tracing(true)
}

#[test]
fn analyzer_totals_match_execution_report_exactly() {
    let report = ResilientExecutor::new(storm_config()).run(&cg_app(32, 30, 1.0)).unwrap();
    assert!(report.failures > 0, "storm run must see failures: {report}");
    assert!(report.masked_failures > 0, "storm run must mask deaths: {report}");
    let trace = report.trace.as_ref().expect("tracing was enabled");
    assert!(!trace.is_empty());

    let analysis = Analysis::analyze(trace).unwrap();
    let totals = analysis.totals();
    // Exact equality, not approximate: the analyzer replays the executor's
    // own accounting from the recorded relative times, in the same order.
    assert_eq!(totals.attempts, report.attempts);
    assert_eq!(totals.failures, report.failures);
    assert_eq!(totals.masked_failures, report.masked_failures);
    assert_eq!(totals.checkpoints_committed, report.checkpoints_committed);
    assert_eq!(
        totals.degraded_sphere_seconds.to_bits(),
        report.degraded_sphere_seconds.to_bits(),
        "degraded time must match bit-for-bit: trace {} vs report {}",
        totals.degraded_sphere_seconds,
        report.degraded_sphere_seconds
    );

    // Send events are recorded at the same site as the physical counters.
    let sends: Vec<redcr::trace::Event> =
        trace.events().filter(|e| matches!(e.kind, EventKind::Send { .. })).collect();
    assert_eq!(sends.len() as u64, report.physical_messages);
    let bytes: u64 = sends
        .iter()
        .map(|e| match e.kind {
            EventKind::Send { bytes, .. } => bytes,
            _ => unreachable!(),
        })
        .sum();
    assert_eq!(bytes, report.physical_bytes);

    // Votes are recorded alongside the replication statistics, but a rank
    // that fail-stops loses its stats snapshot (the closure returns `Err`)
    // while its recorder is still drained at teardown — so the trace sees
    // at least as many votes as the surviving ranks' aggregate.
    let votes: u64 = analysis.attempts.iter().map(|a| a.votes).sum();
    assert!(
        votes >= report.replication.votes,
        "trace votes {votes} < stats votes {}",
        report.replication.votes
    );

    // Structural sanity of the per-attempt summaries.
    assert_eq!(analysis.spheres.len(), 4);
    assert!(analysis.spheres.iter().all(|s| s.len() == 2), "2x: two replicas per sphere");
    let last = analysis.attempts.last().unwrap();
    assert!(last.completed, "the final attempt completed");
    for a in &analysis.attempts {
        for &(_, alpha) in &a.alphas {
            assert!((0.0..=1.0).contains(&alpha), "alpha out of range: {alpha}");
        }
        for &l in &a.commit_latencies {
            assert!(l >= 0.0, "negative commit latency: {l}");
        }
        assert!(a.end >= a.start);
    }
    // Some failed attempt must have restored from a checkpoint or lost
    // work from scratch; either way lost_work is positive for failures.
    for a in analysis.attempts.iter().filter(|a| !a.completed) {
        assert!(a.lost_work > 0.0, "a failed attempt loses work");
    }
}

#[test]
fn failure_free_trace_matches_stats_exactly() {
    // Without deaths every rank's stats snapshot survives, so the trace's
    // vote count equals the replication aggregate exactly.
    let cfg = ExecutorConfig::new(4, 2.0).tracing(true);
    let report = ResilientExecutor::new(cfg).run(&cg_app(32, 10, 0.0)).unwrap();
    let trace = report.trace.as_ref().unwrap();
    let analysis = Analysis::analyze(trace).unwrap();
    assert_eq!(analysis.attempts.len(), 1);
    let votes: u64 = analysis.attempts.iter().map(|a| a.votes).sum();
    assert_eq!(votes, report.replication.votes);
    let totals = analysis.totals();
    assert_eq!(totals.attempts, 1);
    assert_eq!(totals.failures, 0);
    assert_eq!(totals.masked_failures, 0);
    assert_eq!(totals.degraded_sphere_seconds, 0.0);
}

/// A trace is absorbed rank by rank, so every message from a higher rank
/// to a lower one has its receive *before* its send in collection order.
/// The critical-path analyzer used to pair in that order and so missed
/// each of them — 1 120 of this run's 2 240 receives, all with
/// `from > to`.
#[test]
fn critical_path_pairs_every_receive_and_crosses_in_both_rank_directions() {
    let cfg = ExecutorConfig::new(8, 1.0).tracing(true).seed(1);
    let report = ResilientExecutor::new(cfg).run(&cg_app(64, 40, 0.0)).unwrap();
    let trace = report.trace.as_ref().unwrap();
    let analysis = Analysis::analyze(trace).unwrap();
    let [attempt] = &analysis.attempts[..] else { panic!("failure-free: one attempt") };

    let receives =
        attempt.events.iter().filter(|e| matches!(e.kind, EventKind::Recv { .. })).count();
    let pairs = fifo_pairs(&attempt.events);
    assert_eq!(receives, 2_240);
    assert_eq!(pairs.len(), receives, "every send is one pair");
    let mut downhill = 0;
    for &(send, recv) in &pairs {
        let (tx, rx) = (&attempt.events[send], &attempt.events[recv.expect("a matched send")]);
        assert!(tx.time <= rx.time, "{tx:?} -> {rx:?}");
        let (EventKind::Send { to, bytes }, EventKind::Recv { from, bytes: got }) =
            (&tx.kind, &rx.kind)
        else {
            panic!("{tx:?} -> {rx:?}");
        };
        assert_eq!((tx.rank, Some(*to), bytes), (Some(*from), rx.rank, got));
        downhill += usize::from(from > to && recv < Some(send));
    }
    assert_eq!(downhill, receives / 2, "receives collected ahead of their sends");

    let path = CriticalPath::analyze(&analysis);
    assert_eq!(path.total_virtual_time.to_bits(), report.total_virtual_time.to_bits());
    let steps = &path.attempts[0].steps;
    // A cross step ends on the receiver; the step before it ends on the sender.
    let crossings: Vec<(u32, u32)> = steps
        .windows(2)
        .filter(|w| w[1].cross)
        .map(|w| (w[0].rank.unwrap(), w[1].rank.unwrap()))
        .collect();
    assert!(crossings.iter().any(|(from, to)| from < to), "{crossings:?}");
    assert!(crossings.iter().any(|(from, to)| from > to), "{crossings:?}");
    for w in steps.windows(2) {
        assert_eq!(w[0].to_time.to_bits(), w[1].from_time.to_bits(), "the path telescopes");
    }
}

#[test]
fn jsonl_round_trip_preserves_trace_and_totals() {
    let report = ResilientExecutor::new(storm_config()).run(&cg_app(32, 30, 1.0)).unwrap();
    let trace = report.trace.expect("tracing was enabled");

    let jsonl = trace.to_jsonl();
    assert!(jsonl.lines().count() == trace.len());
    let parsed = Trace::from_jsonl(&jsonl).unwrap();
    assert_eq!(parsed, trace, "JSONL round trip must be lossless");

    let a = Analysis::analyze(&parsed).unwrap();
    let totals = a.totals();
    assert_eq!(totals.attempts, report.attempts);
    assert_eq!(totals.masked_failures, report.masked_failures);
    assert_eq!(totals.degraded_sphere_seconds.to_bits(), report.degraded_sphere_seconds.to_bits());
}

#[test]
fn multi_attempt_trace_is_byte_identical_across_runs_on_two_workers() {
    // The `flight_recorder` example's scenario: restarts that read stored
    // images back, on a pool wide enough for the replicas of a sphere to
    // race on their shared key. The pinned gates are single-attempt, so
    // this is the run that notices a stored image depending on the host's
    // schedule (it did: `restore.cut` carried the last writer's clock).
    let run = || {
        let config = ExecutorConfig::new(8, 2.0)
            .node_mtbf(90.0)
            .checkpoint_interval(10.0)
            .checkpoint_cost(0.5)
            .restart_cost(2.0)
            .seed(2012)
            .comm_cost(CostModel::infiniband_qdr())
            .tracing(true)
            .workers(2);
        let report = ResilientExecutor::new(config).run(&cg_app(512, 60, 1.0)).unwrap();
        assert!(report.attempts > 1, "the scenario must restart: {report}");
        report.trace.expect("tracing was enabled").to_jsonl()
    };
    let first = run();
    assert!(first.contains("\"restore\""), "a restart must restore a stored image");
    for again in 1..5 {
        assert!(run() == first, "run {again} differs from run 0");
    }
}

#[test]
fn tracing_disabled_leaves_no_trace_and_costs_nothing() {
    let cfg = ExecutorConfig::new(4, 2.0)
        .node_mtbf(25.0)
        .checkpoint_interval(4.0)
        .checkpoint_cost(0.1)
        .restart_cost(0.5)
        .seed(8);
    let plain = ResilientExecutor::new(cfg).run(&cg_app(32, 30, 1.0)).unwrap();
    assert!(plain.trace.is_none());

    // Recording must not perturb the virtual-time simulation.
    let traced = ResilientExecutor::new(storm_config()).run(&cg_app(32, 30, 1.0)).unwrap();
    assert_eq!(plain.total_virtual_time.to_bits(), traced.total_virtual_time.to_bits());
    assert_eq!(plain.attempts, traced.attempts);
    assert_eq!(plain.masked_failures, traced.masked_failures);
    assert_eq!(plain.checkpoints_committed, traced.checkpoints_committed);
}

#[test]
fn masked_failures_count_the_deaths_beside_a_later_attempts_killer() {
    // Seed 0 restarts twice. Its second attempt starts at
    // 14.300148947999988 and injects rank 7 at rel 8.787396831599551 — the
    // death that kills sphere 3 = {3, 7} — after ranks 2 and 4 died masked.
    // Forming the failure time as `(start + d) − start` lands one ulp below
    // `d`, drops the killer from `d <= rel_failure`, counts one masked
    // death there instead of two, and reported 6 where the failure log
    // shows 7.
    let report = ResilientExecutor::new(storm_config().seed(0)).run(&cg_app(32, 30, 1.0)).unwrap();
    assert_eq!((report.attempts, report.failures), (3, 2));
    assert_eq!(report.masked_failures, 7);
    let analysis = Analysis::analyze(report.trace.as_ref().unwrap()).unwrap();
    assert_eq!(analysis.totals().masked_failures, 7);
    let second = &analysis.attempts[1];
    assert_eq!(second.start, 14.300148947999988);
    assert_eq!((second.killer, second.rel_failure), (Some(3), 8.787396831599551));
    assert_eq!(second.masked, 2);
}

#[test]
fn rel_failure_is_the_killing_deaths_own_relative_time() {
    // Over forty storm schedules, every failed attempt's bracket carries,
    // bit for bit, the `Injected.rel` of a member of its killer sphere —
    // also in attempts that do not start at 0, where a round trip through
    // absolute time would be off by an ulp half the time.
    let (mut failed, mut restarted_late) = (0, 0);
    for seed in 0..40 {
        let report =
            ResilientExecutor::new(storm_config().seed(seed)).run(&cg_app(32, 30, 1.0)).unwrap();
        let analysis = Analysis::analyze(report.trace.as_ref().unwrap()).unwrap();
        for a in analysis.attempts.iter().filter(|a| !a.completed) {
            let members =
                &analysis.spheres[a.killer.expect("a failed attempt names its killer") as usize];
            assert!(
                a.injected.iter().any(|&(rank, rel)| {
                    members.contains(&rank) && rel.to_bits() == a.rel_failure.to_bits()
                }),
                "seed {seed} attempt {}: rel_failure {:?} is no death of sphere {members:?}: {:?}",
                a.attempt,
                a.rel_failure,
                a.injected
            );
            failed += 1;
            restarted_late += usize::from(a.start > 0.0);
        }
    }
    assert!(failed >= 40 && restarted_late >= 10, "{failed} failed, {restarted_late} of them late");
}

#[test]
fn failure_log_agrees_with_the_report_across_storm_seeds() {
    for seed in 0..10 {
        let never = storm_config().seed(seed);
        let healing = never.clone().heal_policy(HealPolicy::OnDegrade);
        for (what, cfg) in [("never", never), ("on-degrade", healing)] {
            let report = ResilientExecutor::new(cfg).run(&cg_app(32, 30, 1.0)).unwrap();
            common::assert_failure_log_agrees(&format!("{what} seed {seed}"), &report);
        }
    }
}
