//! Shared by the suites that check a run's failure log against its report.

use redcr_core::ExecutionReport;
use redcr_trace::Analysis;

/// The failure log (`ExecutionReport::failure_trace`) must tell the same
/// story as the report's counters and the flight recorder's attempt
/// brackets: one `killed_job` event per failed attempt and none in the
/// completed one, nothing logged past its attempt's end, and every other
/// event either a masked death or one of the killer sphere's earlier
/// members (`|sphere| − 1` per failed attempt — the rule
/// `redcr_trace::heal::masked` states).
pub fn assert_failure_log_agrees<S>(what: &str, report: &ExecutionReport<S>) {
    let log = &report.failure_trace;
    let trace = report.trace.as_ref().expect("the run was traced");
    let analysis = Analysis::analyze(trace).expect("replay");
    assert_eq!(log.job_failures() as u64, report.failures, "{what}: job failures");

    let mut fatal_peers = 0u64;
    for a in &analysis.attempts {
        let events = || log.events().iter().filter(|e| e.attempt == a.attempt);
        let killers = events().filter(|e| e.killed_job).count();
        assert_eq!(killers, usize::from(!a.completed), "{what}: killers in attempt {}", a.attempt);
        for e in events() {
            assert!(
                e.time <= a.end,
                "{what}: attempt {} ends at {}, logged {e:?}",
                a.attempt,
                a.end
            );
        }
        if let Some(killer) = a.killer {
            fatal_peers += analysis.spheres[killer as usize].len() as u64 - 1;
        }
    }
    assert_eq!(analysis.attempts.len() as u64, report.attempts, "{what}: attempts");
    let others = log.events().iter().filter(|e| !e.killed_job).count() as u64;
    assert_eq!(others, report.masked_failures + fatal_peers, "{what}: non-killing events");
}
