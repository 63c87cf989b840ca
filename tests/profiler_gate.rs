//! Tier-1 gate for the dual-clock profiler.
//!
//! The wall-clock profiling plane must be *virtually invisible*: enabling
//! it may only add host-clock bookkeeping, never perturb a single virtual
//! quantity. This gate reruns the determinism-gate scenario (see
//! `tests/determinism_gate.rs`) with `profiling(true)` and asserts the
//! same pre-swap pinned constants bit-for-bit — report totals AND the
//! full trace FNV. Since the pins were captured with the profiler absent,
//! holding them with the profiler on proves both directions at once:
//! off is bit-identical to the seed, and on is bit-identical to off.
//!
//! The same file hosts the virtual-time side's acceptance checks: the
//! critical-path analyzer's total must replay the executor's
//! `total_virtual_time` bit-exactly from the trace alone, and the
//! profiler's overhead — the clock readings it makes — must stay bounded.

use redcr_apps::cg::{CgConfig, CgState};
use redcr_core::apps::CgApp;
use redcr_core::{ExecutionReport, ExecutorConfig, ResilientExecutor};
use redcr_mpi::prof::{CounterKey, SpanKey};
use redcr_trace::{Analysis, CriticalPath};

#[path = "common/fold.rs"]
mod fold;
#[path = "common/gate.rs"]
mod gate;

/// The determinism-gate scenario with the given sinks switched ON.
fn gate_run(tracing: bool, metrics: bool, profiling: bool) -> ExecutionReport<CgState> {
    gate::run(gate::config().tracing(tracing).metrics(metrics).profiling(profiling))
}

fn profiled_gate_run() -> ExecutionReport<CgState> {
    gate_run(true, false, true)
}

#[test]
fn profiler_on_keeps_every_pinned_virtual_quantity_bit_for_bit() {
    let report = profiled_gate_run();
    // A moved bit here means the wall-clock plane leaked into virtual time.
    gate::assert_totals(&report, "profiler on");
    gate::assert_trace(&report, "profiler on");

    // And the profiler actually measured something: it must not pass the
    // bit-identity gate by virtue of being disconnected.
    let prof = report.profile.as_ref().expect("profiling was on");
    let sends = prof.total_span(SpanKey::MailboxSend);
    let waits = prof.total_span(SpanKey::MailboxRecvWait);
    assert!(sends.count > 0, "no mailbox sends recorded: {sends:?}");
    assert!(waits.count > 0, "no recv waits recorded: {waits:?}");
    assert_eq!(prof.total_counter(CounterKey::Sends), sends.count);
    assert!(prof.total_span(SpanKey::ExecutorSegment).count > 0);
    assert!(prof.scope("driver").is_some(), "driver scope missing");
    assert!(prof.scope("rank0").is_some(), "rank shards not absorbed");
}

/// Coroutine stacks are measured, not estimated: in debug builds the
/// scheduler paints every stack and mirrors the deepest byte any task
/// wrote into its worker shards as a peak.
#[cfg(debug_assertions)]
#[test]
fn the_gate_scenario_uses_under_half_the_default_stack() {
    let report = profiled_gate_run();
    let prof = report.profile.as_ref().expect("profiling was on");
    let high_water = prof.total_counter(CounterKey::StackHighWater);
    let half = redcr_sched::DEFAULT_STACK_BYTES as u64 / 2;
    assert!(high_water > 0, "the stack probe measured nothing");
    assert!(high_water < half, "stack high-water {high_water} B reaches half the default");
}

#[test]
fn profiler_off_report_carries_no_profile() {
    // The default config must not even allocate the profiling plane.
    let cfg = ExecutorConfig::new(4, 1.0).node_mtbf(1e12).seed(3);
    let app = CgApp::new(CgConfig::small(64), 5);
    let report = ResilientExecutor::new(cfg).run(&app).expect("plain run");
    assert!(report.profile.is_none(), "profile present without profiling(true)");
}

#[test]
fn all_sinks_on_reproduce_the_pinned_run_and_all_off_record_nothing() {
    use redcr_mpi::metrics::{CounterKey as MetricKey, GaugeKey, HistKey};

    let off = gate_run(false, false, false);
    assert!(off.trace.is_none() && off.metrics.is_none() && off.profile.is_none());
    let on = gate_run(true, true, true);
    gate::assert_totals(&off, "all sinks off");
    gate::assert_totals(&on, "all sinks on");
    gate::assert_trace(&on, "all sinks on");

    // Every metrics total of this scenario, captured with the three
    // per-layer hooks this handle replaced (`MetricKey::ALL` order).
    let totals = &on.metrics.as_ref().expect("metrics were on").totals;
    let counters = MetricKey::ALL.map(|k| totals.counter(k));
    assert_eq!(counters, [7911, 7911, 2_353_184, 2_353_184, 3, 4304, 0, 42, 0, 1, 0, 3, 0, 0]);
    let observations = HistKey::ALL.map(|k| totals.histogram(k).count());
    assert_eq!(observations, [7911, 7911, 4304, 42, 3, 0], "{:?}", HistKey::ALL.map(HistKey::name));
    // What each histogram summed and the last rank's clock, bit for bit:
    // a count can hold while every value behind it moved. These repeat at
    // one, two and three workers.
    let sums = HistKey::ALL.map(|k| totals.histogram(k).sum().to_bits());
    let pinned = [
        0x3f65_70e8_d3f8_d800, // message latency
        0x4141_f410_0000_0000, // payload size: 2 353 184 B
        0x3f8c_52b4_7194_9881, // vote latency
        0x4035_0018_e64d_48f9, // commit latency
        0x4052_76e3_bd7a_12a0, // degraded intervals: the report's degraded seconds
        0,                     // heal latency: nothing healed
    ];
    assert_eq!(sums, pinned, "{sums:#018x?}");
    let clock = totals.gauge(GaugeKey::VirtualTime).map(f64::to_bits);
    assert_eq!(clock, Some(0x4044_c01f_a3bc_e69a), "the run's total virtual time");

    // The profile's counts of virtual events are exact too; how often a
    // wait parked is the host's business, that every matched wait was
    // classified is not.
    let prof = on.profile.as_ref().expect("profiling was on");
    assert_eq!(prof.total_counter(CounterKey::Sends), 7911);
    assert_eq!(prof.total_counter(CounterKey::Recvs), 7911);
    assert_eq!(
        prof.total_counter(CounterKey::SpinResolved) + prof.total_counter(CounterKey::ParkResolved),
        7911
    );
    assert_eq!(prof.total_counter(CounterKey::Parks), prof.total_span(SpanKey::MailboxPark).count);
    assert_eq!(prof.total_span(SpanKey::Vote).count, 4304);
    assert_eq!(prof.total_span(SpanKey::CheckpointCommit).count, 42);
    let sidecar = prof.to_json("gate");
    for key in CounterKey::ALL {
        assert!(sidecar.contains(&format!("\"{}\"", key.name())), "{} missing", key.name());
    }
}

#[test]
fn the_metrics_plane_is_a_fold_over_the_trace() {
    fold::assert_metrics_fold_the_trace("all sinks on", &gate_run(true, true, true));
}

#[test]
fn critical_path_replays_report_total_bit_for_bit() {
    let report = profiled_gate_run();
    let analysis =
        Analysis::analyze(report.trace.as_ref().expect("tracing on")).expect("trace replays");
    let path = CriticalPath::analyze(&analysis);

    // Acceptance criterion: the analyzer's total is the executor's total,
    // bit-for-bit, reconstructed from trace events alone.
    assert_eq!(
        path.total_virtual_time.to_bits(),
        report.total_virtual_time.to_bits(),
        "critical-path total diverged from ExecutionReport::total_virtual_time"
    );

    // The path telescopes: contiguous steps from attempt start to end, so
    // the blame categories partition the attempt's whole makespan.
    let attempt = path.attempts.last().expect("one attempt");
    assert!(attempt.completed);
    let steps = &attempt.steps;
    assert!(!steps.is_empty());
    for pair in steps.windows(2) {
        assert_eq!(
            pair[0].to_time.to_bits(),
            pair[1].from_time.to_bits(),
            "critical path has a gap: {pair:?}"
        );
    }
    let span = steps.last().unwrap().to_time - steps[0].from_time;
    let blame_sum: f64 = attempt.path_blame().iter().sum();
    assert!(
        (blame_sum - span).abs() <= 1e-9 * span.max(1.0),
        "blame categories ({blame_sum}) do not partition the path span ({span})"
    );
    assert!(
        (span - attempt.rel_end).abs() <= 1e-9 * attempt.rel_end.max(1.0),
        "path span ({span}) != executor rel_end ({})",
        attempt.rel_end
    );

    // The derived α is a proper fraction and agrees with the per-rank
    // partition it is defined over.
    let alpha = path.blame_alpha().expect("completed attempt has α");
    assert!((0.0..=1.0).contains(&alpha), "α out of range: {alpha}");
    assert!(alpha > 0.0, "CG with live failures cannot have zero blocked time");
}

#[test]
fn profiler_overhead_is_bounded() {
    use redcr_mpi::metrics::CounterKey as MetricKey;

    // What the profiler costs a run is the clock readings it makes — an
    // untimed span entry is a compare and an increment — and unlike a
    // wall-clock ratio that is a count: it repeats exactly, on any runner
    // under any load. A failure-free solve on one worker, long enough that
    // the always-timed heads (64 entries a key a shard) are a small share.
    let run = |observed: bool| {
        let cfg = ExecutorConfig::new(4, 2.0)
            .node_mtbf(1e12)
            .seed(11)
            .workers(1)
            .metrics(observed)
            .profiling(observed);
        let app = CgApp::new(CgConfig::small(64), 600);
        ResilientExecutor::new(cfg).run(&app).expect("overhead run")
    };
    let plain = run(false);
    let (first, second) = (run(true), run(true));
    assert_eq!(
        plain.total_virtual_time.to_bits(),
        first.total_virtual_time.to_bits(),
        "overhead scenario not bit-identical"
    );

    let prof = first.profile.as_ref().expect("profiling was on");
    let all = SpanKey::ALL.map(|k| prof.total_span(k));
    let spans: u64 = all.iter().map(|s| s.count).sum();
    let timed: u64 = all.iter().map(|s| s.timed).sum();
    assert!(spans >= 100_000, "too few spans to amortize the heads: {spans}");
    assert!(2 * timed <= spans / 6, "{timed} of {spans} spans timed, two readings each");
    // A kept track sample is the only other thing that reads the clock
    // (no track fills here, so every stamped sample is still in its track).
    let tracks = prof.counter_tracks();
    assert!(tracks.iter().all(|t| t.samples.len() < 8192), "a track filled and was halved");
    let samples: usize = tracks.iter().map(|t| t.samples.len()).sum();
    assert_eq!(prof.clock_reads(), 2 * timed + samples as u64, "an unaccounted clock reading");

    // Sampling estimates durations, never counts: every entry is counted.
    let totals = &first.metrics.as_ref().expect("metrics were on").totals;
    assert_eq!(prof.total_span(SpanKey::MailboxSend).count, totals.counter(MetricKey::Sends));
    assert_eq!(prof.total_span(SpanKey::MailboxRecvWait).count, totals.counter(MetricKey::Recvs));
    assert_eq!(prof.total_span(SpanKey::Vote).count, totals.counter(MetricKey::Votes));
    assert_eq!(prof.total_span(SpanKey::MailboxPark).count, prof.total_counter(CounterKey::Parks));
    let segment = prof.total_span(SpanKey::ExecutorSegment);
    assert_eq!(
        (segment.count, segment.timed, segment.stderr_ns),
        (1, 1, 0.0),
        "rare spans are exact"
    );

    // The timed set is a function of scope, key and entry index, and one
    // worker runs the ranks in one order: a second run times the same
    // entries of every key on every scope, and reads the clock as often.
    let again = second.profile.as_ref().expect("profiling was on");
    for (a, b) in prof.scopes().iter().zip(again.scopes()) {
        assert_eq!(a.label(), b.label());
        assert_eq!(a.clock_reads(), b.clock_reads(), "{}", a.label());
        for key in SpanKey::ALL {
            let (x, y) = (a.span(key), b.span(key));
            assert_eq!((x.count, x.timed), (y.count, y.timed), "{} {}", a.label(), key.name());
        }
    }
}
