//! Metrics-plane acceptance tests through the `redcr` facade:
//!
//! * toggling [`ExecutorConfig::metrics`] must leave every
//!   `ExecutionReport` total **bit-identical** — the metrics plane reads
//!   virtual clocks, it never advances one (since abort finality landed,
//!   this includes the physical traffic counters: the abort edge is a
//!   pure function of virtual time);
//! * the virtual-time scraper's counter series must be monotone
//!   non-decreasing with its final sample equal to the drained totals,
//!   and bit for bit the series pinned in `SERIES_GOLDENS`;
//! * the metrics of a traced storm and heal run must be their events
//!   folded (`common/fold.rs`), but for the four values no event carries;
//! * a traced storm run must export valid Perfetto JSON (one track per
//!   physical rank, at least one matched send/recv flow pair);
//! * the validation sidecar's per-rank α must match the trace analyzer's
//!   derivation exactly (same bits).

use redcr::apps::cg::CgConfig;
use redcr::core::apps::CgApp;
use redcr::core::{ExecutorConfig, ModelValidation, ResilientExecutor};
use redcr::metrics::{CounterKey, HistKey};
use redcr::sweep::spec::fnv1a;
use redcr::trace::{perfetto, Analysis};

#[path = "common/fold.rs"]
mod fold;

fn cg_app(n: usize, iterations: u64, pad: f64) -> CgApp {
    CgApp::new(CgConfig::small(n), iterations).with_step_pad(pad)
}

/// The trace_analyzer storm: 2x redundancy under a harsh MTBF — restarts,
/// masked deaths, checkpoints, the lot.
fn storm_config() -> ExecutorConfig {
    ExecutorConfig::new(4, 2.0)
        .node_mtbf(25.0)
        .checkpoint_interval(4.0)
        .checkpoint_cost(0.1)
        .restart_cost(0.5)
        .seed(8)
}

#[test]
fn metrics_toggle_leaves_report_totals_bit_identical() {
    let app = cg_app(32, 30, 1.0);
    let off = ResilientExecutor::new(storm_config()).run(&app).unwrap();
    let on = ResilientExecutor::new(storm_config().metrics(true)).run(&app).unwrap();

    assert!(off.metrics.is_none());
    assert!(on.metrics.is_some());
    assert!(on.failures > 0, "storm run must see failures");

    assert_eq!(on.total_virtual_time.to_bits(), off.total_virtual_time.to_bits());
    assert_eq!(on.degraded_sphere_seconds.to_bits(), off.degraded_sphere_seconds.to_bits());
    assert_eq!(on.node_seconds.to_bits(), off.node_seconds.to_bits());
    assert_eq!(on.attempts, off.attempts);
    assert_eq!(on.failures, off.failures);
    assert_eq!(on.masked_failures, off.masked_failures);
    assert_eq!(on.checkpoints_committed, off.checkpoints_committed);
    assert_eq!(on.replication.votes, off.replication.votes);

    // The physical traffic counters used to get a restart-scaled slack
    // here: the abort edge was physically timed (running ranks polled the
    // abort flag in wall-clock time), so each surviving rank completed a
    // few more or fewer sends before stopping. Abort finality (a parked
    // receive sees the abort only once the scheduler finds the batch
    // stalled, see `redcr_mpi::mailbox`) made the abort edge a pure
    // function of virtual time, so these are exact now too.
    assert_eq!(on.physical_messages, off.physical_messages);
    assert_eq!(on.physical_bytes, off.physical_bytes);
}

#[test]
fn metrics_totals_agree_with_report_counters() {
    let report =
        ResilientExecutor::new(storm_config().metrics(true)).run(&cg_app(32, 30, 1.0)).unwrap();
    let m = report.metrics.as_ref().unwrap();
    let t = &m.totals;
    assert_eq!(t.counter(CounterKey::Sends), report.physical_messages);
    assert_eq!(t.counter(CounterKey::BytesSent), report.physical_bytes);
    // Replication stats drop the snapshots of ranks that died mid-attempt;
    // the metrics shard is drained at teardown regardless, so it sees at
    // least as many votes.
    assert!(t.counter(CounterKey::Votes) >= report.replication.votes);
    assert_eq!(t.counter(CounterKey::Attempts), report.attempts);
    assert_eq!(t.counter(CounterKey::Restarts), report.failures);
    assert_eq!(t.counter(CounterKey::MaskedFailures), report.masked_failures);
    assert!(t.counter(CounterKey::CheckpointCommits) > 0);
    assert_eq!(
        t.histogram(HistKey::MessageLatency).count(),
        t.counter(CounterKey::Recvs),
        "every receive observes one latency"
    );
    // Per-rank counters decompose the totals.
    let per_rank_sends: u64 = m.per_rank_counter(CounterKey::Sends).iter().map(|&(_, v)| v).sum();
    assert_eq!(per_rank_sends, report.physical_messages);
}

/// The storm at five `(scrape interval, seed)` inputs, each with the
/// series it scraped before counters were folded onto the grid as they
/// happen: point count, attempts, and FNV-1a 64 over every point's
/// `time.to_bits()` then its counters in `CounterKey::ALL` order, all
/// little-endian. The first is the configuration this test always ran.
const SERIES_GOLDENS: [(f64, u64, usize, u64, u64); 5] = [
    (1.0, 8, 36, 2, 0xf1e1_fe16_be95_b92e),
    (0.37, 8, 94, 2, 0x12f3_2402_2ecb_947f),
    (0.1, 3, 344, 2, 0x0103_0023_bb93_12ba),
    (2.5, 11, 17, 4, 0x1e1f_b813_50ef_191b),
    (1.0, 0, 36, 3, 0xcd39_e86c_10d8_3c12),
];

#[test]
fn scraped_series_is_monotone_and_lands_on_totals() {
    for (interval, seed, points, attempts, golden) in SERIES_GOLDENS {
        let config = storm_config().seed(seed).scrape_interval(interval).metrics(true);
        let report = ResilientExecutor::new(config).run(&cg_app(32, 30, 1.0)).unwrap();
        let m = report.metrics.as_ref().unwrap();
        assert!(m.series.len() > 2, "a multi-second run scrapes several samples");

        for key in CounterKey::ALL {
            let mut prev_t = f64::NEG_INFINITY;
            let mut prev_v = 0u64;
            for p in &m.series {
                assert!(p.time >= prev_t, "scrape grid must not go backwards");
                let v = p.counter(key);
                assert!(v >= prev_v, "{}: {} < {} at t={}", key.name(), v, prev_v, p.time);
                prev_t = p.time;
                prev_v = v;
            }
            assert_eq!(
                m.series.last().unwrap().counter(key),
                m.totals.counter(key),
                "{}: final sample must equal the drained total",
                key.name()
            );
        }

        // The series did not move.
        let mut bytes = Vec::new();
        for p in &m.series {
            bytes.extend(p.time.to_bits().to_le_bytes());
            bytes.extend(CounterKey::ALL.iter().flat_map(|&key| p.counter(key).to_le_bytes()));
        }
        let what = format!("interval {interval}, seed {seed}");
        assert_eq!(m.scrape_interval, interval, "{what}");
        assert_eq!((m.series.len(), report.attempts), (points, attempts), "{what}");
        assert_eq!(fnv1a(&bytes), golden, "{what}: {:016x}", fnv1a(&bytes));
    }
}

/// A 3x self-healing run: the storm MTBF with OnDegrade respawns.
fn heal_config() -> ExecutorConfig {
    ExecutorConfig::new(4, 3.0)
        .node_mtbf(60.0)
        .checkpoint_interval(6.0)
        .checkpoint_cost(0.2)
        .restart_cost(1.0)
        .seed(0)
        .heal_policy(redcr::red::HealPolicy::OnDegrade)
        .heartbeat_period(0.5)
        .suspicion_timeout(0.5)
        .respawn_cost(0.5)
        .transfer_cost_per_byte(1e-4)
}

#[test]
fn heal_counters_agree_with_report_and_toggle_is_bit_identical() {
    let app = cg_app(32, 20, 1.0);
    let off = ResilientExecutor::new(heal_config()).run(&app).unwrap();
    let on = ResilientExecutor::new(heal_config().metrics(true)).run(&app).unwrap();
    assert!(on.respawns > 0, "the heal scenario must actually respawn");

    // The metrics plane observes healing without perturbing it.
    assert_eq!(on.total_virtual_time.to_bits(), off.total_virtual_time.to_bits());
    assert_eq!(on.degraded_sphere_seconds.to_bits(), off.degraded_sphere_seconds.to_bits());
    assert_eq!(on.heal_latency_seconds.to_bits(), off.heal_latency_seconds.to_bits());
    assert_eq!(on.recovered_voting_seconds.to_bits(), off.recovered_voting_seconds.to_bits());
    assert_eq!(on.respawns, off.respawns);
    assert_eq!(on.masked_failures, off.masked_failures);

    // The heal counters mirror the report, and every respawn observed one
    // latency sample whose sum is the report's total.
    let t = &on.metrics.as_ref().unwrap().totals;
    assert_eq!(t.counter(CounterKey::Respawns), on.respawns);
    assert_eq!(t.counter(CounterKey::Suspicions), on.respawns, "one suspicion per heal here");
    let h = t.histogram(HistKey::HealLatency);
    assert_eq!(h.count(), on.respawns);
    assert!((h.sum() - on.heal_latency_seconds).abs() < 1e-9);
}

/// The storm restarts and restores, the heal run suspects and respawns:
/// the kinds the gate scenario never emits fold like the rest.
#[test]
fn failure_and_heal_metrics_are_folds_over_the_trace() {
    let storm = storm_config().tracing(true).metrics(true);
    let report = ResilientExecutor::new(storm).run(&cg_app(32, 30, 1.0)).unwrap();
    assert!(report.failures > 0 && report.masked_failures > 0);
    fold::assert_metrics_fold_the_trace("storm", &report);

    let heal = heal_config().tracing(true).metrics(true);
    let report = ResilientExecutor::new(heal).run(&cg_app(32, 20, 1.0)).unwrap();
    assert!(report.respawns > 0);
    fold::assert_metrics_fold_the_trace("heal", &report);
}

#[test]
fn storm_trace_exports_valid_perfetto_json() {
    let cfg = storm_config().tracing(true);
    let n_physical = (cfg.n_virtual as f64 * cfg.degree).ceil() as usize;
    let report = ResilientExecutor::new(cfg).run(&cg_app(32, 30, 1.0)).unwrap();
    let trace = report.trace.as_ref().unwrap();

    let json = perfetto::export(trace).unwrap();
    let summary = perfetto::validate(&json).expect("export must pass its own validator");
    assert_eq!(summary.rank_tracks, n_physical, "one track per physical rank");
    assert!(summary.flow_pairs >= 1, "at least one matched send/recv flow: {summary}");
    assert!(summary.slices > 0 && summary.instants > 0, "{summary}");
}

#[test]
fn validation_sidecar_alphas_match_analyzer_exactly() {
    let cfg = storm_config().tracing(true).metrics(true);
    let report = ResilientExecutor::new(cfg.clone()).run(&cg_app(32, 30, 1.0)).unwrap();
    let trace = report.trace.as_ref().unwrap();
    let analysis = Analysis::analyze(trace).unwrap();

    let v = ModelValidation::from_run(&cfg, &report).unwrap();
    let expected = &analysis.attempts.last().unwrap().alphas;
    assert_eq!(v.ranks.len(), expected.len());
    for (m, &(rank, alpha)) in v.ranks.iter().zip(expected) {
        assert_eq!(m.rank, rank);
        assert_eq!(m.alpha.to_bits(), alpha.to_bits(), "rank {rank} α must be verbatim");
    }
    assert_eq!(v.failures, report.failures);
    assert_eq!(v.masked_failures, report.masked_failures);
    assert!(v.predicted_total.is_finite() && v.predicted_total > 0.0);
    assert!(v.to_json().contains("\"schema\": \"redcr-model-validation/1\""));
}
