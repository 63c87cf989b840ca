//! Measured-vs-model validation: feeds a run's *measured* quantities back
//! into the paper's analytic model and compares the predicted runtime with
//! the observed one.
//!
//! The paper validates its model against cluster measurements (Section 6);
//! this module is the simulator-side counterpart. From a traced run it
//! extracts, per physical rank, the observed communication fraction `α`
//! (exactly the trace analyzer's derivation — the sidecar α is asserted
//! bit-identical to [`Analysis`]'s), the measured checkpoint commit
//! latency `c`, and the failure counts; it then pushes them through
//!
//! * Eq. 1 (`t_Red = (1−α)·t + α·t·r`) per rank, taking the slowest rank
//!   as the measured redundant execution time,
//! * Eqs. 9–10 for the system failure rate `λ` at the configured degree
//!   (replaced by the repair-extended birth–death model of
//!   [`redcr_model::repair`] when the run healed: `μ` is measured as
//!   respawns over total heal latency),
//! * Eqs. 12–13 for the expected lost work and restart+rework phases, and
//! * Eq. 14 for the predicted total time,
//!
//! and reports `(predicted − observed)/observed`. The bench harness writes
//! this as a `*_validation.json` sidecar next to every paper-figure
//! artifact (see `results/README.md`), and CI asserts the failure-free
//! relative error stays under 20%.

use std::fmt;

use redcr_json::Writer;
use redcr_model::checkpointing::{lost_work, restart_rework, total_time};
use redcr_model::redundancy::{redundant_time, SystemModel};
use redcr_model::repair::RepairModel;
use redcr_mpi::trace::{Analysis, AnalyzeError, CriticalPath, EventKind};

use crate::config::ExecutorConfig;
use crate::report::ExecutionReport;

/// Why a validation report could not be built.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ValidationError {
    /// The run carried no trace ([`ExecutorConfig::tracing`] was off).
    NoTrace,
    /// The trace replay failed.
    Analyze(AnalyzeError),
    /// The run never completed an attempt, so there is no measured
    /// steady-state to validate against.
    NoCompletedAttempt,
    /// The final attempt recorded no rank timings (no `RankFinish`).
    NoRankTimings,
    /// The analytic model rejected the measured inputs.
    Model(String),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::NoTrace => write!(f, "run has no trace (enable cfg.tracing)"),
            ValidationError::Analyze(e) => write!(f, "trace replay failed: {e}"),
            ValidationError::NoCompletedAttempt => write!(f, "no completed attempt to validate"),
            ValidationError::NoRankTimings => write!(f, "final attempt has no rank timings"),
            ValidationError::Model(what) => write!(f, "model evaluation failed: {what}"),
        }
    }
}

impl std::error::Error for ValidationError {}

impl From<AnalyzeError> for ValidationError {
    fn from(e: AnalyzeError) -> Self {
        ValidationError::Analyze(e)
    }
}

/// One physical rank's measured execution split in the final attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct RankMeasurement {
    /// Physical (world) rank.
    pub rank: u32,
    /// Observed communication fraction `α = comm / (busy + comm)` — taken
    /// **verbatim** from the trace analyzer.
    pub alpha: f64,
    /// Seconds attributed to computation.
    pub busy: f64,
    /// Seconds attributed to communication (amplified by replication).
    pub comm: f64,
    /// Replicas in this rank's sphere (Eq. 1's `r` for this rank).
    pub replicas: u32,
}

/// The measured-vs-model comparison of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelValidation {
    /// Virtual processes (config echo).
    pub n_virtual: u64,
    /// Redundancy degree `r` (config echo).
    pub degree: f64,
    /// Per-node MTBF, virtual seconds (config echo).
    pub node_mtbf: f64,
    /// Checkpoint interval `δ`, virtual seconds (config echo).
    pub checkpoint_interval: f64,
    /// Restart cost `R`, virtual seconds (config echo).
    pub restart_cost: f64,
    /// Injector seed (config echo).
    pub seed: u64,
    /// Per-rank measurements from the final completed attempt.
    pub ranks: Vec<RankMeasurement>,
    /// Mean of the per-rank `α`s.
    pub mean_alpha: f64,
    /// Critical-path blame α: the blocked-on-recv share of
    /// compute-plus-blocked time over the final attempt, from the trace's
    /// happens-before replay
    /// ([`CriticalPath::blame_alpha`](redcr_mpi::trace::CriticalPath::blame_alpha))
    /// — the same measured quantity as `mean_alpha` but with checkpoint
    /// and heal brackets carved out of the communication share, and
    /// weighted by rank activity rather than averaged per rank.
    pub critical_path_alpha: f64,
    /// Measured checkpoint commit latency `c`: mean begin→commit span
    /// across all attempts (0 when no checkpoint committed).
    pub commit_latency_mean: f64,
    /// Checkpoints committed in the final attempt.
    pub commits: u64,
    /// Attempts performed.
    pub attempts: u64,
    /// Job failures endured.
    pub failures: u64,
    /// Process failures masked by redundancy.
    pub masked_failures: u64,
    /// Replicas respawned by the self-healing layer (report echo).
    pub respawns: u64,
    /// Total heal latency, virtual seconds (report echo).
    pub heal_latency_seconds: f64,
    /// Recovered voting-seconds (report echo).
    pub recovered_voting_seconds: f64,
    /// Measured heal stall: virtual seconds the run paid inside heal
    /// cycles (respawn-begin → rejoin-commit spans, from the trace).
    pub heal_stall_seconds: f64,
    /// Measured repair rate `μ` fed to the repair-extended model:
    /// `respawns / heal_latency_seconds`, or 0 when the run never healed.
    pub repair_rate: f64,
    /// Eq. 1 applied per rank to the de-amplified solo time, slowest rank:
    /// the measured redundant execution time (includes checkpoint costs).
    pub t_red: f64,
    /// `t_red` with the measured checkpoint overhead removed — the model's
    /// failure- and checkpoint-free application time `t`.
    pub t_app: f64,
    /// System failure rate `λ` from Eqs. 9–10 at the measured horizon.
    pub lambda: f64,
    /// System MTBF `Θ = 1/λ`.
    pub system_mtbf: f64,
    /// Expected lost work per failure `t_lw` (Eq. 12).
    pub t_lost_work: f64,
    /// Expected restart+rework phase `t_RR` (Eq. 13).
    pub t_restart_rework: f64,
    /// Eq. 14's predicted total completion time.
    pub predicted_total: f64,
    /// The run's observed total virtual time.
    pub observed_total: f64,
    /// `(predicted − observed) / observed`.
    pub relative_error: f64,
}

impl ModelValidation {
    /// Builds the comparison from a finished run: replays the report's
    /// trace, extracts the measured inputs and evaluates the model chain.
    ///
    /// # Errors
    ///
    /// See [`ValidationError`]: the run must have been traced, must have a
    /// completed attempt with rank timings, and the measured inputs must be
    /// inside the model's domain.
    pub fn from_run<S>(
        cfg: &ExecutorConfig,
        report: &ExecutionReport<S>,
    ) -> Result<ModelValidation, ValidationError> {
        let trace = report.trace.as_ref().ok_or(ValidationError::NoTrace)?;
        let analysis = Analysis::analyze(trace)?;
        Self::from_analysis(cfg, report, &analysis)
    }

    /// Like [`from_run`](Self::from_run) with an already-replayed analysis
    /// (avoids re-analyzing when the caller has one).
    ///
    /// # Errors
    ///
    /// See [`ValidationError`].
    pub fn from_analysis<S>(
        cfg: &ExecutorConfig,
        report: &ExecutionReport<S>,
        analysis: &Analysis,
    ) -> Result<ModelValidation, ValidationError> {
        let last = analysis
            .attempts
            .last()
            .filter(|a| a.completed)
            .ok_or(ValidationError::NoCompletedAttempt)?;

        // Busy/comm splits of the final attempt, keyed by rank. A heal
        // relaunch makes a rank finish once per segment, so the splits
        // aggregate across its `RankFinish` events (the same merge the
        // trace analyzer applies before deriving α).
        let mut splits: Vec<(u32, f64, f64)> = Vec::new();
        for e in &last.events {
            if let (Some(rank), EventKind::RankFinish { busy, comm }) = (e.rank, &e.kind) {
                if let Some(s) = splits.iter_mut().find(|s| s.0 == rank) {
                    s.1 += busy;
                    s.2 += comm;
                } else {
                    splits.push((rank, *busy, *comm));
                }
            }
        }
        if splits.is_empty() {
            return Err(ValidationError::NoRankTimings);
        }

        let replicas_of = |rank: u32| -> u32 {
            analysis
                .spheres
                .iter()
                .find(|members| members.contains(&rank))
                .map_or(1, |members| members.len().max(1) as u32)
        };

        // The sidecar α is the analyzer's, verbatim.
        let mut ranks: Vec<RankMeasurement> = Vec::with_capacity(last.alphas.len());
        for &(rank, alpha) in &last.alphas {
            let (busy, comm) = splits
                .iter()
                .find(|&&(r, _, _)| r == rank)
                .map(|&(_, b, c)| (b, c))
                .unwrap_or((0.0, 0.0));
            ranks.push(RankMeasurement { rank, alpha, busy, comm, replicas: replicas_of(rank) });
        }
        let mean_alpha = if ranks.is_empty() {
            0.0
        } else {
            ranks.iter().map(|r| r.alpha).sum::<f64>() / ranks.len() as f64
        };
        let critical_path_alpha =
            CriticalPath::analyze(analysis).blame_alpha().unwrap_or(mean_alpha);

        // Eq. 1 per rank: de-amplify the measured comm back to the solo
        // (r = 1) execution, then apply the model's redundant slowdown at
        // this rank's replica count. The slowest rank is the measured
        // redundant execution time.
        let model = |e: redcr_model::ModelError| ValidationError::Model(e.to_string());
        let mut t_red = 0.0f64;
        for r in &ranks {
            let solo_comm = r.comm / f64::from(r.replicas);
            let solo_t = r.busy + solo_comm;
            let solo_alpha = if solo_t > 0.0 { solo_comm / solo_t } else { 0.0 };
            let t_i = redundant_time(solo_t, solo_alpha, f64::from(r.replicas)).map_err(model)?;
            t_red = t_red.max(t_i);
        }

        // Measured checkpoint cost: mean commit latency across the run.
        let latencies: Vec<f64> =
            analysis.attempts.iter().flat_map(|a| a.commit_latencies.iter().copied()).collect();
        let commit_latency_mean = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        };
        let commits = last.committed_seqs.len() as u64;

        // Remove the measured checkpoint overhead from the redundant time:
        // what remains is the model's checkpoint-free application time.
        let t_app = (t_red - commits as f64 * commit_latency_mean).max(f64::MIN_POSITIVE);

        // Self-healing measurements: the repair rate is respawns over the
        // total death→rejoin latency, and the stall is what the run paid
        // inside heal cycles (neither shows up in any rank's busy/comm).
        let repair_rate = if report.respawns > 0 && report.heal_latency_seconds > 0.0 {
            report.respawns as f64 / report.heal_latency_seconds
        } else {
            0.0
        };
        let heal_stall_seconds: f64 = analysis.attempts.iter().map(|a| a.heal_stall_seconds).sum();

        // Eqs. 9–10: system failure rate at the measured horizon — or, when
        // the run healed, the repair-extended birth–death rates at the
        // measured `μ`. An infinite node MTBF short-circuits to a
        // failure-free system (the closed forms degenerate to 0·∞ there).
        let (lambda, system_mtbf) = if cfg.node_mtbf.is_finite() && t_red > 0.0 {
            let sys = if repair_rate > 0.0 {
                RepairModel::new(cfg.n_virtual, cfg.degree, cfg.node_mtbf, repair_rate)
                    .map_err(model)?
                    .evaluate(t_red)
                    .map_err(model)?
            } else {
                SystemModel::new(cfg.n_virtual, cfg.degree, cfg.node_mtbf)
                    .map_err(model)?
                    .evaluate(t_red)
                    .map_err(model)?
            };
            (sys.failure_rate, sys.mtbf)
        } else {
            (0.0, f64::INFINITY)
        };

        // Eqs. 12–13, on the *measured* checkpoint cost.
        let (t_lost_work, t_restart_rework) =
            if lambda > 0.0 && system_mtbf.is_finite() && cfg.checkpoint_interval.is_finite() {
                let t_lw = lost_work(cfg.checkpoint_interval, commit_latency_mean, system_mtbf)
                    .map_err(model)?;
                let t_rr = restart_rework(cfg.restart_cost, t_lw, system_mtbf).map_err(model)?;
                (t_lw, t_rr)
            } else {
                (0.0, 0.0)
            };

        // Eq. 14, plus the measured heal stall: the repair model prices
        // healing into `λ` (fewer restarts), while the stall the run paid
        // waiting on respawn+transfer is a flat measured addition the
        // checkpointing chain does not see.
        let predicted_total = total_time(
            t_app,
            commit_latency_mean,
            cfg.checkpoint_interval,
            lambda,
            t_restart_rework,
        )
        .map_err(model)?
            + heal_stall_seconds;

        let observed_total = report.total_virtual_time;
        let relative_error = if observed_total > 0.0 {
            (predicted_total - observed_total) / observed_total
        } else {
            f64::INFINITY
        };

        Ok(ModelValidation {
            n_virtual: cfg.n_virtual,
            degree: cfg.degree,
            node_mtbf: cfg.node_mtbf,
            checkpoint_interval: cfg.checkpoint_interval,
            restart_cost: cfg.restart_cost,
            seed: cfg.seed,
            ranks,
            mean_alpha,
            critical_path_alpha,
            commit_latency_mean,
            commits,
            attempts: report.attempts,
            failures: report.failures,
            masked_failures: report.masked_failures,
            respawns: report.respawns,
            heal_latency_seconds: report.heal_latency_seconds,
            recovered_voting_seconds: report.recovered_voting_seconds,
            heal_stall_seconds,
            repair_rate,
            t_red,
            t_app,
            lambda,
            system_mtbf,
            t_lost_work,
            t_restart_rework,
            predicted_total,
            observed_total,
            relative_error,
        })
    }

    /// Renders the report as a self-describing JSON document
    /// (`"schema": "redcr-model-validation/1"`); non-finite values (an
    /// infinite node MTBF, say) become `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let mut w = Writer::document(&mut out, "redcr-model-validation/1");
        w.key("config").begin_object();
        w.field("n_virtual", self.n_virtual).field("degree", self.degree);
        w.field("node_mtbf", self.node_mtbf);
        w.field("checkpoint_interval", self.checkpoint_interval);
        w.field("restart_cost", self.restart_cost).field("seed", self.seed).end_object();
        w.key("measured").begin_object();
        w.key("ranks").begin_array();
        for r in &self.ranks {
            w.begin_object().field("rank", r.rank).field("alpha", r.alpha);
            w.field("busy", r.busy).field("comm", r.comm).field("replicas", r.replicas);
            w.end_object();
        }
        w.end_array();
        w.field("mean_alpha", self.mean_alpha);
        w.field("critical_path_alpha", self.critical_path_alpha);
        w.field("commit_latency_mean", self.commit_latency_mean);
        w.field("commits", self.commits).field("attempts", self.attempts);
        w.field("failures", self.failures).field("masked_failures", self.masked_failures);
        w.field("respawns", self.respawns);
        w.field("heal_latency_seconds", self.heal_latency_seconds);
        w.field("recovered_voting_seconds", self.recovered_voting_seconds);
        w.field("heal_stall_seconds", self.heal_stall_seconds);
        w.field("observed_total", self.observed_total).end_object();
        w.key("model").begin_object();
        w.field("t_red", self.t_red).field("t_app", self.t_app);
        w.field("repair_rate", self.repair_rate).field("lambda", self.lambda);
        w.field("system_mtbf", self.system_mtbf).field("t_lost_work", self.t_lost_work);
        w.field("t_restart_rework", self.t_restart_rework);
        w.field("predicted_total", self.predicted_total).end_object();
        w.field("relative_error", self.relative_error);
        w.end_document();
        out
    }
}

impl fmt::Display for ModelValidation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "model validation: N={} r={} θ={:.3e} s δ={:.3} s",
            self.n_virtual, self.degree, self.node_mtbf, self.checkpoint_interval
        )?;
        writeln!(
            f,
            "  measured : ᾱ={:.4}, c={:.4} s, {} commits, {} attempts ({} failures, {} masked)",
            self.mean_alpha,
            self.commit_latency_mean,
            self.commits,
            self.attempts,
            self.failures,
            self.masked_failures
        )?;
        if self.respawns > 0 {
            writeln!(
                f,
                "  healing  : {} respawns, μ={:.3e}/s, stall {:.3} s, recovered {:.3} s",
                self.respawns,
                self.repair_rate,
                self.heal_stall_seconds,
                self.recovered_voting_seconds
            )?;
        }
        writeln!(
            f,
            "  model    : t_red={:.3} s, t_app={:.3} s, λ={:.3e}/s, t_RR={:.3} s",
            self.t_red, self.t_app, self.lambda, self.t_restart_rework
        )?;
        write!(
            f,
            "  predicted {:.3} s vs observed {:.3} s → relative error {:+.2}%",
            self.predicted_total,
            self.observed_total,
            self.relative_error * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcr_fault::FailureTrace;
    use redcr_mpi::trace::{Event, Trace};
    use redcr_red::stats::StatsSnapshot;

    fn ev(time: f64, rank: Option<u32>, kind: EventKind) -> Event {
        Event { time, rank, kind }
    }

    fn report_with(trace: Option<Trace>, total: f64) -> ExecutionReport<()> {
        ExecutionReport {
            total_virtual_time: total,
            attempts: 1,
            failures: 0,
            masked_failures: 0,
            degraded_sphere_seconds: 0.0,
            checkpoints_committed: 1,
            respawns: 0,
            heal_latency_seconds: 0.0,
            recovered_voting_seconds: 0.0,
            replication: StatsSnapshot::default(),
            physical_messages: 0,
            physical_bytes: 0,
            n_physical: 4,
            node_seconds: 0.0,
            failure_trace: FailureTrace::new(),
            trace,
            metrics: None,
            profile: None,
            final_states: vec![],
        }
    }

    fn traced_run() -> Trace {
        Trace::from_events(vec![
            ev(0.0, Some(0), EventKind::Topology { sphere: 0, replica: 0 }),
            ev(0.0, Some(1), EventKind::Topology { sphere: 0, replica: 1 }),
            ev(0.0, None, EventKind::AttemptStart { attempt: 0 }),
            ev(2.0, Some(0), EventKind::CheckpointBegin { seq: 0 }),
            ev(2.5, Some(0), EventKind::CheckpointCommit { seq: 0, bytes: 64, cost: 0.5 }),
            ev(10.0, Some(0), EventKind::RankFinish { busy: 8.0, comm: 2.0 }),
            ev(10.0, Some(1), EventKind::RankFinish { busy: 8.0, comm: 2.0 }),
            ev(
                10.0,
                None,
                EventKind::AttemptEnd {
                    attempt: 0,
                    completed: true,
                    rel_end: 10.0,
                    rel_failure: f64::INFINITY,
                    killer: None,
                },
            ),
        ])
    }

    fn cfg() -> ExecutorConfig {
        ExecutorConfig::new(1, 2.0)
            .node_mtbf(1e6)
            .checkpoint_interval(5.0)
            .checkpoint_cost(0.5)
            .restart_cost(1.0)
    }

    #[test]
    fn alphas_match_analyzer_verbatim() {
        let trace = traced_run();
        let analysis = Analysis::analyze(&trace).unwrap();
        let report = report_with(Some(trace), 10.0);
        let v = ModelValidation::from_run(&cfg(), &report).unwrap();
        let expected = &analysis.attempts.last().unwrap().alphas;
        assert_eq!(v.ranks.len(), expected.len());
        for (m, &(rank, alpha)) in v.ranks.iter().zip(expected) {
            assert_eq!(m.rank, rank);
            assert_eq!(m.alpha.to_bits(), alpha.to_bits(), "α must be verbatim");
            assert_eq!(m.replicas, 2);
        }
    }

    #[test]
    fn failure_free_prediction_is_close() {
        let report = report_with(Some(traced_run()), 10.0);
        let v = ModelValidation::from_run(&cfg(), &report).unwrap();
        // Eq. 1 on the de-amplified split reproduces busy + comm = 10.
        assert!((v.t_red - 10.0).abs() < 1e-12, "{}", v.t_red);
        assert!((v.commit_latency_mean - 0.5).abs() < 1e-12);
        // t_app = 10 − 1×0.5; predicted = t_app·(1 + c/δ)/(1 − λ·t_RR) ≈ 10.45.
        assert!((v.t_app - 9.5).abs() < 1e-12);
        assert!(v.relative_error.abs() < 0.2, "{}", v.relative_error);
        assert!(v.lambda > 0.0 && v.lambda < 1e-3);
    }

    #[test]
    fn untraced_run_is_rejected() {
        let report = report_with(None, 10.0);
        let err = ModelValidation::from_run(&cfg(), &report).unwrap_err();
        assert_eq!(err, ValidationError::NoTrace);
    }

    #[test]
    fn incomplete_run_is_rejected() {
        let trace = Trace::from_events(vec![
            ev(0.0, None, EventKind::AttemptStart { attempt: 0 }),
            ev(
                1.0,
                None,
                EventKind::AttemptEnd {
                    attempt: 0,
                    completed: false,
                    rel_end: 1.0,
                    rel_failure: 1.0,
                    killer: Some(0),
                },
            ),
        ]);
        let err = ModelValidation::from_run(&cfg(), &report_with(Some(trace), 1.0)).unwrap_err();
        assert_eq!(err, ValidationError::NoCompletedAttempt);
    }

    #[test]
    fn json_sidecar_is_self_describing() {
        let report = report_with(Some(traced_run()), 10.0);
        let v = ModelValidation::from_run(&cfg(), &report).unwrap();
        let json = v.to_json();
        assert!(json.contains("\"schema\": \"redcr-model-validation/1\""));
        assert!(json.contains("\"relative_error\": "));
        assert!(json.contains("\"alpha\": 0.2"));
        // An infinite field serializes as null.
        let mut inf = v.clone();
        inf.node_mtbf = f64::INFINITY;
        assert!(inf.to_json().contains("\"node_mtbf\": null"));
    }
}
