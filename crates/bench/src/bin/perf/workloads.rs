//! The six end-to-end workloads: what each builds at set-up, what one
//! repetition runs, and how its output is checked.
//!
//! Names and reasons are in `BENCHMARK.json`. Sizes are fixed constants of
//! the benchmark. `quick` selects toy sizes for the smoke test only; numbers
//! from a quick run mean nothing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use redcr_apps::cg::CgConfig;
use redcr_apps::jacobi::JacobiConfig;
use redcr_core::apps::{CgApp, JacobiApp};
use redcr_core::{ExecutionReport, ExecutorConfig, ResilientApp, ResilientExecutor};
use redcr_mpi::metrics::{CounterKey as MetricKey, MetricsReport};
use redcr_mpi::prof::{CounterKey, ProfReport, Profiler, SpanKey};
use redcr_sweep::{
    run_sweep, run_sweep_profiled, Backend, ResultCache, ScenarioSpec, SpecPolicy, SweepEntry,
    Workload as SweepWorkload,
};

/// Failure schedule of `jacobi_ckpt_faulty_w1`: 3 attempts, 2 job failures.
const JACOBI_FAILURE_SEED: u64 = 2012;

/// Values that must be identical in every repetition of one run. Printed, so
/// that a change across commits is visible; never compared with a constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint(pub Vec<(&'static str, u64)>);

impl Fingerprint {
    pub fn get(&self, key: &str) -> u64 {
        self.0.iter().find(|(k, _)| *k == key).map_or(0, |(_, v)| *v)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (k, v)) in self.0.iter().enumerate() {
            write!(f, "{}{k}={v}", if i == 0 { "" } else { " " })?;
        }
        Ok(())
    }
}

/// What the program's own counters and spans say about one traced repetition,
/// as per-layer metric values.
pub type Traced = Vec<(&'static str, f64)>;

pub trait Workload {
    /// One repetition as a user would run it, with its output checked.
    fn rep(&self) -> Result<Fingerprint, String>;
    /// One repetition with the program's profiler and metrics on.
    fn traced_rep(&self) -> Result<(Fingerprint, Traced), String>;
    /// Breaks the reference so that the next check must fail.
    #[cfg(test)]
    fn corrupt_reference(&mut self);
}

/// Builds a workload from the seed: inputs, reference result, configuration.
pub fn build(name: &str, seed: u64, quick: bool) -> Result<Box<dyn Workload>, String> {
    let pick = |full: u64, toy: u64| if quick { toy } else { full };
    let cg = |n: usize| CgConfig { seed, ..CgConfig::small(n) };
    // The failure-free CG configuration of `BENCH_runtime.json`'s cg_r3.
    let failure_free = |n: u64, degree: f64, workers: usize| {
        ExecutorConfig::new(n, degree)
            .node_mtbf(1e12)
            .checkpoint_interval(10.0)
            .checkpoint_cost(0.5)
            .restart_cost(2.0)
            .seed(seed)
            .workers(workers)
    };
    Ok(match name {
        "cg_r3_w1" => {
            Runtime::boxed(CgApp::new(cg(256), pick(4000, 40)), failure_free(8, 3.0, 1), false)?
        }
        "cg_r3_w2" => {
            Runtime::boxed(CgApp::new(cg(256), pick(4000, 40)), failure_free(8, 3.0, 2), false)?
        }
        "cg_r3_obs_w1" => {
            Runtime::boxed(CgApp::new(cg(256), pick(2000, 40)), failure_free(8, 3.0, 1), true)?
        }
        "jacobi_ckpt_faulty_w1" => {
            // The boundary values are the only input a Jacobi sweep has.
            let mut rng = StdRng::seed_from_u64(seed);
            let config = JacobiConfig {
                left_boundary: rng.gen_range(0.5..1.5),
                right_boundary: rng.gen_range(-0.5..0.5),
                ..JacobiConfig::small(pick(65536, 512) as usize)
            };
            // One virtual second per sweep, so that a 400 s node MTBF gives
            // deaths, failovers and restarts within the job.
            let app = JacobiApp::new(config, pick(300, 60)).with_step_pad(1.0);
            // The failure history is part of the workload, like its sizes,
            // and not drawn from `seed`: a rank that dies early stops
            // computing, so between histories the work itself differs by a
            // quarter, which is a difference of input, not of the program.
            let cfg = ExecutorConfig::new(8, 2.0)
                .node_mtbf(400.0)
                .checkpoint_interval(5.0)
                .checkpoint_cost(0.5)
                .restart_cost(2.0)
                .seed(JACOBI_FAILURE_SEED)
                .workers(1);
            Runtime::boxed(app, cfg, false)?
        }
        "cg_big_w2" => Runtime::boxed(
            CgApp::new(cg(pick(2048, 128) as usize), pick(16, 2)),
            failure_free(pick(512, 32), 2.0, 2),
            false,
        )?,
        "sweep_mc_t2" => Box::new(Sweep::new(seed, pick(4000, 4) as u32)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// A resilient execution of `app` under `cfg`.
struct Runtime<A: ResilientApp> {
    app: A,
    cfg: ExecutorConfig,
    /// Encoded final states of the same app at r=1, failure-free, one worker:
    /// replication, failures and restarts must not change one bit of the
    /// result. Encoded, because a CG solve run past convergence carries NaN,
    /// which `==` on floats never finds equal.
    reference: Vec<u8>,
}

impl<A> Runtime<A>
where
    A: ResilientApp + 'static,
{
    /// `observed` turns all three telemetry planes on in every repetition.
    fn boxed(app: A, cfg: ExecutorConfig, observed: bool) -> Result<Box<dyn Workload>, String> {
        let plain = ExecutorConfig::new(cfg.n_virtual, 1.0).seed(cfg.seed).workers(1);
        let reference = encode::<A>(&execute(&app, plain)?)?;
        let cfg = cfg.tracing(observed).metrics(observed).profiling(observed);
        Ok(Box::new(Runtime { app, cfg, reference }))
    }

    fn checked(&self, cfg: ExecutorConfig) -> Result<ExecutionReport<A::State>, String> {
        let report = execute(&self.app, cfg)?;
        if encode::<A>(&report)? != self.reference {
            return Err("final states differ from the unreplicated failure-free solve".into());
        }
        Ok(report)
    }
}

fn execute<A: ResilientApp>(
    app: &A,
    cfg: ExecutorConfig,
) -> Result<ExecutionReport<A::State>, String> {
    ResilientExecutor::new(cfg).run(app).map_err(|e| e.to_string())
}

// Generic over the app, not its state: `ResilientApp` already says the state
// serializes, and the serde traits are not among the benchmark's imports.
fn encode<A: ResilientApp>(report: &ExecutionReport<A::State>) -> Result<Vec<u8>, String> {
    redcr_ckpt::to_bytes(&report.final_states).map_err(|e| e.to_string())
}

fn runtime_fingerprint<S>(r: &ExecutionReport<S>) -> Fingerprint {
    Fingerprint(vec![
        ("physical_messages", r.physical_messages),
        ("physical_bytes", r.physical_bytes),
        ("checkpoints_committed", r.checkpoints_committed),
        ("attempts", r.attempts),
        ("failures", r.failures),
        ("total_virtual_time_bits", r.total_virtual_time.to_bits()),
    ])
}

impl<A> Workload for Runtime<A>
where
    A: ResilientApp + 'static,
{
    fn rep(&self) -> Result<Fingerprint, String> {
        Ok(runtime_fingerprint(&self.checked(self.cfg.clone())?))
    }

    fn traced_rep(&self) -> Result<(Fingerprint, Traced), String> {
        let report = self.checked(self.cfg.clone().metrics(true).profiling(true))?;
        let profile = report.profile.as_ref().ok_or("profiling was on but no profile came back")?;
        let metrics = report.metrics.as_ref().ok_or("metrics were on but no report came back")?;
        Ok((runtime_fingerprint(&report), traced_metrics(profile, Some(metrics))))
    }

    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        self.reference[0] ^= 1;
    }
}

/// Per-layer metrics read from the program's own profiler and metrics plane.
/// Every name appears for every workload; a layer the workload does not use
/// reads 0.
fn traced_metrics(p: &ProfReport, m: Option<&MetricsReport>) -> Traced {
    let count = |k| p.total_counter(k) as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let total_s = |k| p.total_span(k).total_ns as f64 * 1e-9;
    let metric = |k| m.map_or(0.0, |m| m.totals.counter(k) as f64);
    let steals = count(CounterKey::Steals);
    vec![
        ("sched.steal_share", ratio(steals, steals + count(CounterKey::LocalHits))),
        ("sched.task_wakes", count(CounterKey::TaskWakes)),
        ("sched.worker_parks", count(CounterKey::WorkerParks)),
        ("sched.worker_idle_s", total_s(SpanKey::WorkerIdle)),
        ("simmpi.parks_per_recv", ratio(count(CounterKey::Parks), count(CounterKey::Recvs))),
        ("simmpi.send_span_mean_ns", p.total_span(SpanKey::MailboxSend).mean_ns()),
        ("simmpi.recv_wait_span_mean_ns", p.total_span(SpanKey::MailboxRecvWait).mean_ns()),
        ("redundancy.votes", metric(MetricKey::Votes)),
        ("redundancy.vote_span_total_s", total_s(SpanKey::Vote)),
        ("checkpoint.commits", metric(MetricKey::CheckpointCommits)),
        ("checkpoint.restores", metric(MetricKey::Restores)),
        ("checkpoint.encode_span_total_s", total_s(SpanKey::CheckpointEncode)),
        ("checkpoint.commit_span_total_s", total_s(SpanKey::CheckpointCommit)),
        ("core.segments", p.total_span(SpanKey::ExecutorSegment).count as f64),
        ("core.segment_span_mean_ms", p.total_span(SpanKey::ExecutorSegment).mean_ns() * 1e-6),
        ("sweep.scenario_span_mean_ms", p.total_span(SpanKey::SweepScenario).mean_ns() * 1e-6),
    ]
}

// The Section 6 experiment surface (Figures 9, 11-12 / Table 4): the CG
// workload at 128 processes, both backends over MTBF x degree. Copied from
// `redcr_bench::paper::constants`, which the benchmark must not import.
const SWEEP_MTBF_HOURS: [f64; 5] = [6.0, 12.0, 18.0, 24.0, 30.0];
const SWEEP_N: u64 = 128;
const SWEEP_BASE_TIME_HOURS: f64 = 46.0 / 60.0;
const SWEEP_ALPHA: f64 = 0.2;
const SWEEP_CHECKPOINT_HOURS: f64 = 120.0 / 3600.0;
const SWEEP_RESTART_HOURS: f64 = 500.0 / 3600.0;
const SWEEP_THREADS: usize = 2;

/// The submitted batch. The simulator's seeds are `0..seeds` by construction,
/// so the benchmark's seed moves the job length by up to 2 % instead.
pub fn sweep_surface(seed: u64, seeds: u32) -> Vec<ScenarioSpec> {
    let jitter = StdRng::seed_from_u64(seed).gen_range(0.98..1.02);
    let workload = SweepWorkload {
        base_time_hours: SWEEP_BASE_TIME_HOURS * jitter,
        alpha: SWEEP_ALPHA,
        checkpoint_cost_hours: SWEEP_CHECKPOINT_HOURS,
        restart_cost_hours: SWEEP_RESTART_HOURS,
    };
    let mut specs = Vec::new();
    for node_mtbf_hours in SWEEP_MTBF_HOURS {
        for quarter in 4..=12 {
            for backend in [Backend::Model, Backend::Simulator] {
                specs.push(ScenarioSpec {
                    backend,
                    n_virtual: SWEEP_N,
                    degree: f64::from(quarter) / 4.0,
                    policy: SpecPolicy::Daly,
                    node_mtbf_hours,
                    workload,
                    seeds,
                });
            }
        }
    }
    specs
}

struct Sweep {
    specs: Vec<ScenarioSpec>,
    /// The 30 h-MTBF row evaluated on one thread at set-up. The 6 h row has
    /// the most failures but costs as much as the rest of the surface
    /// together, which would make set-up longer than a repetition.
    reference_row: Vec<SweepEntry>,
}

impl Sweep {
    fn new(seed: u64, seeds: u32) -> Result<Sweep, String> {
        let specs = sweep_surface(seed, seeds);
        let row: Vec<ScenarioSpec> =
            specs.iter().filter(|s| s.node_mtbf_hours == SWEEP_MTBF_HOURS[4]).copied().collect();
        let reference_row =
            run_sweep(&row, 1, &mut ResultCache::in_memory()).map_err(|e| e.to_string())?.entries;
        Ok(Sweep { specs, reference_row })
    }

    fn checked(&self, profiler: Option<&Profiler>) -> Result<Fingerprint, String> {
        let mut cache = ResultCache::in_memory();
        let cold = run_sweep_profiled(&self.specs, SWEEP_THREADS, &mut cache, profiler)
            .map_err(|e| e.to_string())?;
        if cold.stats.cold_misses != self.specs.len() {
            return Err(format!("{} cold evaluations", cold.stats.cold_misses));
        }
        let warm = run_sweep(&self.specs, SWEEP_THREADS, &mut cache).map_err(|e| e.to_string())?;
        let same = |a: &[SweepEntry], b: &[SweepEntry]| {
            a.len() == b.len()
                && a.iter().zip(b).all(|(x, y)| x.spec == y.spec && x.result == y.result)
        };
        if !warm.stats.all_warm() || !same(&warm.entries, &cold.entries) {
            return Err("warm re-query differs from the cold evaluation".into());
        }
        let last_row = &cold.entries[cold.entries.len() - self.reference_row.len()..];
        if !same(last_row, &self.reference_row) {
            return Err("30 h row differs from its one-thread evaluation".into());
        }
        let mut rendered = String::new();
        for e in &cold.entries {
            rendered.push_str(&e.result.render_json());
        }
        Ok(Fingerprint(vec![
            ("entries", cold.entries.len() as u64),
            ("results_fnv", redcr_sweep::spec::fnv1a(rendered.as_bytes())),
        ]))
    }
}

impl Workload for Sweep {
    fn rep(&self) -> Result<Fingerprint, String> {
        self.checked(None)
    }

    fn traced_rep(&self) -> Result<(Fingerprint, Traced), String> {
        let profiler = Profiler::new();
        let fingerprint = self.checked(Some(&profiler))?;
        Ok((fingerprint, traced_metrics(&profiler.report(), None)))
    }

    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        self.reference_row[0].result.completion_rate = -1.0;
    }
}
