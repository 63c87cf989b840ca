//! Batch execution engine: dedup → cache lookup → multi-core cold-miss
//! evaluation → cache append.
//!
//! The engine is the serving core of the capacity planner. A submitted
//! batch is deduplicated by canonical hash, warm scenarios are answered
//! straight from the [`ResultCache`], and the cold remainder is drained by
//! `redcr_cluster::sweep::work_queue` across worker threads. Determinism
//! contract: the report — and the bytes appended to the cache — depend
//! only on the submitted specs and prior cache contents, never on thread
//! count or scheduling (every simulator scenario draws its Monte-Carlo
//! seeds as `0..seeds`, and results land in per-scenario slots).

use redcr_prof::{ProfScope, Profiler, SpanKey};

use redcr_cluster::combined::PreparedJob;
use redcr_cluster::job::FailureExposure;
use redcr_cluster::sweep::{monte_carlo, work_queue};
use redcr_cluster::SimError;
use redcr_model::ModelError;

use crate::cache::{ResultCache, ScenarioResult};
use crate::dedup::{dedup, DedupedBatch};
use crate::spec::{Backend, ScenarioSpec};

/// Errors a sweep can abort with. Divergent scenarios are *results*
/// (completion rate 0), not errors; these are real faults: invalid specs,
/// backend failures, cache I/O.
#[derive(Debug)]
pub enum SweepError {
    /// A spec failed model-domain validation or the model errored.
    Model(ModelError),
    /// The cluster simulator failed (not divergence, which is aggregated).
    Sim(SimError),
    /// The result cache could not be read or appended.
    Io(std::io::Error),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Model(e) => write!(f, "model error: {e}"),
            SweepError::Sim(e) => write!(f, "simulation error: {e}"),
            SweepError::Io(e) => write!(f, "cache I/O error: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<ModelError> for SweepError {
    fn from(e: ModelError) -> Self {
        SweepError::Model(e)
    }
}

impl From<SimError> for SweepError {
    fn from(e: SimError) -> Self {
        SweepError::Sim(e)
    }
}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        SweepError::Io(e)
    }
}

/// One answered scenario of a sweep report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepEntry {
    /// The scenario.
    pub spec: ScenarioSpec,
    /// Its canonical hash.
    pub hash: u64,
    /// How many submitted points collapsed into this entry.
    pub multiplicity: usize,
    /// Whether the result came from the cache (warm) or a backend (cold).
    pub cache_hit: bool,
    /// The outcome.
    pub result: ScenarioResult,
}

/// Batch-level accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepStats {
    /// Points submitted (before dedup).
    pub submitted: usize,
    /// Unique scenarios after dedup.
    pub unique: usize,
    /// Unique scenarios answered from the cache.
    pub cache_hits: usize,
    /// Unique scenarios evaluated by a backend this run.
    pub cold_misses: usize,
}

impl SweepStats {
    /// Whether every unique scenario was served warm.
    pub fn all_warm(&self) -> bool {
        self.cold_misses == 0
    }
}

/// The result of one batch submission: entries in first-submission order
/// plus accounting.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One entry per unique scenario, in first-submission order.
    pub entries: Vec<SweepEntry>,
    /// Hit/miss accounting.
    pub stats: SweepStats,
}

/// Evaluates one scenario on its backend. Divergence becomes a
/// zero-completion result; only genuine faults error.
///
/// # Errors
///
/// Invalid specs and non-divergence backend failures.
pub fn evaluate(spec: &ScenarioSpec) -> Result<ScenarioResult, SweepError> {
    let cfg = spec.to_config()?;
    match spec.backend {
        Backend::Model => match cfg.evaluate() {
            Ok(o) => {
                // Expected process deaths over the run; the unmasked share
                // is Eq. 11's failure count, the rest were absorbed by
                // redundancy.
                let deaths = o.total_physical as f64 * o.total_time / cfg.node_mtbf;
                Ok(ScenarioResult {
                    total_time_hours: Some(o.total_time),
                    node_hours: Some(o.node_hours),
                    completion_rate: 1.0,
                    mean_failures: o.expected_failures,
                    mean_masked_failures: (deaths - o.expected_failures).max(0.0),
                    mean_checkpoints: o.expected_checkpoints,
                    mean_attempts: 1.0 + o.expected_failures,
                })
            }
            Err(ModelError::Diverged { .. }) => Ok(divergent_result()),
            Err(e) => Err(e.into()),
        },
        Backend::Simulator => {
            // Without a trial there is no result, and "divergent" would be
            // a wrong one that the cache then keeps.
            if spec.seeds == 0 {
                return Err(SweepError::Model(ModelError::InvalidParameter {
                    name: "seeds",
                    value: 0.0,
                    reason: "a simulator scenario needs at least one seed",
                }));
            }
            // Parallelism lives at the scenario level (the engine's work
            // queue); each scenario runs its seeds serially, inline on the
            // worker that claimed it. The job and its spheres are derived
            // once, not per seed.
            let prepared = PreparedJob::derive(&cfg, FailureExposure::AllTime)?;
            let agg = monte_carlo(spec.seeds as usize, 1, |seed| prepared.simulate(seed))?;
            if agg.completed == 0 {
                return Ok(divergent_result());
            }
            let total_physical = cfg.partition()?.total_physical();
            Ok(ScenarioResult {
                total_time_hours: Some(agg.mean_total_time),
                node_hours: Some(total_physical as f64 * agg.mean_total_time),
                completion_rate: agg.completion_rate(),
                mean_failures: agg.mean_counts.failures,
                mean_masked_failures: agg.mean.masked_failures,
                mean_checkpoints: agg.mean_counts.checkpoints,
                mean_attempts: agg.mean_counts.attempts,
            })
        }
    }
}

fn divergent_result() -> ScenarioResult {
    ScenarioResult {
        total_time_hours: None,
        node_hours: None,
        completion_rate: 0.0,
        mean_failures: 0.0,
        mean_masked_failures: 0.0,
        mean_checkpoints: 0.0,
        mean_attempts: 0.0,
    }
}

/// Runs a batch: dedup, serve warm scenarios from `cache`, evaluate cold
/// ones on up to `threads` worker threads, append the cold results to the
/// cache (in submission order), and return the report.
///
/// # Errors
///
/// The first backend/spec error encountered (by submission order), or a
/// cache-append I/O error.
pub fn run_sweep(
    submitted: &[ScenarioSpec],
    threads: usize,
    cache: &mut ResultCache,
) -> Result<SweepReport, SweepError> {
    run_sweep_profiled(submitted, threads, cache, None)
}

/// [`run_sweep`] with an optional wall-clock [`Profiler`]: each worker of
/// the queue keeps a `ProfScope::Worker(w)` shard, wraps every cold
/// evaluation in a `sweep.scenario` span and drains the shard into the
/// profiler at worker exit. `None` costs one branch per cold scenario; the
/// report, cache bytes and entry order are identical either way (the
/// profiler reads the host clock only and every result is slotted by queue
/// index).
///
/// # Errors
///
/// Same as [`run_sweep`].
pub fn run_sweep_profiled(
    submitted: &[ScenarioSpec],
    threads: usize,
    cache: &mut ResultCache,
    profiler: Option<&Profiler>,
) -> Result<SweepReport, SweepError> {
    let batch: DedupedBatch = dedup(submitted);

    // Partition warm/cold without evaluating anything.
    let mut warm: Vec<Option<ScenarioResult>> = Vec::with_capacity(batch.unique.len());
    let mut hits: Vec<bool> = Vec::with_capacity(batch.unique.len());
    let mut cold_indices: Vec<usize> = Vec::new();
    for (i, spec) in batch.unique.iter().enumerate() {
        match cache.get(spec.hash()) {
            Some(r) => {
                warm.push(Some(*r));
                hits.push(true);
            }
            None => {
                warm.push(None);
                hits.push(false);
                cold_indices.push(i);
            }
        }
    }

    // Drain the cold queue across workers; results are slotted by queue
    // index, so the outcome is independent of which worker ran what.
    let cold_results = work_queue(cold_indices.len(), threads, |w, claims| {
        let shard = profiler.map(|p| p.shard(ProfScope::Worker(w as u32)));
        claims.each(|qi| {
            let _span = shard.as_ref().map(|s| s.span(SpanKey::SweepScenario));
            evaluate(&batch.unique[cold_indices[qi]])
        });
        if let (Some(p), Some(shard)) = (profiler, shard) {
            p.absorb(shard.drain());
        }
    });

    // Surface errors deterministically: first failing scenario by
    // submission order, regardless of completion order.
    let mut appended: Vec<(ScenarioSpec, ScenarioResult)> = Vec::with_capacity(cold_indices.len());
    let mut resolved: Vec<Option<ScenarioResult>> = warm;
    for (&ui, outcome) in cold_indices.iter().zip(cold_results) {
        let outcome = outcome?;
        appended.push((batch.unique[ui], outcome));
        resolved[ui] = Some(outcome);
    }
    cache.append_batch(&appended)?;

    let entries: Vec<SweepEntry> = batch
        .unique
        .iter()
        .enumerate()
        .map(|(i, spec)| SweepEntry {
            spec: *spec,
            hash: spec.hash(),
            multiplicity: batch.multiplicity[i],
            cache_hit: hits[i],
            result: resolved[i].expect("every scenario resolved"),
        })
        .collect();
    let stats = SweepStats {
        submitted: batch.submitted,
        unique: batch.unique.len(),
        cache_hits: batch.unique.len() - cold_indices.len(),
        cold_misses: cold_indices.len(),
    };
    Ok(SweepReport { entries, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SpecPolicy, Workload};

    fn paper_workload() -> Workload {
        Workload {
            base_time_hours: 46.0 / 60.0,
            alpha: 0.2,
            checkpoint_cost_hours: 120.0 / 3600.0,
            restart_cost_hours: 500.0 / 3600.0,
        }
    }

    fn model_spec(n: u64, degree: f64) -> ScenarioSpec {
        ScenarioSpec {
            backend: Backend::Model,
            n_virtual: n,
            degree,
            policy: SpecPolicy::Daly,
            node_mtbf_hours: 12.0,
            workload: paper_workload(),
            seeds: 0,
        }
    }

    fn sim_spec(degree: f64, seeds: u32) -> ScenarioSpec {
        ScenarioSpec { backend: Backend::Simulator, seeds, ..model_spec(128, degree) }
    }

    #[test]
    fn model_and_simulator_agree_roughly() {
        let m = evaluate(&model_spec(128, 2.0)).unwrap();
        let s = evaluate(&sim_spec(2.0, 32)).unwrap();
        let (mt, st) = (m.total_time_hours.unwrap(), s.total_time_hours.unwrap());
        let rel = (mt - st).abs() / mt;
        assert!(rel < 0.2, "model {mt} vs simulated {st} (rel {rel})");
        assert_eq!(s.completion_rate, 1.0);
        assert!(s.mean_checkpoints > 0.0);
    }

    #[test]
    fn cold_then_warm_is_identical_and_all_hits() {
        let specs: Vec<ScenarioSpec> = [1.0, 1.5, 2.0].iter().map(|&d| sim_spec(d, 8)).collect();
        let mut cache = ResultCache::in_memory();
        let cold = run_sweep(&specs, 4, &mut cache).unwrap();
        assert_eq!(cold.stats.cold_misses, 3);
        assert_eq!(cold.stats.cache_hits, 0);
        let warm = run_sweep(&specs, 4, &mut cache).unwrap();
        assert_eq!(warm.stats.cold_misses, 0);
        assert_eq!(warm.stats.cache_hits, 3);
        assert!(warm.stats.all_warm());
        for (c, w) in cold.entries.iter().zip(&warm.entries) {
            assert_eq!(c.result, w.result);
            assert!(!c.cache_hit);
            assert!(w.cache_hit);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let specs: Vec<ScenarioSpec> =
            [1.0, 1.25, 1.5, 2.0, 2.5, 3.0].iter().map(|&d| sim_spec(d, 8)).collect();
        let a = run_sweep(&specs, 1, &mut ResultCache::in_memory()).unwrap();
        let b = run_sweep(&specs, 8, &mut ResultCache::in_memory()).unwrap();
        assert_eq!(a.entries.len(), b.entries.len());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.result, y.result, "thread count must not matter");
        }
    }

    #[test]
    fn profiled_sweep_matches_unprofiled_and_records_spans() {
        let specs: Vec<ScenarioSpec> = [1.0, 1.5, 2.0].iter().map(|&d| sim_spec(d, 8)).collect();
        let plain = run_sweep(&specs, 2, &mut ResultCache::in_memory()).unwrap();
        let profiler = Profiler::new();
        let profiled =
            run_sweep_profiled(&specs, 2, &mut ResultCache::in_memory(), Some(&profiler)).unwrap();
        for (a, b) in plain.entries.iter().zip(&profiled.entries) {
            assert_eq!(a.result, b.result, "profiling must not change results");
        }
        let report = profiler.report();
        let stat = report.total_span(SpanKey::SweepScenario);
        assert_eq!(stat.count, 3, "one span per cold scenario");
        assert!(report.scopes().iter().all(|s| s.label().starts_with("worker")));
    }

    #[test]
    fn duplicates_collapse_and_multiplicity_survives() {
        let s = model_spec(1000, 2.0);
        let report = run_sweep(&[s, s, s], 2, &mut ResultCache::in_memory()).unwrap();
        assert_eq!(report.stats.submitted, 3);
        assert_eq!(report.stats.unique, 1);
        assert_eq!(report.entries[0].multiplicity, 3);
    }

    #[test]
    fn divergent_scenario_is_a_result_not_an_error() {
        // 1x at huge scale with a day-long node MTBF: Eq. 14 blows up.
        let mut spec = model_spec(1_000_000, 1.0);
        spec.node_mtbf_hours = 24.0;
        spec.workload.base_time_hours = 128.0;
        let r = evaluate(&spec).unwrap();
        assert_eq!(r.total_time_hours, None);
        assert_eq!(r.completion_rate, 0.0);
    }

    #[test]
    fn invalid_spec_is_an_error() {
        let mut spec = model_spec(128, 2.0);
        spec.workload.alpha = 2.0;
        assert!(matches!(evaluate(&spec), Err(SweepError::Model(_))));
        let mut cache = ResultCache::in_memory();
        assert!(run_sweep(&[spec], 2, &mut cache).is_err());
    }

    #[test]
    fn zero_seed_simulator_scenario_is_an_error_and_is_not_cached() {
        let spec = sim_spec(2.0, 0);
        assert!(matches!(
            evaluate(&spec),
            Err(SweepError::Model(ModelError::InvalidParameter { name: "seeds", .. }))
        ));
        let mut cache = ResultCache::in_memory();
        assert!(run_sweep(&[spec], 2, &mut cache).is_err());
        assert!(cache.is_empty(), "a scenario without trials must not be cached");
    }

    /// The Section 6 surface: MTBF {6, 12, 18, 24, 30} h × degree 1–3 in
    /// quarter steps × both backends, 90 scenarios.
    fn surface(seeds: u32) -> Vec<ScenarioSpec> {
        let mut specs = Vec::new();
        for node_mtbf_hours in [6.0, 12.0, 18.0, 24.0, 30.0] {
            for quarter in 4..=12 {
                for backend in [Backend::Model, Backend::Simulator] {
                    let degree = f64::from(quarter) / 4.0;
                    specs.push(ScenarioSpec {
                        backend,
                        node_mtbf_hours,
                        seeds,
                        ..model_spec(128, degree)
                    });
                }
            }
        }
        specs
    }

    #[test]
    fn surface_results_are_pinned() {
        // Captured when the simulator began reporting masked deaths by
        // their conditional mean: the FNV-1a of every rendered result, in
        // submission order.
        const SURFACE_FNV: u64 = 89_090_050_744_788_940;
        let report = run_sweep(&surface(32), 2, &mut ResultCache::in_memory()).unwrap();
        assert_eq!(report.entries.len(), 90);
        let rendered: String = report.entries.iter().map(|e| e.result.render_json()).collect();
        assert_eq!(crate::spec::fnv1a(rendered.as_bytes()), SURFACE_FNV);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "reads the committed sweep output")]
    fn unreplicated_simulator_results_match_the_committed_sweep() {
        // The r = 1 stream is `ExpSampler`'s bit for bit (the simulator's
        // module docs), so these five cells stay put when replicated ones
        // move, which the whole-surface FNV above cannot tell apart.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/sweep_fig9_14.json");
        let committed = std::fs::read_to_string(path).unwrap();
        for node_mtbf_hours in [6.0, 12.0, 18.0, 24.0, 30.0] {
            let spec = ScenarioSpec { node_mtbf_hours, ..sim_spec(1.0, 32) };
            let line = format!(
                "{{\"hash\":\"{}\",\"multiplicity\":1,\"spec\":{},\"result\":{}}}",
                spec.hash_hex(),
                spec.render_json(),
                evaluate(&spec).unwrap().render_json()
            );
            let found = committed.lines().any(|l| l.trim().trim_end_matches(',') == line);
            assert!(found, "no committed line reads {line}");
        }
    }

    #[test]
    fn model_masked_failures_exceed_unmasked_at_high_redundancy() {
        let r = evaluate(&model_spec(128, 3.0)).unwrap();
        assert!(
            r.mean_masked_failures > r.mean_failures,
            "triple redundancy masks most deaths: {r:?}"
        );
    }
}
