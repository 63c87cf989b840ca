//! The capacity-planner sweep: one command reproducing the paper's
//! Figures 9–14 grid through `redcr-sweep`.
//!
//! Two scenario families make up the grid:
//!
//! * the **Section 6 experiment surface** (Figures 9, 11–12 / Table 4):
//!   the CG workload at 128 processes, MTBF ∈ {6, 12, 18, 24, 30} h,
//!   degrees 1x–3x in quarter steps — evaluated by *both* the closed-form
//!   model and the Monte-Carlo cluster simulator;
//! * the **weak-scaling curves** (Figures 13–14): the calibrated 128-hour
//!   job at 5-year node MTBF, degrees {1, 1.5, 2, 2.5, 3}, process counts
//!   log-spaced to 30k and 200k — model backend. The two figures share
//!   their low-N rows, so the submitted batch deliberately contains
//!   duplicates for the dedup front-end to collapse.
//!
//! Alongside the raw grid the output document records the optimizer's
//! landmark points (1x/2x and 1x/3x crossovers, the two-jobs-for-one
//! throughput break-even, the per-MTBF optimal degree) and the Pareto
//! frontiers over (wallclock, node-hours, completion rate) — the global
//! frontier plus one per knob family (scenarios differing only in the
//! redundancy degree), which is the planner's actual tuning question.
//!
//! Everything here is deterministic: a repeated invocation against a warm
//! cache reports 100% hits and writes byte-identical JSON.

use std::path::PathBuf;

use redcr_json::Writer;
use redcr_model::optimizer::{optimal_redundancy, RGrid};
use redcr_sweep::cache::ResultCache;
use redcr_sweep::engine::{run_sweep, SweepError, SweepReport};
use redcr_sweep::pareto::{self, GroupFrontier, ParetoPoint};
use redcr_sweep::spec::{Backend, ScenarioSpec, SpecPolicy, Workload};

use crate::calib::{self, F13_ALPHA, F13_CHECKPOINT_MINS, F13_RESTART_MINS, T4_SEEDS};
use crate::fig13_14::{find_landmarks, process_grid, Landmarks, CURVE_DEGREES};
use crate::output::TextTable;
use crate::paper::constants;

/// Sweep sizing preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepPreset {
    /// The full Figures 9–14 grid.
    Fig9_14,
    /// A CI-sized subgrid exercising both backends and the dedup path.
    Smoke,
}

impl SweepPreset {
    /// Parses `"fig9_14"`/`"smoke"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "fig9_14" => Some(SweepPreset::Fig9_14),
            "smoke" => Some(SweepPreset::Smoke),
            _ => None,
        }
    }

    /// Stable preset name (used in the JSON document).
    pub fn name(self) -> &'static str {
        match self {
            SweepPreset::Fig9_14 => "fig9_14",
            SweepPreset::Smoke => "smoke",
        }
    }

    /// Output file name under `results/`.
    pub fn output_name(self) -> &'static str {
        match self {
            SweepPreset::Fig9_14 => "sweep_fig9_14.json",
            SweepPreset::Smoke => "sweep_smoke.json",
        }
    }

    /// Default persistent cache path under `results/` (per preset, so a
    /// smoke run never warms or dirties the committed full-grid cache).
    pub fn default_cache_path(self) -> PathBuf {
        crate::output::results_dir().join(match self {
            SweepPreset::Fig9_14 => "sweep_cache_fig9_14.jsonl",
            SweepPreset::Smoke => "sweep_cache_smoke.jsonl",
        })
    }
}

/// The Section 6 CG workload as a sweep [`Workload`].
pub fn experiment_workload() -> Workload {
    Workload {
        base_time_hours: constants::BASE_TIME_MINS / 60.0,
        alpha: constants::ALPHA,
        checkpoint_cost_hours: constants::CHECKPOINT_SECS / 3600.0,
        restart_cost_hours: constants::RESTART_SECS / 3600.0,
    }
}

/// The Figures 13–14 weak-scaling workload as a sweep [`Workload`].
pub fn scaling_workload() -> Workload {
    Workload {
        base_time_hours: 128.0,
        alpha: F13_ALPHA,
        checkpoint_cost_hours: F13_CHECKPOINT_MINS / 60.0,
        restart_cost_hours: F13_RESTART_MINS / 60.0,
    }
}

/// Per-node MTBF of the weak-scaling figures (5 years, hours).
pub const SCALING_MTBF_HOURS: f64 = 5.0 * 365.0 * 24.0;

/// The experiment-surface MTBFs of `preset`, hours.
fn mtbf_grid(preset: SweepPreset) -> &'static [f64] {
    match preset {
        SweepPreset::Fig9_14 => &constants::MTBF_HOURS,
        SweepPreset::Smoke => &[6.0, 12.0],
    }
}

/// Per-preset grid sizing: experiment-surface degrees, seeds per simulator
/// point, and the two weak-scaling sub-grids as `(max_n, points)`.
struct GridParams {
    degree_grid: Vec<f64>,
    seeds: u32,
    scaling: [(u64, usize); 2],
}

/// Builds the submitted scenario batch of `preset` (duplicates included —
/// dedup is the engine's job).
pub fn grid(preset: SweepPreset) -> Vec<ScenarioSpec> {
    let GridParams { degree_grid, seeds, scaling } = match preset {
        SweepPreset::Fig9_14 => GridParams {
            degree_grid: RGrid::quarter_steps().degrees().to_vec(),
            seeds: T4_SEEDS as u32,
            scaling: [(30_000, 20), (200_000, 24)],
        },
        SweepPreset::Smoke => GridParams {
            degree_grid: vec![1.0, 2.0, 3.0],
            seeds: 8,
            scaling: [(4_000, 4), (10_000, 5)],
        },
    };

    let mut specs = Vec::new();
    // Experiment surface: both backends over MTBF × degree.
    let workload = experiment_workload();
    for &mtbf in mtbf_grid(preset) {
        for &degree in &degree_grid {
            for backend in [Backend::Model, Backend::Simulator] {
                specs.push(ScenarioSpec {
                    backend,
                    n_virtual: constants::N_PROCESSES,
                    degree,
                    policy: SpecPolicy::Daly,
                    node_mtbf_hours: mtbf,
                    workload,
                    seeds,
                });
            }
        }
    }
    // Weak-scaling curves: model backend over N × degree, one sub-batch
    // per figure. The figures overlap at the low end (both grids start at
    // N = 100), so the submitted batch carries genuine duplicates.
    let workload = scaling_workload();
    for (max_n, points) in scaling {
        for n in process_grid(max_n, points) {
            for &degree in &CURVE_DEGREES {
                specs.push(ScenarioSpec {
                    backend: Backend::Model,
                    n_virtual: n,
                    degree,
                    policy: SpecPolicy::Daly,
                    node_mtbf_hours: SCALING_MTBF_HOURS,
                    workload,
                    seeds: 0,
                });
            }
        }
    }
    specs
}

/// The model's optimal degree at each of `preset`'s experiment MTBFs, as
/// `(mtbf_hours, degree)`; `NaN` where every degree diverges.
pub fn optimal_degree_by_mtbf(preset: SweepPreset) -> Vec<(f64, f64)> {
    mtbf_grid(preset)
        .iter()
        .map(|&mtbf| {
            let degree =
                optimal_redundancy(&calib::experiment_config(mtbf), &RGrid::quarter_steps())
                    .map(|b| b.degree)
                    .unwrap_or(f64::NAN);
            (mtbf, degree)
        })
        .collect()
}

/// Renders the full output document (canonical key order, one scenario
/// per line): the Figures 13–14 landmarks `marks` and `optimal_degrees`
/// (see [`optimal_degree_by_mtbf`]) beside the grid. Cache hit/miss
/// accounting is deliberately *not* part of the document: warm and cold
/// runs must produce byte-identical files.
pub fn render_doc(
    preset: SweepPreset,
    report: &SweepReport,
    front: &[ParetoPoint],
    groups: &[GroupFrontier],
    marks: &Landmarks,
    optimal_degrees: &[(f64, f64)],
) -> String {
    let mut out = String::new();
    let mut w = Writer::document(&mut out, "redcr-sweep-grid/1");
    w.field("preset", preset.name());
    w.key("landmarks").begin_object();
    w.field("cross_1x_2x", marks.cross_1x_2x).field("cross_1x_3x", marks.cross_1x_3x);
    w.field("throughput_2x", marks.throughput_2x);
    w.field("triple_best_beyond", marks.triple_best_beyond);
    w.key("optimal_degree_by_mtbf").inline().begin_array();
    for (mtbf, degree) in optimal_degrees {
        w.begin_array().value(mtbf).value(degree).end_array();
    }
    w.end_array().end_object();
    w.key("scenarios").begin_array();
    for e in &report.entries {
        w.inline().begin_object();
        w.field("hash", format!("{:016x}", e.hash)).field("multiplicity", e.multiplicity);
        w.key("spec");
        e.spec.write_json(&mut w);
        w.key("result");
        e.result.write_json(&mut w);
        w.end_object();
    }
    w.end_array();
    w.key("pareto").inline();
    pareto::write_json(&mut w, front);
    w.key("pareto_groups").inline();
    pareto::write_groups_json(&mut w, groups);
    w.end_document();
    out
}

/// Renders the human-readable Pareto-frontier table.
pub fn render_pareto_table(report: &SweepReport, front: &[ParetoPoint]) -> String {
    let mut t =
        TextTable::new().header(["backend", "N", "r", "mtbf h", "T h", "node-h", "completion"]);
    for p in front {
        let e = &report.entries[p.entry_index];
        t.row([
            e.spec.backend.name().to_string(),
            e.spec.n_virtual.to_string(),
            format!("{}", e.spec.degree),
            format!("{}", e.spec.node_mtbf_hours),
            format!("{:.2}", p.total_time_hours),
            format!("{:.0}", p.node_hours),
            format!("{:.3}", p.completion_rate),
        ]);
    }
    t.render()
}

/// Renders the per-knob-family frontiers compactly: one row per family
/// (backend, scale, MTBF), listing the non-dominated redundancy degrees
/// and the family's best wallclock.
pub fn render_group_table(report: &SweepReport, groups: &[GroupFrontier]) -> String {
    let mut t = TextTable::new().header(["backend", "N", "mtbf h", "frontier r", "best T h"]);
    for g in groups {
        let lead = &report.entries[g.first_entry_index].spec;
        let degrees: Vec<String> = g
            .points
            .iter()
            .map(|p| format!("{}", report.entries[p.entry_index].spec.degree))
            .collect();
        let best_t = g
            .points
            .first()
            .map(|p| format!("{:.2}", p.total_time_hours))
            .unwrap_or_else(|| "-".into());
        t.row([
            lead.backend.name().to_string(),
            lead.n_virtual.to_string(),
            format!("{}", lead.node_mtbf_hours),
            degrees.join(" "),
            best_t,
        ]);
    }
    t.render()
}

/// Renders the one-line cache accounting summary.
pub fn render_stats(report: &SweepReport) -> String {
    let s = &report.stats;
    format!(
        "cache: {} hits, {} misses ({} submitted, {} unique, {} duplicates collapsed)",
        s.cache_hits,
        s.cold_misses,
        s.submitted,
        s.unique,
        s.submitted - s.unique
    )
}

/// Runs the preset's grid against the cache at `cache_path` and returns
/// the report plus the rendered output document.
///
/// # Errors
///
/// Propagates engine and cache errors.
pub fn run(
    preset: SweepPreset,
    cache_path: &std::path::Path,
    threads: usize,
) -> Result<(SweepReport, String), SweepError> {
    let mut cache = ResultCache::open(cache_path)?;
    let report = run_sweep(&grid(preset), threads, &mut cache)?;
    let front = pareto::frontier(&report.entries);
    let groups = pareto::grouped_frontiers(&report.entries);
    let optimal_degrees = optimal_degree_by_mtbf(preset);
    let doc = render_doc(preset, &report, &front, &groups, &find_landmarks(), &optimal_degrees);
    Ok((report, doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_contains_duplicates_for_dedup() {
        let specs = grid(SweepPreset::Smoke);
        let d = redcr_sweep::dedup(&specs);
        assert!(d.duplicates() > 0, "figure sub-grids must overlap at low N");
        assert!(d.unique.len() > 20);
    }

    #[test]
    fn full_grid_shape() {
        let specs = grid(SweepPreset::Fig9_14);
        // 5 MTBFs × 9 degrees × 2 backends + (20 + 24) N-points × 5 degrees.
        assert_eq!(specs.len(), 5 * 9 * 2 + (20 + 24) * 5);
        let d = redcr_sweep::dedup(&specs);
        assert!(d.duplicates() >= 5, "fig13/fig14 share at least N=100 rows");
    }

    #[test]
    fn preset_parses() {
        assert_eq!(SweepPreset::parse("FIG9_14"), Some(SweepPreset::Fig9_14));
        assert_eq!(SweepPreset::parse("smoke"), Some(SweepPreset::Smoke));
        assert_eq!(SweepPreset::parse("x"), None);
    }
}
