//! Table 4 / Figures 8–9 — execution time under combined C/R + redundancy
//! with fault injection, for every MTBF × degree cell.
//!
//! Reproduction strategy (hybrid, mirroring the paper's procedure): the
//! failure-free redundant execution time `t_Red(r)` comes from the **real
//! runtime measurement** (Table 5's curve — this is what injects the
//! super-linear overhead the paper observes), and the fault-injection /
//! checkpoint / restart timeline is replayed by the Monte-Carlo simulator
//! at the paper's measured constants (`c = 120 s`, `R = 500 s`,
//! Daly-interval checkpointing, failures not injected during overheads).

use redcr_cluster::combined::PreparedJob;
use redcr_cluster::job::{FailureExposure, JobConfig};
use redcr_cluster::sweep::monte_carlo;
use redcr_fault::ReplicaGroups;
use redcr_model::checkpointing::daly_interval;
use redcr_model::redundancy::SystemModel;
use redcr_model::units;

use crate::calib::{self, experiment_config};
use crate::output::{mins_or_div, TextTable};
use crate::paper::{constants, DEGREES, TABLE4};
use crate::table5::Table5;

/// One Table 4 cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Per-process MTBF, hours.
    pub mtbf_hours: f64,
    /// Redundancy degree.
    pub degree: f64,
    /// Mean execution time over the Monte-Carlo seeds, minutes (`None` if
    /// the configuration diverged).
    pub minutes: Option<f64>,
}

/// The full matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4 {
    /// Rows by MTBF, columns by [`DEGREES`].
    pub rows: Vec<(f64, Vec<Cell>)>,
}

impl Table4 {
    /// The degree with minimum time for a given MTBF row.
    pub fn argmin_degree(&self, row: usize) -> f64 {
        let cells = &self.rows[row].1;
        cells
            .iter()
            .filter_map(|c| c.minutes.map(|m| (c.degree, m)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(d, _)| d)
            .expect("at least one cell completes")
    }
}

/// Simulates one cell: `t_Red` from the measured curve, failures from the
/// sphere-failure law sampler.
pub fn simulate_cell(t5: &Table5, mtbf_hours: f64, degree_idx: usize, seeds: usize) -> Cell {
    let degree = DEGREES[degree_idx];
    let cfg = experiment_config(mtbf_hours).with_degree(degree);
    // Work amount: the measured failure-free time at this degree, hours.
    let work_hours = t5.observed_minutes[degree_idx] / 60.0;
    // Daly interval from the analytic system MTBF at this degree.
    let system = SystemModel::new(cfg.n_virtual, degree, cfg.node_mtbf).expect("valid system");
    let sys = system.evaluate(work_hours).expect("valid horizon");
    let interval = if sys.failure_rate == 0.0 {
        work_hours
    } else {
        daly_interval(cfg.checkpoint_cost, sys.mtbf).expect("valid interval")
    };
    let partition = cfg.partition().expect("valid partition");
    let counts: Vec<usize> =
        (0..partition.n_virtual()).map(|v| partition.replicas_of(v) as usize).collect();
    let job = JobConfig {
        work: work_hours,
        checkpoint_cost: units::hours_from_secs(constants::CHECKPOINT_SECS),
        checkpoint_interval: interval,
        restart_cost: units::hours_from_secs(constants::RESTART_SECS),
        // The paper's experiments do not inject failures during
        // checkpoints or restarts (Section 6(5)).
        exposure: FailureExposure::WorkOnly,
        max_attempts: 200_000,
    };
    let prepared = PreparedJob::new(job, ReplicaGroups::from_counts(&counts), cfg.node_mtbf);
    let agg = monte_carlo(seeds, crate::worker_threads(), |seed| prepared.simulate(seed));
    let minutes = match agg {
        Ok(agg) if agg.completed > 0 => Some(agg.mean_total_time * 60.0),
        _ => None,
    };
    Cell { mtbf_hours, degree, minutes }
}

/// Generates the full Table 4 matrix from a measured Table 5 curve.
pub fn generate(t5: &Table5, seeds: usize) -> Table4 {
    let rows = constants::MTBF_HOURS
        .iter()
        .map(|&mtbf| {
            let cells = (0..DEGREES.len()).map(|i| simulate_cell(t5, mtbf, i, seeds)).collect();
            (mtbf, cells)
        })
        .collect();
    Table4 { rows }
}

/// Renders the matrix with per-row minima and paper reference rows.
pub fn render(t4: &Table4) -> String {
    let mut t = TextTable::new()
        .header(std::iter::once("MTBF".to_string()).chain(DEGREES.iter().map(|d| format!("{d}x"))));
    for (i, (mtbf, cells)) in t4.rows.iter().enumerate() {
        let min_degree = t4.argmin_degree(i);
        let mut row = vec![format!("{mtbf:.0} hrs")];
        for c in cells {
            let mark = if c.degree == min_degree { "*" } else { "" };
            row.push(format!("{}{}", mins_or_div(c.minutes), mark));
        }
        t.row(row);
    }
    let mut paper_t = TextTable::new()
        .header(std::iter::once("MTBF".to_string()).chain(DEGREES.iter().map(|d| format!("{d}x"))));
    for (mtbf, row) in TABLE4 {
        let mut cells = vec![format!("{mtbf:.0} hrs")];
        cells.extend(row.iter().map(|v| format!("{v:.0}")));
        paper_t.row(cells);
    }
    format!(
        "Table 4 / Figures 8-9. Execution time [minutes] for combined\n\
         C/R + redundancy ({} virtual processes, {} Monte-Carlo seeds per cell,\n\
         t_Red from the measured Table 5 curve; * = row minimum)\n\n{}\n\
         paper reference:\n\n{}",
        constants::N_PROCESSES,
        calib::T4_SEEDS,
        t.render(),
        paper_t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table5;

    #[test]
    fn redundancy_wins_and_triple_gains_as_mtbf_falls() {
        // The committed table's seed count: at 12 seeds the 6 h − 30 h gap
        // difference below spreads around its mean of about 0.17 widely
        // enough to fall under 0.05 for some seed blocks.
        let t5 = table5::generate();
        let t4 = generate(&t5, calib::T4_SEEDS);
        // Minima always at r >= 2 ("a redundancy level of 2 [or more] is
        // the best choice in all cases").
        for i in 0..t4.rows.len() {
            assert!(t4.argmin_degree(i) >= 2.0, "row {i} min at {}", t4.argmin_degree(i));
        }
        // Every row's 1x time exceeds its 2x time (C/R alone loses).
        for (i, (mtbf, cells)) in t4.rows.iter().enumerate() {
            let t1 = cells[0].minutes.unwrap_or(f64::INFINITY);
            let t2 = cells[4].minutes.expect("2x completes");
            assert!(t1 > t2, "row {i} (MTBF {mtbf}): 1x {t1} <= 2x {t2}");
        }
        // Triple redundancy becomes relatively more attractive as the MTBF
        // drops (the paper's 6h row flips to 3x-optimal; in our
        // reproduction the 2x/3x gap collapses to a couple of percent at
        // 6h while 3x loses clearly at 30h).
        let gap = |row: usize| {
            let cells = &t4.rows[row].1;
            cells[8].minutes.expect("3x completes") / cells[4].minutes.expect("2x completes")
        };
        assert!(
            gap(0) < gap(4) - 0.05,
            "3x/2x gap must shrink as MTBF falls: 6h {} vs 30h {}",
            gap(0),
            gap(4)
        );
        assert!(gap(0) < 1.12, "3x within striking distance of 2x at 6h: {}", gap(0));
    }

    #[test]
    fn quarter_step_penalty_visible() {
        // Paper observation (4): 1.25x tends to be no better than 1x, and
        // 2.25x no better than 2x, because the overhead jump outweighs the
        // reliability gain. With the measured overhead curve this shows up
        // in at least the majority of rows.
        let t5 = table5::generate();
        let t4 = generate(&t5, 12);
        let mut quarter_worse = 0;
        for (_, cells) in &t4.rows {
            let t2 = cells[4].minutes.unwrap_or(f64::INFINITY);
            let t225 = cells[5].minutes.unwrap_or(f64::INFINITY);
            if t225 >= t2 {
                quarter_worse += 1;
            }
        }
        assert!(quarter_worse >= 3, "2.25x should usually lose to 2x: {quarter_worse}/5");
    }
}
