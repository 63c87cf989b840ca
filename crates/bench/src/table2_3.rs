//! Tables 2 and 3 — the C/R efficiency breakdown (work / checkpoint /
//! recompute / restart) as node counts grow and jobs lengthen, without
//! redundancy.
//!
//! Reproduced with the Monte-Carlo cluster simulator at the calibrated
//! checkpoint/restart costs (`calib::T23_*`). Configurations whose overhead
//! exceeds capacity (the paper's "useful work becomes insignificant" row)
//! are reported as divergent.

use redcr_cluster::combined::PreparedJob;
use redcr_cluster::job::FailureExposure;
use redcr_cluster::sweep::monte_carlo;

use crate::calib::sandia_config;
use crate::output::TextTable;

/// One breakdown row.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    /// Node count.
    pub nodes: u64,
    /// Job length, hours.
    pub job_hours: f64,
    /// Node MTBF, years.
    pub mtbf_years: f64,
    /// `(work, checkpoint, recompute, restart)` percentages, or `None` if
    /// the configuration diverged.
    pub breakdown: Option<(f64, f64, f64, f64)>,
}

fn simulate_row(nodes: u64, job_hours: f64, mtbf_years: f64, seeds: usize) -> BreakdownRow {
    let cfg = sandia_config(nodes, job_hours, mtbf_years);
    // Gate on the closed form first: a configuration the model calls
    // divergent (λ·t_RR ≥ 1) would grind the Monte Carlo through millions
    // of hopeless attempts.
    if cfg.evaluate().is_err() {
        return BreakdownRow { nodes, job_hours, mtbf_years, breakdown: None };
    }
    let agg = PreparedJob::derive(&cfg, FailureExposure::AllTime).and_then(|prepared| {
        monte_carlo(seeds, crate::worker_threads(), |seed| prepared.simulate(seed))
    });
    let breakdown = match agg {
        Ok(agg) if agg.completed > 0 => {
            let (w, c, r, rs) = agg.mean.breakdown();
            Some((w * 100.0, c * 100.0, r * 100.0, rs * 100.0))
        }
        _ => None,
    };
    BreakdownRow { nodes, job_hours, mtbf_years, breakdown }
}

/// Generates Table 2: a 168-hour job at 5-year node MTBF for growing node
/// counts.
pub fn generate_table2(seeds: usize) -> Vec<BreakdownRow> {
    [100u64, 1_000, 10_000, 100_000]
        .into_iter()
        .map(|nodes| simulate_row(nodes, 168.0, 5.0, seeds))
        .collect()
}

/// Generates Table 3: 100k-node jobs of varying length and MTBF.
pub fn generate_table3(seeds: usize) -> Vec<BreakdownRow> {
    [(168.0, 5.0), (700.0, 5.0), (5_000.0, 1.0)]
        .into_iter()
        .map(|(hours, years)| simulate_row(100_000, hours, years, seeds))
        .collect()
}

fn render_rows(rows: &[BreakdownRow], label_nodes: bool) -> String {
    let mut t = if label_nodes {
        TextTable::new().header(["# Nodes", "work", "checkpt", "recomp.", "restart"])
    } else {
        TextTable::new().header(["job work", "MTBF", "work", "checkpt", "recomp.", "restart"])
    };
    for row in rows {
        let cells: Vec<String> = match row.breakdown {
            Some((w, c, r, rs)) => vec![
                format!("{w:.0}%"),
                format!("{c:.0}%"),
                format!("{r:.0}%"),
                format!("{rs:.0}%"),
            ],
            None => vec!["→0%".into(), "-".into(), "-".into(), "-".into()],
        };
        if label_nodes {
            let mut all = vec![row.nodes.to_string()];
            all.extend(cells);
            t.row(all);
        } else {
            let mut all =
                vec![format!("{:.0} hrs", row.job_hours), format!("{:.0} yrs", row.mtbf_years)];
            all.extend(cells);
            t.row(all);
        }
    }
    t.render()
}

/// Renders Table 2 with the paper's reference values alongside.
pub fn render_table2(rows: &[BreakdownRow]) -> String {
    let mut out =
        String::from("Table 2. 168-hour job, 5-year node MTBF (Monte-Carlo, no redundancy)\n\n");
    out.push_str(&render_rows(rows, true));
    out.push_str("\npaper reference: 96/1/3/0, 92/7/1/0, 75/15/6/4, 35/20/10/35\n");
    out
}

/// Renders Table 3 with the paper's reference values alongside.
pub fn render_table3(rows: &[BreakdownRow]) -> String {
    let mut out = String::from("Table 3. 100k-node job, varied work and MTBF\n\n");
    out.push_str(&render_rows(rows, false));
    out.push_str(
        "\npaper reference: 35/20/10/35, 38/18/9/43, 5/5/5/85 (the last row is\n\
         restart-dominated; at our calibrated costs it diverges outright,\n\
         which is the same conclusion in the limit)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_decays_with_node_count() {
        let rows = generate_table2(6);
        let works: Vec<f64> =
            rows.iter().map(|r| r.breakdown.map(|(w, _, _, _)| w).unwrap_or(0.0)).collect();
        // Work fraction must decay monotonically with scale (Table 2's
        // headline shape).
        for pair in works.windows(2) {
            assert!(pair[1] <= pair[0] + 2.0, "work% should fall with scale: {works:?}");
        }
        // Small cluster is nearly all work; huge cluster is not.
        assert!(works[0] > 90.0, "{works:?}");
        assert!(works[3] < 60.0, "{works:?}");
    }

    #[test]
    fn render_includes_reference() {
        let s = render_table2(&generate_table2(2));
        assert!(s.contains("paper reference"));
    }
}
