//! Figure 11 — the *simplified* experimental model (Section 6(5)) evaluated
//! at the Table 4 parameters: one curve per MTBF, time vs degree.

use crate::calib::experiment_config;
use crate::output::TextTable;
use crate::paper::{constants, DEGREES};

/// The modeled matrix: rows by MTBF, columns by degree, minutes.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11 {
    /// `(mtbf_hours, minutes per degree)`.
    pub rows: Vec<(f64, Vec<f64>)>,
}

/// Generates the figure from the simplified model's dimensionally
/// consistent form (see `CombinedConfig::evaluate_simplified`).
pub fn generate() -> Fig11 {
    let rows = constants::MTBF_HOURS
        .iter()
        .map(|&mtbf| {
            let cfg = experiment_config(mtbf);
            let minutes = DEGREES
                .iter()
                .map(|&d| {
                    cfg.with_degree(d)
                        .evaluate_simplified()
                        .map(|hours| hours * 60.0)
                        .unwrap_or(f64::INFINITY)
                })
                .collect();
            (mtbf, minutes)
        })
        .collect();
    Fig11 { rows }
}

/// Renders the matrix.
pub fn render(fig: &Fig11) -> String {
    let mut t = TextTable::new()
        .header(std::iter::once("MTBF".to_string()).chain(DEGREES.iter().map(|d| format!("{d}x"))));
    for (mtbf, row) in &fig.rows {
        let mut cells = vec![format!("{mtbf:.0} hrs")];
        cells.extend(row.iter().map(
            |v| {
                if v.is_finite() {
                    format!("{v:.1}")
                } else {
                    "div".into()
                }
            },
        ));
        t.row(cells);
    }
    format!(
        "Figure 11. Modeled application performance [minutes]\n\
         (simplified model, Consistent form; t = 46 min, N = 128, α = 0.2,\n\
         c = 120 s, R = 500 s)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_fall_with_mtbf_and_shape_matches() {
        let fig = generate();
        assert_eq!(fig.rows.len(), 5);
        // Higher MTBF -> faster at every degree.
        for (d, degree) in DEGREES.iter().enumerate() {
            for w in fig.rows.windows(2) {
                if w[0].1[d].is_finite() && w[1].1[d].is_finite() {
                    assert!(
                        w[1].1[d] <= w[0].1[d] + 1e-9,
                        "degree {degree} should improve with MTBF"
                    );
                }
            }
        }
        // Dual redundancy beats 1x at the lowest MTBF.
        let row6 = &fig.rows[0].1;
        assert!(row6[4] < row6[0], "2x {} vs 1x {}", row6[4], row6[0]);
        // All times at least the redundant base time.
        for (_, row) in &fig.rows {
            for (i, v) in row.iter().enumerate() {
                if v.is_finite() {
                    let t_red = 46.0 * (0.8 + 0.2 * DEGREES[i]);
                    assert!(*v >= t_red - 1e-6);
                }
            }
        }
    }
}
