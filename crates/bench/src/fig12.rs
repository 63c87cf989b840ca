//! Figure 12 — observed (Monte-Carlo over the measured overhead curve)
//! versus modeled (simplified model) performance, with a Q-Q-style fit
//! summary.

use crate::fig11;
use crate::output::TextTable;
use crate::paper::DEGREES;
use crate::table4::Table4;

/// The paired observed/modeled data.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// Per selected MTBF: `(mtbf, observed minutes, modeled minutes)`.
    pub rows: Vec<(f64, Vec<Option<f64>>, Vec<f64>)>,
}

impl Fig12 {
    /// The paired `(observed, modeled)` samples (finite only).
    pub fn pairs(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        for (_, obs, model) in &self.rows {
            for (o, m) in obs.iter().zip(model) {
                if let Some(o) = o {
                    if m.is_finite() {
                        out.push((*o, *m));
                    }
                }
            }
        }
        out
    }

    /// Pearson correlation between observed and modeled times — the
    /// quantitative stand-in for the paper's "Q-Q plot indicates a close
    /// fit".
    pub fn correlation(&self) -> f64 {
        let pairs = self.pairs();
        let n = pairs.len() as f64;
        if n < 2.0 {
            return f64::NAN;
        }
        let (mx, my) = (
            pairs.iter().map(|p| p.0).sum::<f64>() / n,
            pairs.iter().map(|p| p.1).sum::<f64>() / n,
        );
        let mut cov = 0.0;
        let mut vx = 0.0;
        let mut vy = 0.0;
        for (x, y) in &pairs {
            cov += (x - mx) * (y - my);
            vx += (x - mx).powi(2);
            vy += (y - my).powi(2);
        }
        cov / (vx.sqrt() * vy.sqrt())
    }

    /// Mean relative deviation of modeled from observed.
    pub fn mean_relative_error(&self) -> f64 {
        let pairs = self.pairs();
        if pairs.is_empty() {
            return f64::NAN;
        }
        pairs.iter().map(|(o, m)| ((m - o) / o).abs()).sum::<f64>() / pairs.len() as f64
    }
}

/// Generates the overlay from an already-generated Table 4 (observed) and
/// the simplified model, for the selected MTBFs (the paper overlays a
/// subset for legibility).
pub fn generate_from(t4: &Table4, mtbfs: &[f64]) -> Fig12 {
    let model = fig11::generate();
    let rows = mtbfs
        .iter()
        .map(|&mtbf| {
            let obs_row = t4
                .rows
                .iter()
                .find(|(m, _)| (*m - mtbf).abs() < 1e-9)
                .map(|(_, cells)| cells.iter().map(|c| c.minutes).collect())
                .unwrap_or_else(|| vec![None; DEGREES.len()]);
            let model_row = model
                .rows
                .iter()
                .find(|(m, _)| (*m - mtbf).abs() < 1e-9)
                .map(|(_, row)| row.clone())
                .unwrap_or_else(|| vec![f64::INFINITY; DEGREES.len()]);
            (mtbf, obs_row, model_row)
        })
        .collect();
    Fig12 { rows }
}

/// Renders the overlay plus the fit summary.
pub fn render(fig: &Fig12) -> String {
    let mut t = TextTable::new().header(
        std::iter::once("series".to_string()).chain(DEGREES.iter().map(|d| format!("{d}x"))),
    );
    for (mtbf, obs, model) in &fig.rows {
        let mut row = vec![format!("observed {mtbf:.0}h")];
        row.extend(obs.iter().map(|v| crate::output::mins_or_div(*v)));
        t.row(row);
        let mut row = vec![format!("modeled  {mtbf:.0}h")];
        row.extend(model.iter().map(
            |v| {
                if v.is_finite() {
                    format!("{v:.1}")
                } else {
                    "div".into()
                }
            },
        ));
        t.row(row);
    }
    format!(
        "Figure 12. Observed vs modeled performance [minutes]\n\n{}\n\
         fit: Pearson r = {:.3}, mean |relative error| = {:.1}%\n",
        t.render(),
        fig.correlation(),
        fig.mean_relative_error() * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::constants;
    use crate::{table4, table5};

    #[test]
    fn observed_and_modeled_track_each_other() {
        let t4 = table4::generate(&table5::generate(), 10);
        let fig = generate_from(&t4, &constants::MTBF_HOURS);
        let r = fig.correlation();
        assert!(r > 0.8, "observed/modeled correlation {r} too weak");
        let mre = fig.mean_relative_error();
        assert!(mre < 0.35, "mean relative error {mre} too large");
    }
}
