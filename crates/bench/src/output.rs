//! Output helpers: results directory, aligned tables.

use std::fmt::Write as _;
use std::path::PathBuf;

/// The directory experiment outputs are written to (`results/` at the
/// workspace root, honouring `REDCR_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("REDCR_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    // The bench crate lives at <root>/crates/bench.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|root| root.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Writes `content` to `results/<name>` (creating the directory), and
/// echoes the path.
///
/// # Panics
///
/// Panics on I/O errors — experiment binaries want loud failures.
pub fn write_result(name: &str, content: &str) -> PathBuf {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write result file");
    path
}

/// A simple fixed-width text table builder.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the header cells.
    pub fn header<S: Into<String>>(mut self, cells: impl IntoIterator<Item = S>) -> Self {
        self.header = cells.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a row.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for row in std::iter::once(&self.header).chain(&self.rows) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, row: &[String]| {
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(out, "{:>width$}  ", cell, width = widths[i]);
            }
            let _ = writeln!(out);
        };
        if !self.header.is_empty() {
            fmt_row(&mut out, &self.header);
            let total: usize = widths.iter().map(|w| w + 2).sum();
            let _ = writeln!(out, "{}", "-".repeat(total));
        }
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// Formats minutes with one decimal, or `"div"` for divergent entries.
pub fn mins_or_div(v: Option<f64>) -> String {
    match v {
        Some(m) => format!("{m:.1}"),
        None => "div".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns() {
        let mut t = TextTable::new().header(["a", "bbbb"]);
        t.row(["1", "2"]);
        t.row(["333", "4"]);
        let s = t.render();
        assert!(s.contains("a  bbbb"), "{s}");
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn mins_formatting() {
        assert_eq!(mins_or_div(Some(12.34)), "12.3");
        assert_eq!(mins_or_div(None), "div");
    }

    #[test]
    fn results_dir_is_workspace_level() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }
}
