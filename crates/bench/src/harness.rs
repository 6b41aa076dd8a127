//! Table formatting and rendering helpers shared by all experiments.
//! (Measurement helpers — leak ratios, binned sampling — live in
//! `aitf_scenario::probe` now.)

use aitf_engine::{tabulate, RunRecord, ScenarioSpec};

/// A printable results table with aligned columns.
///
/// # Examples
///
/// ```
/// use aitf_bench::Table;
///
/// let mut t = Table::new("demo", &["x", "y"]);
/// t.row(&["1", "2.0"]);
/// let s = t.render();
/// assert!(s.contains("demo"));
/// assert!(s.contains("1"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of already-owned cells.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cell accessor (row, column) for tests.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cell, width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Builds a [`Table`] from engine run records: parameter columns first,
/// then metric columns (the engine's [`tabulate()`] projection).
pub fn table_from_records(title: &str, records: &[RunRecord]) -> Table {
    let (headers, rows) = tabulate(records);
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(title, &header_refs);
    for row in rows {
        table.row_owned(row);
    }
    table
}

/// Prints a finished sweep: its table, then its expectation prose.
pub fn render_sweep(spec: &ScenarioSpec, records: &[RunRecord]) {
    table_from_records(&spec.title, records).print();
    if !spec.expectation.is_empty() {
        println!("paper expectation: {}\n", spec.expectation);
    }
}

/// Formats a float compactly (6 significant-ish digits, no noise) — the
/// same rules engine tables and JSON use, re-exported so hand-built tables
/// match engine-rendered ones.
pub use aitf_engine::params::fmt_compact as fmt_f;

/// Prints a series in a gnuplot-friendly two-column layout.
pub fn print_series(name: &str, points: &[(f64, f64)]) {
    println!("# series: {name}");
    for (x, y) in points {
        println!("{x:.3} {y:.6}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("t", &["aa", "b"]);
        t.row(&["1", "22222"]);
        t.row(&["333", "4"]);
        let s = t.render();
        assert!(s.contains("## t"));
        let lines: Vec<&str> = s.lines().collect();
        // Header, rule, two rows.
        assert_eq!(lines.len(), 5);
        assert_eq!(t.len(), 2);
        assert_eq!(t.cell(0, 1), "22222");
    }

    #[test]
    fn zero_column_table_renders_without_panicking() {
        // A spec with no points tabulates to zero headers; render must not
        // underflow the rule-width arithmetic.
        let t = table_from_records("empty", &[]);
        assert!(t.is_empty());
        assert!(t.render().contains("## empty"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn fmt_f_ranges() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(0.00083), "0.00083");
        assert_eq!(fmt_f(1.5), "1.50");
        assert_eq!(fmt_f(1234.0), "1234");
    }
}
