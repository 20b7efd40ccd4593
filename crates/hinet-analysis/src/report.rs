//! Table rendering for experiment output.
//!
//! Experiments produce small tabular results (a handful of rows of numbers
//! and labels). This module renders them as aligned plain text, GitHub
//! markdown, or CSV — deliberately hand-rolled: pulling in a serialisation
//! stack for four-row tables would be all cost and no benefit.

use std::fmt::Write as _;

/// A simple rectangular table: a header row plus data rows of strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Row count (excluding header).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count.
    pub fn push_row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Access the raw rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Cell accessor (`row`, `col`), panicking out of range.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    fn column_widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }

    /// Render as aligned plain text (the format the examples print).
    pub fn to_text(&self) -> String {
        let widths = self.column_widths();
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let render_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!(" {c:<w$} "))
                .collect::<Vec<_>>()
                .join("|")
        };
        let _ = writeln!(out, "{}", render_row(&self.headers));
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row));
        }
        out
    }

    /// Render as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}", self.title);
        let _ = writeln!(out);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Render as CSV (RFC-4180 quoting for cells containing commas or
    /// quotes).
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| field(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| field(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Format a float with a sensible fixed precision for report cells.
pub fn fmt_f64(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

/// Format a ratio as a percentage string, e.g. `0.46` → `"46.0%"`.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["model", "time", "comm"]);
        t.push_row(vec!["klo".into(), "180".into(), "8000".into()]);
        t.push_row(vec!["hinet".into(), "126".into(), "4320".into()]);
        t
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.title(), "Demo");
        assert_eq!(t.headers.len(), 3);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.cell(1, 2), "4320");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_enforced() {
        let mut t = Table::new("Bad", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn text_render_is_aligned() {
        let text = sample().to_text();
        assert!(text.contains("Demo"));
        let lines: Vec<&str> = text.lines().collect();
        // Header, separator, two rows, plus title.
        assert_eq!(lines.len(), 5);
        assert!(lines[2].contains('+'));
        assert!(lines[3].contains("klo"));
    }

    #[test]
    fn markdown_has_separator_row() {
        let md = sample().to_markdown();
        assert!(md.contains("| model | time | comm |"));
        assert!(md.contains("|---|---|---|"));
        assert!(md.contains("| hinet | 126 | 4320 |"));
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new("X", &["a"]);
        t.push_row(vec!["hello, world".into()]);
        t.push_row(vec!["say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"hello, world\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(1.23456), "1.23");
        assert_eq!(fmt_pct(0.4621), "46.2%");
    }
}
