//! Plain-text table and CSV rendering for experiment outputs.
//!
//! Kept dependency-free on purpose: the harness prints the same rows the
//! paper's tables/figures would contain, and writes CSV siblings for
//! plotting.

use std::fmt::Write as _;

use wcdma_math::stats::{MeanCi, Welford};

/// A simple column-aligned table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as an aligned text table. Columns are padded by `char`
    /// count, so cells such as `3.103 ± 1.541` or a `β` header line up.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let width = |s: &str| s.chars().count();
        let mut widths: Vec<usize> = self.header.iter().map(|h| width(h)).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(width(cell));
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for i in 0..ncol {
                let pad = widths[i] - width(&cells[i]);
                let _ = write!(out, "{}{}", cells[i], " ".repeat(pad));
                if i + 1 < ncol {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncol - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Renders as CSV (RFC-4180-ish; quotes cells containing commas).
    pub fn to_csv(&self) -> String {
        let mut out = csv_line(&self.header);
        for row in &self.rows {
            out.push_str(&csv_line(row));
        }
        out
    }
}

/// Escapes and joins one CSV record (newline-terminated), quoting cells
/// containing commas or quotes. [`Table::to_csv`] and the streaming
/// campaign emitters share this so a row streamed cell-by-cell is
/// byte-identical to the same row rendered in batch.
pub fn csv_line(cells: &[String]) -> String {
    let esc = |s: &str| {
        if s.contains(',') || s.contains('"') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let mut out = cells.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",");
    out.push('\n');
    out
}

/// Formats a float with 3 significant decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a metric accumulator's 95% confidence interval as `mean ± hw`
/// (just `mean` below two replications).
pub fn ci(w: &Welford) -> String {
    let ci = MeanCi::from_welford(w);
    if ci.half_width.is_finite() {
        format!("{:.3} ± {:.3}", ci.mean, ci.half_width)
    } else {
        format!("{:.3}", ci.mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["policy", "delay", "avg β"]);
        t.row(&["jaba-sd".into(), "3.103 ± 1.541".into(), "0.5".into()]);
        t.row(&["fcfs".into(), "0.340".into(), "1.25".into()]);
        let s = t.render();
        assert!(s.contains("policy"));
        assert!(s.lines().count() == 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        // Multibyte cells (±, β) must not shift later columns: every line,
        // the rule included, has the same width in chars.
        let widths: Vec<usize> = s.lines().map(|l| l.chars().count()).collect();
        assert!(widths.iter().all(|&w| w == widths[0]), "{widths:?}\n{s}");
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["x,y".into(), "plain".into()]);
        t.row(&["quote\"inner".into(), "z".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"quote\"\"inner\""));
        // Streamed rows must match the batch rendering byte-for-byte.
        let streamed: String = [
            csv_line(&["a".into(), "b".into()]),
            csv_line(&["x,y".into(), "plain".into()]),
            csv_line(&["quote\"inner".into(), "z".into()]),
        ]
        .concat();
        assert_eq!(streamed, csv);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn ci_formatting() {
        let mut w = Welford::new();
        w.push(2.0);
        assert_eq!(ci(&w), "2.000");
        w.push(4.0);
        // mean 3, s = √2, t(1) = 12.706: hw = 12.706 · √2 / √2.
        assert_eq!(ci(&w), "3.000 ± 12.706");
        assert_eq!(f3(1.23456), "1.235");
    }
}
