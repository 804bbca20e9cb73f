//! Plain-text table rendering and JSON emission helpers for `repro`'s
//! artefacts and suites (the workspace has no serialization dependency,
//! so every report serializes itself by hand — these helpers keep that
//! output machine-parseable).

/// `mean ± std` in percent, matching the paper's table cells.
pub fn fmt_pm(mean: f64, std: f64) -> String {
    format!("{:.1}±{:.1}", 100.0 * mean, 100.0 * std)
}

/// A quoted, escaped JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", fedgta_obs::sink::json_escape(s))
}

/// A JSON number: finite values via `{}` (round-trip formatting),
/// NaN/Inf as `null` — JSON has no non-finite literals, and a bare
/// `NaN` in a report breaks every parser downstream.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A fixed-decimal JSON number; NaN/Inf render as `null`.
pub fn json_fixed(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "null".to_string()
    }
}

/// An optional JSON value: `null` when absent.
pub fn json_opt(v: Option<impl std::fmt::Display>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Appends a report's row array: `  "name": [`, one `    {"key": value,
/// …}` line per row with a comma after every row but the last, then
/// `  ]` (what follows the array is the caller's). `fields` renders a
/// row's values as JSON.
pub fn json_rows<T, F>(s: &mut String, name: &str, rows: &[T], fields: impl Fn(&T) -> F)
where
    F: IntoIterator<Item = (&'static str, String)>,
{
    s.push_str(&format!("  \"{name}\": [\n"));
    for (i, row) in rows.iter().enumerate() {
        let cells: Vec<String> =
            fields(row).into_iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        let comma = if i + 1 < rows.len() { "," } else { "" };
        s.push_str(&format!("    {{{}}}{comma}\n", cells.join(", ")));
    }
    s.push_str("  ]");
}

/// A simple aligned text table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with column alignment.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], width: &[usize]| -> String {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(width) {
                s.push_str(&format!(" {:<w$} |", c, w = w));
            }
            s.push('\n');
            s
        };
        out.push_str(&line(&self.header, &width));
        let mut sep = String::from("|");
        for w in &width {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&line(row, &width));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_pm_is_percent() {
        assert_eq!(fmt_pm(0.823, 0.004), "82.3±0.4");
    }

    #[test]
    fn json_numbers_render_nonfinite_as_null() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
        assert_eq!(json_fixed(1.23456, 3), "1.235");
        assert_eq!(json_fixed(f64::NAN, 3), "null");
        assert_eq!(json_fixed(f64::INFINITY, 0), "null");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(vec!["xx".into(), "y".into()]);
        let r = t.render();
        assert!(r.contains("| a  | bbbb |"));
        assert!(r.contains("| xx | y    |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_row_panics() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["x".into(), "y".into()]);
    }
}
