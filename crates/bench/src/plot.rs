//! Terminal line charts for the figure binaries: multi-series ASCII plots
//! of accuracy-vs-round / accuracy-vs-time curves, so `fig1`/`fig4`
//! outputs read as actual figures rather than tables alone.

/// One named series of `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Data points (x ascending not required; plotted as given).
    pub points: Vec<(f64, f64)>,
}

/// Renders series onto a `width × height` character canvas with per-series
/// glyphs, returning the chart plus a legend line.
pub fn render_chart(series: &[Series], width: usize, height: usize) -> String {
    const GLYPHS: &[char] = &['*', 'o', '+', 'x', '#', '@', '%', '&', '~', '^'];
    let all: Vec<(f64, f64)> = series.iter().flat_map(|s| s.points.iter().copied()).collect();
    if all.is_empty() {
        return String::from("(no data)\n");
    }
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &all {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    if (x_max - x_min).abs() < 1e-12 {
        x_max = x_min + 1.0;
    }
    if (y_max - y_min).abs() < 1e-12 {
        y_max = y_min + 1.0;
    }
    let mut canvas = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in &s.points {
            let cx = (((x - x_min) / (x_max - x_min)) * (width - 1) as f64).round() as usize;
            let cy = (((y - y_min) / (y_max - y_min)) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            canvas[row][cx.min(width - 1)] = glyph;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{y_max:>8.1} ┤"));
    out.push_str(&canvas[0].iter().collect::<String>());
    out.push('\n');
    for row in &canvas[1..height - 1] {
        out.push_str("         │");
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&format!("{y_min:>8.1} ┤"));
    out.push_str(&canvas[height - 1].iter().collect::<String>());
    out.push('\n');
    out.push_str("         └");
    out.push_str(&"─".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "          {:<10}{:>width$.1}\n",
        format!("{x_min:.1}"),
        x_max,
        width = width.saturating_sub(10)
    ));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, s)| format!("{} {}", GLYPHS[i % GLYPHS.len()], s.name))
        .collect();
    out.push_str(&format!("          legend: {}\n", legend.join("  ")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_chart_says_so() {
        assert_eq!(render_chart(&[], 10, 5), "(no data)\n");
    }

    #[test]
    fn single_series_renders_its_glyph_and_legend() {
        let s = Series { name: "FedGTA".into(), points: vec![(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)] };
        let chart = render_chart(&[s], 20, 6);
        assert!(chart.contains('*'));
        assert!(chart.contains("legend: * FedGTA"));
        // Bounds on the axes.
        assert!(chart.contains("1.0"));
        assert!(chart.contains("0.0"));
    }

    #[test]
    fn two_series_use_distinct_glyphs() {
        let a = Series { name: "a".into(), points: vec![(0.0, 0.0), (1.0, 1.0)] };
        let b = Series { name: "b".into(), points: vec![(0.0, 1.0), (1.0, 0.0)] };
        let chart = render_chart(&[a, b], 15, 5);
        assert!(chart.contains('*') && chart.contains('o'));
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let s = Series { name: "flat".into(), points: vec![(0.0, 0.7), (5.0, 0.7)] };
        let chart = render_chart(&[s], 12, 4);
        assert!(chart.contains('*'));
    }
}
