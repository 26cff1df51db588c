//! Terminal (ASCII) plots.
//!
//! The figure-regeneration binaries print a quick visual check of every
//! series directly to the terminal, so the paper's plots can be eyeballed
//! without leaving the shell. Output is deliberately plain ASCII (no ANSI
//! colors, no Unicode braille) so it survives logs and CI captures.

use std::fmt::Write as _;

/// Plot width in characters (excluding axis labels).
const WIDTH: usize = 90;

/// Plot height in rows.
const HEIGHT: usize = 22;

/// Labels for [`plot_lines`].
#[derive(Clone, Debug)]
pub struct PlotConfig {
    /// Plot title printed above the canvas.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
}

/// Markers assigned to series 0, 1, 2, … in order.
const MARKERS: &[char] = &['*', '+', 'o', 'x', '#', '@'];

/// Renders one or more `(x, y)` series onto a shared-axis ASCII canvas,
/// 90 × 22 characters.
///
/// Each series is a `(name, points)` pair; points need not be sorted.
/// Returns the rendered multi-line string (callers print it).
///
/// # Panics
///
/// Panics if no series contains any finite point.
///
/// # Examples
///
/// ```
/// use simstats::ascii::{plot_lines, PlotConfig};
///
/// let series = vec![("ramp", vec![(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)])];
/// let cfg = PlotConfig {
///     title: String::new(),
///     x_label: "x".into(),
///     y_label: "y".into(),
/// };
/// let out = plot_lines(&series, &cfg);
/// assert!(out.contains('*'));
/// assert!(out.contains("ramp"));
/// ```
pub fn plot_lines(series: &[(&str, Vec<(f64, f64)>)], cfg: &PlotConfig) -> String {
    let finite: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().copied())
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    assert!(!finite.is_empty(), "plot_lines: no finite points to plot");

    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &finite {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    // Degenerate ranges: widen symmetrically so everything still renders.
    if x_min == x_max {
        x_min -= 0.5;
        x_max += 0.5;
    }
    if y_min == y_max {
        y_min -= 0.5;
        y_max += 0.5;
    }

    let mut canvas = vec![vec![' '; WIDTH]; HEIGHT];
    for (si, (_, pts)) in series.iter().enumerate() {
        let marker = MARKERS[si % MARKERS.len()];
        for &(x, y) in pts {
            if !x.is_finite() || !y.is_finite() {
                continue;
            }
            let cx = ((x - x_min) / (x_max - x_min) * (WIDTH - 1) as f64).round() as usize;
            let cy = ((y - y_min) / (y_max - y_min) * (HEIGHT - 1) as f64).round() as usize;
            let row = HEIGHT - 1 - cy.min(HEIGHT - 1);
            let col = cx.min(WIDTH - 1);
            // First series wins contested cells so baselines do not erase
            // the primary trace.
            if canvas[row][col] == ' ' {
                canvas[row][col] = marker;
            }
        }
    }

    let mut out = String::new();
    if !cfg.title.is_empty() {
        let _ = writeln!(out, "  {}", cfg.title);
    }
    let y_hi_label = format!("{y_max:.3}");
    let y_lo_label = format!("{y_min:.3}");
    let label_w = y_hi_label.len().max(y_lo_label.len());
    for (i, row) in canvas.iter().enumerate() {
        let label = if i == 0 {
            format!("{y_hi_label:>label_w$}")
        } else if i == HEIGHT - 1 {
            format!("{y_lo_label:>label_w$}")
        } else {
            " ".repeat(label_w)
        };
        let _ = writeln!(out, "{label} |{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "{} +{}", " ".repeat(label_w), "-".repeat(WIDTH));
    let x_lo = format!("{x_min:.3}");
    let x_hi = format!("{x_max:.3}");
    let pad = WIDTH.saturating_sub(x_lo.len() + x_hi.len());
    let _ = writeln!(
        out,
        "{} {x_lo}{}{x_hi}",
        " ".repeat(label_w),
        " ".repeat(pad)
    );
    let _ = writeln!(
        out,
        "{}  [{} vs {}]",
        " ".repeat(label_w),
        cfg.y_label,
        cfg.x_label
    );
    for (si, (name, _)) in series.iter().enumerate() {
        let _ = writeln!(
            out,
            "{}   {} {}",
            " ".repeat(label_w),
            MARKERS[si % MARKERS.len()],
            name
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PlotConfig {
        PlotConfig {
            title: "test".into(),
            x_label: "t".into(),
            y_label: "v".into(),
        }
    }

    #[test]
    fn renders_title_axes_and_legend() {
        let out = plot_lines(&[("s1", vec![(0.0, 0.0), (1.0, 1.0)])], &cfg());
        assert!(out.contains("test"));
        assert!(out.contains("s1"));
        assert!(out.contains("[v vs t]"));
        assert!(out.contains('|'));
        assert!(out.contains('+'));
    }

    #[test]
    fn corners_are_plotted() {
        let out = plot_lines(&[("s", vec![(0.0, 0.0), (1.0, 1.0)])], &cfg());
        let lines: Vec<&str> = out.lines().collect();
        // Row 1 (after title) is the top of the canvas → contains the max point.
        let top_row = lines[1];
        assert!(top_row.ends_with('*') || top_row.contains('*'));
    }

    #[test]
    fn two_series_use_distinct_markers() {
        let out = plot_lines(
            &[
                ("a", vec![(0.0, 0.0), (1.0, 1.0)]),
                ("b", vec![(0.0, 1.0), (1.0, 0.0)]),
            ],
            &cfg(),
        );
        assert!(out.contains('*'));
        assert!(out.contains('+'));
    }

    #[test]
    fn constant_series_does_not_panic() {
        let out = plot_lines(&[("flat", vec![(0.0, 5.0), (1.0, 5.0)])], &cfg());
        assert!(out.contains('*'));
    }

    #[test]
    fn single_point_does_not_panic() {
        let out = plot_lines(&[("dot", vec![(2.0, 3.0)])], &cfg());
        assert!(out.contains('*'));
    }

    #[test]
    #[should_panic(expected = "no finite points")]
    fn empty_input_panics() {
        let _ = plot_lines(&[("none", vec![])], &cfg());
    }

    #[test]
    fn nonfinite_points_are_skipped() {
        let out = plot_lines(
            &[(
                "s",
                vec![
                    (0.0, 1.0),
                    (f64::NAN, 2.0),
                    (1.0, f64::INFINITY),
                    (1.0, 2.0),
                ],
            )],
            &cfg(),
        );
        assert!(out.contains('*'));
    }

    #[test]
    fn axis_labels_show_ranges() {
        let out = plot_lines(&[("s", vec![(0.0, 10.0), (5.0, 20.0)])], &cfg());
        assert!(out.contains("20.000"));
        assert!(out.contains("10.000"));
        assert!(out.contains("0.000"));
        assert!(out.contains("5.000"));
    }
}
