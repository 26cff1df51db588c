//! Plain-text exporters for experiment results.
//!
//! Two formats are supported, both trivially consumable:
//!
//! * **gnuplot `.dat`** — whitespace-separated columns with `#` comments,
//!   the format the original paper's plots were produced from.
//! * **Prometheus text exposition** — [`prometheus_text`] renders a
//!   [`MetricsRegistry`]'s counters plus computed gauges (such as sketch
//!   quantiles) for scraping or golden-file comparison.
//!
//! The writers are deliberately dependency-free (no serde): every artifact
//! is a flat numeric table. See DESIGN.md §7 and §13.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::registry::MetricsRegistry;

/// A named numeric column set — the common denominator of everything the
/// harness exports (cwnd traces, CDF points, sweep tables).
///
/// All columns must have equal length.
///
/// # Examples
///
/// ```
/// use simstats::export::Table;
///
/// let mut t = Table::new(vec!["time_ms", "cwnd_kb"]);
/// t.push_row(&[0.0, 1.0]);
/// t.push_row(&[1.0, 2.0]);
/// let dat = t.to_gnuplot();
/// assert!(dat.starts_with("# time_ms\tcwnd_kb\n0\t1\n"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<f64>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "Table requires at least one column");
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header count.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != column count {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row.to_vec());
    }

    /// Builds a table from `(x, y)` pairs with two column names.
    pub fn from_pairs<S: Into<String>>(x_name: S, y_name: S, pairs: &[(f64, f64)]) -> Self {
        let mut t = Table::new(vec![x_name.into(), y_name.into()]);
        for &(x, y) in pairs {
            t.push_row(&[x, y]);
        }
        t
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Renders a number compactly: integers without a decimal point,
    /// everything else with up to 9 significant digits. Shared with the
    /// Prometheus exporter so every text format renders values the same
    /// way.
    pub(crate) fn fmt_num(v: f64) -> String {
        if v.fract() == 0.0 && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            let s = format!("{v:.9}");
            // Trim trailing zeros but keep at least one decimal digit.
            let trimmed = s.trim_end_matches('0');
            let trimmed = if trimmed.ends_with('.') {
                &s[..trimmed.len() + 1]
            } else {
                trimmed
            };
            trimmed.to_string()
        }
    }

    /// Serializes to a gnuplot-ready `.dat` block: `#`-prefixed header,
    /// whitespace-separated columns.
    pub fn to_gnuplot(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.headers.join("\t"));
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(|&v| Self::fmt_num(v)).collect();
            out.push_str(&line.join("\t"));
            out.push('\n');
        }
        out
    }

    /// Writes the gnuplot rendering to `path`, creating parent directories.
    pub fn write_gnuplot(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_gnuplot())
    }
}

/// Renders a [`MetricsRegistry`]'s counters in the Prometheus text
/// exposition format: a `# HELP` / `# TYPE` pair followed by the sample
/// line, one family per metric.
///
/// `extra_gauges` are float-valued gauges appended to the same exposition
/// — the only way a gauge reaches it: derived, merge-then-query values
/// such as sketch quantiles, which must be computed *after* aggregation
/// and so never live inside a per-shard registry (DESIGN.md §13). Their
/// names are lowercase snake case and must not end in `_total`, the
/// suffix that marks counters.
///
/// Output is sorted by metric name, so the rendering is a pure function
/// of the metric *set* — registries merged in any shard order export
/// byte-identical text (the property the golden-file smoke pins).
///
/// # Examples
///
/// ```
/// use simstats::registry::MetricsRegistry;
/// use simstats::export::prometheus_text;
///
/// let mut reg = MetricsRegistry::new();
/// let c = reg.counter("cells_sent_total", "cells put on the wire");
/// reg.add(c, 42);
/// let text = prometheus_text(&reg, &[("sim_p99_seconds", "tail latency", 1.25)]);
/// assert!(text.contains("# TYPE cells_sent_total counter\ncells_sent_total 42\n"));
/// assert!(text.contains("sim_p99_seconds 1.25\n"));
/// ```
pub fn prometheus_text(registry: &MetricsRegistry, extra_gauges: &[(&str, &str, f64)]) -> String {
    let mut entries: Vec<(&str, &str, &str, String)> = registry
        .sorted_entries()
        .map(|(name, help, value)| (name, help, "counter", Table::fmt_num(value as f64)))
        .collect();
    for &(name, help, value) in extra_gauges {
        crate::registry::validate_name(name);
        assert!(
            !name.ends_with("_total"),
            "gauge name {name:?} must not end in _total (that suffix marks counters)"
        );
        assert!(
            !value.is_nan(),
            "Prometheus gauge {name:?} is NaN — refuse to export a poisoned value"
        );
        entries.push((name, help, "gauge", Table::fmt_num(value)));
    }
    entries.sort_by_key(|&(name, ..)| name);
    for pair in entries.windows(2) {
        assert!(
            pair[0].0 != pair[1].0,
            "duplicate metric name {:?} in Prometheus export",
            pair[0].0
        );
    }
    let mut out = String::new();
    for (name, help, kind, value) in entries {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        let _ = writeln!(out, "{name} {value}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_print_short() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.push_row(&[1.0, 2.5, -3.0]);
        t.push_row(&[4.0, 0.125, 6.0]);
        let dat = t.to_gnuplot();
        let lines: Vec<&str> = dat.lines().collect();
        assert_eq!(lines, vec!["# a\tb\tc", "1\t2.5\t-3", "4\t0.125\t6"]);
    }

    #[test]
    fn gnuplot_has_comment_header() {
        let mut t = Table::new(vec!["x", "y"]);
        t.push_row(&[1.0, 2.0]);
        let dat = t.to_gnuplot();
        assert!(dat.starts_with("# x\ty\n1\t2\n"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_mismatch_panics() {
        let mut t = Table::new(vec!["x"]);
        t.push_row(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_panic() {
        let _ = Table::new(Vec::<String>::new());
    }

    #[test]
    fn from_pairs_builds_two_columns() {
        let t = Table::from_pairs("t", "v", &[(0.0, 1.0), (1.0, 2.0)]);
        assert_eq!(t.headers(), &["t".to_string(), "v".to_string()]);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(Table::fmt_num(3.0), "3");
        assert_eq!(Table::fmt_num(-2.0), "-2");
        assert_eq!(Table::fmt_num(0.5), "0.5");
        assert_eq!(Table::fmt_num(1.0 / 3.0), "0.333333333");
        assert_eq!(Table::fmt_num(0.0), "0");
    }

    #[test]
    fn prometheus_text_renders_sorted_families() {
        let mut reg = MetricsRegistry::new();
        let b = reg.counter("zz_late_total", "registered first, sorts last");
        let a = reg.counter("aa_early_total", "registered last, sorts first");
        reg.add(b, 2);
        reg.add(a, 1);
        let text = prometheus_text(
            &reg,
            &[
                ("sim_p99_seconds", "tail", 0.5),
                ("relays_live", "live relays", 7.0),
            ],
        );
        let expected = "\
# HELP aa_early_total registered last, sorts first
# TYPE aa_early_total counter
aa_early_total 1
# HELP relays_live live relays
# TYPE relays_live gauge
relays_live 7
# HELP sim_p99_seconds tail
# TYPE sim_p99_seconds gauge
sim_p99_seconds 0.5
# HELP zz_late_total registered first, sorts last
# TYPE zz_late_total counter
zz_late_total 2
";
        assert_eq!(text, expected);
    }

    #[test]
    fn prometheus_text_is_merge_order_independent() {
        let mk = |names: &[(&str, u64)]| {
            let mut reg = MetricsRegistry::new();
            for &(name, v) in names {
                let id = reg.counter(name, "h");
                reg.add(id, v);
            }
            reg
        };
        let a = mk(&[("a_total", 1), ("c_total", 3)]);
        let b = mk(&[("b_total", 2)]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(prometheus_text(&ab, &[]), prometheus_text(&ba, &[]));
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn prometheus_text_rejects_duplicate_names() {
        prometheus_text(
            &MetricsRegistry::new(),
            &[
                ("relays_live", "live relays", 7.0),
                ("relays_live", "collides", 1.0),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "must not end in _total")]
    fn prometheus_text_rejects_a_gauge_named_like_a_counter() {
        prometheus_text(&MetricsRegistry::new(), &[("flows_total", "flows", 1.0)]);
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn prometheus_text_rejects_nan_gauge() {
        prometheus_text(
            &MetricsRegistry::new(),
            &[("sim_p99_seconds", "tail", f64::NAN)],
        );
    }

    #[test]
    fn write_file_roundtrip() {
        let dir = std::env::temp_dir().join("simstats-test-export");
        let _ = fs::remove_dir_all(&dir);
        let mut t = Table::new(vec!["x", "y"]);
        t.push_row(&[1.0, 2.0]);
        let dat_path = dir.join("sub/t.dat");
        t.write_gnuplot(&dat_path).unwrap();
        assert_eq!(fs::read_to_string(&dat_path).unwrap(), t.to_gnuplot());
        let _ = fs::remove_dir_all(&dir);
    }
}
