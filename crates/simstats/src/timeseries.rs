//! Time-indexed sample traces.
//!
//! [`TimeSeries`] records `(t, value)` pairs with non-decreasing
//! timestamps — e.g. the source congestion window over time for the
//! paper's Figure 1 upper panels — and supports step-function evaluation,
//! resampling onto a uniform grid, and basic transforms.

use std::fmt;

/// A piecewise-constant (step) time series: the value recorded at `t`
/// holds until the next sample.
///
/// Timestamps are `f64` seconds; the simulation layer converts from
/// `SimTime` at the recording boundary so this crate stays dependency-free.
///
/// # Examples
///
/// ```
/// use simstats::timeseries::TimeSeries;
///
/// let mut ts = TimeSeries::new();
/// ts.push(0.0, 2.0);
/// ts.push(0.1, 4.0);
/// ts.push(0.3, 8.0);
/// assert_eq!(ts.value_at(0.05), Some(2.0));
/// assert_eq!(ts.value_at(0.1), Some(4.0));
/// assert_eq!(ts.value_at(0.2), Some(4.0));
/// assert_eq!(ts.value_at(5.0), Some(8.0));
/// assert_eq!(ts.value_at(-0.01), None); // before the first sample
/// ```
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN, `value` is NaN, or `t` is smaller than the
    /// previous timestamp (series must be recorded in time order; equal
    /// timestamps are allowed and the *last* value at an instant wins for
    /// evaluation).
    pub fn push(&mut self, t: f64, value: f64) {
        assert!(!t.is_nan() && !value.is_nan(), "TimeSeries::push with NaN");
        if let Some(&(last_t, _)) = self.points.last() {
            assert!(
                t >= last_t,
                "TimeSeries::push out of order: {t} after {last_t}"
            );
        }
        self.points.push((t, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The raw `(t, value)` samples.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// First timestamp, if any.
    pub fn start_time(&self) -> Option<f64> {
        self.points.first().map(|&(t, _)| t)
    }

    /// Last timestamp, if any.
    pub fn end_time(&self) -> Option<f64> {
        self.points.last().map(|&(t, _)| t)
    }

    /// Step-function evaluation: the most recent value at or before `t`,
    /// or `None` if `t` precedes the first sample.
    pub fn value_at(&self, t: f64) -> Option<f64> {
        let idx = self.points.partition_point(|&(pt, _)| pt <= t);
        if idx == 0 {
            None
        } else {
            Some(self.points[idx - 1].1)
        }
    }

    /// Resamples the step function onto a uniform grid of `n` points
    /// covering `[from, to]` inclusive. Grid points before the first sample
    /// evaluate to the first sample's value (left-extension), which is the
    /// conventional choice for plotting cwnd traces from t = 0.
    ///
    /// # Panics
    ///
    /// Panics if the series is empty, `n < 2`, or `from >= to`.
    pub fn resample(&self, from: f64, to: f64, n: usize) -> Vec<(f64, f64)> {
        assert!(!self.is_empty(), "resample of empty TimeSeries");
        assert!(n >= 2, "resample needs at least 2 grid points");
        assert!(from < to, "resample requires from < to");
        let first_value = self.points[0].1;
        (0..n)
            .map(|i| {
                let t = from + (to - from) * i as f64 / (n - 1) as f64;
                (t, self.value_at(t).unwrap_or(first_value))
            })
            .collect()
    }

    /// The first time at which the series enters (and the caller hopes,
    /// stays in) the band `[lo, hi]`, *and never leaves it again*.
    /// Returns `None` if the series never settles inside the band.
    ///
    /// This is the convergence-time metric used for the Figure 1 traces:
    /// "when does cwnd settle at the optimum ± tolerance".
    pub fn settling_time(&self, lo: f64, hi: f64) -> Option<f64> {
        let mut candidate: Option<f64> = None;
        for &(t, v) in &self.points {
            if v >= lo && v <= hi {
                candidate.get_or_insert(t);
            } else {
                candidate = None;
            }
        }
        candidate
    }
}

impl fmt::Display for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.start_time(), self.end_time()) {
            (Some(s), Some(e)) => write!(f, "TimeSeries(n={}, t=[{s:.4}, {e:.4}])", self.len()),
            _ => write!(f, "TimeSeries(empty)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(pts: &[(f64, f64)]) -> TimeSeries {
        let mut ts = TimeSeries::new();
        for &(t, v) in pts {
            ts.push(t, v);
        }
        ts
    }

    #[test]
    fn empty_series() {
        let ts = TimeSeries::new();
        assert!(ts.is_empty());
        assert_eq!(ts.value_at(0.0), None);
        assert_eq!(ts.start_time(), None);
        assert_eq!(ts.to_string(), "TimeSeries(empty)");
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_push_panics() {
        let mut ts = TimeSeries::new();
        ts.push(1.0, 1.0);
        ts.push(0.5, 2.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_push_panics() {
        TimeSeries::new().push(f64::NAN, 1.0);
    }

    #[test]
    fn equal_timestamps_last_wins() {
        let ts = series(&[(1.0, 10.0), (1.0, 20.0)]);
        assert_eq!(ts.value_at(1.0), Some(20.0));
    }

    #[test]
    fn step_evaluation() {
        let ts = series(&[(0.0, 2.0), (1.0, 4.0)]);
        assert_eq!(ts.value_at(0.0), Some(2.0));
        assert_eq!(ts.value_at(0.999), Some(2.0));
        assert_eq!(ts.value_at(1.0), Some(4.0));
        assert_eq!(ts.value_at(-0.1), None);
    }

    #[test]
    fn resample_uniform_grid() {
        let ts = series(&[(0.0, 1.0), (0.5, 2.0)]);
        let grid = ts.resample(0.0, 1.0, 5);
        assert_eq!(grid.len(), 5);
        assert_eq!(grid[0], (0.0, 1.0));
        assert_eq!(grid[1], (0.25, 1.0));
        assert_eq!(grid[2], (0.5, 2.0));
        assert_eq!(grid[4], (1.0, 2.0));
    }

    #[test]
    fn resample_left_extends() {
        let ts = series(&[(0.5, 7.0)]);
        let grid = ts.resample(0.0, 1.0, 3);
        assert_eq!(grid[0], (0.0, 7.0)); // before first sample → first value
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn resample_needs_two_points() {
        series(&[(0.0, 1.0)]).resample(0.0, 1.0, 1);
    }

    #[test]
    fn settling_time_finds_last_entry() {
        // Enters band, leaves, re-enters for good at t=3.
        let ts = series(&[(0.0, 10.0), (1.0, 5.0), (2.0, 20.0), (3.0, 5.5), (4.0, 5.2)]);
        assert_eq!(ts.settling_time(4.0, 6.0), Some(3.0));
    }

    #[test]
    fn settling_time_never() {
        let ts = series(&[(0.0, 10.0), (1.0, 20.0)]);
        assert_eq!(ts.settling_time(0.0, 5.0), None);
    }

    #[test]
    fn settling_time_from_start() {
        let ts = series(&[(0.5, 5.0), (1.0, 5.1)]);
        assert_eq!(ts.settling_time(4.9, 5.2), Some(0.5));
    }

    #[test]
    fn display_has_range() {
        let ts = series(&[(0.0, 1.0), (2.5, 2.0)]);
        assert_eq!(ts.to_string(), "TimeSeries(n=2, t=[0.0000, 2.5000])");
    }
}
