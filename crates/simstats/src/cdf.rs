//! Empirical cumulative distribution functions.
//!
//! The paper's Figure 1 (lower panel) plots the empirical CDF of
//! time-to-last-byte across circuits. [`Cdf`] collects samples, sorts them
//! once on freeze, and then answers `F(x)`, quantile, and plotting-point
//! queries — **exact** answers at O(samples) memory. For streaming
//! aggregation at scale (merging shards or sweeps without holding every
//! sample), use the fixed-size [`QuantileSketch`](crate::sketch::QuantileSketch),
//! which answers the same queries within a configured relative-error
//! bound; sorting is *not* the only aggregation story (DESIGN.md §13).

use std::fmt;

/// The *lower-interpolation* rank for quantile `q` over `n` samples: the
/// smallest 1-based rank `r` with `r/n >= q`, computed so that exact rank
/// boundaries are immune to float rounding.
///
/// The naive `ceil(q * n)` misfires when `q * n` lands an ulp above an
/// integer — e.g. `0.28 * 25 = 7.000000000000001`, whose ceiling is 8,
/// selecting the 8th sample even though `F(sorted[6]) = 7/25 = 0.28 >= q`
/// already holds. We start from the float guess and then repair it in
/// integer space against the same `r/n` comparison `fraction_at_or_below`
/// uses, so `quantile` and `F` stay mutually consistent.
///
/// Callers guarantee `n > 0` and `0 < q <= 1`.
pub(crate) fn lower_rank(q: f64, n: u64) -> u64 {
    debug_assert!(n > 0 && q > 0.0 && q <= 1.0);
    let nf = n as f64;
    let mut r = ((q * nf).ceil() as u64).clamp(1, n);
    // Walk down while the previous rank already satisfies F >= q.
    while r > 1 && (r - 1) as f64 / nf >= q {
        r -= 1;
    }
    // Walk up while this rank still falls short of q.
    while r < n && (r as f64) / nf < q {
        r += 1;
    }
    r
}

/// An empirical CDF built from a set of `f64` samples.
///
/// # Examples
///
/// ```
/// use simstats::cdf::Cdf;
///
/// let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
/// assert_eq!(cdf.quantile(0.5), 2.0);   // median (lower interpolation)
/// assert_eq!(cdf.quantile(1.0), 4.0);
/// ```
#[derive(Clone, Debug)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples. Returns `None` if `samples` is empty or
    /// contains NaN.
    pub fn from_samples(mut samples: Vec<f64>) -> Option<Cdf> {
        if samples.is_empty() || samples.iter().any(|v| v.is_nan()) {
            return None;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN already excluded"));
        Some(Cdf { sorted: samples })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false` (construction rejects empty sample sets); present for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Empirical `F(x)`: the fraction of samples `<= x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN: `NaN <= v` is false for every sample, so the
    /// old behaviour silently returned 0.0 — a poisoned threshold now
    /// fails loudly instead of masquerading as "no samples below".
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        assert!(
            !x.is_nan(),
            "Cdf::fraction_at_or_below requires a non-NaN threshold"
        );
        // partition_point returns the index of the first element > x.
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile with *lower* interpolation: the smallest sample `v`
    /// such that `F(v) >= q`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile requires q in [0,1], got {q}"
        );
        if q == 0.0 {
            return self.min();
        }
        let rank = lower_rank(q, self.sorted.len() as u64);
        self.sorted[rank as usize - 1]
    }

    /// Median (`quantile(0.5)`).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The 99th percentile (`quantile(0.99)`) — the standard tail-latency
    /// headline. With fewer than 100 samples this is the max (lower
    /// interpolation), so report it alongside `len()`.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// The 99.9th percentile (`quantile(0.999)`) — the deep tail.
    /// Meaningless below ~1000 samples (it collapses onto the max).
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// The classic staircase plotting points: one `(x, F(x))` pair per
    /// sample, with `F` evaluated *after* the step. Suitable for gnuplot
    /// `with steps`.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n))
            .collect()
    }

    /// Largest quantile gap `other.quantile(q) − self.quantile(q)` over a
    /// uniform grid — "by how much does `self` beat `other` at best".
    /// Negative values mean `self` is never better.
    pub fn max_quantile_improvement_over(&self, other: &Cdf) -> f64 {
        let mut best = f64::NEG_INFINITY;
        for i in 1..=19 {
            let q = i as f64 / 20.0;
            best = best.max(other.quantile(q) - self.quantile(q));
        }
        best
    }

    /// Access the sorted samples.
    pub fn sorted_samples(&self) -> &[f64] {
        &self.sorted
    }
}

impl fmt::Display for Cdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cdf(n={}, min={:.4}, p50={:.4}, p90={:.4}, max={:.4})",
            self.len(),
            self.min(),
            self.median(),
            self.quantile(0.9),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cdf(v: Vec<f64>) -> Cdf {
        Cdf::from_samples(v).unwrap()
    }

    #[test]
    fn rejects_empty_and_nan() {
        assert!(Cdf::from_samples(vec![]).is_none());
        assert!(Cdf::from_samples(vec![1.0, f64::NAN]).is_none());
    }

    #[test]
    fn fraction_at_or_below_steps() {
        let c = cdf(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(c.fraction_at_or_below(5.0), 0.0);
        assert_eq!(c.fraction_at_or_below(10.0), 0.25);
        assert_eq!(c.fraction_at_or_below(19.999), 0.25);
        assert_eq!(c.fraction_at_or_below(20.0), 0.5);
        assert_eq!(c.fraction_at_or_below(40.0), 1.0);
        assert_eq!(c.fraction_at_or_below(100.0), 1.0);
    }

    #[test]
    fn fraction_with_duplicates() {
        let c = cdf(vec![1.0, 1.0, 1.0, 2.0]);
        assert_eq!(c.fraction_at_or_below(1.0), 0.75);
    }

    #[test]
    fn quantiles() {
        let c = cdf(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(0.2), 1.0);
        assert_eq!(c.quantile(0.200001), 2.0);
        assert_eq!(c.quantile(0.5), 3.0);
        assert_eq!(c.quantile(1.0), 5.0);
        assert_eq!(c.median(), 3.0);
    }

    #[test]
    fn tail_percentile_helpers() {
        // 1000 samples 1..=1000: p99 = 990, p999 = 999 under lower
        // interpolation (smallest v with F(v) >= q).
        let c = cdf((1..=1000).map(f64::from).collect());
        assert_eq!(c.p99(), 990.0);
        assert_eq!(c.p999(), 999.0);
        // Tiny sample sets collapse the tail onto the max — documented
        // behaviour, not an error.
        let small = cdf(vec![1.0, 2.0, 3.0]);
        assert_eq!(small.p99(), 3.0);
        assert_eq!(small.p999(), 3.0);
    }

    #[test]
    #[should_panic(expected = "q in [0,1]")]
    fn quantile_out_of_range_panics() {
        cdf(vec![1.0]).quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "non-NaN threshold")]
    fn fraction_at_or_below_rejects_nan() {
        // Pre-fix: NaN made the partition closure false everywhere and the
        // call silently returned 0.0 — indistinguishable from a threshold
        // genuinely below every sample.
        cdf(vec![1.0, 2.0]).fraction_at_or_below(f64::NAN);
    }

    #[test]
    fn quantile_exact_rank_boundaries_survive_float_rounding() {
        // Pre-fix: quantile trusted ceil(q * n). For n = 25, q = 7/25,
        // q * 25 = 7.000000000000001 in f64, whose ceiling is 8 — the old
        // code returned sorted[7] (the 8th sample) even though
        // F(sorted[6]) = 0.28 >= q already held.
        assert_eq!(0.28_f64 * 25.0, 7.000000000000001);
        let c = cdf((1..=25).map(f64::from).collect());
        assert_eq!(c.quantile(0.28), 7.0);
        // More (numerator, n) pairs where ceil(q * n) overshoots the rank.
        for (k, n) in [
            (14u64, 25u64),
            (15, 29),
            (29, 35),
            (21, 38),
            (25, 39),
            (7, 41),
        ] {
            let c = cdf((1..=n).map(|i| i as f64).collect());
            let q = k as f64 / n as f64;
            assert_eq!(
                c.quantile(q),
                k as f64,
                "rank for q={k}/{n} must be {k}, not ceil({})",
                q * n as f64
            );
            // The repaired rank stays consistent with F: the chosen sample
            // is the smallest one whose F(v) >= q.
            assert!(c.fraction_at_or_below(c.quantile(q)) >= q);
        }
    }

    #[test]
    fn lower_rank_matches_linear_scan() {
        // Exhaustive cross-check on small n: lower_rank must agree with
        // the definitional "smallest r with r/n >= q" for every exact
        // boundary and for off-boundary probes.
        for n in 1u64..=64 {
            for k in 1..=n {
                let q = k as f64 / n as f64;
                let want = (1..=n).find(|&r| r as f64 / n as f64 >= q).unwrap();
                assert_eq!(lower_rank(q, n), want, "boundary q={k}/{n}");
                let probe = (q - 1e-9).max(1e-12);
                let want = (1..=n).find(|&r| r as f64 / n as f64 >= probe).unwrap();
                assert_eq!(lower_rank(probe, n), want, "probe below q={k}/{n}");
            }
        }
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let c = cdf(vec![3.0, 1.0, 2.0]);
        assert_eq!(c.sorted_samples(), &[1.0, 2.0, 3.0]);
        assert_eq!(c.min(), 1.0);
        assert_eq!(c.max(), 3.0);
    }

    #[test]
    fn points_are_staircase() {
        let c = cdf(vec![5.0, 10.0]);
        assert_eq!(c.points(), vec![(5.0, 0.5), (10.0, 1.0)]);
    }

    #[test]
    fn mean_matches() {
        let c = cdf(vec![1.0, 2.0, 3.0]);
        assert!((c.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn improvement_detects_shift() {
        let fast = cdf((0..100).map(|i| 1.0 + i as f64 / 100.0).collect());
        let slow = cdf((0..100).map(|i| 1.5 + i as f64 / 100.0).collect());
        let gain = fast.max_quantile_improvement_over(&slow);
        assert!((gain - 0.5).abs() < 0.02, "gain ≈ 0.5, got {gain}");
    }

    #[test]
    fn improvement_over_self_is_zero() {
        let c = cdf(vec![1.0, 2.0, 3.0]);
        assert!(c.max_quantile_improvement_over(&c).abs() < 1e-12);
    }

    #[test]
    fn display_summarizes() {
        let c = cdf(vec![1.0, 2.0, 3.0, 4.0]);
        let s = c.to_string();
        assert!(s.contains("n=4"));
        assert!(s.contains("p50"));
    }
}
