//! Fixed-size mergeable quantile sketches.
//!
//! [`QuantileSketch`] is the streaming counterpart of [`crate::cdf::Cdf`]:
//! where `Cdf` stores every sample (O(flows) memory, exact answers), the
//! sketch folds each sample into a **log-bucketed histogram** of fixed
//! size (DDSketch-style) and answers quantile queries with a guaranteed
//! **relative** error bound. Every sketch has the same accuracy
//! [`QuantileSketch::ALPHA`], so any two merge by bucket-wise addition:
//! aggregation across shards, seeds, or policies is associative and
//! commutative — order-independent *by construction*, not by sorting.
//!
//! # The error bound
//!
//! With accuracy `alpha` ([`QuantileSketch::ALPHA`]), bucket `k` covers
//! the half-open value range `(γ^(k-1), γ^k]` where
//! `γ = (1 + alpha) / (1 - alpha)`. A query walks the buckets to the one
//! holding the requested rank and returns the bucket's log-midpoint
//! `2·γ^k / (1 + γ)`. For any sample `x` in the bucket, the estimate `v̂`
//! satisfies
//!
//! ```text
//! (1 - alpha)·x  <=  v̂  <=  (1 + alpha)·x
//! ```
//!
//! (substitute the range bounds: `2γ^k/((1+γ)γ^k) = 1-alpha` and
//! `2γ^k/((1+γ)γ^(k-1)) = 1+alpha`). Bucketing preserves order
//! (`v <= w ⇒ bucket(v) <= bucket(w)`), so the bucket where the
//! cumulative count first reaches rank `r` is exactly the bucket holding
//! the `r`-th order statistic — the estimate is within `alpha·x` of the
//! **exact** quantile `x`, for every sample inside the value domain
//! below. `min`, `max`, and the count are tracked exactly on the side;
//! the running sum behind `mean` is held in fixed point (integer
//! multiples of 2⁻³⁰) so that merging is integer addition — bit-exact
//! under any merge order, at a quantization cost of at most 2⁻³¹ per
//! sample. A plain `f64` running sum looks equivalent but is not:
//! float addition is non-associative, so two merge orders of the same
//! shards can disagree in the last ulp of the sum — an order dependence
//! the shuffle-merge regression suite caught in an earlier revision.
//!
//! # Value domain
//!
//! The bucket array is sized from the accuracy to cover
//! [`QuantileSketch::DOMAIN_MIN`]..=[`QuantileSketch::DOMAIN_MAX`]
//! (10⁻⁹ s to 10⁹ s when samples are seconds — sub-nanosecond to ~31
//! years). Samples below the domain (including exact zeros) land in a
//! dedicated low bucket and are answered as `min` (tracked exactly);
//! samples above it clamp into the top bucket, where only the absolute
//! `max` stays exact. Within the domain the relative bound holds
//! unconditionally. Memory is O(buckets) — fixed by `alpha`, never by
//! the sample count.

use std::fmt;

use crate::cdf::lower_rank;

/// A fixed-size mergeable quantile sketch over non-negative `f64`
/// samples (see the [module docs](self) for the error bound and the
/// merge semantics).
///
/// # Examples
///
/// ```
/// use simstats::sketch::QuantileSketch;
///
/// let mut a = QuantileSketch::default();
/// let mut b = QuantileSketch::default();
/// for i in 1..=500 {
///     a.record(f64::from(i));
///     b.record(f64::from(i + 500));
/// }
/// a.merge(&b);
/// assert_eq!(a.len(), 1000);
/// let p99 = a.quantile(0.99);
/// assert!((p99 - 990.0).abs() <= QuantileSketch::ALPHA * 990.0);
/// assert_eq!(a.min(), 1.0); // exact
/// assert_eq!(a.max(), 1000.0); // exact
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct QuantileSketch {
    /// `ln γ`, cached: bucket index of `v` is `ceil(ln v / ln γ)`.
    ln_gamma: f64,
    /// Absolute bucket index of `buckets[0]` (the domain floor).
    base_index: i64,
    /// Log-spaced bucket counts; fixed length.
    buckets: Vec<u64>,
    /// Samples below the domain floor, including exact zeros.
    low: u64,
    count: u64,
    /// Running sum in fixed point: integer multiples of
    /// [`Self::SUM_QUANTUM`]. Integer so that merge order cannot perturb
    /// it — see the module docs.
    sum_fp: u128,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    /// An empty sketch.
    fn default() -> Self {
        let gamma = (1.0 + Self::ALPHA) / (1.0 - Self::ALPHA);
        let ln_gamma = gamma.ln();
        let base_index = (Self::DOMAIN_MIN.ln() / ln_gamma).ceil() as i64;
        let top_index = (Self::DOMAIN_MAX.ln() / ln_gamma).ceil() as i64;
        QuantileSketch {
            ln_gamma,
            base_index,
            buckets: vec![0; (top_index - base_index + 1) as usize],
            low: 0,
            count: 0,
            sum_fp: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl QuantileSketch {
    /// The relative accuracy `alpha` of every sketch: 1% (DESIGN.md §13).
    pub const ALPHA: f64 = 0.01;
    /// Smallest value resolved by its own bucket; anything below
    /// (including 0) is counted in the low bucket and answered as `min`.
    pub const DOMAIN_MIN: f64 = 1e-9;
    /// Largest value resolved within the error bound; larger samples
    /// clamp into the top bucket (only `max` stays exact there).
    pub const DOMAIN_MAX: f64 = 1e9;
    /// Resolution of the fixed-point running sum: 2⁻³⁰ (≈ 9.3·10⁻¹⁰, one
    /// quantum per sub-nanosecond when samples are seconds). Each
    /// recorded sample contributes at most half a quantum of rounding to
    /// the sum, so `mean` is within 2⁻³¹ of the true mean — while the
    /// integer representation makes sum merging associative and
    /// commutative, bit for bit.
    const SUM_QUANTUM: f64 = 1.0 / (1u64 << 30) as f64;

    /// Bucket slot of an in-domain value (clamped into the array).
    fn slot(&self, v: f64) -> usize {
        let idx = (v.ln() / self.ln_gamma).ceil() as i64;
        (idx - self.base_index).clamp(0, self.buckets.len() as i64 - 1) as usize
    }

    /// The representative value of bucket slot `s`: the log-midpoint
    /// `2·γ^k / (1 + γ)` of its value range.
    fn value_of(&self, s: usize) -> f64 {
        let k = self.base_index + s as i64;
        let gamma_k = (k as f64 * self.ln_gamma).exp();
        2.0 * gamma_k / (1.0 + self.ln_gamma.exp())
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics on NaN or negative values — completion times and the other
    /// latency-like series this sketch exists for are non-negative, and
    /// a NaN would silently poison every merged aggregate downstream.
    pub fn record(&mut self, value: f64) {
        assert!(
            value >= 0.0,
            "QuantileSketch::record requires a non-negative sample, got {value}"
        );
        self.count += 1;
        // Multiplying by a power of two only shifts the exponent, so the
        // product is exact; `round` quantizes once, by at most half a
        // quantum. (`as u128` saturates for absurdly large finite
        // values, where the sum was never meaningful anyway.)
        self.sum_fp += (value / Self::SUM_QUANTUM).round() as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value < Self::DOMAIN_MIN {
            self.low += 1;
        } else {
            let s = self.slot(value);
            self.buckets[s] += 1;
        }
    }

    /// Folds `other` into `self` by bucket-wise addition — associative
    /// and commutative, so any merge tree over any shard order produces
    /// an identical sketch, buckets and fixed-point sum alike (the
    /// property the shuffle-merge and associativity suites pin).
    pub fn merge(&mut self, other: &QuantileSketch) {
        // Exhaustive binding: a field added to the sketch must be
        // threaded through this merge or the build breaks right here.
        // `ln_gamma`/`base_index` are pure functions of `ALPHA`.
        let QuantileSketch {
            ln_gamma: _,
            base_index: _,
            buckets,
            low,
            count,
            sum_fp,
            min,
            max,
        } = other;
        debug_assert_eq!(self.buckets.len(), buckets.len());
        for (a, b) in self.buckets.iter_mut().zip(buckets) {
            *a += b;
        }
        self.low += low;
        self.count += count;
        self.sum_fp += sum_fp;
        self.min = self.min.min(*min);
        self.max = self.max.max(*max);
    }

    /// Number of samples recorded (across all merged inputs).
    pub fn len(&self) -> u64 {
        self.count
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest sample — exact, tracked beside the buckets.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn min(&self) -> f64 {
        assert!(self.count > 0, "min of empty QuantileSketch");
        self.min
    }

    /// Largest sample — exact, tracked beside the buckets.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn max(&self) -> f64 {
        assert!(self.count > 0, "max of empty QuantileSketch");
        self.max
    }

    /// Arithmetic mean — from the fixed-point running sum, not
    /// bucket-approximated: within 2⁻³¹ of the true mean regardless of
    /// `alpha`, and identical under every merge order.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn mean(&self) -> f64 {
        assert!(self.count > 0, "mean of empty QuantileSketch");
        (self.sum_fp as f64 * Self::SUM_QUANTUM) / self.count as f64
    }

    /// The `q`-quantile under the same *lower* rank semantics as
    /// [`Cdf::quantile`](crate::cdf::Cdf::quantile), within the relative
    /// error bound of the module docs. The estimate is clamped into
    /// `[min, max]`, so `quantile(0.0) == min` and `quantile(1.0)` can
    /// never exceed the exact maximum.
    ///
    /// # Panics
    ///
    /// Panics if empty or unless `0.0 <= q <= 1.0`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.count > 0, "quantile of empty QuantileSketch");
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile requires q in [0,1], got {q}"
        );
        if q == 0.0 {
            return self.min;
        }
        let rank = lower_rank(q, self.count);
        let mut cum = self.low;
        if cum >= rank {
            // Everything below the domain floor is indistinguishable;
            // the exact minimum is the honest representative.
            return self.min;
        }
        for (s, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return self.value_of(s).clamp(self.min, self.max);
            }
        }
        unreachable!("cumulative bucket count fell short of the rank");
    }

    /// Median (`quantile(0.5)`).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The 99th percentile — the standard tail-latency headline, within
    /// the sketch's relative error bound.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// The 99.9th percentile — the deep tail. As with the exact CDF,
    /// meaningless below ~1000 samples (it collapses onto the max).
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Approximate `F(x)`: the fraction of samples `<= x`, correct up to
    /// samples within `alpha·x` of `x` (the bucket holding `x` is
    /// counted whole).
    ///
    /// # Panics
    ///
    /// Panics on NaN (a NaN threshold compares false with everything and
    /// would silently report 0).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        assert!(
            !x.is_nan(),
            "QuantileSketch::fraction_at_or_below requires a non-NaN threshold"
        );
        if self.count == 0 || x < self.min {
            return 0.0;
        }
        if x >= self.max {
            return 1.0;
        }
        let mut cum = self.low;
        if x >= Self::DOMAIN_MIN {
            let s = self.slot(x);
            cum += self.buckets[..=s].iter().sum::<u64>();
        }
        cum as f64 / self.count as f64
    }

    /// Staircase plotting points, one `(v̂, F(v̂))` pair per non-empty
    /// bucket — the sketch analogue of
    /// [`Cdf::points`](crate::cdf::Cdf::points), O(buckets) long instead
    /// of O(samples).
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.count as f64;
        let mut out = Vec::new();
        let mut cum = 0u64;
        if self.low > 0 {
            cum += self.low;
            out.push((self.min, cum as f64 / n));
        }
        for (s, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                cum += c;
                out.push((self.value_of(s).clamp(self.min, self.max), cum as f64 / n));
            }
        }
        out
    }

    /// The raw bucket counts (low bucket first) — the merge currency.
    /// Two sketches are the same distribution record iff these are
    /// equal bucket for bucket; the associativity suite compares them
    /// directly.
    pub fn bucket_counts(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.low).chain(self.buckets.iter().copied())
    }

    /// Number of bucket slots — fixed by `ALPHA`, never by the sample
    /// count (the O(buckets)-memory claim the bench pins).
    pub fn bucket_len(&self) -> usize {
        self.buckets.len() + 1
    }

    /// Bytes held by the bucket array — the sketch's only growable-looking
    /// storage, which in fact never grows after construction.
    pub fn memory_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<u64>()
    }
}

impl fmt::Display for QuantileSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            write!(f, "QuantileSketch(n=0, alpha={})", Self::ALPHA)
        } else {
            write!(
                f,
                "QuantileSketch(n={}, alpha={}, min={:.4}, p50={:.4}, p99={:.4}, max={:.4})",
                self.count,
                Self::ALPHA,
                self.min(),
                self.median(),
                self.p99(),
                self.max()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdf::Cdf;

    fn filled(values: impl IntoIterator<Item = f64>) -> QuantileSketch {
        let mut s = QuantileSketch::default();
        for v in values {
            s.record(v);
        }
        s
    }

    #[test]
    fn quantiles_track_exact_cdf_within_alpha() {
        // A wide, skewed sample set: three decades of magnitude.
        let samples: Vec<f64> = (1..=5000).map(|i| (i as f64).powf(1.7) / 100.0).collect();
        let sketch = filled(samples.iter().copied());
        let cdf = Cdf::from_samples(samples).unwrap();
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let exact = cdf.quantile(q);
            let est = sketch.quantile(q);
            assert!(
                (est - exact).abs() <= QuantileSketch::ALPHA * exact + f64::EPSILON,
                "q={q}: estimate {est} not within alpha of exact {exact}"
            );
        }
    }

    #[test]
    fn exact_side_channels() {
        let sketch = filled([3.0, 1.0, 4.0, 1.5, 9.25]);
        assert_eq!(sketch.len(), 5);
        assert_eq!(sketch.min(), 1.0);
        assert_eq!(sketch.max(), 9.25);
        assert!((sketch.mean() - 3.75).abs() < 1e-12);
        assert_eq!(sketch.quantile(0.0), 1.0);
        assert!(sketch.quantile(1.0) <= 9.25, "clamped to the exact max");
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let all = filled((1..=1000).map(f64::from));
        let mut a = filled((1..=300).map(f64::from));
        let b = filled((301..=1000).map(f64::from));
        a.merge(&b);
        assert_eq!(a, all, "merge must equal single-pass recording");
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let parts: Vec<QuantileSketch> = (0..4)
            .map(|p| filled((1..=250).map(|i| f64::from(i + p * 250) * 0.01)))
            .collect();
        // ((a·b)·c)·d
        let mut left = parts[0].clone();
        for p in &parts[1..] {
            left.merge(p);
        }
        // a·(b·(c·d)), folded right-to-left.
        let mut right = parts[3].clone();
        for p in parts[..3].iter().rev() {
            let mut acc = p.clone();
            acc.merge(&right);
            right = acc;
        }
        assert_eq!(left, right);
        assert!(left.bucket_counts().eq(right.bucket_counts()));
    }

    #[test]
    fn merged_sum_is_bit_exact_under_any_merge_order() {
        // The regression behind the fixed-point sum: 0.1 is inexact in
        // binary, so an f64 running sum lands on different ulps
        // depending on the order the shard sums are added. The sketch
        // must be *equal* — not approximately equal — across orders.
        let parts: Vec<QuantileSketch> = (0..6)
            .map(|p| filled((1..=97).map(|i| f64::from(i * (p + 1)) * 0.1)))
            .collect();
        let fold = |order: &[usize; 6]| {
            let mut acc = QuantileSketch::default();
            for &i in order {
                acc.merge(&parts[i]);
            }
            acc
        };
        let baseline = fold(&[0, 1, 2, 3, 4, 5]);
        for order in [[5, 4, 3, 2, 1, 0], [2, 0, 5, 1, 3, 4], [3, 5, 0, 4, 2, 1]] {
            // Derived PartialEq covers the sum representation itself.
            assert_eq!(fold(&order), baseline, "order {order:?} diverged");
        }
        // And the quantization stays inside the documented bound.
        let exact: f64 = (0..6)
            .flat_map(|p| (1..=97).map(move |i| f64::from(i * (p + 1)) * 0.1))
            // cs-lint: allow(float-accumulation-in-merge, reason = "test-side oracle with one fixed iteration order, compared for equality against the fixed-point path")
            .sum::<f64>()
            / baseline.len() as f64;
        assert!((baseline.mean() - exact).abs() <= 1.0 / f64::from(1 << 30));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn record_rejects_negative() {
        QuantileSketch::default().record(-1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn record_rejects_nan() {
        // NaN fails the >= 0 gate: same panic, no separate code path.
        QuantileSketch::default().record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "quantile of empty")]
    fn quantile_of_empty_panics() {
        QuantileSketch::default().quantile(0.5);
    }

    #[test]
    fn zeros_and_subdomain_values_answer_as_min() {
        let sketch = filled([0.0, 0.0, 1e-12, 5.0]);
        assert_eq!(sketch.min(), 0.0);
        assert_eq!(sketch.quantile(0.5), 0.0, "3 of 4 samples are low-bucket");
        assert_eq!(sketch.len(), 4);
    }

    #[test]
    fn memory_is_fixed_by_alpha_not_samples() {
        let empty = QuantileSketch::default();
        let mut big = QuantileSketch::default();
        for i in 0..200_000 {
            big.record((i % 977) as f64 + 0.5);
        }
        assert_eq!(empty.bucket_len(), big.bucket_len());
        assert_eq!(empty.memory_bytes(), big.memory_bytes());
    }

    #[test]
    fn fraction_at_or_below_brackets_exact() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let sketch = filled(samples.iter().copied());
        let cdf = Cdf::from_samples(samples).unwrap();
        for x in [1.0, 17.0, 200.0, 999.0, 1000.0, 2000.0] {
            let exact = cdf.fraction_at_or_below(x);
            let est = sketch.fraction_at_or_below(x);
            // The bucket holding x is counted whole: the estimate can
            // overshoot by the samples within alpha·x of x, never more.
            let slack = cdf.fraction_at_or_below(x * (1.0 + 2.0 * QuantileSketch::ALPHA))
                - cdf.fraction_at_or_below(x * (1.0 - 2.0 * QuantileSketch::ALPHA));
            assert!(
                (est - exact).abs() <= slack + 1e-12,
                "x={x}: fraction {est} strayed from exact {exact} by more than {slack}"
            );
        }
        assert_eq!(sketch.fraction_at_or_below(0.5), 0.0);
        assert_eq!(sketch.fraction_at_or_below(5000.0), 1.0);
    }

    #[test]
    fn points_are_monotone_and_end_at_one() {
        let sketch = filled((1..=500).map(|i| f64::from(i) * 0.02));
        let pts = sketch.points();
        assert!(pts.len() <= sketch.bucket_len());
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_summarizes() {
        let sketch = filled([1.0, 2.0]);
        let s = sketch.to_string();
        assert!(s.contains("n=2"));
        assert!(s.contains("p99"));
        assert!(QuantileSketch::default().to_string().contains("n=0"));
    }
}
