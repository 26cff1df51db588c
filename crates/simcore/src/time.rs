//! Simulated time.
//!
//! The simulator measures time in integer **nanoseconds** from the start of
//! the simulation. Using a fixed-point integer representation (rather than
//! `f64` seconds) keeps event ordering exact and platform-independent, which
//! is a prerequisite for deterministic, seed-reproducible experiments.
//!
//! Two types are provided, mirroring `std::time`:
//!
//! * [`SimTime`] — an absolute instant on the simulation clock.
//! * [`SimDuration`] — a span between two instants.
//!
//! Arithmetic panics on overflow in debug builds and is explicitly checked
//! in the `checked_*` variants; simulations run for simulated seconds to
//! hours, far from the ~584-year range of a `u64` nanosecond counter.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of nanoseconds per microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;
/// Number of nanoseconds per millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Number of nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// `x.round() as u64`, for every `f64`, without calling `f64::round`
/// (a software routine on the baseline x86-64 target, which has no
/// rounding instruction): truncate with the saturating `as u64` cast, then add
/// one when the dropped fraction is at least one half. Below 2^53 the
/// fraction `x - trunc(x)` is exact; at and above 2^53 every `f64` is an
/// integer and the fraction is zero, or, past `u64::MAX`, the cast has
/// already saturated. NaN and negatives give 0, as the cast does.
///
/// # Examples
///
/// ```
/// use simcore::time::round_u64;
///
/// assert_eq!(round_u64(2.5), 3);
/// assert_eq!(round_u64(0.499_999_999_999_999_94), 0);
/// assert_eq!(round_u64(-7.0), 0);
/// assert_eq!(round_u64(f64::INFINITY), u64::MAX);
/// ```
#[inline]
pub fn round_u64(x: f64) -> u64 {
    let whole = x as u64;
    // A flag, not a branch: fractions of drawn values are coin flips.
    whole.saturating_add(u64::from(x - whole as f64 >= 0.5))
}

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the simulation.
///
/// `SimTime` is `Copy`, totally ordered, and hashable, so it can be used
/// directly as an event-queue key.
///
/// # Examples
///
/// ```
/// use simcore::time::{SimTime, SimDuration};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_millis(5);
/// assert_eq!(t1 - t0, SimDuration::from_micros(5_000));
/// assert!(t1 > t0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use simcore::time::SimDuration;
///
/// let d = SimDuration::from_millis(1) + SimDuration::from_micros(500);
/// assert_eq!(d.as_nanos(), 1_500_000);
/// assert!((d.as_secs_f64() - 0.0015).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; useful as an "infinity" sentinel
    /// for run limits.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after simulation start.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `micros` microseconds after simulation start.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * NANOS_PER_MICRO)
    }

    /// Creates an instant `millis` milliseconds after simulation start.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * NANOS_PER_MILLI)
    }

    /// Creates an instant `secs` seconds after simulation start.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Creates an instant from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime::from_secs_f64: invalid seconds value {secs}"
        );
        SimTime(round_u64(secs * NANOS_PER_SEC as f64))
    }

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / NANOS_PER_MICRO
    }

    /// Whole milliseconds since simulation start (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / NANOS_PER_MILLI
    }

    /// Fractional seconds since simulation start.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Fractional milliseconds since simulation start.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// The duration since an earlier instant, or `None` if `earlier` is
    /// actually later than `self`.
    #[inline]
    pub const fn checked_duration_since(self, earlier: SimTime) -> Option<SimDuration> {
        if self.0 >= earlier.0 {
            Some(SimDuration(self.0 - earlier.0))
        } else {
            None
        }
    }

    /// The duration since an earlier instant, clamped to zero if `earlier`
    /// is later than `self`.
    #[inline]
    pub const fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    #[inline]
    pub const fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        match self.0.checked_add(d.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// Saturating addition of a duration.
    #[inline]
    pub const fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `nanos` nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration of `micros` microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * NANOS_PER_MICRO)
    }

    /// Creates a duration of `millis` milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * NANOS_PER_MILLI)
    }

    /// Creates a duration of `secs` seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration::from_secs_f64: invalid seconds value {secs}"
        );
        SimDuration(round_u64(secs * NANOS_PER_SEC as f64))
    }

    /// Length in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / NANOS_PER_MICRO
    }

    /// Whole milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / NANOS_PER_MILLI
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// `true` if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition.
    #[inline]
    pub const fn checked_add(self, other: SimDuration) -> Option<SimDuration> {
        match self.0.checked_add(other.0) {
            Some(v) => Some(SimDuration(v)),
            None => None,
        }
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    pub const fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by an integer factor.
    #[inline]
    pub const fn mul_u64(self, factor: u64) -> SimDuration {
        SimDuration(self.0 * factor)
    }

    /// Multiplies the duration by a floating-point factor (rounding to the
    /// nearest nanosecond).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "SimDuration::mul_f64: invalid factor {factor}"
        );
        SimDuration(round_u64(self.0 as f64 * factor))
    }

    /// The ratio of two durations as an `f64`.
    ///
    /// Returns `f64::INFINITY` if `other` is zero and `self` is not, and
    /// `1.0` if both are zero (a degenerate but harmless convention for
    /// RTT ratios on the very first sample).
    #[inline]
    pub fn ratio(self, other: SimDuration) -> f64 {
        if other.0 == 0 {
            if self.0 == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.0 as f64 / other.0 as f64
        }
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: instant + duration exceeds u64 nanoseconds"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// The duration between two instants.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use
    /// [`SimTime::saturating_duration_since`] when out-of-order timestamps
    /// are possible.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.checked_duration_since(rhs)
            .expect("SimTime subtraction: right operand is later than left operand")
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: duration larger than instant"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(rhs.0)
                .expect("SimDuration overflow in addition"),
        )
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration underflow in subtraction"),
        )
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(
            self.0
                .checked_mul(rhs)
                .expect("SimDuration overflow in multiplication"),
        )
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// Formats durations with an automatically chosen unit, e.g. `1.5ms`.
fn format_nanos(nanos: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if nanos == 0 {
        write!(f, "0s")
    } else if nanos < NANOS_PER_MICRO {
        write!(f, "{nanos}ns")
    } else if nanos < NANOS_PER_MILLI {
        write!(f, "{:.3}us", nanos as f64 / NANOS_PER_MICRO as f64)
    } else if nanos < NANOS_PER_SEC {
        write!(f, "{:.3}ms", nanos as f64 / NANOS_PER_MILLI as f64)
    } else {
        write!(f, "{:.6}s", nanos as f64 / NANOS_PER_SEC as f64)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime(")?;
        format_nanos(self.0, f)?;
        write!(f, ")")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_nanos(self.0, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration(")?;
        format_nanos(self.0, f)?;
        write!(f, ")")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_nanos(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimDuration::default(), SimDuration::ZERO);
    }

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(
            SimDuration::from_secs(2),
            SimDuration::from_nanos(2 * NANOS_PER_SEC)
        );
    }

    #[test]
    fn time_plus_duration() {
        let t = SimTime::from_millis(10) + SimDuration::from_micros(250);
        assert_eq!(t.as_nanos(), 10_250_000);
    }

    #[test]
    fn time_minus_time_is_duration() {
        let a = SimTime::from_millis(3);
        let b = SimTime::from_millis(10);
        assert_eq!(b - a, SimDuration::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "right operand is later")]
    fn time_subtraction_panics_when_reversed() {
        let a = SimTime::from_millis(3);
        let b = SimTime::from_millis(10);
        let _ = a - b;
    }

    #[test]
    fn saturating_duration_since_clamps() {
        let a = SimTime::from_millis(3);
        let b = SimTime::from_millis(10);
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_duration_since(a), SimDuration::from_millis(7));
    }

    #[test]
    fn checked_duration_since() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(
            b.checked_duration_since(a),
            Some(SimDuration::from_nanos(4))
        );
        assert_eq!(a.checked_duration_since(b), None);
    }

    #[test]
    fn float_round_trip() {
        let d = SimDuration::from_secs_f64(0.001_234_567);
        assert!((d.as_secs_f64() - 0.001_234_567).abs() < 1e-12);
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_millis(), 1_500);
    }

    #[test]
    #[should_panic(expected = "invalid seconds")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid seconds")]
    fn from_secs_f64_rejects_nan() {
        let _ = SimTime::from_secs_f64(f64::NAN);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(2);
        let b = SimDuration::from_millis(3);
        assert_eq!(a + b, SimDuration::from_millis(5));
        assert_eq!(b - a, SimDuration::from_millis(1));
        assert_eq!(a * 4, SimDuration::from_millis(8));
        assert_eq!(b / 3, SimDuration::from_millis(1));
    }

    /// `round_u64` against the `f64::round` it replaces.
    fn assert_rounds(x: f64) {
        assert_eq!(round_u64(x), x.round() as u64, "{x:e} ({:#x})", x.to_bits());
    }

    #[test]
    fn round_u64_matches_f64_round_at_the_edges() {
        let edges = [
            0.0,
            -0.0,
            0.5,
            0.499_999_999_999_999_94,
            1.0 - f64::EPSILON / 2.0,
            1.5,
            2.5,
            (1u64 << 52) as f64 - 0.5,
            (1u64 << 52) as f64 + 0.5,
            (1u64 << 53) as f64 - 1.0,
            (1u64 << 53) as f64,
            (1u64 << 53) as f64 + 1.0,
            (1u64 << 53) as f64 + 2.0,
            (1u64 << 63) as f64,
            (1u64 << 63) as f64 * 1.5,
            u64::MAX as f64,
            18_446_744_073_709_549_568.0, // the largest f64 below 2^64
            2f64.powi(64),
            2f64.powi(65),
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            -0.4,
            -0.5,
            -0.6,
            -1.5,
            -((1u64 << 60) as f64),
            f64::MIN,
        ];
        for x in edges {
            assert_rounds(x);
            assert_rounds(x.next_up());
            assert_rounds(x.next_down());
        }
    }

    #[test]
    fn round_u64_matches_f64_round_on_every_half() {
        // Every k + 0.5 below 2^16, then at every binade up to 2^53: its
        // ends, and its ties and their neighbours at random k.
        let mut rng = crate::rng::SimRng::seed_from(53);
        let mut check = |k: u64| {
            let x = k as f64 + 0.5;
            assert_rounds(x);
            assert_rounds(x.next_up());
            assert_rounds(x.next_down());
            assert_rounds(k as f64);
        };
        (0..1 << 16).for_each(&mut check);
        for e in 16..=53 {
            let lo = 1u64 << e;
            for k in [lo - 1, lo, lo + 1, (lo << 1) - 1] {
                check(k);
            }
            for _ in 0..2_000 {
                let k = lo + rng.range_u64(0, lo);
                check(k);
            }
        }
    }

    #[test]
    fn round_u64_matches_f64_round_on_random_bits() {
        let mut rng = crate::rng::SimRng::seed_from(64);
        for _ in 0..1_000_000 {
            assert_rounds(f64::from_bits(rng.u64()));
        }
        // Positive values below 2^64, where the fraction test does work.
        for _ in 0..1_000_000 {
            let x = f64::from_bits(rng.u64() >> 1);
            if x < 2f64.powi(64) {
                assert_rounds(x);
            }
        }
    }

    #[test]
    fn duration_mul_f64_rounds() {
        let d = SimDuration::from_nanos(10);
        assert_eq!(d.mul_f64(1.26), SimDuration::from_nanos(13));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn ratio_conventions() {
        let a = SimDuration::from_millis(3);
        let b = SimDuration::from_millis(2);
        assert!((a.ratio(b) - 1.5).abs() < 1e-12);
        assert_eq!(a.ratio(SimDuration::ZERO), f64::INFINITY);
        assert_eq!(SimDuration::ZERO.ratio(SimDuration::ZERO), 1.0);
    }

    #[test]
    fn min_max() {
        let a = SimDuration::from_millis(3);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn ordering_is_by_instant() {
        let mut v = vec![
            SimTime::from_millis(5),
            SimTime::ZERO,
            SimTime::from_micros(1),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_micros(1),
                SimTime::from_millis(5)
            ]
        );
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(SimDuration::ZERO.to_string(), "0s");
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(1).to_string(), "1.000us");
        assert_eq!(SimDuration::from_millis(1).to_string(), "1.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000000s");
        assert_eq!(SimTime::from_millis(250).to_string(), "250.000ms");
    }

    #[test]
    fn debug_wraps_display() {
        assert_eq!(format!("{:?}", SimTime::from_millis(1)), "SimTime(1.000ms)");
        assert_eq!(
            format!("{:?}", SimDuration::from_nanos(7)),
            "SimDuration(7ns)"
        );
    }

    #[test]
    fn checked_add_overflow() {
        assert_eq!(SimTime::MAX.checked_add(SimDuration::from_nanos(1)), None);
        assert_eq!(
            SimDuration::MAX.checked_add(SimDuration::from_nanos(1)),
            None
        );
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(5)),
            SimTime::MAX
        );
    }

    #[test]
    fn millis_f64_accessors() {
        let t = SimTime::from_micros(1_500);
        assert!((t.as_millis_f64() - 1.5).abs() < 1e-12);
        let d = SimDuration::from_micros(2_500);
        assert!((d.as_millis_f64() - 2.5).abs() < 1e-12);
    }
}
