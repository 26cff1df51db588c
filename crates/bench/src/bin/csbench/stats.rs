//! Order statistics, calibration arithmetic and the digest — the small
//! pure functions every reported number goes through.

/// `REF_NOMINAL_S` defines the calibrated second: host time is scaled so
/// that one pass of the reference kernel (see `refkernel.rs`) always
/// reads this long. Frozen — changing it rescales every host-time
/// metric ever recorded.
pub const REF_NOMINAL_S: f64 = 0.028;

/// Calibrated time of a section that took `raw_s` while the reference
/// kernel took `ref_before_s` just before it and `ref_after_s` just
/// after: `raw × REF_NOMINAL_S / mean(ref before, ref after)`.
pub fn calibrate(raw_s: f64, ref_before_s: f64, ref_after_s: f64) -> f64 {
    raw_s * REF_NOMINAL_S / (0.5 * (ref_before_s + ref_after_s))
}

/// The `q`-quantile of `sorted` by linear interpolation between closest
/// ranks (`q` in `[0, 1]`; `sorted` ascending and non-empty).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median with first and third quartile of one measured series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    pub fn of(values: &[f64]) -> Quartiles {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Quartiles {
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Nearest-rank percentile of exact integer samples (simulated
/// nanoseconds): the smallest sample with at least `p` percent of the
/// set at or below it. Sorts in place.
pub fn percentile_nearest_rank(samples: &mut [u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 — the benchmark's own generator for everything it draws
/// from `--seed` (world seeds, path-geometry jitter), so the program
/// under test only ever receives built scenarios.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let q = Quartiles::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 3.0, 4.0));
        let q = Quartiles::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.75, 2.5, 3.25));
        assert!((q.spread() - 0.6).abs() < 1e-12);
        let one = Quartiles::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
        assert_eq!(Quartiles::of(&[0.0]).spread(), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile_nearest_rank(&mut v, 50.0), 50);
        assert_eq!(percentile_nearest_rank(&mut v, 99.0), 99);
        assert_eq!(percentile_nearest_rank(&mut v, 100.0), 100);
        assert_eq!(percentile_nearest_rank(&mut v, 0.0), 1);
        let mut one = [42u64];
        assert_eq!(percentile_nearest_rank(&mut one, 99.0), 42);
        // With 3 samples p50 is the 2nd, p99 the 3rd.
        let mut three = [30u64, 10, 20];
        assert_eq!(percentile_nearest_rank(&mut three, 50.0), 20);
        assert_eq!(percentile_nearest_rank(&mut three, 99.0), 30);
    }

    #[test]
    fn calibration_scales_by_the_bracketing_reference() {
        // Reference ran at nominal speed: calibrated == raw.
        assert_eq!(calibrate(2.0, REF_NOMINAL_S, REF_NOMINAL_S), 2.0);
        // Box twice as slow (reference took twice as long): half the time.
        let slow = calibrate(2.0, 2.0 * REF_NOMINAL_S, 2.0 * REF_NOMINAL_S);
        assert!((slow - 1.0).abs() < 1e-12);
        // Drift inside the bracket: the mean of both sides is used.
        let drift = calibrate(3.0, REF_NOMINAL_S, 2.0 * REF_NOMINAL_S);
        assert!((drift - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_matches_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix_is_seed_determined_and_bounded() {
        let (mut a, mut b) = (SplitMix64(7), SplitMix64(7));
        for _ in 0..100 {
            let x = a.next_signed_unit();
            assert_eq!(x, b.next_signed_unit());
            assert!((-1.0..1.0).contains(&x));
        }
        assert_ne!(SplitMix64(1).next_u64(), SplitMix64(2).next_u64());
    }
}
