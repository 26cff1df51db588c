//! Link rates and serialization-time arithmetic.
//!
//! [`Bandwidth`] is a plain bits-per-second value with exact integer
//! conversion to per-frame transmission times. Serialization time is
//! computed with *ceiling* division so that a frame never finishes
//! transmitting early — rounding down would let back-to-back frames creep
//! ahead of the physical rate over long runs.

use std::fmt;

use simcore::time::{round_u64, SimDuration, NANOS_PER_SEC};

/// A transmission rate in bits per second.
///
/// # Examples
///
/// ```
/// use netsim::bandwidth::Bandwidth;
///
/// let rate = Bandwidth::from_mbps(10);
/// // 512-byte Tor cell at 10 Mbit/s: 512 * 8 / 10e6 s = 409.6 us.
/// assert_eq!(rate.transmission_time(512).as_nanos(), 409_600);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Creates a rate from bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero — a zero-rate link can never transmit and
    /// would silently deadlock the simulation.
    pub fn from_bps(bps: u64) -> Self {
        assert!(bps > 0, "link bandwidth must be positive");
        Bandwidth(bps)
    }

    /// Creates a rate from megabits per second (10^6 bits).
    pub fn from_mbps(mbps: u64) -> Self {
        Self::from_bps(mbps * 1_000_000)
    }

    /// Creates a rate from fractional megabits per second.
    ///
    /// # Panics
    ///
    /// Panics if `mbps` is not finite or not positive.
    pub fn from_mbps_f64(mbps: f64) -> Self {
        assert!(
            mbps.is_finite() && mbps > 0.0,
            "bandwidth must be positive and finite, got {mbps}"
        );
        Self::from_bps(round_u64(mbps * 1e6).max(1))
    }

    /// The rate in bits per second.
    pub fn bps(&self) -> u64 {
        self.0
    }

    /// The rate in megabits per second as a float.
    pub fn as_mbps_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The rate in bytes per second as a float.
    pub fn bytes_per_sec_f64(&self) -> f64 {
        self.0 as f64 / 8.0
    }

    /// Time to serialize `bytes` onto the wire at this rate, rounded *up*
    /// to the next nanosecond.
    pub fn transmission_time(&self, bytes: u32) -> SimDuration {
        let bits = u128::from(bytes) * 8;
        let nanos = (bits * u128::from(NANOS_PER_SEC)).div_ceil(u128::from(self.0));
        SimDuration::from_nanos(u64::try_from(nanos).expect("transmission time overflows u64 ns"))
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bandwidth({self})")
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 && self.0 % 1_000_000_000 == 0 {
            write!(f, "{}Gbit/s", self.0 / 1_000_000_000)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}Mbit/s", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}kbit/s", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}bit/s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Bandwidth::from_mbps(1), Bandwidth::from_bps(1_000_000));
        assert_eq!(
            Bandwidth::from_mbps_f64(2.5),
            Bandwidth::from_bps(2_500_000)
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rate_rejected() {
        let _ = Bandwidth::from_bps(0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn negative_float_rate_rejected() {
        let _ = Bandwidth::from_mbps_f64(-1.0);
    }

    #[test]
    fn cell_serialization_times() {
        // 512 B at 1 Mbit/s → 4.096 ms exactly.
        assert_eq!(
            Bandwidth::from_mbps(1).transmission_time(512),
            SimDuration::from_micros(4_096)
        );
        // 512 B at 100 Mbit/s → 40.96 us.
        assert_eq!(
            Bandwidth::from_mbps(100).transmission_time(512).as_nanos(),
            40_960
        );
    }

    #[test]
    fn transmission_time_rounds_up() {
        // 1 byte at 3 bps: 8/3 s = 2.666…s → ceil at ns granularity.
        let t = Bandwidth::from_bps(3).transmission_time(1);
        assert_eq!(t.as_nanos(), 2_666_666_667);
    }

    #[test]
    fn zero_bytes_is_instant() {
        assert_eq!(
            Bandwidth::from_mbps(10).transmission_time(0),
            SimDuration::ZERO
        );
    }

    #[test]
    fn accessors() {
        let bw = Bandwidth::from_mbps(12);
        assert_eq!(bw.bps(), 12_000_000);
        assert!((bw.as_mbps_f64() - 12.0).abs() < 1e-12);
        assert!((bw.bytes_per_sec_f64() - 1_500_000.0).abs() < 1e-6);
    }

    #[test]
    fn display_units() {
        assert_eq!(Bandwidth::from_bps(500).to_string(), "500bit/s");
        assert_eq!(Bandwidth::from_bps(64_000).to_string(), "64.000kbit/s");
        assert_eq!(Bandwidth::from_mbps(10).to_string(), "10.000Mbit/s");
        assert_eq!(Bandwidth::from_bps(2_000_000_000).to_string(), "2Gbit/s");
    }
}
