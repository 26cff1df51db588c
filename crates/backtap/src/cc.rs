//! The congestion-control interface and simple policies.
//!
//! Every per-hop sender owns one [`CongestionControl`] object. The
//! surrounding [`crate::hop::HopTransport`] does the bookkeeping
//! (sequence numbers, send timestamps, base-RTT tracking) and calls into
//! the controller with pre-digested values, so controllers are pure,
//! easily-tested state machines.

use simcore::time::{SimDuration, SimTime};

/// Which phase a delay-based controller is in; exposed for traces, tests,
/// and the experiment harness.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Ramp-up (slow start): discrete rounds of doubling trains.
    SlowStart,
    /// Vegas-style congestion avoidance.
    CongestionAvoidance,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::SlowStart => write!(f, "slow-start"),
            Phase::CongestionAvoidance => write!(f, "congestion-avoidance"),
        }
    }
}

/// A per-hop congestion controller.
///
/// Contract (enforced by `HopTransport` and its tests):
///
/// * `allow_send` is consulted before every send; `on_sent` is called for
///   every cell actually sent, with the per-hop sequence number.
/// * `on_feedback` is called once per matching feedback message, with the
///   RTT sample for that cell and the current `baseRtt` (which already
///   includes this sample).
/// * `on_forget` is called once per sent cell the transport retires
///   *without* feedback (teardown drains and write-offs); such a cell
///   never sees `on_feedback`. A controller that counts its sends must
///   stop waiting for it, or its window can stay shut at 0 outstanding.
/// * `cwnd()` must stay within the controller's configured bounds at all
///   times.
pub trait CongestionControl {
    /// Current congestion window, in cells.
    fn cwnd(&self) -> u32;

    /// Current phase.
    fn phase(&self) -> Phase;

    /// Whether a new cell may be sent right now, given the number of cells
    /// outstanding (sent but not yet fed back).
    fn allow_send(&self, outstanding: u32) -> bool;

    /// A cell with per-hop sequence number `seq` was sent at `now`.
    fn on_sent(&mut self, seq: u64, now: SimTime);

    /// Feedback for cell `seq` arrived at `now`, with its RTT sample and
    /// the hop's running minimum RTT.
    fn on_feedback(&mut self, seq: u64, rtt: SimDuration, base_rtt: SimDuration, now: SimTime);

    /// Cell `seq` was retired without feedback and never will be fed
    /// back. Controllers gated on `outstanding` alone need not care.
    fn on_forget(&mut self, _seq: u64) {}
}

/// A constant window — models Tor's fixed windowing when used at the
/// source, and serves as an ablation controller.
#[derive(Clone, Copy, Debug)]
pub struct FixedWindowCc {
    cwnd: u32,
}

impl FixedWindowCc {
    /// Creates a fixed window of `cwnd` cells.
    ///
    /// # Panics
    ///
    /// Panics if `cwnd` is zero.
    pub fn new(cwnd: u32) -> Self {
        assert!(cwnd > 0, "fixed window must be positive");
        FixedWindowCc { cwnd }
    }
}

impl CongestionControl for FixedWindowCc {
    fn cwnd(&self) -> u32 {
        self.cwnd
    }
    fn phase(&self) -> Phase {
        Phase::CongestionAvoidance
    }
    fn allow_send(&self, outstanding: u32) -> bool {
        outstanding < self.cwnd
    }
    fn on_sent(&mut self, _seq: u64, _now: SimTime) {}
    fn on_feedback(&mut self, _seq: u64, _rtt: SimDuration, _base: SimDuration, _now: SimTime) {}
}

/// No window at all: every send is allowed. Used for relays operating in
/// end-to-end (vanilla Tor) mode, where only the endpoints limit traffic.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnlimitedCc;

impl CongestionControl for UnlimitedCc {
    fn cwnd(&self) -> u32 {
        u32::MAX
    }
    fn phase(&self) -> Phase {
        Phase::CongestionAvoidance
    }
    fn allow_send(&self, _outstanding: u32) -> bool {
        true
    }
    fn on_sent(&mut self, _seq: u64, _now: SimTime) {}
    fn on_feedback(&mut self, _seq: u64, _rtt: SimDuration, _base: SimDuration, _now: SimTime) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_display() {
        assert_eq!(Phase::SlowStart.to_string(), "slow-start");
        assert_eq!(
            Phase::CongestionAvoidance.to_string(),
            "congestion-avoidance"
        );
    }

    #[test]
    fn fixed_window_gates_on_outstanding() {
        let cc = FixedWindowCc::new(3);
        assert!(cc.allow_send(0));
        assert!(cc.allow_send(2));
        assert!(!cc.allow_send(3));
        assert_eq!(cc.cwnd(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fixed_window_rejected() {
        let _ = FixedWindowCc::new(0);
    }

    #[test]
    fn unlimited_always_allows() {
        let cc = UnlimitedCc;
        assert!(cc.allow_send(0));
        assert!(cc.allow_send(u32::MAX - 1));
        assert_eq!(cc.cwnd(), u32::MAX);
    }
}
