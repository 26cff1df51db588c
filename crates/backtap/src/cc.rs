//! The per-hop congestion controller: one closed set of policies.
//!
//! Every per-hop sender owns one [`Controller`]. The surrounding
//! [`crate::hop::HopTransport`] does the bookkeeping (sequence numbers,
//! send timestamps, base-RTT tracking) and calls into the controller with
//! pre-digested values, so controllers are pure, easily-tested state
//! machines. The set is closed because the evaluation's is: the
//! delay-based ramp (CircuitStart, classic halving, JumpStart,
//! no-slow-start) and a constant window.

use simcore::time::{SimDuration, SimTime};

use crate::delay_cc::DelayCc;

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
/// The delay arm is boxed: an unwindowed hop costs no allocation, and
/// a hop's controller stays two words.
#[derive(Clone, Debug)]
pub enum Controller {
    /// Discrete-round ramp plus Vegas avoidance (see [`DelayCc`]).
    Delay(Box<DelayCc>),
    /// A constant window of this many cells: Tor-flavoured fixed
    /// windowing, and the fixed-window ablation.
    Fixed(u32),
}

impl Controller {
    /// No window at all: every send is allowed. Backward (control-only)
    /// hops run this. A window of `u32::MAX` can only close at 2³²
    /// outstanding cells, which a hop never holds.
    pub fn unlimited() -> Controller {
        Controller::Fixed(u32::MAX)
    }

    /// Current congestion window, in cells. It stays within the
    /// controller's configured bounds at all times.
    pub fn cwnd(&self) -> u32 {
        match self {
            Controller::Delay(cc) => cc.cwnd(),
            Controller::Fixed(cwnd) => *cwnd,
        }
    }

    /// Current phase; a fixed window is always avoiding congestion.
    pub fn phase(&self) -> Phase {
        match self {
            Controller::Delay(cc) => cc.phase(),
            Controller::Fixed(_) => Phase::CongestionAvoidance,
        }
    }

    /// Whether a new cell may be sent right now, given the number of cells
    /// outstanding (sent but not yet fed back). The transport consults it
    /// before every send.
    pub fn allow_send(&self, outstanding: u32) -> bool {
        match self {
            Controller::Delay(cc) => cc.allow_send(outstanding),
            Controller::Fixed(cwnd) => outstanding < *cwnd,
        }
    }

    /// A cell with per-hop sequence number `seq` was sent at `now`; called
    /// for every cell actually sent.
    pub fn on_sent(&mut self, seq: u64, now: SimTime) {
        match self {
            Controller::Delay(cc) => cc.on_sent(seq, now),
            Controller::Fixed(_) => {}
        }
    }

    /// Feedback for cell `seq` arrived at `now`, with its RTT sample and
    /// the hop's running minimum RTT (which already includes this
    /// sample); called once per matching feedback message.
    pub fn on_feedback(&mut self, seq: u64, rtt: SimDuration, base_rtt: SimDuration, now: SimTime) {
        match self {
            Controller::Delay(cc) => cc.on_feedback(seq, rtt, base_rtt, now),
            Controller::Fixed(_) => {}
        }
    }

    /// Cell `seq` was retired without feedback (teardown drains and
    /// write-offs) and never will be fed back; called once per such cell,
    /// which never sees [`Controller::on_feedback`]. A controller that
    /// counts its sends must stop waiting for it, or its window can stay
    /// shut at 0 outstanding; one gated on `outstanding` alone need not
    /// care.
    pub fn on_forget(&mut self, seq: u64) {
        match self {
            Controller::Delay(cc) => cc.on_forget(seq),
            Controller::Fixed(_) => {}
        }
    }
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
        let cc = Controller::Fixed(3);
        assert!(cc.allow_send(0));
        assert!(cc.allow_send(2));
        assert!(!cc.allow_send(3));
        assert_eq!(cc.cwnd(), 3);
        assert_eq!(cc.phase(), Phase::CongestionAvoidance);
    }

    #[test]
    fn unlimited_always_allows() {
        let cc = Controller::unlimited();
        assert!(cc.allow_send(0));
        assert!(cc.allow_send(u32::MAX - 1));
        assert_eq!(cc.cwnd(), u32::MAX);
    }
}
