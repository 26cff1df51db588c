//! The paper's future-work extension: re-probing after network changes.
//!
//! The poster's conclusion proposes "expanding the scope of the algorithm
//! to not only the initial phase of a circuit, but to enable it to quickly
//! respond to changing network conditions during the congestion avoidance
//! phase". This module implements the natural reading of that sentence:
//!
//! * In congestion avoidance, Vegas grows the window by at most one cell
//!   per RTT. If the path's capacity rises mid-flow (a competing circuit
//!   finished, a relay got faster), convergence takes `Δcwnd` RTTs.
//! * [`AdaptiveCc`] watches for **persistent spare capacity**: four
//!   consecutive +1 rounds (diff stayed below α every time). That pattern
//!   is what a capacity increase looks like from the endpoint.
//! * When detected, it re-enters the CircuitStart ramp *from the current
//!   window* — doubling per round with overshoot compensation — reaching
//!   the new operating point in `log₂` rounds instead of linearly many.
//!
//! The mid-flow ablation bench (`ablations -- midflow`) measures the
//! effect against plain CircuitStart.

use simcore::time::{SimDuration, SimTime};

use crate::cc::Phase;
use crate::delay_cc::DelayCc;

/// Re-probe after this many consecutive window-raising rounds.
const UNDERUSE_ROUNDS: u32 = 4;

/// Never re-enter the ramp more often than this in total (safety rail
/// for pathological oscillation).
const MAX_RESTARTS: u32 = 16;

/// CircuitStart plus mid-flow re-probing (see module docs).
#[derive(Clone, Debug)]
pub struct AdaptiveCc {
    inner: DelayCc,
    last_cwnd: u32,
    /// `ca_rounds` counter value at the last detector update, so the
    /// detector reacts once per Vegas evaluation, not once per feedback.
    last_rounds: u64,
    consecutive_raises: u32,
    /// Evidence (consecutive raising rounds) currently required before
    /// the next probe. Starts at `UNDERUSE_ROUNDS`; doubles after every
    /// probe that found no capacity (so steady-state contention cannot
    /// make the controller thrash) and resets after a successful one.
    required_raises: u32,
    /// Window at the moment the last probe fired, used to judge whether
    /// the probe found anything.
    probe_base: Option<u32>,
    /// How many times the ramp was re-entered.
    restarts: u32,
}

impl AdaptiveCc {
    /// Wraps a delay-based controller (normally one that leaves the ramp
    /// through [`crate::delay_cc::RampExit::CircuitStart`]).
    pub fn new(inner: DelayCc) -> AdaptiveCc {
        let last_cwnd = inner.cwnd();
        let last_rounds = inner.ca_rounds;
        AdaptiveCc {
            inner,
            last_cwnd,
            last_rounds,
            consecutive_raises: 0,
            required_raises: UNDERUSE_ROUNDS,
            probe_base: None,
            restarts: 0,
        }
    }

    pub(crate) fn cwnd(&self) -> u32 {
        self.inner.cwnd()
    }

    pub(crate) fn phase(&self) -> Phase {
        self.inner.phase()
    }

    pub(crate) fn allow_send(&self, outstanding: u32) -> bool {
        self.inner.allow_send(outstanding)
    }

    pub(crate) fn on_sent(&mut self, seq: u64, now: SimTime) {
        self.inner.on_sent(seq, now);
    }

    pub(crate) fn on_feedback(
        &mut self,
        seq: u64,
        rtt: SimDuration,
        base_rtt: SimDuration,
        now: SimTime,
    ) {
        let phase_before = self.inner.phase();
        self.inner.on_feedback(seq, rtt, base_rtt, now);
        if phase_before != Phase::CongestionAvoidance {
            if self.inner.phase() == Phase::CongestionAvoidance {
                // A ramp just ended. If it was one of our probes, judge it:
                // a probe that did not grow the window found no capacity,
                // so demand twice the evidence before the next one —
                // otherwise steady-state contention makes probing thrash.
                if let Some(base) = self.probe_base.take() {
                    let grew = f64::from(self.inner.cwnd()) > f64::from(base) * 1.25;
                    self.required_raises = if grew {
                        UNDERUSE_ROUNDS
                    } else {
                        (self.required_raises * 2).min(256)
                    };
                }
            }
            // Ramp in progress (or just ended); reset the detector.
            self.last_cwnd = self.inner.cwnd();
            self.last_rounds = self.inner.ca_rounds;
            self.consecutive_raises = 0;
            return;
        }
        // Only react when a Vegas evaluation actually happened — cwnd is
        // constant between evaluations and must not clear the streak.
        let rounds = self.inner.ca_rounds;
        if rounds == self.last_rounds {
            return;
        }
        self.last_rounds = rounds;
        let cwnd = self.inner.cwnd();
        if cwnd > self.last_cwnd {
            self.consecutive_raises += 1;
            if self.consecutive_raises >= self.required_raises && self.restarts < MAX_RESTARTS {
                // Persistent spare capacity: probe geometrically from the
                // current window instead of creeping by +1 per RTT.
                self.probe_base = Some(cwnd);
                self.inner.restart_ramp(Some(cwnd));
                self.restarts += 1;
                self.consecutive_raises = 0;
            }
        } else {
            // A hold (diff ≥ α) or a decrement: the path is not
            // underutilized, so the evidence streak restarts.
            self.consecutive_raises = 0;
        }
        self.last_cwnd = cwnd;
    }

    pub(crate) fn on_forget(&mut self, seq: u64) {
        self.inner.on_forget(seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CcConfig;
    use crate::delay_cc::RampExit;

    fn adaptive() -> AdaptiveCc {
        AdaptiveCc::new(DelayCc::with_ramp(
            CcConfig::default(),
            RampExit::CircuitStart,
        ))
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }
    fn t(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// Drives the controller through CA rounds with flat (uncongested)
    /// RTTs: every round raises the window by one.
    fn run_flat_ca_rounds(cc: &mut AdaptiveCc, seq: &mut u64, rounds: u32) {
        for _ in 0..rounds {
            cc.on_sent(*seq, t(0));
            cc.on_feedback(*seq, ms(10), ms(10), t(1));
            *seq += 1;
        }
    }

    fn into_ca(cc: &mut AdaptiveCc, seq: &mut u64) {
        // Force a ramp exit: the round's first feedback overruns the
        // budget (3·base at cwnd 2, 2·base above 4), dropping into
        // congestion avoidance at `MIN_CWND` 2.
        cc.on_sent(*seq, t(0));
        *seq += 1;
        cc.on_sent(*seq, t(0));
        *seq += 1;
        cc.on_feedback(*seq - 2, ms(35), ms(10), t(35));
        assert_eq!(cc.phase(), Phase::CongestionAvoidance);
        assert_eq!(cc.cwnd(), 2);
        // Drain the second outstanding cell (now handled by Vegas).
        cc.on_feedback(*seq - 1, ms(10), ms(10), t(36));
    }

    #[test]
    fn reprobes_after_persistent_raises() {
        let mut cc = adaptive();
        let mut seq = 0;
        into_ca(&mut cc, &mut seq);
        assert_eq!(cc.restarts, 0);
        // Four consecutive +1 rounds → re-probe.
        run_flat_ca_rounds(&mut cc, &mut seq, UNDERUSE_ROUNDS - 1);
        assert_eq!(cc.restarts, 0);
        run_flat_ca_rounds(&mut cc, &mut seq, 1);
        assert_eq!(cc.restarts, 1);
        assert_eq!(cc.phase(), Phase::SlowStart, "ramp re-entered");
        assert_eq!(cc.cwnd(), 6, "the probe starts from the current window");
    }

    #[test]
    fn congestion_resets_the_detector() {
        let mut cc = adaptive();
        let mut seq = 0;
        into_ca(&mut cc, &mut seq);
        run_flat_ca_rounds(&mut cc, &mut seq, UNDERUSE_ROUNDS - 1);
        // A congested round (diff > β → −1) must clear the streak.
        cc.on_sent(seq, t(0));
        cc.on_feedback(seq, ms(20), ms(10), t(1));
        seq += 1;
        run_flat_ca_rounds(&mut cc, &mut seq, UNDERUSE_ROUNDS - 1);
        assert_eq!(cc.restarts, 0, "streak must restart after congestion");
        run_flat_ca_rounds(&mut cc, &mut seq, 1);
        assert_eq!(cc.restarts, 1);
    }

    #[test]
    fn restart_cap_is_honoured() {
        let mut cc = adaptive();
        let mut seq = 0;
        // Every probe fails (the ramp exits back at 2), so each needs
        // twice the evidence of the last, up to 256 raises.
        for probe in 1..=MAX_RESTARTS {
            into_ca(&mut cc, &mut seq);
            let required = cc.required_raises;
            run_flat_ca_rounds(&mut cc, &mut seq, required);
            assert_eq!(cc.restarts, probe);
        }
        assert_eq!(cc.required_raises, 256);
        // Ramp re-entered; finish it again and pile up more raises.
        into_ca(&mut cc, &mut seq);
        run_flat_ca_rounds(&mut cc, &mut seq, 2 * 256);
        assert_eq!(cc.restarts, MAX_RESTARTS, "capped");
        assert_eq!(cc.phase(), Phase::CongestionAvoidance);
    }

    #[test]
    fn failed_probe_backs_off() {
        let mut cc = adaptive();
        let mut seq = 0;
        into_ca(&mut cc, &mut seq); // cwnd 2
        assert_eq!(cc.required_raises, UNDERUSE_ROUNDS);
        // Four raises → probe fires from cwnd 6.
        run_flat_ca_rounds(&mut cc, &mut seq, 4);
        assert_eq!(cc.restarts, 1);
        // The probe immediately hits congestion: exits below the window it
        // started from → unproductive → evidence requirement doubles.
        into_ca(&mut cc, &mut seq);
        assert_eq!(cc.required_raises, 8, "failed probe must back off");
        // Four raises are no longer enough.
        run_flat_ca_rounds(&mut cc, &mut seq, 4);
        assert_eq!(cc.restarts, 1);
        run_flat_ca_rounds(&mut cc, &mut seq, 4);
        assert_eq!(cc.restarts, 2, "doubled evidence reached");
    }

    #[test]
    fn successful_probe_resets_backoff() {
        let mut cc = adaptive();
        let mut seq = 0;
        // A failed first probe doubles the requirement to 8.
        into_ca(&mut cc, &mut seq);
        run_flat_ca_rounds(&mut cc, &mut seq, 4);
        into_ca(&mut cc, &mut seq);
        assert_eq!(cc.required_raises, 8);
        run_flat_ca_rounds(&mut cc, &mut seq, 8); // probe from 10
        assert_eq!(cc.restarts, 2);
        // Let the probe's ramp double twice (10 → 20 → 40) then exit on a
        // late round.
        for _ in 0..2 {
            let first = seq;
            let n = cc.cwnd();
            for _ in 0..n {
                cc.on_sent(seq, t(0));
                seq += 1;
            }
            for s in first..seq {
                cc.on_feedback(s, ms(10), ms(10), t(5));
            }
        }
        assert_eq!(cc.cwnd(), 40);
        // Overrun exit after 30 cells fed back: compensation lands at 30,
        // clearly above 1.25× the probe base of 10 → the probe found
        // capacity, and the requirement is back at the fast trigger.
        let n = cc.cwnd();
        let first = seq;
        for _ in 0..n {
            cc.on_sent(seq, t(100));
            seq += 1;
        }
        for s in first..first + 29 {
            cc.on_feedback(s, ms(15), ms(10), t(115));
        }
        cc.on_feedback(first + 29, ms(25), ms(10), t(125));
        assert_eq!(cc.phase(), Phase::CongestionAvoidance);
        assert_eq!(cc.cwnd(), 30, "compensation = acked in budget");
        assert_eq!(
            cc.required_raises, UNDERUSE_ROUNDS,
            "successful probe restores the fast trigger"
        );
    }

    #[test]
    fn forwards_forgotten_train_cells_to_the_ramp() {
        // A train of 2 with one cell forgotten and the other fed back:
        // the wrapped ramp must stop waiting for the forgotten one.
        let mut cc = adaptive();
        cc.on_sent(0, t(0));
        cc.on_sent(1, t(0));
        assert!(!cc.allow_send(2), "train full");
        cc.on_forget(1);
        cc.on_feedback(0, ms(10), ms(10), t(10));
        assert_eq!(cc.phase(), Phase::SlowStart);
        assert!(cc.allow_send(0), "window reopens at 0 outstanding");
    }

    #[test]
    fn delegates_basic_interface() {
        let cc = adaptive();
        assert_eq!(cc.cwnd(), 2);
        assert!(cc.allow_send(0));
    }
}
