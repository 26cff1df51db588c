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
//! * [`AdaptiveCc`] watches for **persistent spare capacity**: `k`
//!   consecutive +1 rounds (diff stayed below α every time). That pattern
//!   is what a capacity increase looks like from the endpoint.
//! * When detected, it re-enters the CircuitStart ramp *from the current
//!   window* — doubling per round with overshoot compensation — reaching
//!   the new operating point in `log₂` rounds instead of linearly many.
//!
//! The mid-flow ablation bench (`ablations -- midflow`) measures the
//! effect against plain CircuitStart.

use backtap::cc::{CongestionControl, Phase};
use backtap::delay_cc::DelayCc;
use simcore::time::{SimDuration, SimTime};

/// Tuning for [`AdaptiveCc`].
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Re-probe after this many consecutive window-raising rounds.
    pub underuse_rounds: u32,
    /// Never re-probe more often than this many ramp re-entries total
    /// (safety rail for pathological oscillation).
    pub max_restarts: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            underuse_rounds: 4,
            max_restarts: 16,
        }
    }
}

/// CircuitStart plus mid-flow re-probing (see module docs).
pub struct AdaptiveCc {
    inner: DelayCc,
    cfg: AdaptiveConfig,
    last_cwnd: u32,
    /// `ca_rounds` counter value at the last detector update, so the
    /// detector reacts once per Vegas evaluation, not once per feedback.
    last_rounds: u64,
    consecutive_raises: u32,
    /// Evidence currently required before the next probe. Starts at
    /// `cfg.underuse_rounds`; doubles after every probe that found no
    /// capacity (so steady-state contention cannot make the controller
    /// thrash) and resets after a successful one.
    required_raises: u32,
    /// Window at the moment the last probe fired, used to judge whether
    /// the probe found anything.
    probe_base: Option<u32>,
    restarts: u32,
}

impl AdaptiveCc {
    /// Wraps a delay-based controller (normally
    /// [`crate::algorithm::circuit_start_cc`]).
    pub fn new(inner: DelayCc, cfg: AdaptiveConfig) -> AdaptiveCc {
        assert!(
            cfg.underuse_rounds >= 2,
            "need at least 2 rounds of evidence"
        );
        let last_cwnd = inner.cwnd();
        let last_rounds = inner.stats().ca_rounds;
        AdaptiveCc {
            inner,
            cfg,
            last_cwnd,
            last_rounds,
            consecutive_raises: 0,
            required_raises: cfg.underuse_rounds,
            probe_base: None,
            restarts: 0,
        }
    }

    /// Evidence (consecutive raising rounds) currently required before the
    /// next probe; doubles after unproductive probes.
    pub fn required_raises(&self) -> u32 {
        self.required_raises
    }

    /// How many times the ramp was re-entered.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// The wrapped controller.
    pub fn inner(&self) -> &DelayCc {
        &self.inner
    }
}

impl CongestionControl for AdaptiveCc {
    fn name(&self) -> &'static str {
        "adaptive-circuitstart"
    }

    fn cwnd(&self) -> u32 {
        self.inner.cwnd()
    }

    fn phase(&self) -> Phase {
        self.inner.phase()
    }

    fn allow_send(&self, outstanding: u32) -> bool {
        self.inner.allow_send(outstanding)
    }

    fn on_sent(&mut self, seq: u64, now: SimTime) {
        self.inner.on_sent(seq, now);
    }

    fn on_feedback(&mut self, seq: u64, rtt: SimDuration, base_rtt: SimDuration, now: SimTime) {
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
                        self.cfg.underuse_rounds
                    } else {
                        (self.required_raises * 2).min(256)
                    };
                }
            }
            // Ramp in progress (or just ended); reset the detector.
            self.last_cwnd = self.inner.cwnd();
            self.last_rounds = self.inner.stats().ca_rounds;
            self.consecutive_raises = 0;
            return;
        }
        // Only react when a Vegas evaluation actually happened — cwnd is
        // constant between evaluations and must not clear the streak.
        let rounds = self.inner.stats().ca_rounds;
        if rounds == self.last_rounds {
            return;
        }
        self.last_rounds = rounds;
        let cwnd = self.inner.cwnd();
        if cwnd > self.last_cwnd {
            self.consecutive_raises += 1;
            if self.consecutive_raises >= self.required_raises
                && self.restarts < self.cfg.max_restarts
            {
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

    fn on_forget(&mut self, seq: u64) {
        self.inner.on_forget(seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::circuit_start_cc;
    use backtap::config::CcConfig;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }
    fn t(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// Drives the controller through CA rounds with flat (uncongested)
    /// RTTs: every round raises the window by one.
    fn run_flat_ca_round(cc: &mut AdaptiveCc, seq: &mut u64) {
        cc.on_sent(*seq, t(0));
        cc.on_feedback(*seq, ms(10), ms(10), t(1));
        *seq += 1;
    }

    fn into_ca(cc: &mut AdaptiveCc, seq: &mut u64) {
        // Force a ramp exit: the round stays outstanding past the budget
        // (3·base at cwnd 2), dropping into congestion avoidance.
        cc.on_sent(*seq, t(0));
        *seq += 1;
        cc.on_sent(*seq, t(0));
        *seq += 1;
        cc.on_feedback(*seq - 2, ms(35), ms(10), t(35));
        assert_eq!(cc.phase(), Phase::CongestionAvoidance);
        // Drain the second outstanding cell (now handled by Vegas).
        cc.on_feedback(*seq - 1, ms(10), ms(10), t(36));
    }

    #[test]
    #[should_panic(expected = "at least 2 rounds")]
    fn rejects_hair_trigger_config() {
        let _ = AdaptiveCc::new(
            circuit_start_cc(CcConfig::default()),
            AdaptiveConfig {
                underuse_rounds: 1,
                max_restarts: 1,
            },
        );
    }

    #[test]
    fn reprobes_after_persistent_raises() {
        let mut cc = AdaptiveCc::new(
            circuit_start_cc(CcConfig::default()),
            AdaptiveConfig {
                underuse_rounds: 3,
                max_restarts: 16,
            },
        );
        let mut seq = 0;
        into_ca(&mut cc, &mut seq);
        assert_eq!(cc.restarts(), 0);
        // Three consecutive +1 rounds → re-probe.
        run_flat_ca_round(&mut cc, &mut seq);
        run_flat_ca_round(&mut cc, &mut seq);
        assert_eq!(cc.restarts(), 0);
        run_flat_ca_round(&mut cc, &mut seq);
        assert_eq!(cc.restarts(), 1);
        assert_eq!(cc.phase(), Phase::SlowStart, "ramp re-entered");
    }

    #[test]
    fn congestion_resets_the_detector() {
        let mut cc = AdaptiveCc::new(
            circuit_start_cc(CcConfig::default()),
            AdaptiveConfig {
                underuse_rounds: 3,
                max_restarts: 16,
            },
        );
        let mut seq = 0;
        into_ca(&mut cc, &mut seq);
        run_flat_ca_round(&mut cc, &mut seq);
        run_flat_ca_round(&mut cc, &mut seq);
        // A congested round (diff > β → −1) must clear the streak.
        cc.on_sent(seq, t(0));
        cc.on_feedback(seq, ms(20), ms(10), t(1));
        seq += 1;
        run_flat_ca_round(&mut cc, &mut seq);
        run_flat_ca_round(&mut cc, &mut seq);
        assert_eq!(cc.restarts(), 0, "streak must restart after congestion");
        run_flat_ca_round(&mut cc, &mut seq);
        assert_eq!(cc.restarts(), 1);
    }

    #[test]
    fn restart_cap_is_honoured() {
        let mut cc = AdaptiveCc::new(
            circuit_start_cc(CcConfig::default()),
            AdaptiveConfig {
                underuse_rounds: 2,
                max_restarts: 1,
            },
        );
        let mut seq = 0;
        into_ca(&mut cc, &mut seq);
        for _ in 0..2 {
            run_flat_ca_round(&mut cc, &mut seq);
        }
        assert_eq!(cc.restarts(), 1);
        // Ramp re-entered; finish it again and pile up more raises.
        into_ca(&mut cc, &mut seq);
        for _ in 0..10 {
            run_flat_ca_round(&mut cc, &mut seq);
        }
        assert_eq!(cc.restarts(), 1, "capped");
    }

    #[test]
    fn failed_probe_backs_off() {
        let mut cc = AdaptiveCc::new(
            circuit_start_cc(CcConfig::default()),
            AdaptiveConfig {
                underuse_rounds: 2,
                max_restarts: 16,
            },
        );
        let mut seq = 0;
        into_ca(&mut cc, &mut seq); // cwnd 2
        assert_eq!(cc.required_raises(), 2);
        // Two raises → probe fires from cwnd 4.
        run_flat_ca_round(&mut cc, &mut seq);
        run_flat_ca_round(&mut cc, &mut seq);
        assert_eq!(cc.restarts(), 1);
        // The probe immediately hits congestion: exits at ~the same window
        // → unproductive → evidence requirement doubles.
        into_ca(&mut cc, &mut seq);
        assert_eq!(cc.required_raises(), 4, "failed probe must back off");
        // Two raises are no longer enough.
        run_flat_ca_round(&mut cc, &mut seq);
        run_flat_ca_round(&mut cc, &mut seq);
        assert_eq!(cc.restarts(), 1);
        run_flat_ca_round(&mut cc, &mut seq);
        run_flat_ca_round(&mut cc, &mut seq);
        assert_eq!(cc.restarts(), 2, "doubled evidence reached");
    }

    #[test]
    fn successful_probe_resets_backoff() {
        let mut cc = AdaptiveCc::new(
            circuit_start_cc(CcConfig::default()),
            AdaptiveConfig {
                underuse_rounds: 2,
                max_restarts: 16,
            },
        );
        let mut seq = 0;
        into_ca(&mut cc, &mut seq); // cwnd 2
        run_flat_ca_round(&mut cc, &mut seq);
        run_flat_ca_round(&mut cc, &mut seq); // probe from 4
        assert_eq!(cc.restarts(), 1);
        // Let the probe's ramp double twice (4 → 8 → 16) then exit on a
        // late round: the window grew ≫ 1.25× → success, requirement
        // stays at the configured 2.
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
        assert_eq!(cc.cwnd(), 16);
        // Overrun exit after 11 cells fed back: compensation lands at 11,
        // clearly above the probe base of 4 → the probe found capacity.
        let n = cc.cwnd();
        let first = seq;
        for _ in 0..n {
            cc.on_sent(seq, t(100));
            seq += 1;
        }
        for s in first..first + 10 {
            cc.on_feedback(s, ms(15), ms(10), t(115));
        }
        cc.on_feedback(first + 10, ms(25), ms(10), t(125));
        assert_eq!(cc.phase(), Phase::CongestionAvoidance);
        assert_eq!(cc.cwnd(), 11, "compensation = acked in budget");
        assert_eq!(
            cc.required_raises(),
            2,
            "successful probe keeps fast trigger"
        );
    }

    #[test]
    fn forwards_forgotten_train_cells_to_the_ramp() {
        // A train of 2 with one cell forgotten and the other fed back:
        // the wrapped ramp must stop waiting for the forgotten one.
        let mut cc = AdaptiveCc::new(circuit_start_cc(CcConfig::default()), Default::default());
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
        let cc = AdaptiveCc::new(circuit_start_cc(CcConfig::default()), Default::default());
        assert_eq!(cc.name(), "adaptive-circuitstart");
        assert_eq!(cc.cwnd(), 2);
        assert!(cc.allow_send(0));
        assert_eq!(cc.inner().cwnd(), 2);
    }
}
