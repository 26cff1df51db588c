//! Algorithm selection: the [`Controller`] and overlay factory for
//! CircuitStart and every baseline the evaluation compares against.
//!
//! The factory is a plain `Copy` value, so a world that holds one clones
//! and crosses threads like the rest of its state.

use crate::cc::Controller;
use crate::config::CcConfig;
use crate::delay_cc::{DelayCc, RampExit};

/// Every sender-side algorithm the harness can run: the paper's
/// CircuitStart, its "without CircuitStart" baseline, and the ablations'
/// fixed and ramp-less windows. The feedback machinery, relays, and
/// topology are identical across variants — only the forward hops'
/// [`Controller`] differs, which is what makes the comparisons
/// apples-to-apples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algorithm {
    /// The paper's contribution: discrete-round doubling driven by
    /// per-hop feedback, delay-triggered exit, **overshoot compensation**
    /// ([`RampExit::CircuitStart`]), then Vegas congestion avoidance with
    /// the **backpropagation rule** (the window snaps to the successor's
    /// demonstrated forwarding rate instead of creeping down — how a
    /// distant bottleneck's compensation reaches the source hop by hop).
    CircuitStart,
    /// "Without CircuitStart": same ramp, traditional halving exit.
    ClassicBacktap,
    /// No startup phase at all; the window opens at the given size
    /// (JumpStart-style, cited by the paper as unsuited to multi-hop).
    JumpStart(u32),
    /// Constant per-hop window (vanilla-Tor-flavoured ablation).
    FixedWindow(u32),
    /// Ramp disabled, window starts at `init_cwnd` in congestion
    /// avoidance (no-slow-start ablation: converges by ±1 per RTT only).
    NoSlowStart,
}

impl Algorithm {
    /// A short stable identifier for file names and report rows.
    pub fn key(&self) -> String {
        match self {
            Algorithm::CircuitStart => "circuitstart".to_string(),
            Algorithm::ClassicBacktap => "classic".to_string(),
            Algorithm::JumpStart(w) => format!("jumpstart-{w}"),
            Algorithm::FixedWindow(w) => format!("fixed-{w}"),
            Algorithm::NoSlowStart => "no-slow-start".to_string(),
        }
    }

    /// Builds the controller for one forward hop.
    ///
    /// # Panics
    ///
    /// Panics on `FixedWindow(0)`, a window that never opens.
    pub fn make_controller(&self, cfg: CcConfig) -> Controller {
        let delay = |cc| Controller::Delay(Box::new(cc));
        match *self {
            Algorithm::CircuitStart => delay(DelayCc::with_ramp(cfg, RampExit::CircuitStart)),
            Algorithm::ClassicBacktap => delay(DelayCc::with_ramp(cfg, RampExit::Halving)),
            Algorithm::JumpStart(w) => delay(DelayCc::without_ramp(cfg, w)),
            Algorithm::FixedWindow(w) => {
                assert!(w > 0, "fixed window must be positive");
                Controller::Fixed(w)
            }
            Algorithm::NoSlowStart => delay(DelayCc::without_ramp(cfg, cfg.init_cwnd)),
        }
    }

    /// An overlay factory running this algorithm on every circuit's
    /// forward hops. Backward (control-only) hops are unwindowed by the
    /// overlay itself, as in the paper's one-directional bulk evaluation.
    pub fn factory(&self, cfg: CcConfig) -> CcFactory {
        CcFactory {
            algorithm: *self,
            cfg,
            except: None,
        }
    }
}

/// Creates the congestion controller for each forward hop of a circuit:
/// `algorithm` on every circuit but the one `except` names, which runs
/// its own. Backward (control-only) hops are unwindowed whatever it
/// returns: they run [`Controller::unlimited`].
#[derive(Clone, Copy, Debug)]
pub struct CcFactory {
    /// The algorithm every circuit runs by default.
    pub algorithm: Algorithm,
    /// The parameters every controller is built with.
    pub cfg: CcConfig,
    /// One circuit (by its overlay id) running another algorithm.
    pub except: Option<(u32, Algorithm)>,
}

impl CcFactory {
    /// The controller for one forward hop of circuit `circuit`.
    pub fn controller(&self, circuit: u32) -> Controller {
        match self.except {
            Some((c, algorithm)) if c == circuit => algorithm.make_controller(self.cfg),
            _ => self.algorithm.make_controller(self.cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::Phase;

    #[test]
    fn keys_are_stable() {
        assert_eq!(Algorithm::CircuitStart.key(), "circuitstart");
        assert_eq!(Algorithm::ClassicBacktap.key(), "classic");
        assert_eq!(Algorithm::JumpStart(100).key(), "jumpstart-100");
        assert_eq!(Algorithm::FixedWindow(8).key(), "fixed-8");
        assert_eq!(Algorithm::NoSlowStart.key(), "no-slow-start");
    }

    #[test]
    fn controllers_start_in_expected_phase() {
        let cfg = CcConfig::default();
        assert_eq!(
            Algorithm::CircuitStart.make_controller(cfg).phase(),
            Phase::SlowStart
        );
        assert_eq!(
            Algorithm::ClassicBacktap.make_controller(cfg).phase(),
            Phase::SlowStart
        );
        assert_eq!(
            Algorithm::JumpStart(64).make_controller(cfg).phase(),
            Phase::CongestionAvoidance
        );
        assert_eq!(
            Algorithm::NoSlowStart.make_controller(cfg).phase(),
            Phase::CongestionAvoidance
        );
    }

    #[test]
    fn jumpstart_window_opens_wide() {
        let cc = Algorithm::JumpStart(64).make_controller(CcConfig::default());
        assert_eq!(cc.cwnd(), 64);
        let cc2 = Algorithm::NoSlowStart.make_controller(CcConfig::default());
        assert_eq!(cc2.cwnd(), 2);
    }

    #[test]
    fn the_exception_reaches_its_circuit_only() {
        let factory = CcFactory {
            except: Some((3, Algorithm::JumpStart(100))),
            ..Algorithm::FixedWindow(8).factory(CcConfig::default())
        };
        for circuit in [0, 2, 4, u32::MAX] {
            assert_eq!(factory.controller(circuit).cwnd(), 8, "circuit {circuit}");
        }
        let odd = factory.controller(3);
        assert_eq!((odd.cwnd(), odd.phase()), (100, Phase::CongestionAvoidance));
        let plain = Algorithm::CircuitStart.factory(CcConfig::default());
        assert_eq!(plain.controller(3).phase(), Phase::SlowStart);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fixed_window_rejected() {
        let _ = Algorithm::FixedWindow(0).make_controller(CcConfig::default());
    }
}
