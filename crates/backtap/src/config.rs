//! Congestion-control parameters.

/// Lower bound for the window at all times, in cells (paper: 2, the
/// initial window — compensation never goes below it).
pub const MIN_CWND: u32 = 2;

/// Upper bound for the window, in cells; a safety rail against runaway
/// doubling on extremely fat paths, far above anything the experiments
/// reach.
pub const MAX_CWND: u32 = 1 << 16;

/// Congestion-avoidance lower threshold α: grow the window by one when
/// `diff < α` (paper: 2).
pub(crate) const ALPHA: f64 = 2.0;

/// Congestion-avoidance upper threshold β: shrink the window by one when
/// `diff > β` (paper: 4).
pub(crate) const BETA: f64 = 4.0;

/// The parameters of the delay-based congestion controllers that the
/// ablations sweep; the paper's fixed ones are the constants above.
///
/// Defaults follow the paper: initial window of 2 cells and `γ = 4` for
/// leaving the ramp-up.
#[derive(Clone, Copy, Debug)]
pub struct CcConfig {
    /// Congestion window at circuit start, in cells (paper: 2).
    pub init_cwnd: u32,
    /// Ramp-exit threshold γ: the fixed floor of the ramp-exit rule's
    /// threshold `max(γ, θ·cwnd)` (DESIGN.md §4 "The ramp-exit rule"). It
    /// dominates small windows, where a standing queue (cross traffic)
    /// ends the ramp.
    pub gamma: f64,
    /// Ramp-overrun threshold θ: the window-proportional part of the same
    /// threshold. Above γ's floor the ramp ends the moment a round has
    /// been outstanding longer than `(1 + θ)·baseRtt`; the cells already
    /// fed back are then "the packet train the successor could forward
    /// without additional delay" (paper §2).
    pub theta: f64,
}

impl Default for CcConfig {
    fn default() -> Self {
        CcConfig {
            init_cwnd: 2,
            gamma: 4.0,
            theta: 1.0,
        }
    }
}

impl CcConfig {
    /// Validates parameter consistency.
    ///
    /// # Panics
    ///
    /// Panics on an initial window outside `[MIN_CWND, MAX_CWND]` or a
    /// non-positive or non-finite threshold.
    pub fn validate(&self) {
        assert!(
            (MIN_CWND..=MAX_CWND).contains(&self.init_cwnd),
            "init_cwnd {} outside [{MIN_CWND}, {MAX_CWND}]",
            self.init_cwnd
        );
        assert!(
            self.gamma.is_finite() && self.gamma > 0.0,
            "gamma must be positive and finite"
        );
        assert!(
            self.theta.is_finite() && self.theta > 0.0,
            "theta must be positive and finite"
        );
    }
}

/// Clamps a window value into `[MIN_CWND, MAX_CWND]`.
pub(crate) fn clamp_cwnd(cwnd: u32) -> u32 {
    cwnd.clamp(MIN_CWND, MAX_CWND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CcConfig::default();
        assert_eq!(c.init_cwnd, 2);
        assert_eq!(MIN_CWND, 2);
        assert_eq!(c.gamma, 4.0);
        assert_eq!(ALPHA, 2.0);
        assert_eq!(BETA, 4.0);
        c.validate();
    }

    #[test]
    fn clamp() {
        assert_eq!(clamp_cwnd(0), MIN_CWND);
        assert_eq!(clamp_cwnd(MIN_CWND), MIN_CWND);
        assert_eq!(clamp_cwnd(50), 50);
        assert_eq!(clamp_cwnd(MAX_CWND), MAX_CWND);
        assert_eq!(clamp_cwnd(MAX_CWND + 1), MAX_CWND);
        assert_eq!(clamp_cwnd(u32::MAX), MAX_CWND);
    }

    #[test]
    #[should_panic(expected = "init_cwnd")]
    fn init_below_min_rejected() {
        CcConfig {
            init_cwnd: 1,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "init_cwnd")]
    fn init_above_max_rejected() {
        CcConfig {
            init_cwnd: MAX_CWND + 1,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn nonpositive_gamma_rejected() {
        CcConfig {
            gamma: 0.0,
            ..Default::default()
        }
        .validate();
    }
}
