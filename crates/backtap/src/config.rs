//! Congestion-control parameters.

/// Parameters shared by the delay-based congestion controllers.
///
/// Defaults follow the paper: initial window of 2 cells, Vegas-style
/// thresholds with `γ = 4` for leaving the ramp-up, and `α = 2`, `β = 4`
/// for congestion avoidance.
#[derive(Clone, Copy, Debug)]
pub struct CcConfig {
    /// Congestion window at circuit start, in cells (paper: 2).
    pub init_cwnd: u32,
    /// Lower bound for the window at all times (paper: 2, the initial
    /// window — compensation never goes below it).
    pub min_cwnd: u32,
    /// Upper bound for the window; a safety rail against runaway doubling
    /// on extremely fat paths, far above anything the experiments reach.
    pub max_cwnd: u32,
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
    /// Congestion-avoidance lower threshold α: grow the window by one when
    /// `diff < α`.
    pub alpha: f64,
    /// Congestion-avoidance upper threshold β: shrink the window by one
    /// when `diff > β`.
    pub beta: f64,
}

impl Default for CcConfig {
    fn default() -> Self {
        CcConfig {
            init_cwnd: 2,
            min_cwnd: 2,
            max_cwnd: 1 << 16,
            gamma: 4.0,
            theta: 1.0,
            alpha: 2.0,
            beta: 4.0,
        }
    }
}

impl CcConfig {
    /// Validates parameter consistency.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent parameters (zero windows, inverted bounds,
    /// non-positive or non-finite thresholds, α > β).
    pub fn validate(&self) {
        assert!(self.min_cwnd >= 1, "min_cwnd must be at least 1");
        assert!(
            self.init_cwnd >= self.min_cwnd,
            "init_cwnd {} below min_cwnd {}",
            self.init_cwnd,
            self.min_cwnd
        );
        assert!(
            self.max_cwnd >= self.init_cwnd,
            "max_cwnd {} below init_cwnd {}",
            self.max_cwnd,
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
        assert!(
            self.alpha.is_finite() && self.alpha >= 0.0,
            "alpha must be non-negative and finite"
        );
        assert!(
            self.beta.is_finite() && self.beta >= self.alpha,
            "beta must be finite and >= alpha"
        );
    }

    /// Clamps a window value into `[min_cwnd, max_cwnd]`.
    pub fn clamp_cwnd(&self, cwnd: u32) -> u32 {
        cwnd.clamp(self.min_cwnd, self.max_cwnd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CcConfig::default();
        assert_eq!(c.init_cwnd, 2);
        assert_eq!(c.min_cwnd, 2);
        assert_eq!(c.gamma, 4.0);
        assert_eq!(c.alpha, 2.0);
        assert_eq!(c.beta, 4.0);
        c.validate();
    }

    #[test]
    fn clamp() {
        let c = CcConfig {
            min_cwnd: 2,
            max_cwnd: 100,
            ..Default::default()
        };
        assert_eq!(c.clamp_cwnd(0), 2);
        assert_eq!(c.clamp_cwnd(2), 2);
        assert_eq!(c.clamp_cwnd(50), 50);
        assert_eq!(c.clamp_cwnd(1000), 100);
    }

    #[test]
    #[should_panic(expected = "init_cwnd")]
    fn init_below_min_rejected() {
        CcConfig {
            init_cwnd: 1,
            min_cwnd: 2,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "max_cwnd")]
    fn max_below_init_rejected() {
        CcConfig {
            init_cwnd: 10,
            max_cwnd: 5,
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

    #[test]
    #[should_panic(expected = "beta")]
    fn beta_below_alpha_rejected() {
        CcConfig {
            alpha: 5.0,
            beta: 4.0,
            ..Default::default()
        }
        .validate();
    }
}
