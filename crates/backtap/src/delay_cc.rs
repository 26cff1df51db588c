//! The delay-based controller: discrete-round ramp-up + Vegas avoidance.
//!
//! [`DelayCc`] implements the window dynamics that both the paper's
//! contribution and its baseline share (see DESIGN.md §4):
//!
//! * **Ramp-up** (slow start) happens in *discrete rounds*. A round sends a
//!   back-to-back train of `cwnd` cells, then waits for the per-hop
//!   feedback of every cell in the train. If the round completes without a
//!   delay signal, the window doubles and the next train goes out.
//! * On each feedback the controller evaluates the Vegas backlog estimate
//!   `diff = cwnd · (currentRtt / baseRtt − 1)` with `currentRtt` = that
//!   cell's RTT. When `diff > γ`, the ramp ends **immediately,
//!   mid-round**, and the window is set by the pluggable [`RampExit`]
//!   policy — `HalvingExit` for the traditional baseline, the
//!   CircuitStart overshoot compensation in the `circuitstart` crate.
//! * **Congestion avoidance** is per-round Vegas: once per RTT, compare
//!   `diff` (using the round's minimum RTT) against `α`/`β` and move the
//!   window by ±1 cell.
//!
//! The controller deliberately contains no timers: rounds are delimited by
//! sequence numbers, so behaviour is driven purely by feedback arrival.

use simcore::time::{SimDuration, SimTime};

use crate::cc::{CongestionControl, Phase, RampExit};
use crate::config::CcConfig;

/// State of the train currently in flight during ramp-up.
#[derive(Clone, Copy, Debug)]
struct Train {
    /// Sequence number of the first cell of the train.
    first_seq: u64,
    /// Cells this train is allowed to contain (= cwnd at train start).
    target: u32,
    /// Cells of this train sent so far.
    sent: u32,
    /// Cells of this train already fed back.
    acked: u32,
    /// When the round opened (first send of the train).
    started_at: SimTime,
}

/// Vegas measurement-round state for congestion avoidance.
#[derive(Clone, Copy, Debug, Default)]
struct VegasRound {
    /// Evaluate when feedback for a sequence `>= mark` arrives; `None`
    /// until the first send after the previous evaluation.
    mark: Option<u64>,
    /// Minimum RTT observed in the current round.
    round_min: Option<SimDuration>,
}

/// Counters exposed for tests, traces, and the ablation benches.
#[derive(Clone, Copy, Debug, Default)]
pub struct DelayCcStats {
    /// Number of window doublings performed during ramp-up.
    pub doublings: u32,
    /// Number of times the ramp was exited on a delay signal.
    pub ramp_exits: u32,
    /// The window chosen by the exit policy at the last ramp exit.
    pub last_exit_cwnd: Option<u32>,
    /// The (possibly overshot) window at the moment of the last exit.
    pub last_overshoot_cwnd: Option<u32>,
    /// +1 window adjustments made in congestion avoidance.
    pub ca_increments: u64,
    /// −1 window adjustments made in congestion avoidance.
    pub ca_decrements: u64,
    /// Multiplicative re-compensations performed in congestion avoidance
    /// (CircuitStart's backpropagation rule).
    pub ca_recompensations: u64,
    /// Congestion-avoidance evaluations performed (one per RTT round,
    /// counting holds as well as adjustments).
    pub ca_rounds: u64,
}

/// Delay-based per-hop congestion controller (see module docs).
pub struct DelayCc {
    algorithm_name: &'static str,
    cfg: CcConfig,
    exit: Box<dyn RampExit + Send>,
    cwnd: u32,
    phase: Phase,
    train: Option<Train>,
    vegas: VegasRound,
    /// CircuitStart's backpropagation rule (paper §2): when congestion
    /// avoidance sees a persistent backlog (`diff > β`), set the window to
    /// the amount the successor demonstrably forwards per base RTT —
    /// `cwnd·baseRtt/currentRtt` — instead of creeping down by 1. This is
    /// how a far-away bottleneck's compensation reaches the source one hop
    /// at a time ("setting its cwnd to the same value").
    ///
    /// Scope: the rule is armed for a bounded number of rounds after each
    /// ramp exit (the time the backpropagation wave needs to arrive) and
    /// then hands over to plain Vegas. Left unbounded it misreads
    /// *shared*-queue delay under cross traffic as own backlog and
    /// collapses the window — the startup algorithm must stay a startup
    /// algorithm, exactly as the paper's future-work section implies.
    ///
    /// How many CA evaluations after a ramp exit the rule stays armed;
    /// 0, the default, leaves it off.
    ca_recompensation_window: u32,
    /// Armed evaluations remaining.
    ca_recompensation_left: u32,
    stats: DelayCcStats,
}

impl DelayCc {
    /// Creates a controller that starts in ramp-up with `cfg.init_cwnd`,
    /// leaving the ramp via `exit`.
    pub fn with_ramp(
        algorithm_name: &'static str,
        cfg: CcConfig,
        exit: Box<dyn RampExit + Send>,
    ) -> DelayCc {
        cfg.validate();
        DelayCc {
            algorithm_name,
            cfg,
            exit,
            cwnd: cfg.init_cwnd,
            phase: Phase::SlowStart,
            train: None,
            vegas: VegasRound::default(),
            ca_recompensation_window: 0,
            ca_recompensation_left: 0,
            stats: DelayCcStats::default(),
        }
    }

    /// Enables CircuitStart's backpropagation rule in congestion
    /// avoidance for `window` evaluations after every ramp exit (see the
    /// field documentation; it also arms immediately). The classic
    /// baseline leaves this off and adjusts by ±1 per round, as plain
    /// Vegas does.
    pub fn enable_ca_recompensation(&mut self, window: u32) {
        assert!(window > 0, "recompensation window must be positive");
        self.ca_recompensation_window = window;
        self.ca_recompensation_left = window;
    }

    /// Creates a controller with **no ramp-up**: it enters congestion
    /// avoidance immediately with window `cwnd0`. With a large `cwnd0`
    /// this models JumpStart-style "no startup phase" senders; with a
    /// small one, the no-slow-start ablation.
    pub fn without_ramp(algorithm_name: &'static str, cfg: CcConfig, cwnd0: u32) -> DelayCc {
        cfg.validate();
        let mut cc = DelayCc::with_ramp(algorithm_name, cfg, Box::new(crate::cc::HalvingExit));
        cc.cwnd = cfg.clamp_cwnd(cwnd0);
        cc.phase = Phase::CongestionAvoidance;
        cc
    }

    /// The configuration in use.
    pub fn config(&self) -> &CcConfig {
        &self.cfg
    }

    /// Diagnostic counters.
    pub fn stats(&self) -> &DelayCcStats {
        &self.stats
    }

    /// Re-enters ramp-up (the paper's future-work extension uses this to
    /// re-probe after a detected bandwidth change). The window restarts at
    /// `cwnd0` (clamped), or `init_cwnd` if `None`.
    pub fn restart_ramp(&mut self, cwnd0: Option<u32>) {
        self.cwnd = self.cfg.clamp_cwnd(cwnd0.unwrap_or(self.cfg.init_cwnd));
        self.phase = Phase::SlowStart;
        self.train = None;
        self.vegas = VegasRound::default();
    }

    /// Ends the ramp on a delay signal observed at `acked_in_round`
    /// feedbacks into the current round.
    fn exit_ramp(&mut self, acked_in_round: u32) {
        let overshoot = self.cwnd;
        let chosen = self.exit.exit_cwnd(overshoot, acked_in_round);
        self.cwnd = self.cfg.clamp_cwnd(chosen);
        self.phase = Phase::CongestionAvoidance;
        self.train = None;
        self.vegas = VegasRound::default();
        // Arm the backpropagation rule for the post-exit settling period.
        self.ca_recompensation_left = self.ca_recompensation_window;
        self.stats.ramp_exits += 1;
        self.stats.last_exit_cwnd = Some(self.cwnd);
        self.stats.last_overshoot_cwnd = Some(overshoot);
    }

    fn vegas_diff(&self, current: SimDuration, base: SimDuration) -> f64 {
        // diff = cwnd · currentRtt/baseRtt − cwnd  (paper, after TCP Vegas)
        f64::from(self.cwnd) * (current.ratio(base) - 1.0)
    }
}

impl CongestionControl for DelayCc {
    fn name(&self) -> &'static str {
        self.algorithm_name
    }

    fn cwnd(&self) -> u32 {
        self.cwnd
    }

    fn phase(&self) -> Phase {
        self.phase
    }

    fn allow_send(&self, outstanding: u32) -> bool {
        match self.phase {
            Phase::SlowStart => match &self.train {
                // A train in progress may grow up to its target.
                Some(t) => t.sent < t.target,
                // No active train: the next send opens one.
                None => true,
            },
            Phase::CongestionAvoidance => outstanding < self.cwnd,
        }
    }

    fn on_sent(&mut self, seq: u64, now: SimTime) {
        match self.phase {
            Phase::SlowStart => match &mut self.train {
                Some(t) => {
                    debug_assert!(t.sent < t.target, "train overfilled");
                    t.sent += 1;
                }
                None => {
                    self.train = Some(Train {
                        first_seq: seq,
                        target: self.cwnd,
                        sent: 1,
                        acked: 0,
                        started_at: now,
                    });
                }
            },
            Phase::CongestionAvoidance => {
                // First send after an evaluation opens a measurement round.
                if self.vegas.mark.is_none() {
                    self.vegas.mark = Some(seq);
                    self.vegas.round_min = None;
                }
            }
        }
    }

    fn on_feedback(&mut self, seq: u64, rtt: SimDuration, base_rtt: SimDuration, now: SimTime) {
        match self.phase {
            Phase::SlowStart => {
                let Some(train) = &mut self.train else {
                    // Feedback for a cell sent before the ramp (re)started
                    // — e.g. cells still outstanding when an adaptive
                    // restart re-entered slow start. There is no round to
                    // account it to; the transport already took the RTT
                    // sample.
                    return;
                };
                if seq < train.first_seq {
                    // Same situation, with a fresh train already open.
                    return;
                }
                train.acked += 1;
                let acked = train.acked;
                let sent = train.sent;
                let target = train.target;
                let started_at = train.started_at;

                // The exit test (DESIGN.md §4): the paper's Vegas estimate
                // `diff = cwnd·(currentRtt/baseRtt − 1) > γ`, evaluated on
                // **round-level timing** — `currentRtt` is the time the
                // round has been outstanding. Per-cell RTTs inside a
                // back-to-back train measure self-inflicted serialization
                // queueing and would fire long before the path saturates;
                // the round clock is the noise-free signal. The threshold
                // generalizes the poster's fixed γ with a window-
                // proportional floor `cwnd·θ`: a round within the path's
                // capacity feeds back within ≈ one extra baseRtt (the pipe
                // drains while the train serializes), so overrunning
                // `(1+θ)·baseRtt` (θ = 1) marks the cells confirmed so far
                // as exactly the sustainable train.
                let _ = rtt; // per-cell RTT drives CA, not the ramp exit
                let elapsed = now.saturating_duration_since(started_at);
                let diff_round = f64::from(self.cwnd) * (elapsed.ratio(base_rtt) - 1.0);
                let threshold = self.cfg.gamma.max(f64::from(self.cwnd) * self.cfg.theta);
                if diff_round > threshold {
                    self.exit_ramp(acked);
                    return;
                }

                if acked == sent {
                    // Train fully fed back without a delay signal.
                    if sent >= target {
                        // Full round: double, as in the paper.
                        self.cwnd = self.cfg.clamp_cwnd(self.cwnd.saturating_mul(2));
                        self.stats.doublings += 1;
                    }
                    // (Partial, application-limited trains keep the window:
                    // there is no evidence the path sustains more.)
                    self.train = None;
                }
            }
            Phase::CongestionAvoidance => {
                self.vegas.round_min = Some(match self.vegas.round_min {
                    Some(m) => m.min(rtt),
                    None => rtt,
                });
                if let Some(mark) = self.vegas.mark {
                    if seq >= mark {
                        // One RTT has elapsed since the round opened.
                        self.stats.ca_rounds += 1;
                        let current = self.vegas.round_min.expect("round with no samples");
                        let diff = self.vegas_diff(current, base_rtt);
                        if diff < self.cfg.alpha {
                            let next = self.cfg.clamp_cwnd(self.cwnd + 1);
                            if next > self.cwnd {
                                self.stats.ca_increments += 1;
                            }
                            self.cwnd = next;
                        } else if diff > self.cfg.beta {
                            let armed = self.ca_recompensation_left > 0;
                            let next = if armed {
                                // Backpropagation: the successor forwarded
                                // cwnd·base/current cells per base RTT —
                                // adopt that as the window.
                                let target = f64::from(self.cwnd) * base_rtt.ratio(current);
                                self.cfg.clamp_cwnd(target.floor() as u32)
                            } else {
                                self.cfg.clamp_cwnd(self.cwnd.saturating_sub(1))
                            };
                            if next < self.cwnd {
                                if armed && self.cwnd - next > 1 {
                                    self.stats.ca_recompensations += 1;
                                } else {
                                    self.stats.ca_decrements += 1;
                                }
                            }
                            self.cwnd = next;
                        }
                        self.ca_recompensation_left = self.ca_recompensation_left.saturating_sub(1);
                        self.vegas.mark = None;
                        self.vegas.round_min = None;
                    }
                }
            }
        }
    }

    /// A forgotten cell of the open train leaves it: the train is one
    /// cell shorter, so it has room for another send instead of waiting
    /// on feedback that will never come. Cells from before the train
    /// and congestion-avoidance sends (gated on `outstanding`) need
    /// nothing.
    fn on_forget(&mut self, seq: u64) {
        if let Some(t) = self.train.as_mut().filter(|t| seq >= t.first_seq) {
            debug_assert!(t.sent > t.acked, "forgot a cell the train never sent");
            t.sent -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::HalvingExit;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn t(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn cc() -> DelayCc {
        DelayCc::with_ramp("test-halving", CcConfig::default(), Box::new(HalvingExit))
    }

    /// Sends a full train at the current window and feeds every cell back
    /// with the given flat RTT. Returns the sequence after the train.
    fn run_flat_round(cc: &mut DelayCc, mut seq: u64, rtt: SimDuration) -> u64 {
        let n = cc.cwnd();
        let first = seq;
        for _ in 0..n {
            assert!(cc.allow_send(0), "train must accept its own cells");
            cc.on_sent(seq, t(0));
            seq += 1;
        }
        assert!(!cc.allow_send(0), "train must close at target");
        for s in first..seq {
            cc.on_feedback(s, rtt, ms(10).min(rtt), t(1));
        }
        seq
    }

    #[test]
    fn starts_in_slow_start_with_init_cwnd() {
        let cc = cc();
        assert_eq!(cc.cwnd(), 2);
        assert_eq!(cc.phase(), Phase::SlowStart);
        assert_eq!(cc.name(), "test-halving");
        assert!(cc.allow_send(0));
    }

    #[test]
    fn doubles_per_clean_round() {
        let mut c = cc();
        let mut seq = 0;
        for expected in [2u32, 4, 8, 16, 32] {
            assert_eq!(c.cwnd(), expected);
            seq = run_flat_round(&mut c, seq, ms(10));
        }
        assert_eq!(c.cwnd(), 64);
        assert_eq!(c.stats().doublings, 5);
        assert_eq!(c.phase(), Phase::SlowStart);
    }

    #[test]
    fn round_overrun_exits_and_counts_acked() {
        // The key ramp-exit path: a train bigger than the path sustains
        // keeps feeding back past the (1+θ)·baseRtt budget; the exit fires
        // on the first feedback beyond it, with `acked_in_round` = the
        // sustainable train length.
        /// Exit policy that simply installs the measured count.
        struct CaptureExit;
        impl crate::cc::RampExit for CaptureExit {
            fn name(&self) -> &'static str {
                "capture"
            }
            fn exit_cwnd(&self, _cwnd: u32, acked: u32) -> u32 {
                acked
            }
        }
        let mut c = DelayCc::with_ramp("t", CcConfig::default(), Box::new(CaptureExit));
        let mut seq = 0;
        seq = run_flat_round(&mut c, seq, ms(10)); // 2 → 4
        seq = run_flat_round(&mut c, seq, ms(10)); // 4 → 8
        assert_eq!(c.cwnd(), 8);
        // Train of 8 at t=100; base 10 ms ⇒ budget 20 ms. Feedback arrives
        // bottleneck-paced every 4 ms: t=110, 114, 118, 122 — the fourth
        // lands 22 ms after the round opened → overrun, acked = 4.
        for _ in 0..8 {
            c.on_sent(seq, t(100));
            seq += 1;
        }
        for (i, s) in (seq - 8..seq).enumerate() {
            let now = t(110 + 4 * i as u64);
            c.on_feedback(s, now - t(100), ms(10), now);
            if c.phase() == Phase::CongestionAvoidance {
                break;
            }
        }
        assert_eq!(c.phase(), Phase::CongestionAvoidance);
        assert_eq!(c.cwnd(), 4, "compensation = cells fed back in budget");
        assert_eq!(c.stats().ramp_exits, 1);
        assert_eq!(c.stats().last_overshoot_cwnd, Some(8));
        assert_eq!(c.stats().last_exit_cwnd, Some(4));
    }

    #[test]
    fn round_within_budget_does_not_exit() {
        let mut c = cc();
        let mut seq = 0;
        seq = run_flat_round(&mut c, seq, ms(10)); // 2 → 4

        // Train of 4 whose last feedback arrives at exactly the budget
        // boundary (elapsed == 2·base is NOT an overrun: strict >).
        for _ in 0..4 {
            c.on_sent(seq, t(100));
            seq += 1;
        }
        for (i, s) in (seq - 4..seq).enumerate() {
            let now = t(105 + 5 * i as u64); // 105, 110, 115, 120
            c.on_feedback(s, now - t(100), ms(10), now);
        }
        assert_eq!(c.phase(), Phase::SlowStart);
        assert_eq!(c.cwnd(), 8, "clean round must double");
    }

    #[test]
    fn small_window_standing_queue_exit_via_gamma() {
        let mut c = cc();
        // First round, cwnd 2: threshold = max(γ, cwnd·θ) = 4, so the
        // round may stay outstanding up to 3·base = 30 ms. A feedback at
        // 35 ms (standing queue ahead of us) exits the ramp; halving
        // 2/2 = 1 clamps to min_cwnd 2.
        c.on_sent(0, t(0));
        c.on_sent(1, t(0));
        c.on_feedback(0, ms(35), ms(10), t(35));
        assert_eq!(c.phase(), Phase::CongestionAvoidance);
        assert_eq!(c.cwnd(), 2);
    }

    #[test]
    fn bad_rtt_samples_within_budget_do_not_exit() {
        let mut c = cc();
        c.on_sent(0, t(0));
        c.on_sent(1, t(0));
        // Inflated per-cell RTT *samples* (self-queueing inside the train)
        // arriving within the round budget must not end the ramp — only
        // round-level timing counts.
        c.on_feedback(0, ms(10), ms(10), t(10));
        c.on_feedback(1, ms(15), ms(10), t(15));
        assert_eq!(c.phase(), Phase::SlowStart);
        assert_eq!(c.cwnd(), 4, "round completed and doubled");
    }

    #[test]
    fn boundary_diff_equal_threshold_does_not_exit() {
        // cwnd 2: diff = 2·(elapsed/base − 1) = 4 ⇔ elapsed = 3·base.
        // Exactly the threshold must NOT exit (strict inequality in the
        // paper: "if diff > γ"); just above must.
        let mut at_gamma = cc();
        at_gamma.on_sent(0, t(0));
        at_gamma.on_sent(1, t(0));
        at_gamma.on_feedback(0, ms(30), ms(10), t(30));
        assert_eq!(at_gamma.phase(), Phase::SlowStart);

        let mut above_gamma = cc();
        above_gamma.on_sent(0, t(0));
        above_gamma.on_sent(1, t(0));
        let just_over = SimTime::from_nanos(30_000_001);
        above_gamma.on_feedback(0, ms(30), ms(10), just_over);
        assert_eq!(above_gamma.phase(), Phase::CongestionAvoidance);
    }

    #[test]
    fn gamma_floor_dominates_small_windows_theta_large_ones() {
        // cwnd 2 with γ = 4: budget 3·base. cwnd 16: budget 2·base (θ).
        let cfg = CcConfig::default();
        assert_eq!(cfg.gamma, 4.0);
        assert_eq!(cfg.theta, 1.0);
        // Small window: elapsed 2.5·base within budget.
        let mut small = cc();
        small.on_sent(0, t(0));
        small.on_sent(1, t(0));
        small.on_feedback(0, ms(25), ms(10), t(25));
        assert_eq!(small.phase(), Phase::SlowStart, "2.5·base ok at cwnd 2");
        // Large window: elapsed 2.5·base exceeds the θ budget.
        let mut big = cc();
        let mut seq = 0;
        seq = run_flat_round(&mut big, seq, ms(10)); // 2 → 4
        seq = run_flat_round(&mut big, seq, ms(10)); // 4 → 8
        assert_eq!(big.cwnd(), 8);
        for _ in 0..8 {
            big.on_sent(seq, t(100));
            seq += 1;
        }
        big.on_feedback(seq - 8, ms(25), ms(10), t(125));
        assert_eq!(
            big.phase(),
            Phase::CongestionAvoidance,
            "2.5·base exits at cwnd 8"
        );
    }

    #[test]
    fn partial_train_keeps_window() {
        let mut c = cc();
        let _ = run_flat_round(&mut c, 0, ms(10)); // cwnd → 4
        assert_eq!(c.cwnd(), 4);
        // Application-limited: only 2 of 4 cells available.
        c.on_sent(2, t(0));
        c.on_sent(3, t(0));
        c.on_feedback(2, ms(10), ms(10), t(1));
        c.on_feedback(3, ms(10), ms(10), t(1));
        assert_eq!(c.cwnd(), 4, "partial train must not double");
        assert_eq!(c.phase(), Phase::SlowStart);
        assert!(c.allow_send(0), "a new train may start");
    }

    #[test]
    fn acked_in_current_round_tracks_train() {
        let acked = |c: &DelayCc| c.train.map_or(0, |t| t.acked);
        let mut c = cc();
        c.on_sent(0, t(0));
        c.on_sent(1, t(0));
        assert_eq!(acked(&c), 0);
        c.on_feedback(0, ms(10), ms(10), t(1));
        assert_eq!(acked(&c), 1);
        c.on_feedback(1, ms(10), ms(10), t(1));
        assert_eq!(acked(&c), 0, "train closed");
    }

    #[test]
    fn forgetting_a_cell_from_before_the_train_leaves_the_train_alone() {
        let mut c = DelayCc::without_ramp("t", CcConfig::default(), 10);
        c.on_sent(0, t(0)); // a congestion-avoidance send, still out
        c.restart_ramp(None);
        c.on_sent(1, t(1));
        c.on_sent(2, t(1));
        c.on_forget(0);
        assert!(!c.allow_send(0), "the train is still full");
        c.on_feedback(1, ms(10), ms(10), t(11));
        c.on_feedback(2, ms(10), ms(10), t(11));
        assert_eq!(c.cwnd(), 4, "a full round still doubles");
    }

    #[test]
    fn ca_sliding_window_gates_on_outstanding() {
        let mut c = DelayCc::without_ramp("jump", CcConfig::default(), 5);
        assert_eq!(c.phase(), Phase::CongestionAvoidance);
        assert_eq!(c.cwnd(), 5);
        assert!(c.allow_send(4));
        assert!(!c.allow_send(5));
        c.on_sent(0, t(0));
        assert!(!c.allow_send(5));
    }

    #[test]
    fn ca_increments_when_diff_below_alpha() {
        let mut c = DelayCc::without_ramp("t", CcConfig::default(), 10);
        c.on_sent(0, t(0)); // opens round, mark = 0
        c.on_feedback(0, ms(10), ms(10), t(1)); // diff = 0 < α → +1
        assert_eq!(c.cwnd(), 11);
        assert_eq!(c.stats().ca_increments, 1);
    }

    #[test]
    fn ca_decrements_when_diff_above_beta() {
        let mut c = DelayCc::without_ramp("t", CcConfig::default(), 10);
        c.on_sent(0, t(0));
        // diff = 10·(15/10 − 1) = 5 > β = 4 → −1
        c.on_feedback(0, ms(15), ms(10), t(1));
        assert_eq!(c.cwnd(), 9);
        assert_eq!(c.stats().ca_decrements, 1);
    }

    #[test]
    fn ca_holds_between_alpha_and_beta() {
        let mut c = DelayCc::without_ramp("t", CcConfig::default(), 10);
        c.on_sent(0, t(0));
        // diff = 10·(13/10 − 1) = 3 ∈ [α, β] → hold
        c.on_feedback(0, ms(13), ms(10), t(1));
        assert_eq!(c.cwnd(), 10);
    }

    #[test]
    fn ca_evaluates_once_per_round() {
        let mut c = DelayCc::without_ramp("t", CcConfig::default(), 10);
        c.on_sent(0, t(0));
        c.on_sent(1, t(0));
        c.on_sent(2, t(0));
        c.on_feedback(0, ms(10), ms(10), t(1)); // evaluates (seq 0 >= mark 0), +1
        c.on_feedback(1, ms(10), ms(10), t(1)); // same round... mark cleared, no eval
        c.on_feedback(2, ms(10), ms(10), t(1));
        assert_eq!(c.cwnd(), 11, "only one adjustment per round");
        // A new send re-opens a round.
        c.on_sent(3, t(2));
        c.on_feedback(3, ms(10), ms(10), t(3));
        assert_eq!(c.cwnd(), 12);
    }

    #[test]
    fn ca_round_uses_min_rtt() {
        let cfg = CcConfig {
            alpha: 1.0,
            ..CcConfig::default()
        };
        let mut c = DelayCc::without_ramp("t", cfg, 10);
        c.on_sent(0, t(0));
        c.on_sent(1, t(0));
        c.on_sent(2, t(0));
        // Feedback out of round order: high RTTs for earlier cells, low for
        // the marked one. Evaluation at seq 2... wait, mark = 0: first
        // feedback evaluates immediately. Open the round with spread
        // samples instead: feed seq 1 and 2 only after 0 cleared the mark.
        c.on_feedback(0, ms(20), ms(10), t(1)); // eval: diff=10 > β → 9
        assert_eq!(c.cwnd(), 9);
        // Next round: samples 1 (high) then 3 (low, marked).
        c.on_sent(3, t(2)); // mark = 3
        c.on_feedback(1, ms(30), ms(10), t(3)); // round_min = 30
        c.on_feedback(2, ms(12), ms(10), t(3)); // round_min = 12
        c.on_feedback(3, ms(11), ms(10), t(3)); // round_min = 11 → diff = 0.9 < α → +1
        assert_eq!(c.cwnd(), 10);
    }

    #[test]
    fn cwnd_never_exceeds_bounds_under_random_feedback() {
        let cfg = CcConfig {
            max_cwnd: 32,
            ..Default::default()
        };
        let mut c = DelayCc::with_ramp("t", cfg, Box::new(HalvingExit));
        let mut seq = 0u64;
        let mut x: u64 = 0x12345;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if c.allow_send(0) {
                c.on_sent(seq, t(0));
                seq += 1;
            } else {
                // Feed back the oldest unacked; RTT pseudo-random 10..30 ms.
                let rtt = ms(10 + x % 20);
                let target = seq - 1;
                c.on_feedback(target, rtt, ms(10), t(1));
            }
            assert!(c.cwnd() >= cfg.min_cwnd && c.cwnd() <= cfg.max_cwnd);
        }
    }

    #[test]
    fn ca_recompensation_snaps_to_forwarded_rate() {
        let mut c = DelayCc::without_ramp("t", CcConfig::default(), 118);
        c.enable_ca_recompensation(8);
        c.on_sent(0, t(0));
        // Persistent backlog: min RTT of the round is 24 ms vs base 10.25.
        // The successor forwards 118·10.25/24 ≈ 50 cells per base RTT.
        c.on_feedback(
            0,
            SimDuration::from_micros(24_000),
            SimDuration::from_micros(10_250),
            t(24),
        );
        assert_eq!(c.cwnd(), 50);
        assert_eq!(c.stats().ca_recompensations, 1);
        assert_eq!(c.stats().ca_decrements, 0);
    }

    #[test]
    fn ca_without_recompensation_creeps_down() {
        let mut c = DelayCc::without_ramp("t", CcConfig::default(), 118);
        c.on_sent(0, t(0));
        c.on_feedback(
            0,
            SimDuration::from_micros(24_000),
            SimDuration::from_micros(10_250),
            t(24),
        );
        assert_eq!(c.cwnd(), 117, "plain Vegas decrements by one");
        assert_eq!(c.stats().ca_decrements, 1);
    }

    #[test]
    fn ca_recompensation_near_band_behaves_like_vegas() {
        // Mild backlog (diff just over β): the multiplicative target is
        // within 1 cell of a plain decrement; stats count it as one.
        let mut c = DelayCc::without_ramp("t", CcConfig::default(), 10);
        c.enable_ca_recompensation(8);
        c.on_sent(0, t(0));
        // diff = 10·(15/10−1) = 5 > β; target = 10·10/15 = 6.67 → 6.
        c.on_feedback(0, ms(15), ms(10), t(15));
        assert_eq!(c.cwnd(), 6);
        assert_eq!(c.stats().ca_recompensations, 1);
    }

    #[test]
    fn restart_ramp_reenters_slow_start() {
        let mut c = DelayCc::without_ramp("t", CcConfig::default(), 40);
        assert_eq!(c.phase(), Phase::CongestionAvoidance);
        c.restart_ramp(None);
        assert_eq!(c.phase(), Phase::SlowStart);
        assert_eq!(c.cwnd(), 2);
        c.restart_ramp(Some(16));
        assert_eq!(c.cwnd(), 16);
        assert_eq!(c.phase(), Phase::SlowStart);
    }

    #[test]
    fn without_ramp_clamps_cwnd0() {
        let cfg = CcConfig {
            max_cwnd: 64,
            ..Default::default()
        };
        let c = DelayCc::without_ramp("jump", cfg, 1_000);
        assert_eq!(c.cwnd(), 64);
    }
}
