//! The delay-based controller: discrete-round ramp-up + Vegas avoidance.
//!
//! [`DelayCc`] implements the window dynamics that both the paper's
//! contribution and its baseline share (see DESIGN.md §4):
//!
//! * **Ramp-up** (slow start) happens in *discrete rounds*. A round sends a
//!   back-to-back train of `cwnd` cells, then waits for the per-hop
//!   feedback of every cell in the train. If the round completes without a
//!   delay signal, the window doubles and the next train goes out.
//! * Every feedback of the open round runs the ramp-exit test of
//!   DESIGN.md §4 "The ramp-exit rule". When it fires, the ramp ends
//!   **immediately, mid-round**, and the [`RampExit`] arm sets the
//!   window: halving for the baseline, overshoot compensation for
//!   CircuitStart.
//! * **Congestion avoidance** is per-round Vegas: once per RTT, compare
//!   `diff` (using the round's minimum RTT) against `α`/`β` and move the
//!   window by ±1 cell.
//!
//! A controller runs its ramp at most once: nothing re-enters
//! slow start after the exit, so every cell outstanding in ramp-up
//! belongs to the open train.
//!
//! The controller deliberately contains no timers: rounds are delimited by
//! sequence numbers, so behaviour is driven purely by feedback arrival.

use simcore::time::{SimDuration, SimTime};

use crate::cc::Phase;
use crate::config::{clamp_cwnd, CcConfig, ALPHA, BETA};

/// How a ramp ends: the one decision CircuitStart changes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RampExit {
    /// The traditional exit, the paper's "without CircuitStart" baseline:
    /// halve the window.
    Halving,
    /// Overshoot compensation, the heart of CircuitStart (paper §2). When
    /// the delay signal fires, the window has typically *overshot* the
    /// path's capacity, especially when the bottleneck is several hops
    /// away: the doubling train was already in flight when the congestion
    /// evidence started travelling back. Halving is an essentially
    /// arbitrary guess; CircuitStart instead sets the window to **the
    /// cells of the current round already fed back**. They form exactly
    /// the packet train the successor could forward *without additional
    /// delay*: a direct measurement of the optimal window. The exit also
    /// arms the backpropagation rule for 8 congestion-avoidance rounds.
    CircuitStart,
}

/// Congestion-avoidance evaluations the backpropagation rule stays armed
/// after a [`RampExit::CircuitStart`] exit, and from construction.
///
/// The rule (paper §2): when congestion avoidance sees a persistent
/// backlog (`diff > β`), set the window to the amount the successor
/// demonstrably forwards per base RTT, `cwnd·baseRtt/currentRtt`,
/// instead of creeping down by 1. This is how a far-away bottleneck's
/// compensation reaches the source one hop at a time ("setting its cwnd
/// to the same value"). It is armed for the time the backpropagation
/// wave needs to arrive and then hands over to plain Vegas: left
/// unbounded it misreads *shared*-queue delay under cross traffic as own
/// backlog and collapses the window. The startup algorithm must stay a
/// startup algorithm, exactly as the paper's future-work section implies.
const RECOMPENSATION_ROUNDS: u32 = 8;

impl RampExit {
    /// How many CA evaluations this exit arms the backpropagation rule for.
    fn armed_rounds(self) -> u32 {
        match self {
            RampExit::Halving => 0,
            RampExit::CircuitStart => RECOMPENSATION_ROUNDS,
        }
    }
}

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

/// Delay-based per-hop congestion controller (see module docs).
#[derive(Clone, Debug)]
pub struct DelayCc {
    cfg: CcConfig,
    exit: RampExit,
    cwnd: u32,
    phase: Phase,
    train: Option<Train>,
    vegas: VegasRound,
    /// Armed backpropagation evaluations remaining
    /// (see [`RECOMPENSATION_ROUNDS`]).
    ca_recompensation_left: u32,
    /// Congestion-avoidance evaluations performed (one per RTT round,
    /// counting holds as well as adjustments).
    #[cfg(test)]
    ca_rounds: u64,
}

impl DelayCc {
    /// Creates a controller that starts in ramp-up with `cfg.init_cwnd`,
    /// leaving the ramp via `exit`.
    pub fn with_ramp(cfg: CcConfig, exit: RampExit) -> DelayCc {
        cfg.validate();
        DelayCc {
            cfg,
            exit,
            cwnd: cfg.init_cwnd,
            phase: Phase::SlowStart,
            train: None,
            vegas: VegasRound::default(),
            ca_recompensation_left: exit.armed_rounds(),
            #[cfg(test)]
            ca_rounds: 0,
        }
    }

    /// Creates a controller with **no ramp-up**: it enters congestion
    /// avoidance immediately with window `cwnd0`. With a large `cwnd0`
    /// this models JumpStart-style "no startup phase" senders; with a
    /// small one, the no-slow-start ablation.
    pub fn without_ramp(cfg: CcConfig, cwnd0: u32) -> DelayCc {
        let mut cc = DelayCc::with_ramp(cfg, RampExit::Halving);
        cc.cwnd = clamp_cwnd(cwnd0);
        cc.phase = Phase::CongestionAvoidance;
        cc
    }

    /// Ends the ramp on a delay signal observed at `acked_in_round`
    /// feedbacks into the current round.
    fn exit_ramp(&mut self, acked_in_round: u32) {
        let chosen = match self.exit {
            RampExit::Halving => self.cwnd / 2,
            // An exit on the round's first feedback yields 1, which the
            // clamp raises to `MIN_CWND`.
            RampExit::CircuitStart => acked_in_round,
        };
        self.cwnd = clamp_cwnd(chosen);
        self.phase = Phase::CongestionAvoidance;
        self.train = None;
        self.vegas = VegasRound::default();
        // Arm the backpropagation rule for the post-exit settling period.
        self.ca_recompensation_left = self.exit.armed_rounds();
    }

    fn vegas_diff(&self, current: SimDuration, base: SimDuration) -> f64 {
        // diff = cwnd · currentRtt/baseRtt − cwnd  (paper, after TCP Vegas)
        f64::from(self.cwnd) * (current.ratio(base) - 1.0)
    }

    pub(crate) fn cwnd(&self) -> u32 {
        self.cwnd
    }

    pub(crate) fn phase(&self) -> Phase {
        self.phase
    }

    pub(crate) fn allow_send(&self, outstanding: u32) -> bool {
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

    pub(crate) fn on_sent(&mut self, seq: u64, now: SimTime) {
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

    pub(crate) fn on_feedback(
        &mut self,
        seq: u64,
        rtt: SimDuration,
        base_rtt: SimDuration,
        now: SimTime,
    ) {
        match self.phase {
            Phase::SlowStart => {
                // The ramp runs once, so a cell outstanding in ramp-up
                // belongs to the open train.
                let train = self
                    .train
                    .as_mut()
                    .expect("ramp-up feedback with no open train");
                debug_assert!(seq >= train.first_seq, "feedback from before the train");
                train.acked += 1;
                let acked = train.acked;
                let sent = train.sent;
                let target = train.target;
                let started_at = train.started_at;

                // DESIGN.md §4 "The ramp-exit rule". `currentRtt` is the
                // time the round has been outstanding: per-cell RTTs inside
                // a back-to-back train measure self-inflicted serialization
                // queueing and would fire long before the path saturates.
                // The floor `θ·cwnd` generalizes the poster's fixed γ: a
                // round within the path's capacity feeds back within ≈ one
                // extra baseRtt, so overrunning `(1+θ)·baseRtt` (θ = 1)
                // marks the cells confirmed so far as the sustainable train.
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
                        self.cwnd = clamp_cwnd(self.cwnd.saturating_mul(2));
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
                        #[cfg(test)]
                        {
                            self.ca_rounds += 1;
                        }
                        let current = self.vegas.round_min.expect("round with no samples");
                        let diff = self.vegas_diff(current, base_rtt);
                        if diff < ALPHA {
                            self.cwnd = clamp_cwnd(self.cwnd + 1);
                        } else if diff > BETA {
                            self.cwnd = if self.ca_recompensation_left > 0 {
                                // Backpropagation: the successor forwarded
                                // cwnd·base/current cells per base RTT —
                                // adopt that as the window.
                                let target = f64::from(self.cwnd) * base_rtt.ratio(current);
                                clamp_cwnd(target.floor() as u32)
                            } else {
                                clamp_cwnd(self.cwnd.saturating_sub(1))
                            };
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
    /// on feedback that will never come. Congestion-avoidance sends
    /// (gated on `outstanding`) need nothing.
    pub(crate) fn on_forget(&mut self, seq: u64) {
        if let Some(t) = self.train.as_mut() {
            debug_assert!(seq >= t.first_seq, "forgot a cell from before the train");
            debug_assert!(t.sent > t.acked, "forgot a cell the train never sent");
            t.sent -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MAX_CWND, MIN_CWND};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn t(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn cc() -> DelayCc {
        DelayCc::with_ramp(CcConfig::default(), RampExit::Halving)
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
        assert_eq!(c.phase(), Phase::SlowStart);
        assert!(c.train.is_none(), "every round closed its train");
        assert_eq!(c.ca_rounds, 0, "the ramp evaluates no CA round");
    }

    #[test]
    fn round_overrun_exits_and_counts_acked() {
        // The key ramp-exit path: a train bigger than the path sustains
        // keeps feeding back past the (1+θ)·baseRtt budget; the exit fires
        // on the first feedback beyond it, with `acked_in_round` = the
        // sustainable train length, which the CircuitStart exit installs.
        let mut c = DelayCc::with_ramp(CcConfig::default(), RampExit::CircuitStart);
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
        assert!(c.train.is_none(), "the exit closes the overshooting train");
        assert_eq!(c.ca_rounds, 0);
    }

    /// Ramps `exit` to 128 over clean rounds, then sends a train of 128
    /// whose first `fed_back − 1` cells feed back within the 20 ms budget
    /// and whose next feedback overruns it: the exit fires with
    /// `acked_in_round = fed_back`.
    fn overshoot(exit: RampExit, fed_back: u32) -> DelayCc {
        let mut c = DelayCc::with_ramp(CcConfig::default(), exit);
        let mut seq = 0;
        while c.cwnd() < 128 {
            seq = run_flat_round(&mut c, seq, ms(10));
        }
        let first = seq;
        while c.allow_send(0) {
            c.on_sent(seq, t(100));
            seq += 1;
        }
        for s in first..first + u64::from(fed_back) - 1 {
            c.on_feedback(s, ms(10), ms(10), t(110));
        }
        assert_eq!(c.phase(), Phase::SlowStart, "within budget so far");
        let last = first + u64::from(fed_back) - 1;
        c.on_feedback(last, ms(21), ms(10), t(121));
        assert_eq!(c.phase(), Phase::CongestionAvoidance);
        c
    }

    #[test]
    fn the_exit_halves_or_installs_the_fed_back_count() {
        // A far-away bottleneck: the window overshot to 128 and only 16
        // cells came back in budget. Halving still leaves 4× the
        // sustainable window; compensation lands on the measurement.
        assert_eq!(overshoot(RampExit::Halving, 16).cwnd(), 64);
        assert_eq!(overshoot(RampExit::CircuitStart, 16).cwnd(), 16);
        // An exit on the round's first feedback: halving ignores the
        // count, compensation's 1 clamps up to `MIN_CWND`.
        assert_eq!(overshoot(RampExit::Halving, 1).cwnd(), 64);
        assert_eq!(overshoot(RampExit::CircuitStart, 1).cwnd(), MIN_CWND);
    }

    #[test]
    fn a_circuitstart_exit_arms_eight_rounds_and_halving_none() {
        assert_eq!(overshoot(RampExit::Halving, 16).ca_recompensation_left, 0);
        let mut c = overshoot(RampExit::CircuitStart, 16);
        assert_eq!(c.ca_recompensation_left, RECOMPENSATION_ROUNDS);
        assert_eq!(RECOMPENSATION_ROUNDS, 8);
        // Spend three armed rounds, then put the controller back in
        // ramp-up and exit again: the exit re-arms all eight.
        for s in 1000..1003 {
            c.on_sent(s, t(200));
            c.on_feedback(s, ms(10), ms(10), t(210));
        }
        assert_eq!(c.ca_rounds, 3);
        assert_eq!(c.ca_recompensation_left, 5);
        c.cwnd = c.cfg.init_cwnd;
        c.phase = Phase::SlowStart;
        c.train = None;
        c.vegas = VegasRound::default();
        c.on_sent(2000, t(300));
        c.on_sent(2001, t(300));
        c.on_feedback(2000, ms(31), ms(10), t(331));
        assert_eq!(c.phase(), Phase::CongestionAvoidance);
        assert_eq!(c.ca_recompensation_left, RECOMPENSATION_ROUNDS);
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
        // 2/2 = 1 clamps to `MIN_CWND` 2.
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
    fn ca_sliding_window_gates_on_outstanding() {
        let mut c = DelayCc::without_ramp(CcConfig::default(), 5);
        assert_eq!(c.phase(), Phase::CongestionAvoidance);
        assert_eq!(c.cwnd(), 5);
        assert!(c.allow_send(4));
        assert!(!c.allow_send(5));
        c.on_sent(0, t(0));
        assert!(!c.allow_send(5));
    }

    #[test]
    fn ca_increments_when_diff_below_alpha() {
        let mut c = DelayCc::without_ramp(CcConfig::default(), 10);
        c.on_sent(0, t(0)); // opens round, mark = 0
        c.on_feedback(0, ms(10), ms(10), t(1)); // diff = 0 < α → +1
        assert_eq!(c.cwnd(), 11);
        assert_eq!(c.ca_rounds, 1);
    }

    #[test]
    fn ca_decrements_when_diff_above_beta() {
        let mut c = DelayCc::without_ramp(CcConfig::default(), 10);
        c.on_sent(0, t(0));
        // diff = 10·(15/10 − 1) = 5 > β = 4 → −1
        c.on_feedback(0, ms(15), ms(10), t(1));
        assert_eq!(c.cwnd(), 9);
        assert_eq!(c.ca_rounds, 1);
    }

    #[test]
    fn ca_holds_between_alpha_and_beta() {
        let mut c = DelayCc::without_ramp(CcConfig::default(), 10);
        c.on_sent(0, t(0));
        // diff = 10·(13/10 − 1) = 3 ∈ [α, β] → hold
        c.on_feedback(0, ms(13), ms(10), t(1));
        assert_eq!(c.cwnd(), 10);
    }

    #[test]
    fn ca_evaluates_once_per_round() {
        let mut c = DelayCc::without_ramp(CcConfig::default(), 10);
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
        let mut c = DelayCc::without_ramp(CcConfig::default(), 10);
        c.on_sent(0, t(0));
        c.on_sent(1, t(0));
        c.on_sent(2, t(0));
        // mark = 0: the first feedback evaluates a one-sample round.
        c.on_feedback(0, ms(20), ms(10), t(1)); // diff = 10 > β → 9
        assert_eq!(c.cwnd(), 9);
        // Next round: the marked cell's sample is high, an earlier one
        // low. Evaluating the last sample (30 ms) would read diff = 18
        // > β and shrink; the round's minimum (11 ms) reads diff = 0.9
        // < α and grows.
        c.on_sent(3, t(2)); // mark = 3
        c.on_feedback(1, ms(30), ms(10), t(3));
        c.on_feedback(2, ms(11), ms(10), t(3));
        c.on_feedback(3, ms(30), ms(10), t(3));
        assert_eq!(c.cwnd(), 10);
    }

    #[test]
    fn cwnd_never_exceeds_bounds_under_random_feedback() {
        let in_bounds = |c: &DelayCc| (MIN_CWND..=MAX_CWND).contains(&c.cwnd());
        let mut c = cc();
        let mut seq = 0u64;
        let mut x: u64 = 0x12345;
        let mut peak = c.cwnd();
        let mut floor_after_peak = false;
        let mut left_ramp = false;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if c.allow_send(0) {
                c.on_sent(seq, t(0));
                seq += 1;
            } else {
                // Feed back the newest cell, every send at t = 0, so the
                // RTT (pseudo-random 10..30 ms) is also the time elapsed.
                let rtt = 10 + x % 20;
                c.on_feedback(seq - 1, ms(rtt), ms(10), t(rtt));
            }
            assert!(in_bounds(&c));
            // Once out of its ramp, a controller never re-enters it.
            assert!(
                !(left_ramp && c.phase() == Phase::SlowStart),
                "the ramp ran twice"
            );
            left_ramp |= c.phase() == Phase::CongestionAvoidance;
            peak = peak.max(c.cwnd());
            floor_after_peak |= peak > MIN_CWND && c.cwnd() == MIN_CWND;
        }
        assert!(floor_after_peak, "the run never fell back to the floor");
        // The ceiling: a clean round at half of it doubles onto it, and
        // the next clean round's doubling clamps there.
        c.cwnd = MAX_CWND / 2;
        c.phase = Phase::SlowStart;
        c.train = None;
        c.vegas = VegasRound::default();
        seq = run_flat_round(&mut c, seq, ms(10));
        assert_eq!(c.cwnd(), MAX_CWND);
        run_flat_round(&mut c, seq, ms(10));
        assert_eq!(c.cwnd(), MAX_CWND);
        assert_eq!(c.phase(), Phase::SlowStart);
    }

    #[test]
    fn ca_recompensation_snaps_to_forwarded_rate() {
        let mut c = DelayCc::without_ramp(CcConfig::default(), 118);
        c.ca_recompensation_left = RECOMPENSATION_ROUNDS;
        c.on_sent(0, t(0));
        // Persistent backlog: min RTT of the round is 24 ms vs base 10.25.
        // The successor forwards 118·10.25/24 ≈ 50 cells per base RTT.
        c.on_feedback(
            0,
            SimDuration::from_micros(24_000),
            SimDuration::from_micros(10_250),
            t(24),
        );
        assert_eq!(c.cwnd(), 50, "one multiplicative step, not −1");
        assert_eq!(c.ca_rounds, 1);
    }

    #[test]
    fn ca_without_recompensation_creeps_down() {
        let mut c = DelayCc::without_ramp(CcConfig::default(), 118);
        c.on_sent(0, t(0));
        c.on_feedback(
            0,
            SimDuration::from_micros(24_000),
            SimDuration::from_micros(10_250),
            t(24),
        );
        assert_eq!(c.cwnd(), 117, "plain Vegas decrements by one");
        assert_eq!(c.ca_rounds, 1);
    }

    #[test]
    fn ca_recompensation_near_band_behaves_like_vegas() {
        // Mild backlog (diff just over β): while armed, the window still
        // takes the multiplicative target, not Vegas's −1.
        let mut c = DelayCc::without_ramp(CcConfig::default(), 10);
        c.ca_recompensation_left = RECOMPENSATION_ROUNDS;
        c.on_sent(0, t(0));
        // diff = 10·(15/10−1) = 5 > β; target = 10·10/15 = 6.67 → 6.
        c.on_feedback(0, ms(15), ms(10), t(15));
        assert_eq!(c.cwnd(), 6);
        assert_eq!(c.ca_recompensation_left, 7, "one armed round spent");
    }

    #[test]
    fn without_ramp_clamps_cwnd0() {
        assert_eq!(
            DelayCc::without_ramp(CcConfig::default(), 0).cwnd(),
            MIN_CWND
        );
        let mut c = DelayCc::without_ramp(CcConfig::default(), u32::MAX);
        assert_eq!(c.cwnd(), MAX_CWND);
        // A clean CA round at the ceiling grows by one, which clamps.
        c.on_sent(0, t(0));
        c.on_feedback(0, ms(10), ms(10), t(1));
        assert_eq!(c.ca_rounds, 1);
        assert_eq!(c.cwnd(), MAX_CWND);
    }

    #[test]
    fn a_controller_is_at_most_120_bytes() {
        // Measured with the test-only `ca_rounds` counter included.
        assert!(std::mem::size_of::<DelayCc>() <= 120);
    }
}
