//! Per-hop transport bookkeeping.
//!
//! One [`HopTransport`] instance exists per (node, circuit, direction):
//! it owns the congestion controller for the hop toward the successor and
//! does everything the controller should not have to: sequence-number
//! assignment, send-timestamp tracking, RTT computation, base-RTT
//! maintenance, statistics, and optional cwnd tracing.
//!
//! The relay/client logic drives it with exactly two calls:
//!
//! * [`HopTransport::register_send`] just before handing a cell to the
//!   link layer (this is the instant the RTT clock starts — deliberately
//!   *before* any queueing on the node's own access link).
//! * [`HopTransport::on_feedback`] when the successor's feedback frame for
//!   a cell arrives.

use std::collections::VecDeque;

use simcore::time::{SimDuration, SimTime};

use crate::cc::{CongestionControl, Phase};
use crate::rtt::RttEstimator;

/// Feedback-processing failures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FeedbackError {
    /// Feedback named a sequence number that is not outstanding (never
    /// sent, or already fed back) — a protocol violation upstream.
    UnknownSeq(u64),
}

impl std::fmt::Display for FeedbackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedbackError::UnknownSeq(s) => write!(f, "feedback for unknown sequence {s}"),
        }
    }
}

impl std::error::Error for FeedbackError {}

/// Hop-level counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct HopStats {
    /// Cells registered for sending.
    pub cells_sent: u64,
    /// Valid feedback messages processed.
    pub feedback_received: u64,
    /// Feedback messages rejected (unknown/duplicate sequence).
    pub bad_feedback: u64,
    /// Cells retired without feedback ([`HopTransport::forget`]) —
    /// registered sends that were discarded unsent at teardown.
    pub cells_forgotten: u64,
}

/// Transport state for one hop of one circuit (see module docs).
pub struct HopTransport {
    cc: Box<dyn CongestionControl + Send>,
    next_seq: u64,
    /// Cells sent but not yet fed back, ordered by sequence number
    /// (sends are monotone). Feedback almost always arrives in order, so
    /// the front is a hit and the map stays an O(1) ring — no hashing on
    /// the per-cell path.
    in_flight: VecDeque<(u64, SimTime)>,
    rtt: RttEstimator,
    stats: HopStats,
    cwnd_trace: Option<Vec<(SimTime, u32)>>,
}

impl HopTransport {
    /// Wraps a congestion controller.
    pub fn new(cc: Box<dyn CongestionControl + Send>) -> HopTransport {
        HopTransport {
            cc,
            next_seq: 0,
            in_flight: VecDeque::new(),
            rtt: RttEstimator::new(),
            stats: HopStats::default(),
            cwnd_trace: None,
        }
    }

    /// Starts recording `(time, cwnd)` whenever the window changes, with an
    /// initial sample at `now`. Used for the Figure 1 traces.
    pub fn enable_cwnd_trace(&mut self, now: SimTime) {
        self.cwnd_trace = Some(vec![(now, self.cc.cwnd())]);
    }

    /// The recorded window trace, if tracing was enabled.
    pub fn cwnd_trace(&self) -> Option<&[(SimTime, u32)]> {
        self.cwnd_trace.as_deref()
    }

    /// Whether the controller permits sending another cell now.
    pub fn can_send(&self) -> bool {
        self.cc.allow_send(self.outstanding())
    }

    /// Registers a send and returns the per-hop sequence number to attach
    /// to the cell. The RTT clock for this cell starts now.
    ///
    /// # Panics
    ///
    /// Panics if called while [`HopTransport::can_send`] is false — the
    /// caller must gate on it; sending past the window would silently
    /// defeat the protocol under test.
    pub fn register_send(&mut self, now: SimTime) -> u64 {
        assert!(
            self.can_send(),
            "register_send called while the window is closed ({} outstanding, cwnd {})",
            self.outstanding(),
            self.cwnd()
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.in_flight.push_back((seq, now));
        self.stats.cells_sent += 1;
        self.cc.on_sent(seq, now);
        self.trace_cwnd(now);
        seq
    }

    /// Processes the successor's feedback for cell `seq`, returning the
    /// RTT sample on success.
    pub fn on_feedback(&mut self, seq: u64, now: SimTime) -> Result<SimDuration, FeedbackError> {
        let sent_at = match self.in_flight.front() {
            Some(&(s, t)) if s == seq => {
                self.in_flight.pop_front();
                t
            }
            _ => match self.in_flight.binary_search_by_key(&seq, |&(s, _)| s) {
                Ok(idx) => self.in_flight.remove(idx).expect("index in range").1,
                Err(_) => {
                    self.stats.bad_feedback += 1;
                    return Err(FeedbackError::UnknownSeq(seq));
                }
            },
        };
        let rtt = now.saturating_duration_since(sent_at);
        self.rtt.record(rtt);
        let base = self.rtt.base().expect("just recorded a sample");
        self.stats.feedback_received += 1;
        self.cc.on_feedback(seq, rtt, base, now);
        self.trace_cwnd(now);
        Ok(rtt)
    }

    /// Retires cell `seq` from the in-flight set **without** a feedback
    /// round trip: no RTT sample, no trace entry, and only the
    /// controller's [`CongestionControl::on_forget`] — a slow-start
    /// train must stop waiting for the cell, or the window stays shut
    /// with nothing outstanding. For teardown only — a registered cell
    /// that was discarded from an egress queue before ever reaching the
    /// wire has no neighbour to confirm it, and leaving it outstanding
    /// would block the quiescence proof forever. Returns `false` if
    /// `seq` was not outstanding (already fed back or never sent).
    pub fn forget(&mut self, seq: u64) -> bool {
        let removed = match self.in_flight.front() {
            Some(&(s, _)) if s == seq => {
                self.in_flight.pop_front();
                true
            }
            _ => match self.in_flight.binary_search_by_key(&seq, |&(s, _)| s) {
                Ok(idx) => {
                    self.in_flight.remove(idx);
                    true
                }
                Err(_) => false,
            },
        };
        if removed {
            self.stats.cells_forgotten += 1;
            self.cc.on_forget(seq);
        }
        removed
    }

    /// Retires **every** outstanding cell at once, with the same
    /// semantics as [`HopTransport::forget`] (no RTT sample, no trace
    /// entry, one `on_forget` per cell). For force-abandon: when the
    /// neighbour has crashed, none of the in-flight cells will ever be
    /// fed back, and the circuit cannot reach quiescence until they are
    /// written off wholesale. Returns how many cells were forgotten.
    pub fn forget_all(&mut self) -> u32 {
        let forgotten = u32::try_from(self.in_flight.len()).expect("outstanding exceeds u32");
        for (seq, _) in self.in_flight.drain(..) {
            self.cc.on_forget(seq);
        }
        self.stats.cells_forgotten += u64::from(forgotten);
        forgotten
    }

    /// Cells sent but not yet fed back.
    pub fn outstanding(&self) -> u32 {
        u32::try_from(self.in_flight.len()).expect("outstanding exceeds u32")
    }

    /// Current congestion window.
    pub fn cwnd(&self) -> u32 {
        self.cc.cwnd()
    }

    /// Current controller phase.
    pub fn phase(&self) -> Phase {
        self.cc.phase()
    }

    /// Controller name.
    pub fn algorithm(&self) -> &'static str {
        self.cc.name()
    }

    /// Minimum RTT observed on this hop, if any.
    pub fn base_rtt(&self) -> Option<SimDuration> {
        self.rtt.base()
    }

    /// Full RTT statistics.
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Transport counters.
    pub fn stats(&self) -> &HopStats {
        &self.stats
    }

    /// The next sequence number that will be assigned (== cells sent).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Access to the controller for algorithm-specific inspection.
    pub fn controller(&self) -> &dyn CongestionControl {
        self.cc.as_ref()
    }

    fn trace_cwnd(&mut self, now: SimTime) {
        if let Some(trace) = &mut self.cwnd_trace {
            let cwnd = self.cc.cwnd();
            if trace.last().map(|&(_, c)| c) != Some(cwnd) {
                trace.push((now, cwnd));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{FixedWindowCc, HalvingExit};
    use crate::config::CcConfig;
    use crate::delay_cc::DelayCc;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn fixed(cwnd: u32) -> HopTransport {
        HopTransport::new(Box::new(FixedWindowCc::new(cwnd)))
    }

    #[test]
    fn sequences_are_consecutive() {
        let mut h = fixed(10);
        assert_eq!(h.register_send(t(0)), 0);
        assert_eq!(h.register_send(t(0)), 1);
        assert_eq!(h.register_send(t(0)), 2);
        assert_eq!(h.next_seq(), 3);
        assert_eq!(h.stats().cells_sent, 3);
    }

    #[test]
    fn window_gates_sending() {
        let mut h = fixed(2);
        assert!(h.can_send());
        h.register_send(t(0));
        h.register_send(t(0));
        assert!(!h.can_send());
        assert_eq!(h.outstanding(), 2);
        h.on_feedback(0, t(5)).unwrap();
        assert!(h.can_send());
        assert_eq!(h.outstanding(), 1);
    }

    #[test]
    #[should_panic(expected = "window is closed")]
    fn send_past_window_panics() {
        let mut h = fixed(1);
        h.register_send(t(0));
        h.register_send(t(0));
    }

    #[test]
    fn rtt_measured_from_send_to_feedback() {
        let mut h = fixed(5);
        h.register_send(t(10));
        let rtt = h.on_feedback(0, t(25)).unwrap();
        assert_eq!(rtt, SimDuration::from_millis(15));
        assert_eq!(h.base_rtt(), Some(SimDuration::from_millis(15)));
        assert_eq!(h.rtt().count(), 1);
    }

    #[test]
    fn base_rtt_is_minimum_across_cells() {
        let mut h = fixed(5);
        h.register_send(t(0));
        h.register_send(t(0));
        h.register_send(t(0));
        h.on_feedback(0, t(20)).unwrap(); // 20 ms
        h.on_feedback(1, t(12)).unwrap(); // 12 ms
        h.on_feedback(2, t(30)).unwrap(); // 30 ms
        assert_eq!(h.base_rtt(), Some(SimDuration::from_millis(12)));
    }

    #[test]
    fn unknown_feedback_rejected_and_counted() {
        let mut h = fixed(5);
        h.register_send(t(0));
        assert_eq!(h.on_feedback(99, t(1)), Err(FeedbackError::UnknownSeq(99)));
        assert_eq!(h.stats().bad_feedback, 1);
        // Valid one still works afterwards.
        assert!(h.on_feedback(0, t(1)).is_ok());
    }

    #[test]
    fn duplicate_feedback_rejected() {
        let mut h = fixed(5);
        h.register_send(t(0));
        h.on_feedback(0, t(1)).unwrap();
        assert_eq!(h.on_feedback(0, t(2)), Err(FeedbackError::UnknownSeq(0)));
        assert_eq!(h.stats().feedback_received, 1);
        assert_eq!(h.stats().bad_feedback, 1);
    }

    #[test]
    fn forget_retires_without_feedback_side_effects() {
        let mut h = fixed(5);
        h.register_send(t(0));
        h.register_send(t(0));
        h.register_send(t(0));
        // Retire the tail (the scheduler-drain shape: newest cells never
        // reached the wire), out of order relative to the front.
        assert!(h.forget(2));
        assert!(h.forget(1));
        assert!(!h.forget(1), "double-forget is a no-op");
        assert!(!h.forget(99), "unknown seq is a no-op");
        assert_eq!(h.outstanding(), 1);
        assert_eq!(h.stats().cells_forgotten, 2);
        // No RTT sample, no feedback count, and the surviving in-flight
        // cell still confirms normally.
        assert_eq!(h.rtt().count(), 0);
        assert_eq!(h.stats().feedback_received, 0);
        assert!(h.on_feedback(0, t(9)).is_ok());
        assert_eq!(h.outstanding(), 0);
        // A forgotten cell can no longer be confirmed.
        assert_eq!(h.on_feedback(2, t(9)), Err(FeedbackError::UnknownSeq(2)));
    }

    #[test]
    fn forget_all_writes_off_every_outstanding_cell() {
        let mut h = fixed(5);
        h.register_send(t(0));
        h.register_send(t(0));
        h.register_send(t(0));
        h.on_feedback(0, t(4)).unwrap();
        assert_eq!(h.forget_all(), 2);
        assert_eq!(h.outstanding(), 0);
        assert_eq!(h.stats().cells_forgotten, 2);
        assert_eq!(h.forget_all(), 0, "idempotent on an empty set");
        // No RTT/controller side effects beyond the one real feedback.
        assert_eq!(h.rtt().count(), 1);
        assert_eq!(h.stats().feedback_received, 1);
        // Forgotten cells can no longer confirm.
        assert_eq!(h.on_feedback(1, t(9)), Err(FeedbackError::UnknownSeq(1)));
    }

    /// A transport whose ramp has doubled once and then sent a full
    /// train of 4 (seqs 2..6) — the train a teardown drain cuts into.
    fn full_second_train() -> HopTransport {
        let cc = DelayCc::with_ramp("t", CcConfig::default(), Box::new(HalvingExit));
        let mut h = HopTransport::new(Box::new(cc));
        h.register_send(t(0));
        h.register_send(t(0));
        h.on_feedback(0, t(10)).unwrap();
        h.on_feedback(1, t(10)).unwrap();
        while h.can_send() {
            h.register_send(t(20));
        }
        assert_eq!(h.next_seq(), 6, "train of 4");
        h
    }

    #[test]
    fn forgetting_train_cells_reopens_the_ramp_at_zero_outstanding() {
        let mut h = full_second_train();
        assert!(h.forget(5));
        assert!(h.forget(4));
        h.on_feedback(2, t(30)).unwrap();
        h.on_feedback(3, t(30)).unwrap();
        assert_eq!(h.outstanding(), 0);
        assert_eq!(h.phase(), Phase::SlowStart);
        assert!(h.can_send(), "the ramp must not wait on forgotten cells");
    }

    #[test]
    fn forget_all_reopens_the_ramp_at_zero_outstanding() {
        let mut h = full_second_train();
        h.on_feedback(2, t(30)).unwrap();
        h.on_feedback(3, t(30)).unwrap();
        assert_eq!(h.forget_all(), 2);
        assert_eq!(h.phase(), Phase::SlowStart);
        assert!(h.can_send(), "the ramp must not wait on forgotten cells");
    }

    #[test]
    fn out_of_order_feedback_is_fine() {
        let mut h = fixed(5);
        h.register_send(t(0));
        h.register_send(t(0));
        h.on_feedback(1, t(4)).unwrap();
        h.on_feedback(0, t(5)).unwrap();
        assert_eq!(h.outstanding(), 0);
    }

    #[test]
    fn cwnd_trace_records_changes_only() {
        let cc = DelayCc::with_ramp("t", CcConfig::default(), Box::new(HalvingExit));
        let mut h = HopTransport::new(Box::new(cc));
        h.enable_cwnd_trace(t(0));
        // Round 1: train of 2, clean feedback → double at second feedback.
        h.register_send(t(0));
        h.register_send(t(0));
        h.on_feedback(0, t(10)).unwrap();
        h.on_feedback(1, t(10)).unwrap();
        let trace = h.cwnd_trace().unwrap();
        assert_eq!(trace, &[(t(0), 2), (t(10), 4)]);
    }

    #[test]
    fn trace_disabled_by_default() {
        let h = fixed(2);
        assert!(h.cwnd_trace().is_none());
    }

    #[test]
    fn delay_cc_full_ramp_through_transport() {
        // End-to-end sanity: flat RTTs, the transport should double per
        // round: 2 → 4 → 8 with the controller driving train boundaries.
        let cc = DelayCc::with_ramp("t", CcConfig::default(), Box::new(HalvingExit));
        let mut h = HopTransport::new(Box::new(cc));
        let mut now = SimTime::ZERO;
        for expected in [2u32, 4, 8] {
            assert_eq!(h.cwnd(), expected);
            let first = h.next_seq();
            while h.can_send() {
                h.register_send(now);
            }
            let sent = h.next_seq() - first;
            assert_eq!(sent, u64::from(expected), "train size == cwnd");
            now += SimDuration::from_millis(10);
            for seq in first..first + sent {
                h.on_feedback(seq, now).unwrap();
            }
        }
        assert_eq!(h.cwnd(), 16);
        assert_eq!(h.phase(), Phase::SlowStart);
    }

    #[test]
    fn delay_cc_ramp_exit_through_transport() {
        // Constant base from round 1; round 2's feedback is delayed enough
        // to trip γ; transport must land in CA with the halved window.
        let cc = DelayCc::with_ramp("t", CcConfig::default(), Box::new(HalvingExit));
        let mut h = HopTransport::new(Box::new(cc));
        // Round 1 (cwnd 2) at base RTT 10 ms.
        h.register_send(t(0));
        h.register_send(t(0));
        h.on_feedback(0, t(10)).unwrap();
        h.on_feedback(1, t(10)).unwrap();
        assert_eq!(h.cwnd(), 4);
        // Round 2: RTT 30 ms ⇒ diff = 4·(30/10−1) = 8 > γ → exit at first
        // feedback, compensation = halve(4) = 2.
        let first = h.next_seq();
        while h.can_send() {
            h.register_send(t(20));
        }
        h.on_feedback(first, t(50)).unwrap();
        assert_eq!(h.phase(), Phase::CongestionAvoidance);
        assert_eq!(h.cwnd(), 2);
        assert_eq!(h.algorithm(), "t");
    }
}
