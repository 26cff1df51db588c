//! Per-hop transport bookkeeping.
//!
//! One [`HopTransport`] instance exists per (node, circuit, direction):
//! it owns the congestion controller for the hop toward the successor and
//! does everything the controller should not have to: sequence-number
//! assignment, send-timestamp tracking, RTT computation, base-RTT
//! maintenance, statistics, and optional cwnd tracing.
//!
//! RTT here means **send-decision → feedback** time: the clock starts when
//! the transport releases a cell to the link layer (so queueing at the
//! node's own egress also counts — see DESIGN.md §4) and stops when the
//! successor's feedback for that cell arrives. `baseRtt` is the minimum
//! ever observed, as in TCP Vegas, and the only RTT statistic a hop keeps:
//! the controller is handed each sample and the base.
//!
//! The relay/client logic drives it with exactly two calls:
//!
//! * [`HopTransport::register_send`] just before handing a cell to the
//!   link layer (this is the instant the RTT clock starts — deliberately
//!   *before* any queueing on the node's own access link).
//! * [`HopTransport::on_feedback`] when the successor's feedback frame for
//!   a cell arrives.

use std::collections::VecDeque;

use simcore::slab::clone_deque_reserving;
use simcore::time::{SimDuration, SimTime};

use crate::cc::{Controller, Phase};

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
    /// Valid feedback messages processed.
    pub feedback_received: u64,
    /// Feedback messages rejected (unknown/duplicate sequence).
    pub bad_feedback: u64,
}

/// Marks a send time whose cell was fed back or forgotten out of order,
/// until the ring's front reaches it.
const SETTLED: SimTime = SimTime::MAX;

/// Transport state for one hop of one circuit (see module docs).
pub struct HopTransport {
    cc: Controller,
    next_seq: u64,
    /// The send time of every cell from the oldest outstanding one to
    /// the newest sent, by sequence number: the front is cell
    /// `next_seq - len`. A cell settled out of order reads [`SETTLED`]
    /// until it reaches the front; the front is never settled. Feedback
    /// almost always arrives in order, so it pops the front: 8 bytes a
    /// cell, no search and no hashing on the per-cell path.
    sent_at: VecDeque<SimTime>,
    /// Cells sent but not yet fed back or forgotten.
    outstanding: u32,
    /// The minimum RTT observed (`baseRtt`); [`SimDuration::MAX`] until
    /// a sample exists (8 bytes where an `Option` takes 16).
    base_rtt: SimDuration,
    stats: HopStats,
    cwnd_trace: Option<Vec<(SimTime, u32)>>,
    /// Every `on_feedback` (`true`) and `on_forget` (`false`) handed to
    /// the controller, by sequence number, for the differential test.
    #[cfg(test)]
    cc_calls: Vec<(bool, u64)>,
}

/// A copy whose send-time ring reserves what its original's reserves, so
/// a forked world's rings grow at the same sends.
impl Clone for HopTransport {
    fn clone(&self) -> Self {
        HopTransport {
            cc: self.cc.clone(),
            next_seq: self.next_seq,
            sent_at: clone_deque_reserving(&self.sent_at),
            outstanding: self.outstanding,
            base_rtt: self.base_rtt,
            stats: self.stats,
            cwnd_trace: self.cwnd_trace.clone(),
            #[cfg(test)]
            cc_calls: self.cc_calls.clone(),
        }
    }
}

impl HopTransport {
    /// Wraps a congestion controller.
    pub fn new(cc: Controller) -> HopTransport {
        HopTransport {
            cc,
            next_seq: 0,
            sent_at: VecDeque::new(),
            outstanding: 0,
            base_rtt: SimDuration::MAX,
            stats: HopStats::default(),
            cwnd_trace: None,
            #[cfg(test)]
            cc_calls: Vec::new(),
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
        debug_assert!(now != SETTLED, "a send at the end of time");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sent_at.push_back(now);
        self.outstanding += 1;
        self.cc.on_sent(seq, now);
        self.trace_cwnd(now);
        seq
    }

    /// Processes the successor's feedback for cell `seq`, returning the
    /// RTT sample on success.
    pub fn on_feedback(&mut self, seq: u64, now: SimTime) -> Result<SimDuration, FeedbackError> {
        let Some(sent_at) = self.settle(seq) else {
            self.stats.bad_feedback += 1;
            return Err(FeedbackError::UnknownSeq(seq));
        };
        let rtt = now.saturating_duration_since(sent_at);
        self.base_rtt = self.base_rtt.min(rtt);
        self.stats.feedback_received += 1;
        #[cfg(test)]
        self.cc_calls.push((true, seq));
        self.cc.on_feedback(seq, rtt, self.base_rtt, now);
        self.trace_cwnd(now);
        Ok(rtt)
    }

    /// Retires cell `seq` from the in-flight set **without** a feedback
    /// round trip: no RTT sample, no trace entry, and only the
    /// controller's [`Controller::on_forget`] — a slow-start
    /// train must stop waiting for the cell, or the window stays shut
    /// with nothing outstanding. For teardown only — a registered cell
    /// that was discarded from an egress queue before ever reaching the
    /// wire has no neighbour to confirm it, and leaving it outstanding
    /// would block the quiescence proof forever. Returns `false` if
    /// `seq` was not outstanding (already fed back or never sent).
    pub fn forget(&mut self, seq: u64) -> bool {
        let removed = self.settle(seq).is_some();
        if removed {
            #[cfg(test)]
            self.cc_calls.push((false, seq));
            self.cc.on_forget(seq);
        }
        removed
    }

    /// Retires outstanding cell `seq` and returns its send time, or
    /// `None` if it is not outstanding.
    #[inline]
    fn settle(&mut self, seq: u64) -> Option<SimTime> {
        let idx = usize::try_from(seq.checked_sub(self.front_seq())?).ok()?;
        let slot = self.sent_at.get_mut(idx)?;
        let sent_at = std::mem::replace(slot, SETTLED);
        if sent_at == SETTLED {
            return None;
        }
        self.outstanding -= 1;
        if idx == 0 {
            while self.sent_at.front() == Some(&SETTLED) {
                self.sent_at.pop_front();
            }
        }
        Some(sent_at)
    }

    /// The sequence number of the ring's front: the oldest outstanding
    /// cell, or the next to be sent when none is.
    #[inline]
    fn front_seq(&self) -> u64 {
        self.next_seq - self.sent_at.len() as u64
    }

    /// Retires **every** outstanding cell at once, with the same
    /// semantics as [`HopTransport::forget`] (no RTT sample, no trace
    /// entry, one `on_forget` per cell). For force-abandon: when the
    /// neighbour has crashed, none of the in-flight cells will ever be
    /// fed back, and the circuit cannot reach quiescence until they are
    /// written off wholesale. Returns how many cells were forgotten.
    pub fn forget_all(&mut self) -> u32 {
        let forgotten = std::mem::take(&mut self.outstanding);
        let front = self.front_seq();
        for (seq, sent_at) in (front..).zip(self.sent_at.drain(..)) {
            if sent_at != SETTLED {
                #[cfg(test)]
                self.cc_calls.push((false, seq));
                self.cc.on_forget(seq);
            }
        }
        forgotten
    }

    /// Cells sent but not yet fed back.
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// Bytes the send-time ring reserves.
    pub fn reserved_bytes(&self) -> usize {
        self.sent_at.capacity() * std::mem::size_of::<SimTime>()
    }

    /// Current congestion window.
    pub fn cwnd(&self) -> u32 {
        self.cc.cwnd()
    }

    /// Current controller phase.
    pub fn phase(&self) -> Phase {
        self.cc.phase()
    }

    /// Minimum RTT observed on this hop, if any.
    pub fn base_rtt(&self) -> Option<SimDuration> {
        (self.base_rtt != SimDuration::MAX).then_some(self.base_rtt)
    }

    /// Transport counters.
    pub fn stats(&self) -> &HopStats {
        &self.stats
    }

    /// The next sequence number that will be assigned (== cells sent).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
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
    use crate::config::CcConfig;
    use crate::delay_cc::{DelayCc, RampExit};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn halving() -> HopTransport {
        let cc = DelayCc::with_ramp(CcConfig::default(), RampExit::Halving);
        HopTransport::new(Controller::Delay(Box::new(cc)))
    }

    fn fixed(cwnd: u32) -> HopTransport {
        HopTransport::new(Controller::Fixed(cwnd))
    }

    #[test]
    fn sequences_are_consecutive() {
        let mut h = fixed(10);
        assert_eq!(h.register_send(t(0)), 0);
        assert_eq!(h.register_send(t(0)), 1);
        assert_eq!(h.register_send(t(0)), 2);
        assert_eq!(h.next_seq(), 3);
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
        // No RTT sample, no feedback count, and the surviving in-flight
        // cell still confirms normally.
        assert_eq!(h.base_rtt(), None);
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
        assert_eq!(h.forget_all(), 0, "idempotent on an empty set");
        // No RTT/controller side effects beyond the one real feedback.
        assert_eq!(h.base_rtt(), Some(SimDuration::from_millis(4)));
        assert_eq!(h.stats().feedback_received, 1);
        // Forgotten cells can no longer confirm.
        assert_eq!(h.on_feedback(1, t(9)), Err(FeedbackError::UnknownSeq(1)));
    }

    /// A transport whose ramp has doubled once and then sent a full
    /// train of 4 (seqs 2..6) — the train a teardown drain cuts into.
    fn full_second_train() -> HopTransport {
        let mut h = halving();
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
        let mut h = halving();
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

    /// The send-time ring as it was before settled cells were marked in
    /// place: `(seq, sent_at)` pairs in sequence order, a binary search
    /// for a cell off the front and a `VecDeque::remove`. The reference
    /// model for the ring of send times.
    struct PairRing {
        cc: Controller,
        next_seq: u64,
        in_flight: VecDeque<(u64, SimTime)>,
        base_rtt: Option<SimDuration>,
        bad_feedback: u64,
        cc_calls: Vec<(bool, u64)>,
    }

    impl PairRing {
        fn new(cc: Controller) -> PairRing {
            PairRing {
                cc,
                next_seq: 0,
                in_flight: VecDeque::new(),
                base_rtt: None,
                bad_feedback: 0,
                cc_calls: Vec::new(),
            }
        }

        fn register_send(&mut self, now: SimTime) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.in_flight.push_back((seq, now));
            self.cc.on_sent(seq, now);
            seq
        }

        fn take(&mut self, seq: u64) -> Option<SimTime> {
            match self.in_flight.front() {
                Some(&(s, t)) if s == seq => {
                    self.in_flight.pop_front();
                    Some(t)
                }
                _ => {
                    let idx = self.in_flight.binary_search_by_key(&seq, |&(s, _)| s);
                    Some(self.in_flight.remove(idx.ok()?).expect("in range").1)
                }
            }
        }

        fn on_feedback(&mut self, seq: u64, now: SimTime) -> Result<SimDuration, FeedbackError> {
            let Some(sent_at) = self.take(seq) else {
                self.bad_feedback += 1;
                return Err(FeedbackError::UnknownSeq(seq));
            };
            let rtt = now.saturating_duration_since(sent_at);
            let base = self.base_rtt.map_or(rtt, |b| b.min(rtt));
            self.base_rtt = Some(base);
            self.cc_calls.push((true, seq));
            self.cc.on_feedback(seq, rtt, base, now);
            Ok(rtt)
        }

        fn forget(&mut self, seq: u64) -> bool {
            let removed = self.take(seq).is_some();
            if removed {
                self.cc_calls.push((false, seq));
                self.cc.on_forget(seq);
            }
            removed
        }

        fn forget_all(&mut self) -> u32 {
            let forgotten = self.in_flight.len() as u32;
            for (seq, _) in self.in_flight.drain(..) {
                self.cc_calls.push((false, seq));
                self.cc.on_forget(seq);
            }
            forgotten
        }
    }

    /// Random runs of sends, in-order, out-of-order, duplicate and
    /// unknown feedback, `forget` and `forget_all` give what the
    /// reference ring gives: every result and RTT, the outstanding count,
    /// the base RTT, the bad-feedback count, the `on_feedback`/`on_forget`
    /// calls each controller was handed, in order, and after every
    /// operation the whole controller state.
    #[test]
    fn the_send_time_ring_matches_the_pair_ring() {
        use crate::algorithm::Algorithm;
        use simcore::rng::SimRng;

        let algorithms = [
            Algorithm::CircuitStart,
            Algorithm::ClassicBacktap,
            Algorithm::FixedWindow(12),
        ];
        for (seed, algorithm) in (0..40u64).zip(algorithms.iter().cycle()) {
            let mut rng = SimRng::seed_from(0x5E7D_0000 + seed);
            let cc = algorithm.make_controller(CcConfig::default());
            let mut hop = HopTransport::new(cc.clone());
            let mut model = PairRing::new(cc);
            let mut now = SimTime::ZERO;
            let mut forgotten = 0;
            for op in 0..3_000 {
                now += SimDuration::from_micros(rng.range_u64(0, 4_000));
                let outstanding: Vec<u64> = model.in_flight.iter().map(|&(s, _)| s).collect();
                let pick = rng.range_u64(0, 100);
                let ctx = format!("seed {seed} ({algorithm:?}) op {op}");
                match pick {
                    0..=39 => {
                        assert_eq!(
                            hop.can_send(),
                            model.cc.allow_send(outstanding.len() as u32)
                        );
                        if hop.can_send() {
                            assert_eq!(hop.register_send(now), model.register_send(now), "{ctx}");
                        }
                    }
                    40..=84 if !outstanding.is_empty() => {
                        // Mostly the front; now and then any outstanding cell.
                        let seq = if pick < 75 {
                            outstanding[0]
                        } else {
                            outstanding[rng.range_usize(0, outstanding.len())]
                        };
                        let got = hop.on_feedback(seq, now);
                        assert!(got.is_ok(), "{ctx}");
                        assert_eq!(got, model.on_feedback(seq, now), "{ctx}");
                    }
                    85..=92 => {
                        // Any sequence number: fed back, forgotten,
                        // outstanding or never sent.
                        let seq = rng.range_u64(0, model.next_seq + 3);
                        assert_eq!(
                            hop.on_feedback(seq, now),
                            model.on_feedback(seq, now),
                            "{ctx}"
                        );
                    }
                    93..=98 => {
                        let seq = rng.range_u64(0, model.next_seq + 2);
                        assert_eq!(hop.forget(seq), model.forget(seq), "{ctx}");
                    }
                    99 => {
                        forgotten += 1;
                        assert_eq!(hop.forget_all(), model.forget_all(), "{ctx}");
                    }
                    _ => {}
                }
                assert_eq!(hop.outstanding() as usize, model.in_flight.len(), "{ctx}");
                assert_eq!(hop.base_rtt(), model.base_rtt, "{ctx}");
                assert_eq!(hop.stats().bad_feedback, model.bad_feedback, "{ctx}");
                assert_eq!(hop.cc_calls.len(), model.cc_calls.len(), "{ctx}");
                assert_eq!(format!("{:?}", hop.cc), format!("{:?}", model.cc), "{ctx}");
                // The ring runs from the oldest outstanding cell, or is
                // empty when none is.
                let span = model
                    .in_flight
                    .front()
                    .map_or(0, |&(s, _)| model.next_seq - s);
                assert_eq!(hop.sent_at.len() as u64, span, "{ctx}");
            }
            assert_eq!(hop.cc_calls, model.cc_calls, "seed {seed}");
            assert!(
                forgotten > 0 && model.next_seq > 500,
                "seed {seed}: a thin run"
            );
        }
    }

    #[test]
    fn delay_cc_full_ramp_through_transport() {
        // End-to-end sanity: flat RTTs, the transport should double per
        // round: 2 → 4 → 8 with the controller driving train boundaries.
        let mut h = halving();
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
        let mut h = halving();
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
    }
}
