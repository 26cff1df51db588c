//! Point-to-point link internals: configuration, queueing, statistics.
//!
//! A link is **simplex** (one direction); duplex connectivity is modelled
//! as two independent links. Each link owns a drop-tail egress queue, a
//! single "transmitter" slot (the frame currently being serialized), and a
//! FIFO of frames in flight across the propagation delay:
//!
//! ```text
//!   send() ──► [egress queue] ──► (serializing, rate-limited)
//!                                        │ TxComplete
//!                                        ▼
//!                              [in flight, delay d] ──► Deliver
//! ```
//!
//! Store-and-forward: a frame exists at exactly one place at a time, and
//! the receiver sees it only after serialization *and* propagation. A
//! frame whose sender does not wait for its departure
//! ([`Frame::awaits_departure`](crate::frame::Frame::awaits_departure))
//! skips the transmitter slot: it joins the in-flight FIFO when it starts
//! serializing, due after serialization *plus* propagation, and the link
//! only remembers until when it is busy.

use std::collections::VecDeque;

use simcore::time::{SimDuration, SimTime};

use crate::bandwidth::Bandwidth;

/// Identifies a link within one [`crate::net::Net`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub(crate) u32);

impl LinkId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Egress-queue capacity policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum QueueLimit {
    /// No limit; the queue grows as needed. The hop-by-hop transport keeps
    /// queues bounded by flow control, and tests assert zero drops, so this
    /// is the default for protocol experiments.
    #[default]
    Unbounded,
    /// At most this many frames may wait (the serializing frame does not
    /// count).
    Frames(usize),
    /// At most this many bytes may wait.
    Bytes(u64),
}

/// Static link parameters.
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Serialization rate.
    pub rate: Bandwidth,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Egress queue capacity.
    pub queue: QueueLimit,
}

impl LinkConfig {
    /// Convenience constructor with an unbounded queue.
    pub fn new(rate: Bandwidth, delay: SimDuration) -> Self {
        LinkConfig {
            rate,
            delay,
            queue: QueueLimit::Unbounded,
        }
    }
}

/// Per-link counters, updated by [`crate::net::Net`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LinkStats {
    /// Frames handed to `send` that were accepted (queued or transmitted).
    pub frames_accepted: u64,
    /// Frames rejected by the queue limit.
    pub frames_dropped: u64,
    /// Bytes rejected by the queue limit.
    pub bytes_dropped: u64,
    /// Frames that started serializing (each finishes: nothing preempts
    /// the transmitter). Credited at the same instant as `busy_time` and
    /// `queue_wait_total`, so the three always describe the same frames.
    pub frames_sent: u64,
    /// Bytes of the frames that started serializing.
    pub bytes_sent: u64,
    /// Frames delivered to the far end.
    pub frames_delivered: u64,
    /// Greatest number of frames ever waiting in the egress queue.
    pub queue_hwm_frames: usize,
    /// Greatest number of bytes ever waiting in the egress queue.
    pub queue_hwm_bytes: u64,
    /// Total time the transmitter was busy, for utilization.
    pub busy_time: SimDuration,
    /// Sum of per-frame queue waiting times (enqueue → serialization
    /// start), for mean queue-delay telemetry.
    pub queue_wait_total: SimDuration,
    /// Largest single queue waiting time.
    pub queue_wait_max: SimDuration,
}

impl LinkStats {
    /// Mean queueing delay over all frames that started serialization.
    pub fn mean_queue_wait(&self) -> SimDuration {
        if self.frames_sent == 0 {
            SimDuration::ZERO
        } else {
            self.queue_wait_total / self.frames_sent
        }
    }

    /// Fraction of `[0, now]` the transmitter spent serializing.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            0.0
        } else {
            self.busy_time.as_secs_f64() / now.as_secs_f64()
        }
    }
}

/// A frame waiting in the egress queue, stamped with its arrival time.
pub(crate) struct Queued<F> {
    pub frame: F,
    pub enqueued_at: SimTime,
}

/// Full runtime state of one link.
pub(crate) struct LinkState<F> {
    pub cfg: LinkConfig,
    /// Frames waiting for the transmitter.
    pub queue: VecDeque<Queued<F>>,
    /// Bytes currently waiting in `queue`.
    pub queue_bytes: u64,
    /// The frame being serialized right now, if its sender awaits the
    /// departure; a `TxComplete` is scheduled for it at `busy_until`.
    pub transmitting: Option<F>,
    /// When the most recently started serialization ends. All that a
    /// silently departing frame leaves behind of a busy transmitter.
    pub busy_until: SimTime,
    /// A `TxComplete` is scheduled at `busy_until` for no frame's sake:
    /// a wake-up, because work is queued behind a silent departure.
    pub wake_pending: bool,
    /// Frames that are propagating, or still serializing silently.
    /// Constant per-link delay + FIFO serialization ⇒ delivery order ==
    /// push order.
    pub in_flight: VecDeque<F>,
    pub stats: LinkStats,
    /// The last two distinct `(wire size, serialization time)` pairs at
    /// the current rate, newest first (see [`LinkState::tx_time`]).
    tx_memo: [(u32, SimDuration); 2],
}

/// Zero bytes take zero time at any rate, so the empty memo is a valid one.
const TX_MEMO_EMPTY: [(u32, SimDuration); 2] = [(0, SimDuration::ZERO); 2];

impl<F> LinkState<F> {
    pub fn new(cfg: LinkConfig) -> Self {
        LinkState {
            cfg,
            queue: VecDeque::new(),
            queue_bytes: 0,
            transmitting: None,
            busy_until: SimTime::ZERO,
            wake_pending: false,
            in_flight: VecDeque::new(),
            stats: LinkStats::default(),
            tx_memo: TX_MEMO_EMPTY,
        }
    }

    /// `cfg.rate.transmission_time(bytes)` without its 128-bit division
    /// for the two frame sizes a link keeps carrying (an overlay link only
    /// ever sees 512-byte cells and 20-byte feedback frames).
    pub fn tx_time(&mut self, bytes: u32) -> SimDuration {
        if let Some(&(_, time)) = self.tx_memo.iter().find(|&&(size, _)| size == bytes) {
            return time;
        }
        let time = self.cfg.rate.transmission_time(bytes);
        self.tx_memo = [(bytes, time), self.tx_memo[0]];
        time
    }

    /// Changes the serialization rate; memoised times belong to the old one.
    pub fn set_rate(&mut self, rate: Bandwidth) {
        self.cfg.rate = rate;
        self.tx_memo = TX_MEMO_EMPTY;
    }

    /// Whether the egress queue can accept another `bytes`-sized frame.
    pub fn queue_has_room(&self, bytes: u32) -> bool {
        match self.cfg.queue {
            QueueLimit::Unbounded => true,
            QueueLimit::Frames(max) => self.queue.len() < max,
            QueueLimit::Bytes(max) => self.queue_bytes + u64::from(bytes) <= max,
        }
    }

    /// Number of frames waiting (not counting the one serializing).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Bytes waiting (not counting the one serializing).
    pub fn queue_bytes(&self) -> u64 {
        self.queue_bytes
    }

    /// Whether a `TxComplete` is scheduled — for the frame in the
    /// transmitter slot or as a wake-up.
    pub fn completion_pending(&self) -> bool {
        self.transmitting.is_some() || self.wake_pending
    }

    /// Whether a frame offered at `now` has to wait: one is serializing,
    /// or a pending completion at this very instant has first claim on
    /// the transmitter for the work queued behind it.
    pub fn is_busy(&self, now: SimTime) -> bool {
        self.completion_pending() || now < self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_limit_frames() {
        let mut st: LinkState<u8> = LinkState::new(LinkConfig {
            rate: Bandwidth::from_mbps(1),
            delay: SimDuration::ZERO,
            queue: QueueLimit::Frames(2),
        });
        assert!(st.queue_has_room(100));
        st.queue.push_back(Queued {
            frame: 1,
            enqueued_at: SimTime::ZERO,
        });
        st.queue.push_back(Queued {
            frame: 2,
            enqueued_at: SimTime::ZERO,
        });
        assert!(!st.queue_has_room(100));
    }

    #[test]
    fn queue_limit_bytes() {
        let mut st: LinkState<u8> = LinkState::new(LinkConfig {
            rate: Bandwidth::from_mbps(1),
            delay: SimDuration::ZERO,
            queue: QueueLimit::Bytes(1000),
        });
        st.queue_bytes = 600;
        assert!(st.queue_has_room(400));
        assert!(!st.queue_has_room(401));
    }

    #[test]
    fn unbounded_always_has_room() {
        let st: LinkState<u8> =
            LinkState::new(LinkConfig::new(Bandwidth::from_mbps(1), SimDuration::ZERO));
        assert!(st.queue_has_room(u32::MAX));
    }

    #[test]
    fn memoised_tx_time_is_transmission_time_across_sizes_and_rate_changes() {
        let mut rng = simcore::rng::SimRng::seed_from(0x7E40);
        let mut st: LinkState<u8> =
            LinkState::new(LinkConfig::new(Bandwidth::from_bps(1), SimDuration::ZERO));
        for round in 0..200 {
            // From 8 bit/s (where u32::MAX bytes still fit u64 ns) to
            // 100 Gbit/s, every decade equally likely.
            let decade = 10u64.pow(rng.range_u64(1, 12) as u32);
            let rate = Bandwidth::from_bps(rng.range_u64(8, 8 + decade));
            st.set_rate(rate);
            // A link's usual traffic — two sizes alternating — then sizes
            // that hit, miss and evict in every order, 0 and u32::MAX included.
            let mut sizes = vec![512, 20, 512, 512, 20, 0, u32::MAX, 20];
            sizes.extend((0..24).map(|_| rng.range_u64(0, 5) as u32 * 257));
            for size in sizes {
                assert_eq!(
                    st.tx_time(size),
                    rate.transmission_time(size),
                    "round {round}: {size} bytes at {rate}"
                );
            }
        }
    }

    #[test]
    fn stats_mean_queue_wait() {
        let mut s = LinkStats::default();
        assert_eq!(s.mean_queue_wait(), SimDuration::ZERO);
        s.frames_sent = 4;
        s.queue_wait_total = SimDuration::from_millis(8);
        assert_eq!(s.mean_queue_wait(), SimDuration::from_millis(2));
    }

    #[test]
    fn stats_utilization() {
        let mut s = LinkStats::default();
        assert_eq!(s.utilization(SimTime::ZERO), 0.0);
        s.busy_time = SimDuration::from_millis(250);
        assert!((s.utilization(SimTime::from_secs(1)) - 0.25).abs() < 1e-12);
    }
}
