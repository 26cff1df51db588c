//! Point-to-point link internals: configuration, queueing, statistics.
//!
//! A link is **simplex** (one direction); duplex connectivity is modelled
//! as two independent links. Each link owns an unbounded egress FIFO, a
//! single "transmitter" slot (the frame currently being serialized), and a
//! FIFO of frames in flight across the propagation delay. Nothing is ever
//! dropped: the hop-by-hop windows of the transport above bound every
//! queue. Every frame is stored once, in its [`Net`](crate::net::Net)'s
//! frame store, until it is delivered: the transmitter slot holds a
//! 4-byte [`FrameHandle`], and the two FIFOs are lists threaded through
//! the store's slots, so a link keeps their ends, not buffers that
//! would keep its own peak.
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

use simcore::slab::List;
use simcore::time::{SimDuration, SimTime};

use crate::bandwidth::Bandwidth;
use crate::net::FrameHandle;

/// Identifies a link within one [`crate::net::Net`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub(crate) u32);

impl LinkId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Static link parameters: a simplex link is a rate and a delay. Its
/// egress FIFO is unbounded; the hop-by-hop windows above bound every
/// queue.
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Serialization rate.
    pub rate: Bandwidth,
    /// One-way propagation delay.
    pub delay: SimDuration,
}

impl LinkConfig {
    /// A link of the given rate and delay.
    pub fn new(rate: Bandwidth, delay: SimDuration) -> Self {
        LinkConfig { rate, delay }
    }
}

/// Per-link counters, updated by [`crate::net::Net`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LinkStats {
    /// Always 0: the egress FIFO is unbounded and drops nothing. Kept
    /// because csbench's `netsim.frames_dropped` row reads it.
    pub frames_dropped: u64,
    /// Frames that started serializing (each finishes: nothing preempts
    /// the transmitter). Credited at the same instant as `busy_time` and
    /// `queue_wait_total`, so the three always describe the same frames.
    pub frames_sent: u64,
    /// Bytes of the frames that started serializing.
    pub bytes_sent: u64,
    /// Greatest number of frames ever waiting in the egress queue.
    pub queue_hwm_frames: usize,
    /// Total time the transmitter was busy.
    pub busy_time: SimDuration,
    /// Sum of per-frame queue waiting times (enqueue → serialization
    /// start), for mean queue-delay telemetry.
    pub queue_wait_total: SimDuration,
}

/// Full runtime state of one link. Frames are named by their handle in
/// the `Net`'s store. The type is not generic, so the methods `Net<F>`
/// calls per frame are `#[inline]`: without it they could not be inlined
/// into the crate that instantiates `Net<F>`.
#[derive(Clone)]
pub(crate) struct LinkState {
    pub cfg: LinkConfig,
    /// Frames waiting for the transmitter, in the store's lists; each
    /// frame's slot keeps its arrival time.
    pub queue: List,
    /// Frames on `queue`.
    pub queued: u32,
    /// The frame being serialized right now, if its sender awaits the
    /// departure; a `TxComplete` is scheduled for it at `busy_until`.
    pub transmitting: Option<FrameHandle>,
    /// When the most recently started serialization ends. All that a
    /// silently departing frame leaves behind of a busy transmitter.
    pub busy_until: SimTime,
    /// A `TxComplete` is scheduled at `busy_until` for no frame's sake:
    /// a wake-up, because work is queued behind a silent departure.
    pub wake_pending: bool,
    /// Frames that are propagating, or still serializing silently.
    /// Constant per-link delay + FIFO serialization ⇒ delivery order ==
    /// push order. A list in the store, like `queue`.
    pub in_flight: List,
    pub stats: LinkStats,
    /// The last two distinct `(wire size, serialization time)` pairs at
    /// the current rate, newest first (see [`LinkState::tx_time`]).
    tx_memo: [(u32, SimDuration); 2],
}

/// Zero bytes take zero time at any rate, so the empty memo is a valid one.
const TX_MEMO_EMPTY: [(u32, SimDuration); 2] = [(0, SimDuration::ZERO); 2];

impl LinkState {
    pub fn new(cfg: LinkConfig) -> Self {
        LinkState {
            cfg,
            queue: List::EMPTY,
            queued: 0,
            transmitting: None,
            busy_until: SimTime::ZERO,
            wake_pending: false,
            in_flight: List::EMPTY,
            stats: LinkStats::default(),
            tx_memo: TX_MEMO_EMPTY,
        }
    }

    /// `cfg.rate.transmission_time(bytes)` without its 128-bit division
    /// for the two frame sizes a link keeps carrying (an overlay link only
    /// ever sees 512-byte cells and 20-byte feedback frames).
    #[inline]
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

    /// Number of frames waiting (not counting the one serializing).
    #[inline]
    pub fn queue_len(&self) -> usize {
        self.queued as usize
    }

    /// Whether a `TxComplete` is scheduled — for the frame in the
    /// transmitter slot or as a wake-up.
    #[inline]
    pub fn completion_pending(&self) -> bool {
        self.transmitting.is_some() || self.wake_pending
    }

    /// Whether a frame offered at `now` has to wait: one is serializing,
    /// or a pending completion at this very instant has first claim on
    /// the transmitter for the work queued behind it.
    #[inline]
    pub fn is_busy(&self, now: SimTime) -> bool {
        self.completion_pending() || now < self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoised_tx_time_is_transmission_time_across_sizes_and_rate_changes() {
        let mut rng = simcore::rng::SimRng::seed_from(0x7E40);
        let mut st = LinkState::new(LinkConfig::new(Bandwidth::from_bps(1), SimDuration::ZERO));
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

    /// One per link of a world: a rate and a delay, the ends of the
    /// egress and in-flight lists and the queued count, the transmitter
    /// slot, the counters csbench reads and the serialization-time memo.
    #[test]
    fn a_link_is_at_most_136_bytes() {
        let size = std::mem::size_of::<LinkState>();
        assert!(size <= 136, "LinkState grew to {size} bytes");
    }
}
