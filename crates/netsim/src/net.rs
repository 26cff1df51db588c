//! The network: nodes, directed links, and the transmission state machine.
//!
//! [`Net`] is *not* a [`simcore::World`] by itself — it is a component the
//! world embeds. The world forwards the two network events to
//! [`Net::on_tx_complete`] / [`Net::take_delivered`] and handles delivered
//! frames itself (routing is a higher-layer concern). This keeps `Net`
//! reusable under any event enum via `E: From<NetEvent>`.
//!
//! # Timing model
//!
//! For a frame of `b` bytes sent at time `t` on an idle link with rate `r`
//! and propagation delay `d`:
//!
//! * serialization finishes at `t + b·8/r`  → [`NetEvent::TxComplete`]
//! * delivery happens at   `t + b·8/r + d`  → [`NetEvent::Deliver`]
//!
//! If the link is busy, the frame waits in the drop-tail egress queue.
//! This is exactly ns-3's point-to-point model.

use simcore::sim::Context;
use simcore::time::SimTime;

use crate::bandwidth::Bandwidth;
use crate::frame::Frame;
use crate::link::{LinkConfig, LinkId, LinkState, LinkStats, Queued};

/// Identifies a node within one [`Net`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Events produced by the network layer. Embed them in the world's event
/// enum with a `From<NetEvent>` impl.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetEvent {
    /// The frame at the head of `link`'s transmitter finished serializing.
    TxComplete {
        /// Which link.
        link: LinkId,
    },
    /// The oldest in-flight frame on `link` reached the far end. Call
    /// [`Net::take_delivered`] to obtain it.
    Deliver {
        /// Which link.
        link: LinkId,
    },
}

/// Result of [`Net::send`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendOutcome {
    /// The frame was accepted (queued or started transmitting).
    Accepted,
    /// The egress queue was full; the frame was dropped and returned.
    Dropped,
}

/// A directed graph of nodes and rate/delay links carrying frames of type
/// `F`.
///
/// # Examples
///
/// ```
/// use netsim::prelude::*;
/// use simcore::prelude::*;
///
/// struct W { net: Net<RawFrame>, got: Vec<u64> }
/// impl World for W {
///     type Event = NetEvent;
///     fn handle(&mut self, ctx: &mut Context<'_, NetEvent>, ev: NetEvent) {
///         match ev {
///             NetEvent::TxComplete { link } => self.net.on_tx_complete(ctx, link),
///             NetEvent::Deliver { link } => {
///                 let f = self.net.take_delivered(link);
///                 self.got.push(f.tag);
///             }
///         }
///     }
/// }
///
/// let mut net = Net::new();
/// let a = net.add_node("a");
/// let b = net.add_node("b");
/// let ab = net.add_link(a, b, LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::from_millis(1)));
///
/// let mut sim = Simulator::new(W { net, got: vec![] });
/// // send two 1000-byte frames back to back at t=0
/// // (1000 B at 8 Mbit/s = 1 ms serialization each)
/// let w = sim.world_mut();
/// // scheduling via a setup context is not needed; send directly pre-run:
/// // frames go out at t=0 because the link is idle.
/// // (Normally sends happen inside handlers.)
/// # let _ = ab;
/// ```
pub struct Net<F: Frame> {
    links: Vec<LinkState<F>>,
    link_ends: Vec<(NodeId, NodeId)>,
    node_names: Vec<String>,
}

impl<F: Frame> Default for Net<F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: Frame> Net<F> {
    /// Creates an empty network.
    pub fn new() -> Self {
        Net {
            links: Vec::new(),
            link_ends: Vec::new(),
            node_names: Vec::new(),
        }
    }

    /// Adds a node; `name` is used in diagnostics only.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        let id = NodeId(u32::try_from(self.node_names.len()).expect("too many nodes"));
        self.node_names.push(name.to_string());
        id
    }

    /// Adds a directed link `from → to`.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, cfg: LinkConfig) -> LinkId {
        assert!(from.index() < self.node_names.len(), "unknown source node");
        assert!(
            to.index() < self.node_names.len(),
            "unknown destination node"
        );
        assert_ne!(from, to, "self-loop links are not supported");
        let id = LinkId(u32::try_from(self.links.len()).expect("too many links"));
        self.links.push(LinkState::new(cfg));
        self.link_ends.push((from, to));
        id
    }

    /// Adds a duplex connection as two symmetric simplex links, returning
    /// `(forward, reverse)`.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> (LinkId, LinkId) {
        (self.add_link(a, b, cfg), self.add_link(b, a, cfg))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of (simplex) links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Diagnostic name of a node.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.index()]
    }

    /// The `(source, destination)` nodes of a link.
    pub fn link_ends(&self, link: LinkId) -> (NodeId, NodeId) {
        self.link_ends[link.index()]
    }

    /// The node a link delivers to.
    pub fn link_dst(&self, link: LinkId) -> NodeId {
        self.link_ends[link.index()].1
    }

    /// The node a link transmits from.
    pub fn link_src(&self, link: LinkId) -> NodeId {
        self.link_ends[link.index()].0
    }

    /// The static configuration of a link.
    pub fn link_config(&self, link: LinkId) -> &LinkConfig {
        &self.links[link.index()].cfg
    }

    /// Counters for a link.
    pub fn stats(&self, link: LinkId) -> &LinkStats {
        &self.links[link.index()].stats
    }

    /// Frames currently waiting in the egress queue (excluding the one
    /// serializing).
    pub fn queue_len(&self, link: LinkId) -> usize {
        self.links[link.index()].queue_len()
    }

    /// Bytes currently waiting in the egress queue.
    pub fn queue_bytes(&self, link: LinkId) -> u64 {
        self.links[link.index()].queue_bytes()
    }

    /// Whether the link's transmitter is currently serializing a frame.
    pub fn is_busy(&self, link: LinkId) -> bool {
        self.links[link.index()].is_busy()
    }

    /// Sum of dropped frames over all links — experiments that rely on
    /// backpressure assert this stays zero.
    pub fn total_drops(&self) -> u64 {
        self.links.iter().map(|l| l.stats.frames_dropped).sum()
    }

    /// Hands a frame to a link for transmission at the current time.
    ///
    /// If the transmitter is idle the frame starts serializing immediately;
    /// otherwise it joins the egress queue (or is dropped if the queue is
    /// full).
    pub fn send<E: From<NetEvent>>(
        &mut self,
        ctx: &mut Context<'_, E>,
        link: LinkId,
        frame: F,
    ) -> SendOutcome {
        let now = ctx.now();
        let state = &mut self.links[link.index()];
        let size = frame.wire_size();
        if state.transmitting.is_none() {
            debug_assert!(
                state.queue.is_empty(),
                "idle transmitter with non-empty queue"
            );
            Self::begin_tx(state, link, frame, now, ctx);
            state.stats.frames_accepted += 1;
            return SendOutcome::Accepted;
        }
        if !state.queue_has_room(size) {
            state.stats.frames_dropped += 1;
            state.stats.bytes_dropped += u64::from(size);
            return SendOutcome::Dropped;
        }
        state.queue.push_back(Queued {
            frame,
            enqueued_at: now,
        });
        state.queue_bytes += u64::from(size);
        state.stats.frames_accepted += 1;
        state.stats.queue_hwm_frames = state.stats.queue_hwm_frames.max(state.queue.len());
        state.stats.queue_hwm_bytes = state.stats.queue_hwm_bytes.max(state.queue_bytes);
        SendOutcome::Accepted
    }

    /// Changes a link's rate at runtime (used by mid-flow bandwidth-change
    /// experiments). Takes effect from the next frame that starts
    /// serializing; the frame currently on the wire is unaffected.
    pub fn set_link_rate(&mut self, link: LinkId, rate: Bandwidth) {
        self.links[link.index()].set_rate(rate);
    }

    /// The frame currently being serialized on `link`, if any. On a
    /// [`NetEvent::TxComplete`] this is the frame that just finished —
    /// overlays use it to act at the exact moment of transmission (e.g.
    /// emitting forwarding feedback) before calling
    /// [`Net::on_tx_complete`].
    pub fn transmitting(&self, link: LinkId) -> Option<&F> {
        self.links[link.index()].transmitting.as_ref()
    }

    /// Mutable access to the frame currently being serialized (e.g. to
    /// detach bookkeeping that must not travel past this hop).
    pub fn transmitting_mut(&mut self, link: LinkId) -> Option<&mut F> {
        self.links[link.index()].transmitting.as_mut()
    }

    /// Handles [`NetEvent::TxComplete`]: moves the serialized frame into
    /// the propagation stage and starts the next queued frame, if any.
    pub fn on_tx_complete<E: From<NetEvent>>(&mut self, ctx: &mut Context<'_, E>, link: LinkId) {
        let now = ctx.now();
        let state = &mut self.links[link.index()];
        let frame = state
            .transmitting
            .take()
            .expect("TxComplete on a link that is not transmitting");
        let size = frame.wire_size();
        state.stats.frames_sent += 1;
        state.stats.bytes_sent += u64::from(size);
        state.in_flight.push_back(frame);
        ctx.schedule_in(state.cfg.delay, NetEvent::Deliver { link }.into());
        if let Some(next) = state.queue.pop_front() {
            state.queue_bytes -= u64::from(next.frame.wire_size());
            let wait = now.saturating_duration_since(next.enqueued_at);
            state.stats.queue_wait_total += wait;
            state.stats.queue_wait_max = state.stats.queue_wait_max.max(wait);
            Self::begin_tx(state, link, next.frame, now, ctx);
        }
    }

    /// Handles [`NetEvent::Deliver`]: removes and returns the frame that
    /// just arrived at [`Net::link_dst`].
    ///
    /// # Panics
    ///
    /// Panics if no frame is in flight — that indicates a double-handled
    /// event, which is always a bug.
    pub fn take_delivered(&mut self, link: LinkId) -> F {
        let state = &mut self.links[link.index()];
        let frame = state
            .in_flight
            .pop_front()
            .expect("Deliver on a link with nothing in flight");
        state.stats.frames_delivered += 1;
        frame
    }

    fn begin_tx<E: From<NetEvent>>(
        state: &mut LinkState<F>,
        link: LinkId,
        frame: F,
        _now: SimTime,
        ctx: &mut Context<'_, E>,
    ) {
        let tx_time = state.tx_time(frame.wire_size());
        state.stats.busy_time += tx_time;
        state.transmitting = Some(frame);
        ctx.schedule_in(tx_time, NetEvent::TxComplete { link }.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::Bandwidth;
    use crate::frame::RawFrame;
    use crate::link::QueueLimit;
    use simcore::prelude::*;

    /// Test world: one Net plus a delivery log and an outbox of
    /// (time, link, frame) sends injected via timer events.
    struct W {
        net: Net<RawFrame>,
        delivered: Vec<(SimTime, u64)>,
        sends: Vec<(SimTime, LinkId, RawFrame)>,
        outcomes: Vec<SendOutcome>,
    }

    enum Ev {
        Net(NetEvent),
        DoSend(usize),
    }
    impl From<NetEvent> for Ev {
        fn from(e: NetEvent) -> Self {
            Ev::Net(e)
        }
    }

    impl World for W {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
            match ev {
                Ev::Net(NetEvent::TxComplete { link }) => self.net.on_tx_complete(ctx, link),
                Ev::Net(NetEvent::Deliver { link }) => {
                    let f = self.net.take_delivered(link);
                    self.delivered.push((ctx.now(), f.tag));
                }
                Ev::DoSend(i) => {
                    let (_, link, frame) = self.sends[i];
                    let outcome = self.net.send(ctx, link, frame);
                    self.outcomes.push(outcome);
                }
            }
        }
    }

    /// Builds a world with a single a→b link and a list of scheduled sends.
    fn run_world(
        cfg: LinkConfig,
        sends: Vec<(SimTime, RawFrame)>,
    ) -> (Vec<(SimTime, u64)>, Vec<SendOutcome>, Net<RawFrame>) {
        let mut net = Net::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        let link = net.add_link(a, b, cfg);
        let sends: Vec<(SimTime, LinkId, RawFrame)> =
            sends.into_iter().map(|(t, f)| (t, link, f)).collect();
        let mut sim = Simulator::new(W {
            net,
            delivered: vec![],
            sends: sends.clone(),
            outcomes: vec![],
        });
        for (i, &(t, _, _)) in sends.iter().enumerate() {
            sim.schedule_at(t, Ev::DoSend(i));
        }
        sim.run();
        let w = sim.into_world();
        (w.delivered, w.outcomes, w.net)
    }

    fn frame(bytes: u32, tag: u64) -> RawFrame {
        RawFrame { bytes, tag }
    }

    #[test]
    fn single_frame_timing() {
        // 1000 B at 8 Mbit/s = 1 ms serialization, +2 ms propagation.
        let cfg = LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::from_millis(2));
        let (delivered, outcomes, net) = run_world(cfg, vec![(SimTime::ZERO, frame(1000, 1))]);
        assert_eq!(outcomes, vec![SendOutcome::Accepted]);
        assert_eq!(delivered, vec![(SimTime::from_millis(3), 1)]);
        let link = LinkId(0);
        assert_eq!(net.stats(link).frames_sent, 1);
        assert_eq!(net.stats(link).bytes_sent, 1000);
        assert_eq!(net.stats(link).frames_delivered, 1);
    }

    #[test]
    fn back_to_back_frames_serialize_sequentially() {
        // Two 1000 B frames sent at t=0: second finishes serializing at 2ms,
        // arrives at 2ms+delay.
        let cfg = LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::from_millis(5));
        let (delivered, _, _) = run_world(
            cfg,
            vec![
                (SimTime::ZERO, frame(1000, 1)),
                (SimTime::ZERO, frame(1000, 2)),
            ],
        );
        assert_eq!(
            delivered,
            vec![(SimTime::from_millis(6), 1), (SimTime::from_millis(7), 2)]
        );
    }

    #[test]
    fn delivery_preserves_fifo_order() {
        let cfg = LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::from_millis(1));
        let sends = (0..10)
            .map(|i| (SimTime::from_micros(i * 10), frame(100, i)))
            .collect();
        let (delivered, _, _) = run_world(cfg, sends);
        let tags: Vec<u64> = delivered.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn idle_gap_restarts_transmitter() {
        let cfg = LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::ZERO);
        let (delivered, _, _) = run_world(
            cfg,
            vec![
                (SimTime::ZERO, frame(1000, 1)),            // 0..1ms
                (SimTime::from_millis(10), frame(1000, 2)), // 10..11ms
            ],
        );
        assert_eq!(
            delivered,
            vec![(SimTime::from_millis(1), 1), (SimTime::from_millis(11), 2)]
        );
    }

    #[test]
    fn queue_limit_drops_excess() {
        let cfg = LinkConfig {
            rate: Bandwidth::from_mbps(8),
            delay: SimDuration::ZERO,
            queue: QueueLimit::Frames(1),
        };
        // Three sends at t=0: #1 transmits, #2 queues, #3 dropped.
        let (delivered, outcomes, net) = run_world(
            cfg,
            vec![
                (SimTime::ZERO, frame(1000, 1)),
                (SimTime::ZERO, frame(1000, 2)),
                (SimTime::ZERO, frame(1000, 3)),
            ],
        );
        assert_eq!(
            outcomes,
            vec![
                SendOutcome::Accepted,
                SendOutcome::Accepted,
                SendOutcome::Dropped
            ]
        );
        let tags: Vec<u64> = delivered.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, vec![1, 2]);
        assert_eq!(net.stats(LinkId(0)).frames_dropped, 1);
        assert_eq!(net.stats(LinkId(0)).bytes_dropped, 1000);
        assert_eq!(net.total_drops(), 1);
    }

    #[test]
    fn byte_queue_limit() {
        let cfg = LinkConfig {
            rate: Bandwidth::from_mbps(8),
            delay: SimDuration::ZERO,
            queue: QueueLimit::Bytes(1500),
        };
        let (_, outcomes, _) = run_world(
            cfg,
            vec![
                (SimTime::ZERO, frame(1000, 1)), // transmitting
                (SimTime::ZERO, frame(1000, 2)), // queued (1000 <= 1500)
                (SimTime::ZERO, frame(600, 3)),  // 1600 > 1500 → dropped
                (SimTime::ZERO, frame(500, 4)),  // exactly 1500 → queued
            ],
        );
        assert_eq!(
            outcomes,
            vec![
                SendOutcome::Accepted,
                SendOutcome::Accepted,
                SendOutcome::Dropped,
                SendOutcome::Accepted
            ]
        );
    }

    #[test]
    fn queue_wait_statistics() {
        let cfg = LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::ZERO);
        // Frame 2 waits exactly 1 ms (while frame 1 serializes).
        let (_, _, net) = run_world(
            cfg,
            vec![
                (SimTime::ZERO, frame(1000, 1)),
                (SimTime::ZERO, frame(1000, 2)),
            ],
        );
        let s = net.stats(LinkId(0));
        assert_eq!(s.queue_wait_max, SimDuration::from_millis(1));
        // Only sent frames count for the mean; 2 sent, total wait 1 ms.
        assert_eq!(s.mean_queue_wait(), SimDuration::from_micros(500));
        assert_eq!(s.queue_hwm_frames, 1);
        assert_eq!(s.queue_hwm_bytes, 1000);
    }

    #[test]
    fn busy_time_and_utilization() {
        let cfg = LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::ZERO);
        let (_, _, net) = run_world(
            cfg,
            vec![
                (SimTime::ZERO, frame(1000, 1)),
                (SimTime::from_millis(3), frame(1000, 2)),
            ],
        );
        let s = net.stats(LinkId(0));
        assert_eq!(s.busy_time, SimDuration::from_millis(2));
        assert!((s.utilization(SimTime::from_millis(4)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn topology_accessors() {
        let mut net: Net<RawFrame> = Net::new();
        let a = net.add_node("alpha");
        let b = net.add_node("beta");
        let (ab, ba) = net.add_duplex(
            a,
            b,
            LinkConfig::new(Bandwidth::from_mbps(1), SimDuration::ZERO),
        );
        assert_eq!(net.node_count(), 2);
        assert_eq!(net.link_count(), 2);
        assert_eq!(net.node_name(a), "alpha");
        assert_eq!(net.link_ends(ab), (a, b));
        assert_eq!(net.link_src(ba), b);
        assert_eq!(net.link_dst(ba), a);
        assert_eq!(net.link_config(ab).rate, Bandwidth::from_mbps(1));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut net: Net<RawFrame> = Net::new();
        let a = net.add_node("a");
        net.add_link(
            a,
            a,
            LinkConfig::new(Bandwidth::from_mbps(1), SimDuration::ZERO),
        );
    }

    #[test]
    #[should_panic(expected = "nothing in flight")]
    fn double_delivery_panics() {
        let mut net: Net<RawFrame> = Net::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        let l = net.add_link(
            a,
            b,
            LinkConfig::new(Bandwidth::from_mbps(1), SimDuration::ZERO),
        );
        let _ = net.take_delivered(l);
    }

    #[test]
    fn set_link_rate_affects_next_transmission() {
        // First frame at 8 Mbit/s (1 ms), then slow the link to 4 Mbit/s
        // (2 ms) before the second frame is sent.
        struct W2 {
            net: Net<RawFrame>,
            delivered: Vec<(SimTime, u64)>,
        }
        enum Ev2 {
            Net(NetEvent),
            Send(u64),
            Slow,
        }
        impl From<NetEvent> for Ev2 {
            fn from(e: NetEvent) -> Self {
                Ev2::Net(e)
            }
        }
        impl World for W2 {
            type Event = Ev2;
            fn handle(&mut self, ctx: &mut Context<'_, Ev2>, ev: Ev2) {
                match ev {
                    Ev2::Net(NetEvent::TxComplete { link }) => self.net.on_tx_complete(ctx, link),
                    Ev2::Net(NetEvent::Deliver { link }) => {
                        let f = self.net.take_delivered(link);
                        self.delivered.push((ctx.now(), f.tag));
                    }
                    Ev2::Send(tag) => {
                        self.net.send(ctx, LinkId(0), frame(1000, tag));
                    }
                    Ev2::Slow => self.net.set_link_rate(LinkId(0), Bandwidth::from_mbps(4)),
                }
            }
        }
        let mut net = Net::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.add_link(
            a,
            b,
            LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::ZERO),
        );
        let mut sim = Simulator::new(W2 {
            net,
            delivered: vec![],
        });
        sim.schedule_at(SimTime::ZERO, Ev2::Send(1));
        sim.schedule_at(SimTime::from_millis(5), Ev2::Slow);
        sim.schedule_at(SimTime::from_millis(10), Ev2::Send(2));
        sim.run();
        assert_eq!(
            sim.world().delivered,
            vec![(SimTime::from_millis(1), 1), (SimTime::from_millis(12), 2)]
        );
        // The same size at both rates: a serialization time memoised
        // before the change must not outlive it.
        assert_eq!(
            sim.world().net.stats(LinkId(0)).busy_time,
            SimDuration::from_millis(1 + 2)
        );
    }

    #[test]
    fn zero_delay_zero_size_delivers_same_instant() {
        let cfg = LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::ZERO);
        let (delivered, _, _) = run_world(cfg, vec![(SimTime::ZERO, frame(0, 9))]);
        assert_eq!(delivered, vec![(SimTime::ZERO, 9)]);
    }
}
