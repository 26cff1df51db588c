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
//!
//! **Silent departures.** A `TxComplete` exists for two reasons: the
//! sender acts at the departure instant, or something is waiting for the
//! transmitter. A frame whose [`Frame::awaits_departure`] is `false`
//! claims neither, so it gets no event of its own: when it starts
//! serializing it goes straight into the in-flight FIFO with its one
//! `Deliver` scheduled at `t + b·8/r + d`, and the link records that it
//! is busy until `t + b·8/r`. Delivery times, FIFO order and every
//! [`LinkStats`] counter are those of the eager model; only the order of
//! events *at one instant* can differ (the `Deliver` is sequenced when
//! serialization starts, not when it ends).
//!
//! **Wake-ups.** The moment work is queued behind a silently busy link —
//! in the egress queue here ([`Net::send`]), or in a scheduler the
//! caller keeps ([`Net::wake_when_idle`]) — one `TxComplete` is
//! scheduled for the instant the link falls idle, and
//! [`Net::on_tx_complete`] finds the transmitter slot empty and starts
//! the next frame. The invariant: *queued work behind a busy link ⇒ a
//! completion is pending* ([`Net::completion_pending`]).

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
    /// The egress queue was full; the frame was dropped (and counted in
    /// the link's `frames_dropped`), not handed back to the caller.
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
/// enum Ev { Net(NetEvent), Send(u64) }
/// impl From<NetEvent> for Ev {
///     fn from(e: NetEvent) -> Ev { Ev::Net(e) }
/// }
///
/// struct W { net: Net<RawFrame>, link: LinkId, got: Vec<(SimTime, u64)> }
/// impl World for W {
///     type Event = Ev;
///     fn handle(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
///         match ev {
///             Ev::Send(tag) => {
///                 self.net.send(ctx, self.link, RawFrame { bytes: 1000, tag });
///             }
///             Ev::Net(NetEvent::TxComplete { link }) => self.net.on_tx_complete(ctx, link),
///             Ev::Net(NetEvent::Deliver { link }) => {
///                 let frame = self.net.take_delivered(link);
///                 self.got.push((ctx.now(), frame.tag));
///             }
///         }
///     }
/// }
///
/// let mut net = Net::new();
/// let a = net.add_node("a");
/// let b = net.add_node("b");
/// let link = net.add_link(a, b, LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::from_millis(5)));
///
/// // Two 1000-byte frames offered at t = 0. At 8 Mbit/s each takes 1 ms to
/// // serialize, so the second waits for the first; both then propagate 5 ms.
/// let mut sim = Simulator::new(W { net, link, got: vec![] });
/// sim.schedule_at(SimTime::ZERO, Ev::Send(1));
/// sim.schedule_at(SimTime::ZERO, Ev::Send(2));
/// sim.run();
/// assert_eq!(
///     sim.world().got,
///     [(SimTime::from_millis(6), 1), (SimTime::from_millis(7), 2)]
/// );
/// ```
pub struct Net<F: Frame> {
    links: Vec<LinkState<F>>,
    link_ends: Vec<(NodeId, NodeId)>,
    /// Every node's diagnostic name, back to back: one buffer for all
    /// nodes rather than one allocation each.
    names: String,
    /// `names[name_ends[i - 1]..name_ends[i]]` is node `i`'s name.
    name_ends: Vec<u32>,
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
            names: String::new(),
            name_ends: Vec::new(),
        }
    }

    /// Adds a node; `name` is used in diagnostics only.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        let id = NodeId(u32::try_from(self.name_ends.len()).expect("too many nodes"));
        self.names.push_str(name);
        self.name_ends
            .push(u32::try_from(self.names.len()).expect("node names exceed 4 GiB"));
        id
    }

    /// Adds a directed link `from → to`. Ids are dense and handed out in
    /// call order.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, cfg: LinkConfig) -> LinkId {
        assert!(from.index() < self.node_count(), "unknown source node");
        assert!(to.index() < self.node_count(), "unknown destination node");
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
        self.name_ends.len()
    }

    /// Number of (simplex) links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Diagnostic name of a node.
    pub fn node_name(&self, node: NodeId) -> &str {
        let i = node.index();
        let start = i.checked_sub(1).map_or(0, |prev| self.name_ends[prev]);
        &self.names[start as usize..self.name_ends[i] as usize]
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

    /// Whether a frame offered to `link` at `now` would have to wait.
    pub fn is_busy(&self, link: LinkId, now: SimTime) -> bool {
        self.links[link.index()].is_busy(now)
    }

    /// Whether a [`NetEvent::TxComplete`] is scheduled for `link`. Work
    /// queued behind a busy link relies on one (see the module docs);
    /// callers that queue outside `Net` assert it after
    /// [`Net::wake_when_idle`].
    pub fn completion_pending(&self, link: LinkId) -> bool {
        self.links[link.index()].completion_pending()
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
        if !state.is_busy(now) {
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
        Self::ensure_completion(state, link, ctx);
        debug_assert!(
            state.queue.is_empty() || state.completion_pending(),
            "queued frames with no completion pending"
        );
        SendOutcome::Accepted
    }

    /// Asks for a [`NetEvent::TxComplete`] at the instant `link` falls
    /// idle, unless one is already scheduled. For callers that keep their
    /// own queue in front of the link: a frame that departs silently
    /// raises no event, so whoever holds work back while
    /// [`Net::is_busy`] must call this to be handed the transmitter.
    pub fn wake_when_idle<E: From<NetEvent>>(&mut self, ctx: &mut Context<'_, E>, link: LinkId) {
        Self::ensure_completion(&mut self.links[link.index()], link, ctx);
    }

    /// Changes a link's rate at runtime (used by mid-flow bandwidth-change
    /// experiments). Takes effect from the next frame that starts
    /// serializing; the frame currently on the wire is unaffected.
    pub fn set_link_rate(&mut self, link: LinkId, rate: Bandwidth) {
        self.links[link.index()].set_rate(rate);
    }

    /// The frame in the transmitter slot of `link`: one whose sender
    /// [awaits its departure](Frame::awaits_departure), from the start of
    /// its serialization until [`Net::on_tx_complete`]. On a
    /// [`NetEvent::TxComplete`] this is the frame that just finished —
    /// overlays act on it at the exact moment of transmission (emit
    /// forwarding feedback, detach bookkeeping that must not travel past
    /// this hop) before calling [`Net::on_tx_complete`]. `None` on a
    /// wake-up.
    pub fn transmitting_mut(&mut self, link: LinkId) -> Option<&mut F> {
        self.links[link.index()].transmitting.as_mut()
    }

    /// The frame most recently put on the wire of `link` that has not
    /// been delivered yet, whether it is still serializing (silently or
    /// not) or already propagating. For tests that inspect or tamper
    /// with traffic in flight.
    pub fn last_on_wire_mut(&mut self, link: LinkId) -> Option<&mut F> {
        let state = &mut self.links[link.index()];
        state.transmitting.as_mut().or(state.in_flight.back_mut())
    }

    /// Handles [`NetEvent::TxComplete`]: moves the serialized frame, if
    /// one was waiting for this instant, into the propagation stage and
    /// starts the next queued frame, if any.
    ///
    /// # Panics
    ///
    /// Panics if no completion was pending on `link` — a double-handled
    /// event, which is always a bug.
    pub fn on_tx_complete<E: From<NetEvent>>(&mut self, ctx: &mut Context<'_, E>, link: LinkId) {
        let now = ctx.now();
        let state = &mut self.links[link.index()];
        debug_assert!(now >= state.busy_until, "completion ahead of its instant");
        if let Some(frame) = state.transmitting.take() {
            state.in_flight.push_back(frame);
            ctx.schedule_in(state.cfg.delay, NetEvent::Deliver { link }.into());
        } else {
            assert!(
                std::mem::take(&mut state.wake_pending),
                "TxComplete on a link that expects none"
            );
        }
        if let Some(next) = state.queue.pop_front() {
            state.queue_bytes -= u64::from(next.frame.wire_size());
            let wait = now.saturating_duration_since(next.enqueued_at);
            state.stats.queue_wait_total += wait;
            state.stats.queue_wait_max = state.stats.queue_wait_max.max(wait);
            Self::begin_tx(state, link, next.frame, now, ctx);
            if !state.queue.is_empty() {
                Self::ensure_completion(state, link, ctx);
            }
        }
        debug_assert!(
            state.queue.is_empty() || state.completion_pending(),
            "queued frames with no completion pending"
        );
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

    /// Starts serializing `frame` on an idle transmitter.
    fn begin_tx<E: From<NetEvent>>(
        state: &mut LinkState<F>,
        link: LinkId,
        frame: F,
        now: SimTime,
        ctx: &mut Context<'_, E>,
    ) {
        debug_assert!(!state.is_busy(now), "transmitter claimed twice");
        let size = frame.wire_size();
        let tx_time = state.tx_time(size);
        state.stats.busy_time += tx_time;
        state.stats.frames_sent += 1;
        state.stats.bytes_sent += u64::from(size);
        state.busy_until = now + tx_time;
        if frame.awaits_departure() {
            state.transmitting = Some(frame);
            ctx.schedule_in(tx_time, NetEvent::TxComplete { link }.into());
        } else {
            state.in_flight.push_back(frame);
            ctx.schedule_in(tx_time + state.cfg.delay, NetEvent::Deliver { link }.into());
        }
    }

    /// Upholds the wake-up invariant for work just queued behind `state`:
    /// if no completion is pending, schedules one as a wake-up.
    fn ensure_completion<E: From<NetEvent>>(
        state: &mut LinkState<F>,
        link: LinkId,
        ctx: &mut Context<'_, E>,
    ) {
        if !state.completion_pending() {
            state.wake_pending = true;
            ctx.schedule_at(
                state.busy_until.max(ctx.now()),
                NetEvent::TxComplete { link }.into(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::Bandwidth;
    use crate::frame::RawFrame;
    use crate::link::QueueLimit;
    use simcore::prelude::*;

    /// A frame that says per frame whether its sender awaits the departure.
    #[derive(Clone, Copy, Debug)]
    struct TestFrame {
        bytes: u32,
        tag: u64,
        awaits_departure: bool,
    }

    impl Frame for TestFrame {
        fn wire_size(&self) -> u32 {
            self.bytes
        }
        fn awaits_departure(&self) -> bool {
            self.awaits_departure
        }
    }

    /// Test world: one Net plus a delivery log and an outbox of
    /// (time, link, frame) sends injected via timer events.
    struct W {
        net: Net<TestFrame>,
        delivered: Vec<(SimTime, u64)>,
        sends: Vec<(SimTime, LinkId, TestFrame)>,
        outcomes: Vec<SendOutcome>,
        /// `TxComplete`s that found the transmitter slot empty.
        wakes: u64,
    }

    enum Ev {
        Net(NetEvent),
        DoSend(usize),
        SetRate(Bandwidth),
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
                Ev::Net(NetEvent::TxComplete { link }) => {
                    self.wakes += u64::from(self.net.transmitting_mut(link).is_none());
                    self.net.on_tx_complete(ctx, link);
                }
                Ev::Net(NetEvent::Deliver { link }) => {
                    let f = self.net.take_delivered(link);
                    self.delivered.push((ctx.now(), f.tag));
                }
                Ev::DoSend(i) => {
                    let (_, link, frame) = self.sends[i];
                    let outcome = self.net.send(ctx, link, frame);
                    self.outcomes.push(outcome);
                }
                Ev::SetRate(rate) => self.net.set_link_rate(LinkId(0), rate),
            }
        }
    }

    /// Everything a finished single-link world can be asked.
    struct Run {
        delivered: Vec<(SimTime, u64)>,
        outcomes: Vec<SendOutcome>,
        net: Net<TestFrame>,
        events: u64,
        wakes: u64,
        /// Accepted frames that did not await their departure.
        silent_sent: u64,
    }

    /// Builds a world with a single a→b link, a list of scheduled sends
    /// and an optional mid-run rate change, and runs it dry.
    fn run_world_with(
        cfg: LinkConfig,
        sends: Vec<(SimTime, TestFrame)>,
        rate_change: Option<(SimTime, Bandwidth)>,
    ) -> Run {
        let mut net = Net::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        let link = net.add_link(a, b, cfg);
        let sends: Vec<(SimTime, LinkId, TestFrame)> =
            sends.into_iter().map(|(t, f)| (t, link, f)).collect();
        let mut sim = Simulator::new(W {
            net,
            delivered: vec![],
            sends: sends.clone(),
            outcomes: vec![],
            wakes: 0,
        });
        for (i, &(t, _, _)) in sends.iter().enumerate() {
            sim.schedule_at(t, Ev::DoSend(i));
        }
        if let Some((at, rate)) = rate_change {
            sim.schedule_at(at, Ev::SetRate(rate));
        }
        sim.run();
        let events = sim.events_processed();
        let w = sim.into_world();
        let silent_sent = sends
            .iter()
            .zip(&w.outcomes)
            .filter(|&(&(_, _, frame), &outcome)| {
                outcome == SendOutcome::Accepted && !frame.awaits_departure
            })
            .count() as u64;
        Run {
            delivered: w.delivered,
            outcomes: w.outcomes,
            net: w.net,
            events,
            wakes: w.wakes,
            silent_sent,
        }
    }

    fn run_world(
        cfg: LinkConfig,
        sends: Vec<(SimTime, TestFrame)>,
    ) -> (Vec<(SimTime, u64)>, Vec<SendOutcome>, Net<TestFrame>) {
        let run = run_world_with(cfg, sends, None);
        (run.delivered, run.outcomes, run.net)
    }

    /// A frame whose sender awaits its departure, like [`RawFrame`].
    fn frame(bytes: u32, tag: u64) -> TestFrame {
        TestFrame {
            bytes,
            tag,
            awaits_departure: true,
        }
    }

    /// A frame nobody waits on.
    fn silent(bytes: u32, tag: u64) -> TestFrame {
        TestFrame {
            awaits_departure: false,
            ..frame(bytes, tag)
        }
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
        let unnamed = net.add_node("");
        let c = net.add_node("gamma");
        assert_eq!(net.node_name(a), "alpha");
        assert_eq!(net.node_name(b), "beta");
        assert_eq!(net.node_name(unnamed), "");
        assert_eq!(net.node_name(c), "gamma");
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
        let run = run_world_with(
            LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::ZERO),
            vec![
                (SimTime::ZERO, frame(1000, 1)),
                (SimTime::from_millis(10), frame(1000, 2)),
            ],
            Some((SimTime::from_millis(5), Bandwidth::from_mbps(4))),
        );
        assert_eq!(
            run.delivered,
            vec![(SimTime::from_millis(1), 1), (SimTime::from_millis(12), 2)]
        );
        // The same size at both rates: a serialization time memoised
        // before the change must not outlive it.
        assert_eq!(
            run.net.stats(LinkId(0)).busy_time,
            SimDuration::from_millis(1 + 2)
        );
    }

    #[test]
    fn zero_delay_zero_size_delivers_same_instant() {
        let cfg = LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::ZERO);
        let (delivered, _, _) = run_world(cfg, vec![(SimTime::ZERO, frame(0, 9))]);
        assert_eq!(delivered, vec![(SimTime::ZERO, 9)]);
    }

    #[test]
    fn a_silent_frame_costs_one_event_and_arrives_on_time() {
        // 1000 B at 8 Mbit/s = 1 ms serialization, +2 ms propagation.
        let cfg = LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::from_millis(2));
        let eager = run_world_with(cfg, vec![(SimTime::ZERO, frame(1000, 1))], None);
        let lazy = run_world_with(cfg, vec![(SimTime::ZERO, silent(1000, 1))], None);
        assert_eq!(lazy.delivered, vec![(SimTime::from_millis(3), 1)]);
        assert_eq!(lazy.delivered, eager.delivered);
        assert_eq!(lazy.net.stats(LinkId(0)), eager.net.stats(LinkId(0)));
        // DoSend + TxComplete + Deliver against DoSend + Deliver.
        assert_eq!((eager.events, lazy.events), (3, 2));
        assert_eq!(lazy.wakes, 0);
    }

    /// Regression: a wake-up pops a *silent* frame from a queue that still
    /// holds another. The popped frame raises no completion of its own, so
    /// the wake-up has to be re-armed for its `busy_until` — or the third
    /// frame waits forever.
    #[test]
    fn a_wake_that_starts_a_silent_frame_rearms_for_the_queue_behind_it() {
        let cfg = LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::ZERO);
        let sends = (1..=3).map(|tag| (SimTime::ZERO, silent(1000, tag)));
        let run = run_world_with(cfg, sends.collect(), None);
        assert_eq!(
            run.delivered,
            (1..=3)
                .map(|tag| (SimTime::from_millis(tag), tag))
                .collect::<Vec<_>>()
        );
        // One wake-up per frame that found the link busy.
        assert_eq!(run.wakes, 2);
        let stats = run.net.stats(LinkId(0));
        assert_eq!(stats.queue_wait_max, SimDuration::from_millis(2));
        assert_eq!(stats.queue_hwm_frames, 2);
    }

    /// Regression: `busy_until` is the first idle instant, not the last
    /// busy one. A frame offered exactly then, with nothing queued and so
    /// no wake-up pending, starts at once — it must not wait for a
    /// completion that will never come.
    #[test]
    fn a_frame_offered_at_busy_until_with_no_wake_pending_starts_immediately() {
        let cfg = LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::ZERO);
        let run = run_world_with(
            cfg,
            vec![
                (SimTime::ZERO, silent(1000, 1)),
                (SimTime::from_millis(1), silent(1000, 2)),
            ],
            None,
        );
        assert_eq!(
            run.delivered,
            vec![(SimTime::from_millis(1), 1), (SimTime::from_millis(2), 2)]
        );
        assert_eq!(run.net.stats(LinkId(0)).queue_hwm_frames, 0, "never queued");
        assert_eq!((run.events, run.wakes), (4, 0));
    }

    /// The same instant with a wake-up pending: the queued frame the
    /// wake-up was armed for has first claim on the transmitter.
    #[test]
    fn a_frame_offered_at_busy_until_queues_behind_a_pending_wake() {
        let cfg = LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::ZERO);
        let run = run_world_with(
            cfg,
            vec![
                (SimTime::ZERO, silent(1000, 1)),
                (SimTime::from_micros(500), silent(1000, 2)),
                (SimTime::from_millis(1), silent(1000, 3)),
            ],
            None,
        );
        assert_eq!(
            run.delivered,
            (1..=3)
                .map(|tag| (SimTime::from_millis(tag), tag))
                .collect::<Vec<_>>()
        );
    }

    /// The frame most recently put on the wire, whichever way it departs.
    #[test]
    fn last_on_wire_sees_silent_and_awaited_frames_alike() {
        struct Once(Net<TestFrame>);
        impl World for Once {
            type Event = NetEvent;
            fn handle(&mut self, ctx: &mut Context<'_, NetEvent>, _: NetEvent) {
                let [awaited, quiet] = [LinkId(0), LinkId(1)];
                assert!(self.0.last_on_wire_mut(awaited).is_none());
                self.0.send(ctx, awaited, frame(100, 1));
                self.0.send(ctx, awaited, frame(100, 2)); // queued, not on the wire
                self.0.send(ctx, quiet, silent(100, 3));
                assert_eq!(self.0.last_on_wire_mut(awaited).map(|f| f.tag), Some(1));
                assert_eq!(self.0.last_on_wire_mut(quiet).map(|f| f.tag), Some(3));
                assert!(self.0.transmitting_mut(quiet).is_none());
                ctx.stop();
            }
        }
        let mut net = Net::new();
        let (a, b) = (net.add_node("a"), net.add_node("b"));
        net.add_duplex(
            a,
            b,
            LinkConfig::new(Bandwidth::from_mbps(1), SimDuration::ZERO),
        );
        let mut sim = Simulator::new(Once(net));
        sim.schedule_at(SimTime::ZERO, NetEvent::Deliver { link: LinkId(0) });
        sim.run();
    }

    /// Differential: whether frames await their departure changes how many
    /// events a run costs and nothing else. Random bursty schedules ×
    /// every queue policy × a mid-run rate change; all-awaited (the eager
    /// model, event for event what `Net` did before silent departures) is
    /// the reference for the all-silent and the mixed run.
    ///
    /// Schedules avoid same-instant ties between a send and a completion,
    /// which may resolve differently (module docs): every serialization
    /// time is a whole number of microseconds at every rate used, and send
    /// `i` happens `i + 1` ns past one, so a link falls idle at the
    /// sub-microsecond offset of the send that last found it idle — never
    /// that of another send, or of the rate change (offset 0).
    #[test]
    fn awaited_silent_and_mixed_runs_differ_only_in_event_count() {
        let mut rng = simcore::rng::SimRng::seed_from(0x51E7);
        let limits = [
            QueueLimit::Unbounded,
            QueueLimit::Frames(0),
            QueueLimit::Frames(2),
            QueueLimit::Bytes(600),
            QueueLimit::Bytes(2000),
        ];
        let rates = [2, 4, 8, 16].map(Bandwidth::from_mbps);
        let (mut elided_total, mut wakes_total, mut drops_total) = (0, 0, 0);
        for round in 0..40 {
            let cfg = LinkConfig {
                rate: rates[rng.range_usize(0, rates.len())],
                delay: SimDuration::from_micros(rng.range_u64(0, 3000)),
                queue: limits[round % limits.len()],
            };
            let mut at_us = 0;
            let sends: Vec<(SimTime, TestFrame)> = (0..rng.range_u64(10, 60))
                .map(|i| {
                    // Mostly bursts inside a serialization time, sometimes
                    // a gap long enough to drain the link.
                    at_us += match rng.range_u64(0, 10) {
                        0..=6 => rng.range_u64(0, 200),
                        _ => rng.range_u64(500, 5000),
                    };
                    let bytes = [20, 100, 512, 1000][rng.range_usize(0, 4)];
                    (SimTime::from_nanos(at_us * 1000 + i + 1), frame(bytes, i))
                })
                .collect();
            let rate_change = (
                SimTime::from_micros(at_us / 2),
                rates[rng.range_usize(0, rates.len())],
            );
            let with_departures = |awaits: &mut dyn FnMut() -> bool| {
                let sends = sends.iter().map(|&(at, f)| {
                    let awaits_departure = awaits();
                    (
                        at,
                        TestFrame {
                            awaits_departure,
                            ..f
                        },
                    )
                });
                run_world_with(cfg, sends.collect(), Some(rate_change))
            };
            let eager = with_departures(&mut || true);
            assert_eq!(eager.wakes, 0, "round {round}");
            let stats = *eager.net.stats(LinkId(0));
            assert_eq!(
                eager.events,
                sends.len() as u64 + 1 + 2 * stats.frames_sent,
                "round {round}: a TxComplete and a Deliver per frame sent"
            );
            drops_total += stats.frames_dropped;
            for (mode, lazy) in [
                ("silent", with_departures(&mut || false)),
                ("mixed", with_departures(&mut || rng.range_u64(0, 2) == 0)),
            ] {
                let row = format!("round {round} ({:?}), {mode}", cfg.queue);
                assert_eq!(lazy.delivered, eager.delivered, "{row}");
                assert_eq!(lazy.outcomes, eager.outcomes, "{row}");
                assert_eq!(*lazy.net.stats(LinkId(0)), stats, "{row}");
                assert_eq!(lazy.net.queue_len(LinkId(0)), 0, "{row}");
                // Every silent frame saves its TxComplete unless it had
                // to be woken for a successor.
                assert!(lazy.wakes <= lazy.silent_sent, "{row}");
                let elided = lazy.silent_sent - lazy.wakes;
                assert_eq!(eager.events - lazy.events, elided, "{row}");
                elided_total += elided;
                wakes_total += lazy.wakes;
            }
        }
        assert!(
            elided_total > 100 && wakes_total > 100 && drops_total > 100,
            "schedules too tame: {elided_total} elided, {wakes_total} wakes, {drops_total} drops"
        );
    }
}
