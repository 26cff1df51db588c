//! The network: nodes, directed links, and the transmission state machine.
//!
//! [`Net`] is *not* a [`simcore::sim::World`] by itself — it is a component
//! the world embeds. The world forwards the two network events to
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
//! If the link is busy, the frame waits in the link's egress FIFO. The
//! FIFO is unbounded: the hop-by-hop windows above bound every queue, so
//! [`Net::send`] always accepts. This is ns-3's point-to-point model with
//! an unlimited queue.
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
//!
//! # One frame store
//!
//! A frame is stored once: [`Net::store`] puts it into the `Net`'s one
//! store, under a 4-byte [`FrameHandle`], and [`Net::take_delivered`]
//! takes it out. In between, the frame keeps its slot: the link's
//! transmitter slot holds its handle, and its egress queue and in-flight
//! FIFO are lists threaded through the store's slots (a [`Lists`]), so
//! a link holds only their ends. The egress queue's arrival stamp rides
//! in the frame's slot. [`Net::transmitting_mut`] /
//! [`Net::last_on_wire_mut`] look the frame up by its handle.
//! [`Net::send`] is [`Net::send_stored`] of a frame just stored; a
//! caller that queues frames in front of a link itself (an overlay's
//! circuit scheduler) stores each one when it queues it, keeps the
//! handle, and later sends it by handle or
//! [takes it back](Net::take_stored). A freed slot is the next one
//! filled, so the store reserves one bounded step past the most frames
//! ever held at once ([`Net::frame_store`]), not the sum of every
//! link's or queue's own peak.

use simcore::sim::Context;
use simcore::slab::{Lists, SlabUse};
use simcore::time::SimTime;

use crate::bandwidth::Bandwidth;
use crate::frame::Frame;
use crate::link::{LinkConfig, LinkId, LinkState, LinkStats};

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

/// A frame in a [`Net`]'s store, from [`Net::store`] until it is
/// delivered or [taken back](Net::take_stored): a 4-byte slot index that
/// only the `Net` mints.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrameHandle(u32);

/// A frame in the store, and when it last joined a link's egress queue
/// (read when it leaves the queue, meaningless elsewhere).
#[derive(Clone)]
struct Stored<F> {
    frame: F,
    queued_at: SimTime,
}

/// A directed graph of nodes and rate/delay links carrying frames of type
/// `F`.
///
/// # Examples
///
/// ```
/// use netsim::bandwidth::Bandwidth;
/// use netsim::frame::RawFrame;
/// use netsim::link::{LinkConfig, LinkId};
/// use netsim::net::{Net, NetEvent};
/// use simcore::sim::{Context, Simulator, World};
/// use simcore::time::{SimDuration, SimTime};
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
#[derive(Clone)]
pub struct Net<F: Frame> {
    links: Vec<LinkState>,
    /// Every frame held, from `store` until it is delivered or taken
    /// back, under its handle's slot; the links' egress queues and
    /// in-flight FIFOs are lists through these slots.
    store: Lists<Stored<F>>,
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
            store: Lists::default(),
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

    /// How the frame store is used: frames held now, the most ever held
    /// at once, and slots reserved.
    pub fn frame_store(&self) -> SlabUse {
        self.store.usage()
    }

    /// Bytes the frame store reserves: its slots, its free list and the
    /// list links that are every link's egress queue and in-flight FIFO.
    pub fn frame_store_bytes(&self) -> usize {
        self.store.reserved_bytes()
    }

    /// Hands a frame to a link for transmission at the current time:
    /// [`Net::send_stored`] of the frame, [stored](Net::store) first.
    #[inline]
    pub fn send<E: From<NetEvent>>(&mut self, ctx: &mut Context<'_, E>, link: LinkId, frame: F) {
        let handle = self.store(frame);
        self.send_stored(ctx, link, handle);
    }

    /// Puts a frame into the store without handing it to a link, for a
    /// caller that queues frames in front of a link itself: it keeps the
    /// handle, and later [sends](Net::send_stored) the frame or
    /// [takes it back](Net::take_stored).
    #[inline]
    pub fn store(&mut self, frame: F) -> FrameHandle {
        FrameHandle(self.store.insert(Stored {
            frame,
            queued_at: SimTime::ZERO,
        }))
    }

    /// Hands the stored frame `handle` to a link for transmission at the
    /// current time. The handle passes to the link, which gives the frame
    /// back through [`Net::take_delivered`].
    ///
    /// If the transmitter is idle the frame starts serializing immediately;
    /// otherwise it joins the egress queue.
    pub fn send_stored<E: From<NetEvent>>(
        &mut self,
        ctx: &mut Context<'_, E>,
        link: LinkId,
        handle: FrameHandle,
    ) {
        let now = ctx.now();
        let state = &mut self.links[link.index()];
        if !state.is_busy(now) {
            debug_assert!(
                state.queue.is_empty(),
                "idle transmitter with non-empty queue"
            );
            Self::begin_tx(&mut self.store, state, link, handle, now, ctx);
            return;
        }
        self.store.get_mut(handle.0).queued_at = now;
        self.store.link_back(&mut state.queue, handle.0);
        state.queued += 1;
        state.stats.queue_hwm_frames = state.stats.queue_hwm_frames.max(state.queue_len());
        Self::ensure_completion(state, link, ctx);
        debug_assert!(
            state.queue.is_empty() || state.completion_pending(),
            "queued frames with no completion pending"
        );
    }

    /// Takes a stored frame that was never sent back out of the store (a
    /// scheduled frame discarded before it reached a link). A handle
    /// passed to [`Net::send_stored`] belongs to the link from then on.
    #[inline]
    pub fn take_stored(&mut self, handle: FrameHandle) -> F {
        self.store.remove(handle.0).frame
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
        let handle = self.links[link.index()].transmitting?;
        Some(&mut self.store.get_mut(handle.0).frame)
    }

    /// The frame most recently put on the wire of `link` that has not
    /// been delivered yet, whether it is still serializing (silently or
    /// not) or already propagating. For tests that inspect or tamper
    /// with traffic in flight.
    pub fn last_on_wire_mut(&mut self, link: LinkId) -> Option<&mut F> {
        let state = &self.links[link.index()];
        let slot = state.transmitting.map(|h| h.0).or(state.in_flight.back())?;
        Some(&mut self.store.get_mut(slot).frame)
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
        if let Some(handle) = state.transmitting.take() {
            self.store.link_back(&mut state.in_flight, handle.0);
            ctx.schedule_in(state.cfg.delay, NetEvent::Deliver { link }.into());
        } else {
            assert!(
                std::mem::take(&mut state.wake_pending),
                "TxComplete on a link that expects none"
            );
        }
        if let Some(slot) = self.store.unlink_front(&mut state.queue) {
            state.queued -= 1;
            let queued_at = self.store.get(slot).queued_at;
            state.stats.queue_wait_total += now.saturating_duration_since(queued_at);
            Self::begin_tx(&mut self.store, state, link, FrameHandle(slot), now, ctx);
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
    #[inline]
    pub fn take_delivered(&mut self, link: LinkId) -> F {
        let state = &mut self.links[link.index()];
        let slot = self
            .store
            .unlink_front(&mut state.in_flight)
            .expect("Deliver on a link with nothing in flight");
        self.store.remove(slot).frame
    }

    /// Starts serializing the stored frame `handle` on an idle
    /// transmitter.
    fn begin_tx<E: From<NetEvent>>(
        store: &mut Lists<Stored<F>>,
        state: &mut LinkState,
        link: LinkId,
        handle: FrameHandle,
        now: SimTime,
        ctx: &mut Context<'_, E>,
    ) {
        debug_assert!(!state.is_busy(now), "transmitter claimed twice");
        let frame = &store.get(handle.0).frame;
        let (size, awaits_departure) = (frame.wire_size(), frame.awaits_departure());
        let tx_time = state.tx_time(size);
        state.stats.busy_time += tx_time;
        state.stats.frames_sent += 1;
        state.stats.bytes_sent += u64::from(size);
        state.busy_until = now + tx_time;
        if awaits_departure {
            state.transmitting = Some(handle);
            ctx.schedule_in(tx_time, NetEvent::TxComplete { link }.into());
        } else {
            store.link_back(&mut state.in_flight, handle.0);
            ctx.schedule_in(tx_time + state.cfg.delay, NetEvent::Deliver { link }.into());
        }
    }

    /// Upholds the wake-up invariant for work just queued behind `state`:
    /// if no completion is pending, schedules one as a wake-up.
    fn ensure_completion<E: From<NetEvent>>(
        state: &mut LinkState,
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
    use simcore::sim::{Context, Simulator, World};
    use simcore::time::SimDuration;
    use std::collections::VecDeque;

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
        /// `TxComplete`s that found the transmitter slot empty.
        wakes: u64,
    }

    enum Ev {
        Net(NetEvent),
        DoSend(usize),
        SetRate(LinkId, Bandwidth),
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
                    self.net.send(ctx, link, frame);
                }
                Ev::SetRate(link, rate) => self.net.set_link_rate(link, rate),
            }
        }
    }

    /// Everything a finished single-link world can be asked.
    struct Run {
        delivered: Vec<(SimTime, u64)>,
        net: Net<TestFrame>,
        events: u64,
        wakes: u64,
        /// Frames that did not await their departure.
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
            wakes: 0,
        });
        for (i, &(t, _, _)) in sends.iter().enumerate() {
            sim.schedule_at(t, Ev::DoSend(i));
        }
        if let Some((at, rate)) = rate_change {
            sim.schedule_at(at, Ev::SetRate(link, rate));
        }
        sim.run();
        let events = sim.events_processed();
        let w = sim.into_world();
        let silent_sent = sends.iter().filter(|s| !s.2.awaits_departure).count() as u64;
        Run {
            delivered: w.delivered,
            net: w.net,
            events,
            wakes: w.wakes,
            silent_sent,
        }
    }

    fn run_world(
        cfg: LinkConfig,
        sends: Vec<(SimTime, TestFrame)>,
    ) -> (Vec<(SimTime, u64)>, Net<TestFrame>) {
        let run = run_world_with(cfg, sends, None);
        (run.delivered, run.net)
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
        let (delivered, net) = run_world(cfg, vec![(SimTime::ZERO, frame(1000, 1))]);
        assert_eq!(delivered, vec![(SimTime::from_millis(3), 1)]);
        let link = LinkId(0);
        assert_eq!(net.stats(link).frames_sent, 1);
        assert_eq!(net.stats(link).bytes_sent, 1000);
    }

    #[test]
    fn back_to_back_frames_serialize_sequentially() {
        // Two 1000 B frames sent at t=0: second finishes serializing at 2ms,
        // arrives at 2ms+delay.
        let cfg = LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::from_millis(5));
        let (delivered, _) = run_world(
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
        let (delivered, _) = run_world(cfg, sends);
        let tags: Vec<u64> = delivered.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn idle_gap_restarts_transmitter() {
        let cfg = LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::ZERO);
        let (delivered, _) = run_world(
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
    fn queue_wait_statistics() {
        let cfg = LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::ZERO);
        // Frame 2 waits exactly 1 ms (while frame 1 serializes).
        let (_, net) = run_world(
            cfg,
            vec![
                (SimTime::ZERO, frame(1000, 1)),
                (SimTime::ZERO, frame(1000, 2)),
            ],
        );
        let s = net.stats(LinkId(0));
        assert_eq!(s.queue_wait_total, SimDuration::from_millis(1));
        assert_eq!((s.frames_sent, s.queue_hwm_frames), (2, 1));
    }

    #[test]
    fn busy_time_counts_serialization_only() {
        let cfg = LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::ZERO);
        let (_, net) = run_world(
            cfg,
            vec![
                (SimTime::ZERO, frame(1000, 1)),
                (SimTime::from_millis(3), frame(1000, 2)),
            ],
        );
        assert_eq!(net.stats(LinkId(0)).busy_time, SimDuration::from_millis(2));
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
        let (delivered, _) = run_world(cfg, vec![(SimTime::ZERO, frame(0, 9))]);
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
        assert_eq!(stats.queue_wait_total, SimDuration::from_millis(1 + 2));
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

    /// A stored frame is sent by handle as `send` would have sent it at
    /// that instant, or taken back whole, freeing its slot for the next.
    #[test]
    fn a_stored_frame_goes_out_by_handle_or_comes_back_whole() {
        enum HeldEv {
            Net(NetEvent),
            SendStored,
        }
        impl From<NetEvent> for HeldEv {
            fn from(e: NetEvent) -> Self {
                HeldEv::Net(e)
            }
        }
        struct Held {
            net: Net<TestFrame>,
            held: Option<FrameHandle>,
            delivered: Vec<(SimTime, u64)>,
        }
        impl World for Held {
            type Event = HeldEv;
            fn handle(&mut self, ctx: &mut Context<'_, HeldEv>, ev: HeldEv) {
                match ev {
                    HeldEv::SendStored => {
                        let handle = self.held.take().expect("sent once");
                        self.net.send_stored(ctx, LinkId(0), handle);
                    }
                    HeldEv::Net(NetEvent::TxComplete { link }) => {
                        self.net.on_tx_complete(ctx, link)
                    }
                    HeldEv::Net(NetEvent::Deliver { link }) => {
                        let f = self.net.take_delivered(link);
                        self.delivered.push((ctx.now(), f.tag));
                    }
                }
            }
        }
        let mut net = Net::new();
        let (a, b) = (net.add_node("a"), net.add_node("b"));
        net.add_link(
            a,
            b,
            LinkConfig::new(Bandwidth::from_mbps(8), SimDuration::from_millis(2)),
        );
        let back = net.store(frame(1000, 7));
        assert_eq!(net.frame_store().held, 1);
        assert_eq!(net.take_stored(back).tag, 7);
        let held = net.store(frame(1000, 8));
        let store = net.frame_store();
        assert_eq!(
            (store.held, store.high_water),
            (1, 1),
            "the freed slot is reused"
        );
        let mut sim = Simulator::new(Held {
            net,
            held: Some(held),
            delivered: vec![],
        });
        sim.schedule_at(SimTime::from_millis(5), HeldEv::SendStored);
        sim.run();
        // Serialization starts when the frame is sent, not when it was
        // stored: 5 ms + 1 ms at 8 Mbit/s + 2 ms of delay.
        assert_eq!(sim.world().delivered, [(SimTime::from_millis(8), 8)]);
        assert_eq!(sim.world().net.frame_store().held, 0);
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
        assert!(sim.step());
    }

    /// Differential: whether frames await their departure changes how many
    /// events a run costs and nothing else. Random bursty schedules × a
    /// mid-run rate change; all-awaited (the eager
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
        let rates = [2, 4, 8, 16].map(Bandwidth::from_mbps);
        let (mut elided_total, mut wakes_total) = (0, 0);
        for round in 0..40 {
            let cfg = LinkConfig::new(
                rates[rng.range_usize(0, rates.len())],
                SimDuration::from_micros(rng.range_u64(0, 3000)),
            );
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
            for (mode, lazy) in [
                ("silent", with_departures(&mut || false)),
                ("mixed", with_departures(&mut || rng.range_u64(0, 2) == 0)),
            ] {
                let row = format!("round {round}, {mode}");
                assert_eq!(lazy.delivered, eager.delivered, "{row}");
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
            elided_total > 100 && wakes_total > 100,
            "schedules too tame: {elided_total} elided, {wakes_total} wakes"
        );
    }

    /// What a link does with its sends in a model that keeps the frames
    /// in the link: when each send is delivered. A frame serializes at
    /// the rate in force when it starts.
    /// Assumes no send or rate change coincides with the end of a
    /// serialization (see the differential test above).
    fn reference_link(
        cfg: LinkConfig,
        sends: &[(SimTime, u32)],
        rate_change: Option<(SimTime, Bandwidth)>,
    ) -> Vec<SimTime> {
        let tx_time = |bytes: u32, at: SimTime| match rate_change {
            Some((change, rate)) if at > change => rate.transmission_time(bytes),
            _ => cfg.rate.transmission_time(bytes),
        };
        let mut out = vec![SimTime::ZERO; sends.len()];
        // Serializes send `i` from `at`; returns when the link falls idle.
        let mut serialize = |i: usize, bytes: u32, at: SimTime| {
            let idle = at + tx_time(bytes, at);
            out[i] = idle + cfg.delay;
            idle
        };
        let mut idle_at = SimTime::ZERO;
        let mut queue: VecDeque<(usize, u32)> = VecDeque::new();
        for (i, &(at, bytes)) in sends.iter().enumerate() {
            while idle_at < at {
                let Some((j, b)) = queue.pop_front() else {
                    break;
                };
                idle_at = serialize(j, b, idle_at);
            }
            if idle_at < at {
                idle_at = serialize(i, bytes, at);
            } else {
                queue.push_back((i, bytes));
            }
        }
        for (j, b) in queue {
            idle_at = serialize(j, b, idle_at);
        }
        out
    }

    /// Property: the frame store changes where a frame is kept, not what
    /// a link does with it. Random bursty sends over three links, awaited
    /// and silent frames mixed, and one link's rate changed mid-run,
    /// against [`reference_link`]: every frame is delivered exactly
    /// once, in its link's FIFO order, `8b/r + d`
    /// after it starts serializing; the store is empty at quiescence; and
    /// its high-water mark is the most frames queued, serializing and in
    /// flight at any instant. Ties are avoided as in
    /// `awaited_silent_and_mixed_runs_differ_only_in_event_count`.
    #[test]
    fn the_store_holds_each_frame_once_until_its_delivery() {
        let mut rng = simcore::rng::SimRng::seed_from(0x5708E);
        let rates = [2, 4, 8, 16].map(Bandwidth::from_mbps);
        let (mut silent_total, mut peak_total) = (0, 0);
        for round in 0..40 {
            let cfgs: Vec<LinkConfig> = (0..3)
                .map(|_| {
                    LinkConfig::new(
                        rates[rng.range_usize(0, rates.len())],
                        SimDuration::from_micros(rng.range_u64(0, 3000)),
                    )
                })
                .collect();
            let mut at_us = 0;
            let sends: Vec<(SimTime, LinkId, TestFrame)> = (0..rng.range_u64(30, 150))
                .map(|i| {
                    at_us += match rng.range_u64(0, 10) {
                        0..=6 => rng.range_u64(0, 100),
                        _ => rng.range_u64(500, 5000),
                    };
                    let link = LinkId(rng.range_u64(0, 3) as u32);
                    let frame = TestFrame {
                        bytes: [20, 100, 512, 1000][rng.range_usize(0, 4)],
                        tag: i,
                        awaits_departure: rng.range_u64(0, 2) == 0,
                    };
                    (SimTime::from_nanos(at_us * 1000 + i + 1), link, frame)
                })
                .collect();
            let changed = LinkId(rng.range_u64(0, 3) as u32);
            let change = (
                SimTime::from_micros(at_us / 2),
                rates[rng.range_usize(0, rates.len())],
            );

            let mut net = Net::new();
            let (a, b) = (net.add_node("a"), net.add_node("b"));
            for &cfg in &cfgs {
                net.add_link(a, b, cfg);
            }
            let mut sim = Simulator::new(W {
                net,
                delivered: vec![],
                sends: sends.clone(),
                wakes: 0,
            });
            for (i, &(t, _, _)) in sends.iter().enumerate() {
                sim.schedule_at(t, Ev::DoSend(i));
            }
            sim.schedule_at(change.0, Ev::SetRate(changed, change.1));
            sim.run();
            let w = sim.into_world();

            // Each send's delivery time in the reference, by send index.
            let mut expect = vec![SimTime::ZERO; sends.len()];
            for (k, &cfg) in cfgs.iter().enumerate() {
                let link = LinkId(k as u32);
                let on_link: Vec<usize> =
                    (0..sends.len()).filter(|&i| sends[i].1 == link).collect();
                let offered: Vec<(SimTime, u32)> = on_link
                    .iter()
                    .map(|&i| (sends[i].0, sends[i].2.bytes))
                    .collect();
                let rate_change = (changed == link).then_some(change);
                for (&i, at) in on_link
                    .iter()
                    .zip(reference_link(cfg, &offered, rate_change))
                {
                    expect[i] = at;
                }
                let delivered: Vec<(SimTime, u64)> = w
                    .delivered
                    .iter()
                    .copied()
                    .filter(|&(_, tag)| sends[tag as usize].1 == link)
                    .collect();
                let fifo: Vec<(SimTime, u64)> =
                    on_link.iter().map(|&i| (expect[i], i as u64)).collect();
                assert_eq!(delivered, fifo, "round {round}, link {k}");
            }
            assert_eq!(w.delivered.len(), sends.len(), "round {round}");

            // Sends and deliveries never coincide, so the most frames held
            // at once is reached just after some send.
            let peak = (0..sends.len())
                .map(|i| i + 1 - expect.iter().filter(|&&d| d < sends[i].0).count())
                .max()
                .unwrap_or(0);
            let store = w.net.frame_store();
            assert_eq!((store.held, store.high_water), (0, peak), "round {round}");
            silent_total += sends.iter().filter(|s| !s.2.awaits_departure).count();
            peak_total += peak;
        }
        assert!(
            silent_total > 1000 && peak_total > 200,
            "schedules too tame: {silent_total} silent, peaks sum to {peak_total}"
        );
    }
}
