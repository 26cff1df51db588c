//! Per-node overlay state.
//!
//! Each overlay node (client, relay, or server) keeps, per circuit it
//! participates in, a [`NodeCircuit`]: the per-direction hop transports
//! and queues, and its [`CircuitRole`] — the client's onion route and
//! streams, a relay's onion layer, or the server's layer and application.
//!
//! Participations live in a [`Slab`] under a node-local id handed out at
//! join time; the per-cell pipeline resolves straight to that id through
//! the network-level route table (`relaynet::network`). Only cold paths —
//! setup, teardown, timers, reaping and telemetry — look a participation
//! up by its global [`CircId`], and they scan the slab: a node holds a
//! handful of participations (at most 10 on the Figure 1c star, 7–8 on
//! `star50_churn`). A torn-down participation's slot is the next one
//! filled (`remove_circuit`), so churning workloads reuse slots instead
//! of growing the slab.

use backtap::hop::HopTransport;
use netsim::net::NodeId;
use simcore::slab::{List, Lists, Slab, SlabUse};
use simcore::time::{SimDuration, SimTime};
use torcell::cell::{Cell, CellBody, RelayCell, HANDSHAKE_LEN};
use torcell::crypto::{OnionRoute, RelayCrypt};
use torcell::ids::{CircuitId, StreamId};

use crate::ids::{CircId, Direction, OverlayId};
use crate::workload::{FlowId, StreamSpec};

/// What kind of overlay participant a node is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeRole {
    /// Originates circuits and data (the onion proxy).
    Client,
    /// Forwards cells between neighbours.
    Relay,
    /// Terminates circuits and consumes data.
    Server,
}

/// Feedback owed to the neighbour a cell arrived from, payable at the
/// moment the cell is forwarded (relays) or consumed (endpoints).
#[derive(Clone, Copy, Debug)]
pub struct PendingConfirm {
    /// Neighbour to notify.
    pub neighbor: OverlayId,
    /// Link-local circuit id on that neighbour's connection.
    pub circ_id: CircuitId,
    /// The neighbour's per-hop sequence number for the cell.
    pub seq: u64,
}

/// A cell waiting in a hop's egress queue, ready to send: a relay cell
/// is sealed by torcell where it is made, so nothing is left to do to
/// it but stamp the link's circuit id.
#[derive(Clone, Debug)]
pub struct QueuedCell {
    /// The cell (its `circ` field is restamped at send time).
    pub cell: Cell,
    /// Feedback owed upstream once this cell leaves the queue.
    pub confirm: Option<PendingConfirm>,
}

impl QueuedCell {
    /// A cell that owes no feedback upstream.
    pub fn new(cell: Cell) -> QueuedCell {
        QueuedCell {
            cell,
            confirm: None,
        }
    }

    /// A relay cell, owing `confirm` upstream once it leaves the queue.
    pub fn relay(rc: RelayCell, confirm: Option<PendingConfirm>) -> QueuedCell {
        QueuedCell {
            cell: Cell {
                circ: CircuitId::CONTROL,
                body: CellBody::Relay(rc),
            },
            confirm,
        }
    }
}

/// Every hop queue's cells in one world: each [`HopDir`]'s queue is a
/// list through this one slab, so queued-cell memory follows the most
/// cells queued at once in the world, not every hop's own peak.
pub type HopCells = Lists<QueuedCell>;

/// One direction of one circuit at one node: the transport toward the
/// neighbour plus the queue of cells waiting for the window.
#[derive(Clone)]
pub struct HopDir {
    /// The adjacent overlay node this hop sends to.
    pub neighbor: OverlayId,
    /// Link-local circuit id stamped on every cell sent on this hop.
    pub link_circ_id: CircuitId,
    /// Window/feedback machinery.
    pub transport: HopTransport,
    /// Cells awaiting window credit, in the world's [`HopCells`].
    queue: List,
    queue_len: u32,
    /// Largest queue length observed (bounded by the predecessor's window
    /// — the backpressure property the tests assert).
    pub queue_hwm: usize,
}

impl HopDir {
    /// Creates a hop direction.
    pub fn new(neighbor: OverlayId, link_circ_id: CircuitId, transport: HopTransport) -> HopDir {
        HopDir {
            neighbor,
            link_circ_id,
            transport,
            queue: List::EMPTY,
            queue_len: 0,
            queue_hwm: 0,
        }
    }

    /// Enqueues a cell and updates the high-water mark.
    #[inline]
    pub fn enqueue(&mut self, cells: &mut HopCells, qc: QueuedCell) {
        cells.push_back(&mut self.queue, qc);
        self.queue_len += 1;
        self.queue_hwm = self.queue_hwm.max(self.queue_len as usize);
    }

    /// Takes the cell at the head of the queue, freeing its slot.
    #[inline]
    pub fn dequeue(&mut self, cells: &mut HopCells) -> Option<QueuedCell> {
        let qc = cells.pop_front(&mut self.queue)?;
        self.queue_len -= 1;
        Some(qc)
    }

    /// `true` if no cell is queued.
    pub fn queue_is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// `true` once every sent cell is confirmed and nothing is queued —
    /// the per-direction half of the teardown quiescence condition.
    pub fn quiescent(&self) -> bool {
        self.queue.is_empty() && self.transport.outstanding() == 0
    }
}

/// Client-side state of one stream multiplexed over a circuit.
#[derive(Clone, Copy, Debug)]
pub struct StreamState {
    /// Stream id on the wire (1-based; 0 is the circuit-control stream).
    pub id: StreamId,
    /// The flow this stream carries.
    pub flow: FlowId,
    /// Payload bytes to transfer on this circuit incarnation.
    pub bytes: u64,
    /// DATA cells the transfer needs.
    pub total_cells: u64,
    /// DATA cells sent so far.
    pub sent_cells: u64,
    /// Arrival offset after circuit start.
    pub offset: SimDuration,
    /// The arrival offset has elapsed — the request exists.
    pub arrived: bool,
    /// BEGIN handed to the egress queue.
    pub begin_sent: bool,
    /// CONNECTED received — DATA may flow.
    pub open: bool,
    /// Trailing END handed to the egress queue.
    pub end_sent: bool,
}

impl StreamState {
    /// Creates client stream state from a resolved spec.
    pub fn new(index: usize, spec: &StreamSpec) -> StreamState {
        assert!(spec.bytes > 0, "cannot transfer an empty stream");
        let payload = torcell::cell::RELAY_DATA_MAX as u64;
        StreamState {
            id: StreamId(u16::try_from(index + 1).expect("too many streams")),
            flow: spec.flow,
            bytes: spec.bytes,
            total_cells: spec.bytes.div_ceil(payload),
            sent_cells: 0,
            offset: spec.offset,
            arrived: spec.offset.is_zero(),
            begin_sent: false,
            open: false,
            end_sent: false,
        }
    }

    /// Bytes the DATA cell with per-stream index `idx` carries.
    pub fn cell_len(&self, idx: u64) -> usize {
        let payload = torcell::cell::RELAY_DATA_MAX as u64;
        if idx + 1 < self.total_cells {
            payload as usize
        } else {
            (self.bytes - (self.total_cells - 1) * payload) as usize
        }
    }
}

/// Client application state for one circuit.
#[derive(Clone)]
pub struct ClientApp {
    /// Onion layers the circuit needs: one per relay, plus the server's.
    /// The path itself stays in the circuit's registry record.
    pub hops: usize,
    /// Onion layers negotiated so far.
    pub route: OnionRoute,
    /// Streams multiplexed over this circuit, in stream-id order.
    pub streams: Vec<StreamState>,
    /// Round-robin cursor for DATA generation across open streams.
    pub rr_cursor: usize,
    /// Circuit-aggregate DATA cells sent — the fill-pattern index (the
    /// server verifies against its aggregate arrival count; delivery is
    /// FIFO along the single path, so the counters agree).
    pub sent_cells: u64,
    /// When the first DATA cell was sent.
    pub first_data_at: Option<SimTime>,
}

impl ClientApp {
    /// Creates client state for the given resolved streams over a
    /// circuit of `hops` onion layers.
    ///
    /// # Panics
    ///
    /// Panics if there is no hop, no stream, or an empty stream.
    pub fn new(hops: usize, streams: &[StreamSpec]) -> ClientApp {
        assert!(hops >= 1, "a circuit needs at least client and server");
        assert!(!streams.is_empty(), "a circuit needs at least one stream");
        ClientApp {
            hops,
            route: OnionRoute::new(),
            streams: streams
                .iter()
                .enumerate()
                .map(|(i, s)| StreamState::new(i, s))
                .collect(),
            rr_cursor: 0,
            sent_cells: 0,
            first_data_at: None,
        }
    }

    /// The layer index of the server (the hop that recognizes DATA).
    pub fn server_hop(&self) -> usize {
        self.hops - 1
    }

    /// Every hop's layer is negotiated (the telescope is done): streams
    /// may open (BEGIN / CONNECTED) and transfer independently.
    pub(crate) fn established(&self) -> bool {
        self.route.len() == self.hops
    }

    /// The stream carrying wire id `id`, if any.
    pub fn stream_mut(&mut self, id: StreamId) -> Option<&mut StreamState> {
        let idx = (id.0 as usize).checked_sub(1)?;
        self.streams.get_mut(idx)
    }
}

/// Server-side state of one stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStream {
    /// Stream established (BEGIN processed, CONNECTED answered).
    pub open: bool,
    /// END received.
    pub ended: bool,
}

/// Server application state for one circuit.
#[derive(Clone, Debug, Default)]
pub struct ServerApp {
    /// Per-stream accounting for every stream the circuit's workload will
    /// open, indexed by stream id (`streams[i]` carries `StreamId(i + 1)`;
    /// ids are dense and 1-based by construction).
    pub streams: Vec<ServerStream>,
    /// Streams that have received their END.
    pub streams_ended: usize,
    /// DATA cells consumed (all streams).
    pub cells_received: u64,
    /// Payload bytes consumed (all streams).
    pub bytes_received: u64,
    /// Arrival time of the most recent DATA cell.
    pub last_byte_at: Option<SimTime>,
    /// Payload-verification failures (must stay 0).
    pub payload_errors: u64,
}

impl ServerApp {
    /// Creates server state expecting `streams` streams, each closed
    /// until its BEGIN arrives.
    pub fn new(streams: usize) -> ServerApp {
        ServerApp {
            streams: vec![ServerStream::default(); streams],
            ..ServerApp::default()
        }
    }

    /// Every expected stream opened and ENDed — transfer complete. A
    /// registered circuit has at least one stream, so an app that has
    /// seen no END has not ended.
    pub fn ended(&self) -> bool {
        self.streams_ended == self.streams.len()
    }

    /// The per-stream record for `id`, if the workload defines it —
    /// an O(1) index on the per-DATA-cell path (`open` says whether its
    /// BEGIN has arrived).
    pub fn stream_mut(&mut self, id: StreamId) -> Option<&mut ServerStream> {
        let idx = (id.0 as usize).checked_sub(1)?;
        self.streams.get_mut(idx)
    }
}

/// Where one participation is in its life (DESIGN.md §8); the teardown
/// wave flags exist only once it is closed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CircuitPhase {
    /// Being built or carrying traffic.
    Open,
    /// Torn down: late cells are dropped, the client generates nothing,
    /// and the slot waits for both waves and quiescence.
    Closed {
        /// The forward teardown wave (client → server) has passed.
        fwd_wave: bool,
        /// The backward teardown echo (server → client) has passed.
        bwd_wave: bool,
    },
}

/// What a node does in one circuit, minted with its participation: the
/// role is one value (DESIGN.md §8), so a client never holds a relay
/// layer and a server never lacks one.
#[derive(Clone)]
pub enum CircuitRole {
    /// The circuit's origin: onion route and streams.
    Client(ClientApp),
    /// An interior hop.
    Relay {
        /// This hop's onion layer.
        crypt: RelayCrypt,
        /// Handshake blob of an EXTEND in progress, echoed in EXTENDED.
        pending_extend: Option<[u8; HANDSHAKE_LEN]>,
    },
    /// The circuit's last hop.
    Server {
        /// This hop's onion layer.
        crypt: RelayCrypt,
        /// The server application.
        app: ServerApp,
    },
}

/// A node's participation in one circuit.
#[derive(Clone)]
pub struct NodeCircuit {
    /// Global circuit id (simulator bookkeeping).
    pub circ: CircId,
    /// Transport and queue toward the server (None at the server).
    pub fwd: Option<HopDir>,
    /// Transport and queue toward the client (None at the client).
    pub bwd: Option<HopDir>,
    /// Client, relay or server.
    pub role: CircuitRole,
    /// Lifecycle: open, or closed with the teardown waves seen so far.
    pub phase: CircuitPhase,
}

impl NodeCircuit {
    /// Creates a participation with no hops yet.
    pub fn new(circ: CircId, role: CircuitRole) -> NodeCircuit {
        NodeCircuit {
            circ,
            fwd: None,
            bwd: None,
            role,
            phase: CircuitPhase::Open,
        }
    }

    /// The client application of a participation known to be the
    /// client's (found through `open_client` or a client route).
    pub(crate) fn client_mut(&mut self) -> &mut ClientApp {
        let CircuitRole::Client(app) = &mut self.role else {
            panic!("not a client participation");
        };
        app
    }

    /// The hop that sends cells flowing `dir`, if this node has it.
    pub fn hop_mut(&mut self, dir: Direction) -> Option<&mut HopDir> {
        match dir {
            Direction::Forward => self.fwd.as_mut(),
            Direction::Backward => self.bwd.as_mut(),
        }
    }

    /// Open → Closed with no wave seen yet (a closed participation stays
    /// as it is); returns whether it was open.
    pub(crate) fn close(&mut self) -> bool {
        let was_open = self.phase == CircuitPhase::Open;
        if was_open {
            self.phase = CircuitPhase::Closed {
                fwd_wave: false,
                bwd_wave: false,
            };
        }
        was_open
    }

    /// Records that the teardown wave travelling in `wave` has passed
    /// this node; returns whether it already had. Panics on an open
    /// participation: a wave always closes it first.
    pub fn mark_wave(&mut self, wave: Direction) -> bool {
        let CircuitPhase::Closed { fwd_wave, bwd_wave } = &mut self.phase else {
            panic!("{wave} DESTROY wave at an open participation");
        };
        let seen = match wave {
            Direction::Forward => fwd_wave,
            Direction::Backward => bwd_wave,
        };
        std::mem::replace(seen, true)
    }

    /// Walks of a relay-cell payload performed by this participation so
    /// far: its onion layer's, or (at the client) its onion route's.
    pub fn payload_passes(&self) -> u64 {
        match &self.role {
            CircuitRole::Client(app) => app.route.payload_passes(),
            CircuitRole::Relay { crypt, .. } | CircuitRole::Server { crypt, .. } => {
                crypt.payload_passes()
            }
        }
    }

    /// Teardown quiescence: both waves seen, every sent cell confirmed,
    /// nothing queued. Once true, no further frame can arrive for this
    /// participation and its slots are safe to reclaim (DESIGN.md §8).
    pub fn reclaimable(&self) -> bool {
        self.phase
            == CircuitPhase::Closed {
                fwd_wave: true,
                bwd_wave: true,
            }
            && self.fwd.as_ref().is_none_or(HopDir::quiescent)
            && self.bwd.as_ref().is_none_or(HopDir::quiescent)
    }
}

/// An overlay node: identity plus all per-circuit state.
#[derive(Clone)]
pub struct OverlayNode {
    /// Overlay id.
    pub id: OverlayId,
    /// Backing network node.
    pub net_node: NodeId,
    /// Participant kind.
    pub role: NodeRole,
    /// Per-circuit state under node-local indices; a reclaimed slot is
    /// the next one filled.
    circuits: Slab<NodeCircuit>,
}

impl OverlayNode {
    /// Creates a node.
    pub fn new(id: OverlayId, net_node: NodeId, role: NodeRole) -> OverlayNode {
        OverlayNode {
            id,
            net_node,
            role,
            circuits: Slab::default(),
        }
    }

    /// Registers a participation, returning its node-local index: the
    /// last reclaimed slot, if any is free.
    pub fn add_circuit(&mut self, nc: NodeCircuit) -> u32 {
        debug_assert!(
            self.local_idx(nc.circ).is_none(),
            "a node joins a circuit once"
        );
        self.circuits.insert(nc)
    }

    /// Reclaims a participation's slab slot. Panics if the slot is
    /// already free.
    pub fn remove_circuit(&mut self, local: u32) {
        let nc = self.circuits.remove(local);
        debug_assert!(
            [&nc.fwd, &nc.bwd]
                .into_iter()
                .flatten()
                .all(HopDir::queue_is_empty),
            "a reclaimed participation still holds queued cells"
        );
    }

    /// The node-local index of a circuit, if this node participates: a
    /// scan of the slab (cold paths only; see the module docs).
    pub fn local_idx(&self, circ: CircId) -> Option<u32> {
        let filled = self.circuits.usage().high_water as u32;
        (0..filled).find(|&i| self.circuits.try_get(i).is_some_and(|nc| nc.circ == circ))
    }

    /// Participation by node-local index (the hot path; indexes resolve
    /// through the route table). Panics on a reclaimed slot.
    #[inline]
    pub fn circuit_at(&self, local: u32) -> &NodeCircuit {
        self.circuits.get(local)
    }

    /// Mutable participation by node-local index.
    #[inline]
    pub fn circuit_at_mut(&mut self, local: u32) -> &mut NodeCircuit {
        self.circuits.get_mut(local)
    }

    /// Participation by global circuit id (cold paths: setup, teardown,
    /// telemetry).
    pub fn circuit(&self, circ: CircId) -> Option<&NodeCircuit> {
        Some(self.circuit_at(self.local_idx(circ)?))
    }

    /// Payload walks of this node's live participations.
    pub fn payload_passes(&self) -> u64 {
        self.circuits
            .values()
            .map(NodeCircuit::payload_passes)
            .sum()
    }

    /// How the participation slab is used: participations held now, the
    /// most ever held at once, and slots reserved. The high water stays
    /// flat across churn cycles — the invariant the property tests pin.
    pub fn slots(&self) -> SlabUse {
        self.circuits.usage()
    }

    /// Bytes the participation slab reserves.
    pub fn slab_bytes(&self) -> usize {
        self.circuits.reserved_bytes()
    }

    /// Bytes the send-time rings of this node's hop transports reserve.
    pub fn hop_send_time_bytes(&self) -> usize {
        let hops = self.circuits.values().flat_map(|nc| [&nc.fwd, &nc.bwd]);
        hops.flatten()
            .map(|hop| hop.transport.reserved_bytes())
            .sum()
    }

    /// Number of live circuits this node participates in.
    pub fn circuit_count(&self) -> usize {
        self.circuits.usage().held
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backtap::cc::Controller;
    use torcell::crypto::LayerKey;

    fn transport() -> HopTransport {
        HopTransport::new(Controller::Fixed(4))
    }

    /// A relay's participation in `circ`, with no hops yet.
    fn relay(circ: u32) -> NodeCircuit {
        let crypt = RelayCrypt::new(LayerKey::from_handshake(&[0; HANDSHAKE_LEN]));
        let role = CircuitRole::Relay {
            crypt,
            pending_extend: None,
        };
        NodeCircuit::new(CircId(circ), role)
    }

    /// A client carrying one stream of `bytes`, arriving immediately.
    fn one_stream(hops: usize, bytes: u64) -> ClientApp {
        let spec = StreamSpec {
            flow: FlowId(0),
            bytes,
            offset: SimDuration::ZERO,
        };
        ClientApp::new(hops, &[spec])
    }

    #[test]
    fn client_app_cell_accounting() {
        let app = one_stream(2, 1000);
        // 1000 bytes / 496 per cell = 3 cells: 496 + 496 + 8.
        let s = &app.streams[0];
        assert_eq!(s.total_cells, 3);
        assert_eq!(s.cell_len(0), 496);
        assert_eq!(s.cell_len(1), 496);
        assert_eq!(s.cell_len(2), 8);
        assert_eq!(app.server_hop(), 1);
    }

    #[test]
    fn client_app_exact_multiple() {
        let app = one_stream(1, 992);
        assert_eq!(app.streams[0].total_cells, 2);
        assert_eq!(app.streams[0].cell_len(1), 496);
    }

    #[test]
    fn client_app_single_byte() {
        let app = one_stream(1, 1);
        assert_eq!(app.streams[0].total_cells, 1);
        assert_eq!(app.streams[0].cell_len(0), 1);
    }

    #[test]
    fn client_app_multi_stream() {
        let specs = [
            StreamSpec {
                flow: FlowId(0),
                bytes: 992,
                offset: SimDuration::ZERO,
            },
            StreamSpec {
                flow: FlowId(1),
                bytes: 500,
                offset: SimDuration::from_millis(5),
            },
        ];
        let mut app = ClientApp::new(2, &specs);
        assert_eq!(app.streams[0].id, StreamId(1));
        assert_eq!(app.streams[1].id, StreamId(2));
        assert!(app.streams[0].arrived, "offset 0 arrives immediately");
        assert!(!app.streams[1].arrived, "staggered stream waits");
        assert!(app.stream_mut(StreamId(2)).is_some());
        assert!(app.stream_mut(StreamId(3)).is_none());
        assert!(
            app.stream_mut(StreamId(0)).is_none(),
            "0 is circuit control"
        );
    }

    #[test]
    #[should_panic(expected = "empty stream")]
    fn client_app_rejects_empty_file() {
        let _ = one_stream(1, 0);
    }

    #[test]
    #[should_panic(expected = "client and server")]
    fn client_app_rejects_short_path() {
        let _ = one_stream(0, 10);
    }

    #[test]
    fn hopdir_queue_hwm() {
        let mut cells = HopCells::default();
        let mut hd = HopDir::new(OverlayId(1), CircuitId(5), transport());
        for _ in 0..3 {
            hd.enqueue(&mut cells, QueuedCell::new(Cell::destroy(CircuitId(5), 0)));
        }
        hd.dequeue(&mut cells);
        hd.enqueue(&mut cells, QueuedCell::new(Cell::destroy(CircuitId(5), 0)));
        assert_eq!(hd.queue_hwm, 3);
        assert!(!hd.quiescent());
        while hd.dequeue(&mut cells).is_some() {}
        let usage = cells.usage();
        assert_eq!((usage.held, usage.high_water), (0, 3));
        assert!(hd.quiescent());
    }

    #[test]
    fn phase_transitions_close_then_record_each_wave_once() {
        use CircuitPhase::{Closed, Open};
        use Direction::{Backward, Forward};
        let mut cells = HopCells::default();
        let mut nc = relay(0);
        nc.fwd = Some(HopDir::new(OverlayId(2), CircuitId(10), transport()));
        nc.bwd = Some(HopDir::new(OverlayId(0), CircuitId(11), transport()));
        assert_eq!(nc.phase, Open);
        assert!(!nc.reclaimable(), "open participations are not reclaimable");

        assert!(nc.close(), "Open → Closed");
        let no_wave = Closed {
            fwd_wave: false,
            bwd_wave: false,
        };
        assert_eq!(nc.phase, no_wave, "closing records no wave");
        assert!(!nc.close(), "closing twice changes nothing");
        assert_eq!(nc.phase, no_wave);

        assert!(!nc.mark_wave(Forward), "first forward wave");
        assert!(nc.mark_wave(Forward), "duplicate forward wave reported");
        let forward_only = Closed {
            fwd_wave: true,
            bwd_wave: false,
        };
        assert_eq!(nc.phase, forward_only);
        assert!(!nc.reclaimable(), "waiting for the backward wave");

        // Both waves seen: reclaimable exactly when both hops are
        // quiescent.
        assert!(!nc.mark_wave(Backward), "first backward wave");
        assert!(nc.mark_wave(Backward), "duplicate backward wave reported");
        assert!(nc.reclaimable());
        fn hop(nc: &mut NodeCircuit, dir: Direction) -> &mut HopDir {
            nc.hop_mut(dir).expect("both hops")
        }
        for dir in [Forward, Backward] {
            let seq = hop(&mut nc, dir).transport.register_send(SimTime::ZERO);
            assert!(!nc.reclaimable(), "{dir}: outstanding cells block it");
            let h = hop(&mut nc, dir);
            h.transport.on_feedback(seq, SimTime::ZERO).unwrap();
            h.enqueue(&mut cells, QueuedCell::new(Cell::destroy(CircuitId(5), 0)));
            assert!(!nc.reclaimable(), "{dir}: queued cells block it");
            hop(&mut nc, dir).dequeue(&mut cells);
            assert!(nc.reclaimable(), "{dir}: quiescent again");
        }
    }

    #[test]
    #[should_panic(expected = "open participation")]
    fn a_wave_cannot_reach_an_open_participation() {
        relay(0).mark_wave(Direction::Forward);
    }

    #[test]
    fn slab_reuses_reclaimed_slots() {
        let mut node = OverlayNode::new(
            OverlayId(0),
            {
                let mut net: netsim::net::Net<crate::wire::WireFrame> = netsim::net::Net::new();
                net.add_node("n")
            },
            NodeRole::Relay,
        );
        let a = node.add_circuit(relay(0));
        let b = node.add_circuit(relay(1));
        assert_eq!((node.slots().held, node.slots().high_water), (2, 2));
        assert_eq!(node.circuit_count(), 2);
        node.remove_circuit(a);
        assert_eq!(node.circuit_count(), 1);
        assert_eq!(node.slots().held, 1);
        assert!(node.local_idx(CircId(0)).is_none(), "mapping dropped");
        let c = node.add_circuit(relay(2));
        assert_eq!(c, a, "reclaimed slot is reused");
        assert_eq!(node.slots().high_water, 2, "slab did not grow");
        assert_eq!(node.slots().held, 2);
        assert_eq!(node.local_idx(CircId(1)), Some(b));
    }

    #[test]
    fn a_participation_is_at_most_448_bytes() {
        // A slab slot is its two hops (288), its largest role (152), and
        // its id and phase (448); a free slot's `None` takes a niche.
        let size = std::mem::size_of::<Option<NodeCircuit>>();
        assert!(size <= 448, "a participation slot is {size} bytes");
    }

    #[test]
    fn a_server_stream_is_its_two_flags() {
        // Its id is its index, and the server counts cells and bytes
        // once, in `ServerApp`.
        let size = std::mem::size_of::<ServerStream>();
        assert!(size <= 2, "a server stream is {size} bytes");
    }

    #[test]
    fn a_queued_cell_is_its_cell_and_its_confirm() {
        // 80 bytes while a queued relay cell carried the hop to wrap it
        // for at dequeue; sealed where it is made, it is 40 + 24.
        assert_eq!(std::mem::size_of::<QueuedCell>(), 64);
    }
}
