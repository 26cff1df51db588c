//! Per-node overlay state.
//!
//! Each overlay node (client, relay, or server) keeps, per circuit it
//! participates in, a [`NodeCircuit`]: the per-direction hop transports
//! and queues, the relay-side onion layer, and — at the endpoints — the
//! application state machines.
//!
//! Participations live in a dense slab (`Vec<NodeCircuit>`) indexed by a
//! node-local id handed out at join time; the per-cell pipeline resolves
//! straight to that index through the network-level route table
//! (`relaynet::network`) and never walks a map. A small `BTreeMap` keyed
//! by the global [`CircId`] serves only cold paths — setup, teardown, and
//! telemetry. Torn-down participations are reclaimed through a free list
//! (`remove_circuit`), so churning workloads reuse slots instead of
//! growing the slab. (Deterministic by construction: nothing here is
//! iterated in hash order.)

use std::collections::{BTreeMap, VecDeque};

use backtap::cc::CongestionControl;
use backtap::hop::HopTransport;
use netsim::net::NodeId;
use simcore::time::{SimDuration, SimTime};
use torcell::cell::{Cell, HANDSHAKE_LEN};
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

/// Context handed to the congestion-controller factory for every hop
/// transport created.
#[derive(Clone, Copy, Debug)]
pub struct HopCtx {
    /// Which circuit the transport belongs to.
    pub circuit: CircId,
    /// The owning node's position on the path (0 = client).
    pub position: usize,
    /// Which direction the transport sends in.
    pub direction: Direction,
}

/// Creates the congestion controller for a hop transport.
///
/// The experiment harness supplies this; it is how the CircuitStart
/// algorithm (which lives above this crate) is plugged into the overlay.
pub type CcFactory = Box<dyn Fn(&HopCtx) -> Box<dyn CongestionControl + Send>>;

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

/// A cell waiting in a hop's egress queue.
#[derive(Clone, Debug)]
pub struct QueuedCell {
    /// The cell (its `circ` field is restamped at send time).
    pub cell: Cell,
    /// Feedback owed upstream once this cell leaves the queue.
    pub confirm: Option<PendingConfirm>,
    /// For client-originated relay cells: the hop (layer index) that must
    /// recognize the cell; onion wrapping happens at dequeue so that layer
    /// counters advance in exact send order.
    pub wrap_for_hop: Option<usize>,
}

/// One direction of one circuit at one node: the transport toward the
/// neighbour plus the queue of cells waiting for the window.
pub struct HopDir {
    /// The adjacent overlay node this hop sends to.
    pub neighbor: OverlayId,
    /// Link-local circuit id stamped on every cell sent on this hop.
    pub link_circ_id: CircuitId,
    /// Window/feedback machinery.
    pub transport: HopTransport,
    /// Cells awaiting window credit.
    pub queue: VecDeque<QueuedCell>,
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
            queue: VecDeque::new(),
            queue_hwm: 0,
        }
    }

    /// Enqueues a cell and updates the high-water mark.
    pub fn enqueue(&mut self, qc: QueuedCell) {
        self.queue.push_back(qc);
        self.queue_hwm = self.queue_hwm.max(self.queue.len());
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
pub struct ClientApp {
    /// Full path including the client itself and the server.
    pub path: Vec<OverlayId>,
    /// Onion layers negotiated so far.
    pub route: OnionRoute,
    /// Total payload bytes across all streams.
    pub file_bytes: u64,
    /// Streams multiplexed over this circuit, in stream-id order.
    pub streams: Vec<StreamState>,
    /// Round-robin cursor for DATA generation across open streams.
    pub rr_cursor: usize,
    /// Circuit-aggregate DATA cells sent — the fill-pattern index (the
    /// server verifies against its aggregate arrival count; delivery is
    /// FIFO along the single path, so the counters agree).
    pub sent_cells: u64,
    /// When the circuit build started.
    pub started_at: SimTime,
    /// When the first CONNECTED arrived (the circuit carries traffic).
    pub connected_at: Option<SimTime>,
    /// When the first DATA cell was sent.
    pub first_data_at: Option<SimTime>,
    /// Payload walks spent *building* this client's cells (the fill and
    /// the digest of each DATA cell, the digest of each END) — summed
    /// into [`NodeCircuit::payload_passes`].
    pub payload_passes: u64,
}

impl ClientApp {
    /// Creates client state for the given resolved streams over `path`.
    ///
    /// # Panics
    ///
    /// Panics if the path is shorter than client + server, there are no
    /// streams, or any stream is empty.
    pub fn new(path: Vec<OverlayId>, streams: &[StreamSpec], started_at: SimTime) -> ClientApp {
        assert!(
            path.len() >= 2,
            "a circuit needs at least client and server"
        );
        assert!(!streams.is_empty(), "a circuit needs at least one stream");
        let streams: Vec<StreamState> = streams
            .iter()
            .enumerate()
            .map(|(i, s)| StreamState::new(i, s))
            .collect();
        ClientApp {
            path,
            route: OnionRoute::new(),
            file_bytes: streams.iter().map(|s| s.bytes).sum(),
            streams,
            rr_cursor: 0,
            sent_cells: 0,
            started_at,
            connected_at: None,
            first_data_at: None,
            payload_passes: 0,
        }
    }

    /// The layer index of the server (the hop that recognizes DATA).
    pub fn server_hop(&self) -> usize {
        self.path.len() - 2
    }

    /// Every hop's layer is negotiated (the telescope is done): streams
    /// may open (BEGIN / CONNECTED) and transfer independently.
    pub(crate) fn established(&self) -> bool {
        self.route.len() + 1 == self.path.len()
    }

    /// The stream carrying wire id `id`, if any.
    pub fn stream_mut(&mut self, id: StreamId) -> Option<&mut StreamState> {
        let idx = (id.0 as usize).checked_sub(1)?;
        self.streams.get_mut(idx)
    }
}

/// Server-side state of one stream.
#[derive(Clone, Copy, Debug)]
pub struct ServerStream {
    /// Stream id on the wire.
    pub id: StreamId,
    /// Stream established (BEGIN processed, CONNECTED answered).
    pub open: bool,
    /// END received.
    pub ended: bool,
    /// DATA cells consumed on this stream.
    pub cells_received: u64,
    /// Payload bytes consumed on this stream.
    pub bytes_received: u64,
}

/// Server application state for one circuit.
#[derive(Clone, Debug, Default)]
pub struct ServerApp {
    /// Streams the circuit's workload will open (known to the simulator's
    /// registry; used only to decide when the circuit's work is done).
    pub expected_streams: usize,
    /// Per-stream accounting, indexed by stream id (`streams[i]` carries
    /// `StreamId(i + 1)`; ids are dense and 1-based by construction).
    pub streams: Vec<ServerStream>,
    /// Streams that have received their END.
    pub streams_ended: usize,
    /// DATA cells consumed (all streams).
    pub cells_received: u64,
    /// Payload bytes consumed (all streams).
    pub bytes_received: u64,
    /// Arrival time of the first DATA cell.
    pub first_byte_at: Option<SimTime>,
    /// Arrival time of the most recent DATA cell.
    pub last_byte_at: Option<SimTime>,
    /// Every expected stream opened and ENDed — transfer complete.
    pub ended: bool,
    /// Payload-verification failures (must stay 0).
    pub payload_errors: u64,
}

impl ServerApp {
    /// Creates server state expecting `expected_streams` streams, each
    /// closed until its BEGIN arrives.
    pub fn new(expected_streams: usize) -> ServerApp {
        ServerApp {
            expected_streams,
            streams: (0..expected_streams)
                .map(|i| ServerStream {
                    id: StreamId(u16::try_from(i + 1).expect("too many streams")),
                    open: false,
                    ended: false,
                    cells_received: 0,
                    bytes_received: 0,
                })
                .collect(),
            ..ServerApp::default()
        }
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

/// A node's participation in one circuit.
pub struct NodeCircuit {
    /// Global circuit id (simulator bookkeeping).
    pub circ: CircId,
    /// This node's position on the path (0 = client).
    pub position: usize,
    /// Transport and queue toward the server (None at the server).
    pub fwd: Option<HopDir>,
    /// Transport and queue toward the client (None at the client).
    pub bwd: Option<HopDir>,
    /// Relay-side onion layer (None at the client).
    pub crypt: Option<RelayCrypt>,
    /// Handshake blob of an EXTEND in progress, echoed in EXTENDED.
    pub pending_extend: Option<[u8; HANDSHAKE_LEN]>,
    /// Client application (only at position 0).
    pub client: Option<ClientApp>,
    /// Server application (only at the last position).
    pub server: Option<ServerApp>,
    /// Lifecycle: open, or closed with the teardown waves seen so far.
    pub phase: CircuitPhase,
}

impl NodeCircuit {
    /// Creates an empty participation record.
    pub fn new(circ: CircId, position: usize) -> NodeCircuit {
        NodeCircuit {
            circ,
            position,
            fwd: None,
            bwd: None,
            crypt: None,
            pending_extend: None,
            client: None,
            server: None,
            phase: CircuitPhase::Open,
        }
    }

    /// The placeholder stored in a reclaimed slab slot.
    pub fn vacant() -> NodeCircuit {
        let mut nc = NodeCircuit::new(CircId(u32::MAX), usize::MAX);
        nc.close();
        nc
    }

    /// Whether this slot holds a live participation.
    pub fn is_vacant(&self) -> bool {
        self.circ == CircId(u32::MAX)
    }

    /// The hop direction that *sends to* `neighbor`, used to route
    /// feedback to the right transport.
    pub fn hopdir_toward_mut(&mut self, neighbor: OverlayId) -> Option<&mut HopDir> {
        if self.fwd.as_ref().is_some_and(|h| h.neighbor == neighbor) {
            return self.fwd.as_mut();
        }
        if self.bwd.as_ref().is_some_and(|h| h.neighbor == neighbor) {
            return self.bwd.as_mut();
        }
        None
    }

    /// The direction of the hop that sends to `neighbor`.
    pub fn direction_toward(&self, neighbor: OverlayId) -> Option<Direction> {
        if self.fwd.as_ref().is_some_and(|h| h.neighbor == neighbor) {
            return Some(Direction::Forward);
        }
        if self.bwd.as_ref().is_some_and(|h| h.neighbor == neighbor) {
            return Some(Direction::Backward);
        }
        None
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
    /// far: the relay-side layer's, plus (at the client) the onion
    /// route's and the cell-building walks.
    pub fn payload_passes(&self) -> u64 {
        self.crypt.as_ref().map_or(0, RelayCrypt::payload_passes)
            + self
                .client
                .as_ref()
                .map_or(0, |app| app.payload_passes + app.route.payload_passes())
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
pub struct OverlayNode {
    /// Overlay id.
    pub id: OverlayId,
    /// Backing network node.
    pub net_node: NodeId,
    /// Participant kind.
    pub role: NodeRole,
    /// Per-circuit state, dense by node-local index (slab; torn-down
    /// participations are reclaimed through `free_slots`).
    circuits: Vec<NodeCircuit>,
    /// Reclaimed slab indices awaiting reuse (LIFO for determinism).
    free_slots: Vec<u32>,
    /// Cold-path lookup: global circuit id → node-local index. The
    /// per-cell pipeline bypasses this via the route table.
    by_global: BTreeMap<CircId, u32>,
}

impl OverlayNode {
    /// Creates a node.
    pub fn new(id: OverlayId, net_node: NodeId, role: NodeRole) -> OverlayNode {
        OverlayNode {
            id,
            net_node,
            role,
            circuits: Vec::new(),
            free_slots: Vec::new(),
            by_global: BTreeMap::new(),
        }
    }

    /// Registers a participation, returning its node-local index.
    /// Reuses a reclaimed slot when one is free.
    pub fn add_circuit(&mut self, nc: NodeCircuit) -> u32 {
        let circ = nc.circ;
        let local = match self.free_slots.pop() {
            Some(local) => {
                debug_assert!(self.circuits[local as usize].is_vacant());
                self.circuits[local as usize] = nc;
                local
            }
            None => {
                self.circuits.push(nc);
                u32::try_from(self.circuits.len() - 1).expect("too many circuits at one node")
            }
        };
        self.by_global.insert(circ, local);
        local
    }

    /// Reclaims a participation's slab slot: the slot is vacated, the
    /// global-id mapping dropped, and the index queued for reuse.
    pub fn remove_circuit(&mut self, local: u32) {
        let old = std::mem::replace(&mut self.circuits[local as usize], NodeCircuit::vacant());
        debug_assert!(!old.is_vacant(), "double-free of a circuit slot");
        self.by_global.remove(&old.circ);
        self.free_slots.push(local);
    }

    /// The node-local index of a circuit, if this node participates.
    pub fn local_idx(&self, circ: CircId) -> Option<u32> {
        self.by_global.get(&circ).copied()
    }

    /// Participation by node-local index (the hot path; indexes resolve
    /// through the route table).
    #[inline]
    pub fn circuit_at(&self, local: u32) -> &NodeCircuit {
        &self.circuits[local as usize]
    }

    /// Mutable participation by node-local index.
    #[inline]
    pub fn circuit_at_mut(&mut self, local: u32) -> &mut NodeCircuit {
        &mut self.circuits[local as usize]
    }

    /// Participation by global circuit id (cold paths: setup, teardown,
    /// telemetry).
    pub fn circuit(&self, circ: CircId) -> Option<&NodeCircuit> {
        Some(self.circuit_at(self.local_idx(circ)?))
    }

    /// Payload walks of this node's live participations (vacant slots
    /// hold none).
    pub fn payload_passes(&self) -> u64 {
        self.circuits.iter().map(NodeCircuit::payload_passes).sum()
    }

    /// Slab capacity: live participations plus reclaimed slots. Stays
    /// flat across churn cycles — the invariant the property tests pin.
    pub fn slab_len(&self) -> usize {
        self.circuits.len()
    }

    /// Reclaimed slots awaiting reuse.
    pub fn free_slot_count(&self) -> usize {
        self.free_slots.len()
    }

    /// Number of live circuits this node participates in.
    pub fn circuit_count(&self) -> usize {
        self.by_global.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backtap::cc::FixedWindowCc;

    fn transport() -> HopTransport {
        HopTransport::new(Box::new(FixedWindowCc::new(4)))
    }

    /// A client carrying one stream of `bytes`, arriving immediately.
    fn one_stream(path: Vec<OverlayId>, bytes: u64) -> ClientApp {
        let spec = StreamSpec {
            flow: FlowId(0),
            bytes,
            offset: SimDuration::ZERO,
        };
        ClientApp::new(path, &[spec], SimTime::ZERO)
    }

    #[test]
    fn client_app_cell_accounting() {
        let path = vec![OverlayId(0), OverlayId(1), OverlayId(2)];
        let app = one_stream(path, 1000);
        // 1000 bytes / 496 per cell = 3 cells: 496 + 496 + 8.
        let s = &app.streams[0];
        assert_eq!(s.total_cells, 3);
        assert_eq!(s.cell_len(0), 496);
        assert_eq!(s.cell_len(1), 496);
        assert_eq!(s.cell_len(2), 8);
        assert_eq!(app.server_hop(), 1);
        assert_eq!(app.file_bytes, 1000);
    }

    #[test]
    fn client_app_exact_multiple() {
        let path = vec![OverlayId(0), OverlayId(1)];
        let app = one_stream(path, 992);
        assert_eq!(app.streams[0].total_cells, 2);
        assert_eq!(app.streams[0].cell_len(1), 496);
    }

    #[test]
    fn client_app_single_byte() {
        let app = one_stream(vec![OverlayId(0), OverlayId(1)], 1);
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
        let mut app = ClientApp::new(
            vec![OverlayId(0), OverlayId(1), OverlayId(2)],
            &specs,
            SimTime::ZERO,
        );
        assert_eq!(app.file_bytes, 1492);
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
        let _ = one_stream(vec![OverlayId(0), OverlayId(1)], 0);
    }

    #[test]
    #[should_panic(expected = "client and server")]
    fn client_app_rejects_short_path() {
        let _ = one_stream(vec![OverlayId(0)], 10);
    }

    #[test]
    fn hopdir_queue_hwm() {
        let mut hd = HopDir::new(OverlayId(1), CircuitId(5), transport());
        for _ in 0..3 {
            hd.enqueue(QueuedCell {
                cell: Cell::destroy(CircuitId(5), 0),
                confirm: None,
                wrap_for_hop: None,
            });
        }
        hd.queue.pop_front();
        hd.enqueue(QueuedCell {
            cell: Cell::destroy(CircuitId(5), 0),
            confirm: None,
            wrap_for_hop: None,
        });
        assert_eq!(hd.queue_hwm, 3);
        assert!(!hd.quiescent());
    }

    #[test]
    fn node_circuit_direction_resolution() {
        let mut nc = NodeCircuit::new(CircId(0), 1);
        nc.fwd = Some(HopDir::new(OverlayId(2), CircuitId(10), transport()));
        nc.bwd = Some(HopDir::new(OverlayId(0), CircuitId(11), transport()));
        assert_eq!(nc.direction_toward(OverlayId(2)), Some(Direction::Forward));
        assert_eq!(nc.direction_toward(OverlayId(0)), Some(Direction::Backward));
        assert_eq!(nc.direction_toward(OverlayId(9)), None);
        assert!(nc.hopdir_toward_mut(OverlayId(2)).is_some());
        assert!(nc.hopdir_toward_mut(OverlayId(9)).is_none());
    }

    #[test]
    fn phase_transitions_close_then_record_each_wave_once() {
        use CircuitPhase::{Closed, Open};
        use Direction::{Backward, Forward};
        let mut nc = NodeCircuit::new(CircId(0), 1);
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
            match dir {
                Forward => nc.fwd.as_mut(),
                Backward => nc.bwd.as_mut(),
            }
            .expect("both hops")
        }
        for dir in [Forward, Backward] {
            let seq = hop(&mut nc, dir).transport.register_send(SimTime::ZERO);
            assert!(!nc.reclaimable(), "{dir}: outstanding cells block it");
            let h = hop(&mut nc, dir);
            h.transport.on_feedback(seq, SimTime::ZERO).unwrap();
            h.enqueue(QueuedCell {
                cell: Cell::destroy(CircuitId(5), 0),
                confirm: None,
                wrap_for_hop: None,
            });
            assert!(!nc.reclaimable(), "{dir}: queued cells block it");
            hop(&mut nc, dir).queue.clear();
            assert!(nc.reclaimable(), "{dir}: quiescent again");
        }
    }

    #[test]
    #[should_panic(expected = "open participation")]
    fn a_wave_cannot_reach_an_open_participation() {
        NodeCircuit::new(CircId(0), 1).mark_wave(Direction::Forward);
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
        let a = node.add_circuit(NodeCircuit::new(CircId(0), 1));
        let b = node.add_circuit(NodeCircuit::new(CircId(1), 1));
        assert_eq!(node.slab_len(), 2);
        assert_eq!(node.circuit_count(), 2);
        node.remove_circuit(a);
        assert_eq!(node.circuit_count(), 1);
        assert_eq!(node.free_slot_count(), 1);
        assert!(node.local_idx(CircId(0)).is_none(), "mapping dropped");
        let c = node.add_circuit(NodeCircuit::new(CircId(2), 1));
        assert_eq!(c, a, "reclaimed slot is reused");
        assert_eq!(node.slab_len(), 2, "slab did not grow");
        assert_eq!(node.free_slot_count(), 0);
        assert_eq!(node.local_idx(CircId(1)), Some(b));
    }
}
