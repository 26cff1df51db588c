//! The overlay engine: a [`simcore::sim::World`] tying relays, circuits,
//! transports, and the packet network together.
//!
//! # Protocol summary (all rules are local; see DESIGN.md §4)
//!
//! * **Circuit build** is Tor's telescope: the client CREATEs the first
//!   hop, then sends EXTEND relay cells that the current last relay
//!   converts into CREATEs toward the next node. Link-local circuit ids
//!   are negotiated per connection; onion layers are derived from the
//!   CREATE handshakes.
//! * **Recognition** is leaky-pipe, as in Tor: a relay strips its layer
//!   from every forward relay cell; if the digest then verifies, the cell
//!   is for this hop and is consumed, otherwise it is forwarded.
//! * **Feedback** (the BackTap/CircuitStart mechanism): whenever a node
//!   takes a cell *out* of a per-circuit queue — forwarding it toward the
//!   successor or consuming it locally — it sends a 20-byte feedback frame
//!   to the neighbour the cell came from, echoing that neighbour's per-hop
//!   sequence number. Windows grow on feedback, never on end-to-end ACKs.
//! * **Transfer**: after the build, the client opens a stream (BEGIN /
//!   CONNECTED) and pumps DATA cells, each wrapped in onion layers and
//!   subject to the per-hop window; the server verifies, counts, and
//!   timestamps them, and the END cell completes the transfer.
//!
//! # Module layout: the cell-processing pipeline
//!
//! Every arriving frame flows through an explicit sequence of stages, one
//! submodule per stage (DESIGN.md §4 documents the contracts):
//!
//! ```text
//!           ┌───────────┐   ┌─────────────┐   ┌───────────────────────┐
//!  frame ──▶│ conn      │──▶│ recognition │──▶│ circuit_build (ctrl)  │
//!           │ (ingress, │   │ (route +    │   │ client_xfer  (data)   │
//!           │  egress,  │   │  leaky-pipe)│   └──────────┬────────────┘
//!           │  pumping) │   └──────┬──────┘              │
//!           └─────▲─────┘          │ forward             │ consume
//!                 │                ▼                     ▼
//!                 │         conn::pump_dir ◀──── feedback (window credit)
//! ```
//!
//! * `conn` — the connection layer: link-local frame ingress/egress,
//!   per-link round-robin scheduling, and the window-gated egress pump
//!   (methods of `Egress`, the one owner of the link side).
//! * `recognition` — per-cell routing: resolves `(neighbour, link id)`
//!   to circuit state and applies leaky-pipe recognition to relay cells,
//!   deciding *consume here* vs *forward onward*.
//! * `circuit_build` — the control plane: CREATE/CREATED/EXTEND/
//!   EXTENDED telescoping, DESTROY propagation, teardown.
//! * `client_xfer` — the endpoint applications: the client transfer
//!   loop (BEGIN → DATA → END) and the server's consume path.
//! * `feedback` — per-hop feedback frames: emission when a cell leaves
//!   a queue and window-credit application when one arrives.
//! * `faults` — the one owner of fault handling: crash injection, the
//!   table for inputs that resolve to nothing, and client recovery.
//! * `placement` — the one owner of circuit placement: the relay
//!   population, the load ledger, liveness, blame and consensus epochs.

pub(crate) mod circuit_build;
pub(crate) mod client_xfer;
pub(crate) mod conn;
pub(crate) mod faults;
pub(crate) mod feedback;
pub(crate) mod placement;
pub(crate) mod recognition;

use netsim::link::LinkId;
use netsim::net::{FrameHandle, Net, NetEvent, NodeId};
use netsim::topology::{Star, Topology};
use simcore::rng::SimRng;
use simcore::sim::{Context, World};
use simcore::slab::{Slab, SlabUse};
use simcore::time::SimTime;
use simstats::registry::MetricsRegistry;
use simstats::sketch::QuantileSketch;

use backtap::algorithm::CcFactory;
use backtap::hop::HopTransport;
use torcell::cell::RELAY_DATA_MAX;
use torcell::ids::CircuitId;

use crate::circuit::{CircuitInfo, CircuitResult};
use crate::event::TorEvent;
use crate::ids::{CircId, Direction, OverlayId};
use crate::memory::MemoryLedger;
use crate::node::{CircuitRole, HopCells, NodeRole, OverlayNode};
use crate::pool::PayloadPool;
use crate::scheduler::LinkScheduler;
use crate::wire::WireFrame;
use crate::workload::{CircuitWorkload, FlowId, FlowState};

/// Reason code carried by the END cell when a transfer finishes normally.
pub const END_REASON_DONE: u8 = 1;
/// Reason code carried by DESTROY cells on explicit teardown.
pub const DESTROY_REASON_FINISHED: u8 = 9;
/// Reason code carried by DESTROY cells when a client abandons a circuit
/// after a build or liveness timeout (pure telemetry — relays treat every
/// reason alike).
pub const DESTROY_REASON_TIMEOUT: u8 = 10;
/// Reason code for a DESTROY answered by a node that has no participation
/// in the circuit — the void's reply that lets a teardown wave turn
/// around when its far side was dropped (a stale CREATE for a dead
/// incarnation, a reaped orphan). A REFUSED DESTROY is itself never
/// answered, so two voids cannot volley.
pub const DESTROY_REASON_REFUSED: u8 = 11;

/// Events a world has handled, by kind (see
/// [`TorNetwork::events_handled`]). Describes the implementation, not
/// the run: deliberately not part of [`WorldStats`] or the fingerprint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventsHandled {
    /// [`NetEvent::TxComplete`]: a frame that owed a confirm finished
    /// serializing, or a link with scheduled work fell idle.
    pub tx_complete: u64,
    /// [`NetEvent::Deliver`]: a frame reached the far end of a link.
    pub deliver: u64,
    /// Everything else: circuit starts, timers, epochs, faults.
    pub other: u64,
}

/// Global protocol counters.
///
/// Mergeable: a sharded experiment (see `relaynet::runtime`) runs many
/// worlds and folds their counters with [`WorldStats::merge`] into one
/// experiment-level record — every field must therefore stay a plain
/// sum-friendly count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Cell frames handed to the link layer.
    pub cells_sent: u64,
    /// Feedback frames handed to the link layer.
    pub feedback_sent: u64,
    /// Protocol violations observed (must stay 0 in healthy runs).
    pub protocol_errors: u64,
    /// Relay cells dropped because their circuit was torn down.
    pub cells_dropped_closed: u64,
    /// DESTROY cells handed to egress queues (teardown wave + echo).
    /// One full teardown of an `n`-node circuit sends exactly
    /// `2 * (n - 1)`: one per hop per wave direction.
    pub destroys_sent: u64,
    /// Queued cells discarded when a circuit closed (their owed
    /// feedback is still paid, so upstream windows drain).
    pub cells_drained: u64,
    /// Node-circuit slab slots reclaimed after full teardown quiescence.
    pub slots_reclaimed: u64,
    /// Circuit rebuilds performed by the churn engine.
    pub rebuilds: u64,
    /// Consensus epoch boundaries applied (directory deltas consumed).
    pub epochs_applied: u64,
    /// Relays brought live by epoch deltas.
    pub relays_joined: u64,
    /// Relays taken dark by epoch deltas.
    pub relays_departed: u64,
    /// Circuit teardowns initiated because the circuit crossed a
    /// departing relay (a subset of what feeds `rebuilds`).
    pub epoch_teardowns: u64,
    /// Relay crashes injected by the fault engine.
    pub crashes_injected: u64,
    /// Client circuit timers that fired genuinely (build or liveness)
    /// and triggered an abandon.
    pub timeouts_fired: u64,
    /// Timeout-driven rebuild attempts scheduled under backoff: one per
    /// abandon that leaves its lineage within the retry cap. An abandon
    /// that takes the lineage past its cap parks it instead and counts
    /// nothing here.
    pub retries: u64,
    /// Relays excluded from selection after being blamed for a timeout.
    pub blamed_exclusions: u64,
    /// Flows parked because their circuit exhausted its retry cap or the
    /// selectable relay set fell below the path length.
    pub flows_parked: u64,
    /// Frames silently dropped because their destination relay crashed.
    pub crash_frames_dropped: u64,
    /// Frames for unknown routes or sequences dropped *because faults
    /// are active* (stale traffic to force-abandoned circuits); without
    /// faults these are protocol errors.
    pub stale_frames_dropped: u64,
}

impl WorldStats {
    /// Folds another world's counters into this record — the shard
    /// aggregation of the async runtime. Addition is associative and
    /// commutative, so any merge order yields the same totals.
    pub fn merge(&mut self, other: &WorldStats) {
        // Exhaustive destructure (no `..`): adding a counter to
        // WorldStats without deciding how it merges is a compile error
        // here, not a silently-zero experiment aggregate.
        let WorldStats {
            cells_sent,
            feedback_sent,
            protocol_errors,
            cells_dropped_closed,
            destroys_sent,
            cells_drained,
            slots_reclaimed,
            rebuilds,
            epochs_applied,
            relays_joined,
            relays_departed,
            epoch_teardowns,
            crashes_injected,
            timeouts_fired,
            retries,
            blamed_exclusions,
            flows_parked,
            crash_frames_dropped,
            stale_frames_dropped,
        } = *other;
        self.cells_sent += cells_sent;
        self.feedback_sent += feedback_sent;
        self.protocol_errors += protocol_errors;
        self.cells_dropped_closed += cells_dropped_closed;
        self.destroys_sent += destroys_sent;
        self.cells_drained += cells_drained;
        self.slots_reclaimed += slots_reclaimed;
        self.rebuilds += rebuilds;
        self.epochs_applied += epochs_applied;
        self.relays_joined += relays_joined;
        self.relays_departed += relays_departed;
        self.epoch_teardowns += epoch_teardowns;
        self.crashes_injected += crashes_injected;
        self.timeouts_fired += timeouts_fired;
        self.retries += retries;
        self.blamed_exclusions += blamed_exclusions;
        self.flows_parked += flows_parked;
        self.crash_frames_dropped += crash_frames_dropped;
        self.stale_frames_dropped += stale_frames_dropped;
    }

    /// Registers every counter in `registry` under a `cs_*_total` name
    /// and adds this record's values — the bridge from the simulation's
    /// plain-struct counters to the Prometheus exporter
    /// (DESIGN.md §13).
    pub fn export_into(&self, registry: &mut MetricsRegistry) {
        // Exhaustive destructure (no `..`), same contract as `merge`:
        // adding a counter to WorldStats without deciding how it exports
        // is a compile error here, not a field missing from /metrics.
        let WorldStats {
            cells_sent,
            feedback_sent,
            protocol_errors,
            cells_dropped_closed,
            destroys_sent,
            cells_drained,
            slots_reclaimed,
            rebuilds,
            epochs_applied,
            relays_joined,
            relays_departed,
            epoch_teardowns,
            crashes_injected,
            timeouts_fired,
            retries,
            blamed_exclusions,
            flows_parked,
            crash_frames_dropped,
            stale_frames_dropped,
        } = *self;
        let mut emit = |name: &str, help: &str, value: u64| {
            let id = registry.counter(name, help);
            registry.add(id, value);
        };
        emit(
            "cs_cells_sent_total",
            "cell frames handed to the link layer",
            cells_sent,
        );
        emit(
            "cs_feedback_sent_total",
            "feedback frames handed to the link layer",
            feedback_sent,
        );
        emit(
            "cs_protocol_errors_total",
            "protocol violations observed",
            protocol_errors,
        );
        emit(
            "cs_cells_dropped_closed_total",
            "relay cells dropped on torn-down circuits",
            cells_dropped_closed,
        );
        emit(
            "cs_destroys_sent_total",
            "destroy cells handed to egress queues",
            destroys_sent,
        );
        emit(
            "cs_cells_drained_total",
            "queued cells discarded at circuit close",
            cells_drained,
        );
        emit(
            "cs_slots_reclaimed_total",
            "node-circuit slab slots reclaimed",
            slots_reclaimed,
        );
        emit(
            "cs_rebuilds_total",
            "circuit rebuilds performed by the churn engine",
            rebuilds,
        );
        emit(
            "cs_epochs_applied_total",
            "consensus epoch boundaries applied",
            epochs_applied,
        );
        emit(
            "cs_relays_joined_total",
            "relays brought live by epoch deltas",
            relays_joined,
        );
        emit(
            "cs_relays_departed_total",
            "relays taken dark by epoch deltas",
            relays_departed,
        );
        emit(
            "cs_epoch_teardowns_total",
            "teardowns forced by departing relays",
            epoch_teardowns,
        );
        emit(
            "cs_crashes_injected_total",
            "relay crashes injected by the fault engine",
            crashes_injected,
        );
        emit(
            "cs_timeouts_fired_total",
            "client circuit timers fired",
            timeouts_fired,
        );
        emit(
            "cs_retries_total",
            "timeout-driven rebuild attempts scheduled",
            retries,
        );
        emit(
            "cs_blamed_exclusions_total",
            "relays excluded after timeout blame",
            blamed_exclusions,
        );
        emit(
            "cs_flows_parked_total",
            "flows parked after exhausting recovery",
            flows_parked,
        );
        emit(
            "cs_crash_frames_dropped_total",
            "frames dropped at crashed relays",
            crash_frames_dropped,
        );
        emit(
            "cs_stale_frames_dropped_total",
            "stale frames dropped while faults are active",
            stale_frames_dropped,
        );
    }
}

/// `RAMP[i] = i as u8`, long enough that a [`RELAY_DATA_MAX`]-byte
/// window fits after any start in `0..=255`. The fill pattern of every
/// DATA cell is a window of this one table, so filling is a `memcpy` and
/// verifying a `memcmp`.
const RAMP: [u8; 256 + RELAY_DATA_MAX] = {
    let mut ramp = [0u8; 256 + RELAY_DATA_MAX];
    let mut i = 0;
    while i < ramp.len() {
        ramp[i] = i as u8;
        i += 1;
    }
    ramp
};

/// The deterministic fill pattern for DATA payloads: byte `i` of cell
/// `idx` on circuit `circ` is `(circ * 131 + idx * 31 + i) & 0xFF`.
#[derive(Clone, Copy)]
struct FillPattern {
    base: u64,
}

impl FillPattern {
    /// Only `base & 0xFF` is ever observed, so the arithmetic wraps (as
    /// the release-build byte loop this replaced always did).
    #[inline]
    fn new(circ: CircId, idx: u64) -> FillPattern {
        FillPattern {
            base: (u64::from(circ.0) * 131).wrapping_add(idx.wrapping_mul(31)),
        }
    }

    /// The first `len` pattern bytes as a window of [`RAMP`]; `None` only
    /// for a `len` no cell payload has (the window would run off the
    /// table), where callers fall back to [`FillPattern::byte`].
    #[inline]
    fn window(self, len: usize) -> Option<&'static [u8]> {
        let start = (self.base & 0xFF) as usize;
        RAMP.get(start..start + len)
    }

    /// Pattern byte `i`, by the arithmetic definition.
    #[inline]
    fn byte(self, i: usize) -> u8 {
        (self.base.wrapping_add(i as u64) & 0xFF) as u8
    }
}

/// Writes the fill pattern for cell `idx` of `circ` into `buf` in place.
#[inline]
pub fn fill_pattern_into(circ: CircId, idx: u64, buf: &mut [u8]) {
    let pattern = FillPattern::new(circ, idx);
    match pattern.window(buf.len()) {
        Some(window) => buf.copy_from_slice(window),
        None => (0..).zip(buf).for_each(|(i, b)| *b = pattern.byte(i)),
    }
}

/// The fill pattern for cell `idx` of `circ`, `len` bytes, as a window
/// of [`RAMP`] — what the client seals a DATA payload from.
///
/// # Panics
///
/// Panics if `len` exceeds [`RELAY_DATA_MAX`] (no cell payload does).
#[inline]
pub(super) fn fill_pattern_window(circ: CircId, idx: u64, len: usize) -> &'static [u8] {
    FillPattern::new(circ, idx)
        .window(len)
        .expect("a relay payload fits the ramp")
}

/// Verifies `data` against the fill pattern without materialising it.
#[inline]
pub fn verify_fill_pattern(circ: CircId, idx: u64, data: &[u8]) -> bool {
    let pattern = FillPattern::new(circ, idx);
    match pattern.window(data.len()) {
        Some(window) => data == window,
        None => (0..).zip(data).all(|(i, &b)| b == pattern.byte(i)),
    }
}

/// One endpoint's view of a link-local circuit id: at node `node`, frames
/// arriving from `from` on this id belong to `circ` (locally `local`),
/// flowing in direction `dir`.
#[derive(Clone, Copy, Debug)]
pub(super) struct RouteEnd {
    pub(super) node: OverlayId,
    pub(super) from: OverlayId,
    pub(super) circ: CircId,
    pub(super) local: u32,
    pub(super) dir: Direction,
}

/// Both endpoints of one link-local circuit id. Link ids are slots of
/// one world-wide [`Slab`], so route resolution on the per-cell path is
/// an array load plus an endpoint compare, no tree walk.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct LinkRoute {
    pub(super) a: Option<RouteEnd>,
    pub(super) b: Option<RouteEnd>,
    /// Set when an end was cleared by a force-reap rather than a
    /// quiesced teardown: the reap writes off in-flight frames that may
    /// still carry this id, so the id is *retired* instead of freed — a
    /// late frame then resolves to nothing (and is stale-dropped)
    /// instead of colliding with a re-minted id.
    pub(super) retired: bool,
}

/// The link side of the world: everything a stage needs to put a frame
/// on a wire and account for it. One field of [`TorNetwork`], disjoint
/// from `nodes`, so the egress helpers (`pump_dir`, `send_feedback`, the
/// teardown drains — see [`conn`], [`feedback`], [`circuit_build`]) are
/// `&mut self` methods callable while a `&mut NodeCircuit` is held.
#[derive(Clone)]
pub(super) struct Egress {
    pub(super) net: Net<WireFrame>,
    /// Per-link round-robin circuit schedulers (overlay egress links; the
    /// hub's links stay FIFO — the backbone is not ours to schedule).
    /// One per link of `net`, indexed by `LinkId`. They queue handles: a
    /// scheduled frame waits in `net`'s store.
    pub(super) link_sched: Vec<LinkScheduler<FrameHandle>>,
    /// The world's shape and its address book: overlay node `i` lives on
    /// `topology.node(i)`, and the topology names the link toward any
    /// node ([`Egress::next_link`]). A star's access links are minted the
    /// first time a circuit crosses a leaf ([`TorNetwork::access_links`]).
    pub(super) topology: Topology,
    /// Recycles DATA payload buffers between server consumption and
    /// client generation (see [`crate::pool`]).
    pub(super) payload_pool: PayloadPool,
    /// Every hop queue's cells: each `HopDir`'s queue is a list in it.
    pub(super) hop_cells: HopCells,
    pub(super) stats: WorldStats,
    /// Overlay index → crashed flag, grown lazily by the fault engine
    /// (see [`faults`]); empty in a fault-free world.
    crashed: Vec<bool>,
}

impl Egress {
    /// The link side of an overlay over `net` and its `topology`, with
    /// one idle scheduler per link.
    pub(super) fn new(net: Net<WireFrame>, topology: Topology) -> Egress {
        let link_sched = (0..net.link_count())
            .map(|_| LinkScheduler::new())
            .collect();
        Egress {
            net,
            link_sched,
            topology,
            payload_pool: PayloadPool::new(),
            hop_cells: HopCells::default(),
            stats: WorldStats::default(),
            crashed: Vec::new(),
        }
    }

    /// The link a frame at network node `at` bound for `dst` leaves on
    /// ([`Topology::route`]).
    ///
    /// # Panics
    ///
    /// Panics if no route exists — frames must never be addressed to
    /// unreachable nodes.
    #[inline]
    pub(super) fn next_link(&self, at: NodeId, dst: NodeId) -> LinkId {
        match self.topology.route(at, dst) {
            Some(link) => link,
            None => no_route(at, dst),
        }
    }

    /// Records a protocol violation (debug builds abort; release builds
    /// count and continue).
    pub(super) fn protocol_error(&mut self, what: &str) {
        self.stats.protocol_errors += 1;
        debug_assert!(false, "protocol error: {what}");
    }
}

/// [`Egress::next_link`]'s failure, kept off the per-frame path.
#[cold]
#[inline(never)]
fn no_route(at: NodeId, dst: NodeId) -> ! {
    panic!("no route from {at:?} to {dst:?}")
}

/// The overlay world. Construct with [`TorNetwork::new`], add nodes and
/// circuits, then drive with a [`simcore::Simulator`](simcore::sim::Simulator)
/// after scheduling [`TorEvent::StartCircuit`] events.
///
/// A world is a value: it owns all its state, so a clone (or a clone of
/// the `Simulator` that holds it) is a fork that runs on by itself.
#[derive(Clone)]
pub struct TorNetwork {
    /// Links, schedulers, routing, pool and counters (see [`Egress`]).
    pub(super) egress: Egress,
    pub(super) nodes: Vec<OverlayNode>,
    pub(super) circuits: Vec<CircuitInfo>,
    /// Application-level requests, tracked across circuit incarnations
    /// (see [`crate::workload`]).
    pub(super) flows: Vec<FlowState>,
    /// Route table under link-local circuit ids (see [`LinkRoute`]): an
    /// id whose both ends were reclaimed is the next one minted, so churn
    /// recycles ids instead of growing the table.
    pub(super) link_routes: Slab<LinkRoute>,
    pub(super) factory: CcFactory,
    pub(super) rng: SimRng,
    /// Circuit placement (see [`placement`]); `None` for explicit-path
    /// worlds.
    placement: Option<placement::Placement>,
    /// Fault-recovery state (see [`faults`]); `None` for fault-free
    /// worlds.
    faults: Option<faults::FaultState>,
    /// Payload walks not held by a live participation: the server's
    /// verify of each DATA cell, and the counts folded in from reclaimed
    /// participations (see [`TorNetwork::payload_passes`]).
    /// A work count, deliberately outside [`WorldStats`] and the
    /// fingerprint: it describes the implementation, not the run.
    pub(super) payload_passes: u64,
    /// Events handled so far, by kind — a work count like
    /// `payload_passes`, and outside the fingerprint for the same reason.
    events_handled: EventsHandled,
    /// Streaming twin of [`TorNetwork::flow_completion_cdf`]: every flow
    /// completion is folded in (seconds) the moment it happens, so the
    /// distribution is available at O(buckets) memory without retaining
    /// per-flow samples.
    pub(super) completion_sketch: QuantileSketch,
}

impl TorNetwork {
    /// Creates an overlay over an already-built network and the
    /// `topology` built on it ([`Path::build`](netsim::topology::Path::build),
    /// [`Star::build`]), which routes and addresses every frame: overlay
    /// node `i` will live on `topology.node(i)`. A star built without
    /// links mints a leaf's access links, and their schedulers, the first
    /// time a path crosses it ([`TorNetwork::add_circuit_with_workload`]),
    /// so a leaf no circuit ever uses costs no link and link ids follow
    /// first-use order.
    pub fn new(
        net: Net<WireFrame>,
        topology: Topology,
        factory: CcFactory,
        rng: SimRng,
    ) -> TorNetwork {
        // At most one overlay node per network node.
        let nodes = Vec::with_capacity(net.node_count());
        // Id 0 is reserved (CircuitId::CONTROL).
        let mut link_routes = Slab::default();
        link_routes.insert(LinkRoute::default());
        TorNetwork {
            egress: Egress::new(net, topology),
            nodes,
            circuits: Vec::new(),
            flows: Vec::new(),
            link_routes,
            factory,
            rng,
            placement: None,
            faults: None,
            payload_passes: 0,
            events_handled: EventsHandled::default(),
            completion_sketch: QuantileSketch::default(),
        }
    }

    /// The star this world sits on, if it was built on one.
    pub fn star(&self) -> Option<&Star> {
        match &self.egress.topology {
            Topology::Star(star) => Some(star),
            Topology::Path(_) => None,
        }
    }

    /// The two links a stall at overlay node `node` throttles
    /// ([`Topology::access_links`]): on a path its upstream hop, `None`
    /// for the client; in a star its leaf's `[uplink, downlink]`, minted
    /// now if no circuit has crossed it yet, each with a new idle
    /// scheduler, so every per-frame table stays a dense array indexed by
    /// `LinkId`.
    pub(crate) fn access_links(&mut self, node: OverlayId) -> Option<[LinkId; 2]> {
        let egress = &mut self.egress;
        let links = egress.topology.access_links(&mut egress.net, node.index());
        let link_count = egress.net.link_count();
        egress
            .link_sched
            .resize_with(link_count, LinkScheduler::new);
        links
    }

    /// Registers one endpoint of a link-local circuit id: at `node`,
    /// frames from `from` on `link_id` resolve to `(circ, local, dir)`.
    pub(super) fn register_route(
        &mut self,
        link_id: CircuitId,
        node: OverlayId,
        from: OverlayId,
        circ: CircId,
        local: u32,
        dir: Direction,
    ) {
        let entry = self.link_routes.get_mut(link_id.0);
        let end = RouteEnd {
            node,
            from,
            circ,
            local,
            dir,
        };
        if entry.a.is_none() {
            entry.a = Some(end);
        } else {
            debug_assert!(
                entry.b.is_none(),
                "link id {link_id:?} has two ends only: a={:?} b={:?} new={end:?}",
                entry.a,
                entry.b
            );
            entry.b = Some(end);
        }
    }

    /// Clears `node`'s end of link-local id `link_id` (teardown
    /// reclamation). Once both ends are gone the id's slot is freed and a
    /// later circuit build re-mints it — unless any end was
    /// force-reaped ([`LinkRoute::retired`]), in which case the id is
    /// permanently retired: the reap wrote off in-flight frames that
    /// may still carry it, and re-minting would let a straggler resolve
    /// against the wrong circuit. Retirement is bounded by crashes ×
    /// path length, so the table stays effectively flat.
    pub(super) fn clear_route_end(&mut self, link_id: CircuitId, node: OverlayId) {
        let entry = self.link_routes.get_mut(link_id.0);
        if entry.a.is_some_and(|e| e.node == node) {
            entry.a = None;
        }
        if entry.b.is_some_and(|e| e.node == node) {
            entry.b = None;
        }
        if entry.a.is_none() && entry.b.is_none() && !entry.retired {
            self.link_routes.remove(link_id.0);
        }
    }

    /// Resolves an arriving cell's `(receiving node, sending neighbour,
    /// link-local id)` to `(global circuit, node-local index, flow
    /// direction)` — the per-cell route lookup, run once per frame an
    /// overlay node receives. Both ends are compared where they lie in
    /// the table, end `a` first: at that rate, copying the 44-byte
    /// [`LinkRoute`] out is a measurable share of a cell. An id freed or
    /// never minted (a hostile or stale frame's) resolves to `None`.
    #[inline]
    pub(super) fn route_of(
        &self,
        to: OverlayId,
        from: OverlayId,
        link_id: CircuitId,
    ) -> Option<(CircId, u32, Direction)> {
        let entry = self.link_routes.try_get(link_id.0)?;
        let hit = |end: &Option<RouteEnd>| match end {
            Some(e) if e.node == to && e.from == from => Some((e.circ, e.local, e.dir)),
            _ => None,
        };
        hit(&entry.a).or_else(|| hit(&entry.b))
    }

    /// Registers the next overlay participant: overlay node `i` lives on
    /// the topology's node `i`.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no participant `i`.
    pub fn add_overlay(&mut self, role: NodeRole) -> OverlayId {
        self.add_overlays(std::iter::once(role))
    }

    /// Registers one overlay participant per role, in order, under
    /// consecutive ids from the one returned: a star's leaves in one
    /// pass, each node written once where it will live.
    ///
    /// # Panics
    ///
    /// As [`TorNetwork::add_overlay`], for any of the participants.
    pub(crate) fn add_overlays(&mut self, roles: impl IntoIterator<Item = NodeRole>) -> OverlayId {
        let first = self.nodes.len();
        let topology = &self.egress.topology;
        self.nodes
            .extend(roles.into_iter().enumerate().map(|(k, role)| {
                let id = OverlayId(u32::try_from(first + k).expect("too many overlay nodes"));
                OverlayNode::new(id, topology.node(id.index()), role)
            }));
        OverlayId(u32::try_from(first).expect("too many overlay nodes"))
    }

    /// Registers a new application-level flow of `requested` bytes.
    pub fn add_flow(&mut self, requested: u64) -> FlowId {
        let id = FlowId(u32::try_from(self.flows.len()).expect("too many flows"));
        self.flows.push(FlowState::new(requested));
        id
    }

    /// Registers a circuit over `path` carrying a resolved workload
    /// (streams must reference flows registered via
    /// [`TorNetwork::add_flow`]). `incarnation` counts rebuild cycles
    /// (0 = original build). It asks the topology for the access links
    /// of every node on `path` (`TorNetwork::access_links`), which in a
    /// star world mints a leaf's pair the first time a path crosses it;
    /// every placement and rebuild passes through here before a frame can
    /// cross its path.
    pub fn add_circuit_with_workload(
        &mut self,
        path: Vec<OverlayId>,
        workload: CircuitWorkload,
        incarnation: u32,
    ) -> CircId {
        assert!(
            path.len() >= 2,
            "a circuit needs at least client and server"
        );
        for &n in &path {
            assert!(n.index() < self.nodes.len(), "unknown overlay node on path");
            self.access_links(n);
        }
        assert!(!workload.streams.is_empty(), "a circuit needs a stream");
        for s in &workload.streams {
            assert!(s.flow.index() < self.flows.len(), "unregistered flow");
        }
        let id = CircId(u32::try_from(self.circuits.len()).expect("too many circuits"));
        let accounted = self.account_placement(&path);
        self.circuits.push(CircuitInfo {
            path,
            started_at: None,
            workload,
            incarnation,
            accounted,
            retries: 0,
            liveness_snapshot: 0,
        });
        id
    }

    /// The underlying packet network (for link telemetry).
    pub fn net(&self) -> &Net<WireFrame> {
        &self.egress.net
    }

    /// Global counters.
    pub fn stats(&self) -> &WorldStats {
        &self.egress.stats
    }

    /// How many times any stage has walked a relay-cell payload end to
    /// end so far: fill, digest and onion wrap at the client, strip +
    /// recognition at every hop, layer adds and unwraps on the way back,
    /// and the server's verify. A pure function of the cells processed —
    /// the noise-free work count behind the per-cell cost
    /// (`tests/payload_passes.rs` pins it per delivered DATA cell).
    pub fn payload_passes(&self) -> u64 {
        let live: u64 = self.nodes.iter().map(OverlayNode::payload_passes).sum();
        self.payload_passes + live
    }

    /// How many events [`World::handle`] has been given so far, by kind.
    /// A pure function of the seed — the noise-free work count behind the
    /// kernel's share of a cell (`tests/events_per_cell.rs` pins it per
    /// delivered DATA cell).
    pub fn events_handled(&self) -> EventsHandled {
        self.events_handled
    }

    /// The payload buffer pool (telemetry: fresh allocations vs reuses).
    pub fn payload_pool(&self) -> &PayloadPool {
        &self.egress.payload_pool
    }

    /// The static record of a circuit.
    pub fn circuit_info(&self, circ: CircId) -> &CircuitInfo {
        &self.circuits[circ.index()]
    }

    /// Number of registered circuits (every incarnation counts).
    pub fn circuit_count(&self) -> usize {
        self.circuits.len()
    }

    /// All application-level flows.
    pub fn flows(&self) -> &[FlowState] {
        &self.flows
    }

    /// One flow's state.
    pub fn flow(&self, flow: FlowId) -> &FlowState {
        &self.flows[flow.index()]
    }

    /// Request-to-last-byte completion times of all completed flows —
    /// the per-stream CDF of a workload experiment. Exact but O(flows):
    /// see [`flow_completion_sketch`](Self::flow_completion_sketch) for
    /// the fixed-size streaming twin.
    pub fn flow_completion_cdf(&self) -> Option<simstats::cdf::Cdf> {
        simstats::cdf::Cdf::from_samples(
            self.flows
                .iter()
                .filter_map(|f| f.completion_time())
                .map(|d| d.as_secs_f64())
                .collect(),
        )
    }

    /// The streaming completion-time sketch (seconds): fed as each flow
    /// finishes, mergeable across worlds, within
    /// [`QuantileSketch::ALPHA`] relative error of the exact CDF. Empty
    /// until the first completion.
    pub fn flow_completion_sketch(&self) -> &QuantileSketch {
        &self.completion_sketch
    }

    /// How the link-route table is used: ids routed (or retired) now,
    /// the most ever held at once, and slots reserved. The high water
    /// stays flat across churn cycles once freed ids come back.
    pub fn link_routes(&self) -> SlabUse {
        self.link_routes.usage()
    }

    /// An overlay node.
    pub fn node(&self, id: OverlayId) -> &OverlayNode {
        &self.nodes[id.index()]
    }

    /// Number of overlay nodes (clients + relays + servers).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The client's forward hop transport of a circuit, if built.
    pub fn client_transport(&self, circ: CircId) -> Option<&HopTransport> {
        let client = *self.circuits[circ.index()].path.first()?;
        let nc = self.nodes[client.index()].circuit(circ)?;
        Some(&nc.fwd.as_ref()?.transport)
    }

    /// The recorded source congestion-window trace of a circuit: every
    /// change of the client's forward window (the Figure 1 trace).
    pub fn source_cwnd_trace(&self, circ: CircId) -> Option<&[(SimTime, u32)]> {
        self.client_transport(circ)?.cwnd_trace()
    }

    /// The forward-queue high-water mark at `node` for `circ` — the
    /// backpressure bound tests assert on.
    pub fn fwd_queue_hwm(&self, node: OverlayId, circ: CircId) -> Option<usize> {
        let nc = self.nodes[node.index()].circuit(circ)?;
        Some(nc.fwd.as_ref()?.queue_hwm)
    }

    /// The round-robin scheduler backlog high-water mark of an egress
    /// link — where queueing shows up now that links take one frame at a
    /// time.
    pub fn sched_backlog_hwm(&self, link: netsim::link::LinkId) -> usize {
        self.egress.link_sched[link.index()].high_water_mark()
    }

    /// Queue slots the egress links' schedulers hold reserved, summed
    /// over every link ([`LinkScheduler::reserved_slots`]). A slot is one
    /// 4-byte [`FrameHandle`]: the frames wait in the `Net`'s store.
    pub fn sched_reserved_slots(&self) -> usize {
        self.egress
            .link_sched
            .iter()
            .map(LinkScheduler::reserved_slots)
            .sum()
    }

    /// The bytes each world-scale owner reserves ([`MemoryLedger`]).
    /// Read-only: a world that reads it runs to the same fingerprint.
    pub fn memory(&self) -> MemoryLedger {
        let egress = &self.egress;
        MemoryLedger {
            frame_store: egress.net.frame_store_bytes(),
            hop_send_times: self
                .nodes
                .iter()
                .map(OverlayNode::hop_send_time_bytes)
                .sum(),
            node_slabs: self.nodes.iter().map(OverlayNode::slab_bytes).sum(),
            hop_cells: egress.hop_cells.reserved_bytes(),
            schedulers: egress
                .link_sched
                .iter()
                .map(LinkScheduler::reserved_bytes)
                .sum(),
            link_routes: self.link_routes.reserved_bytes(),
            payload_pool: egress.payload_pool.reserved_bytes(),
        }
    }

    /// How the world's one slab of hop-queue cells is used
    /// ([`HopCells`]): cells queued now, the most ever queued at once,
    /// and slots reserved.
    pub fn hop_cells(&self) -> SlabUse {
        self.egress.hop_cells.usage()
    }

    /// Collects the measured outcome of every circuit.
    pub fn results(&self) -> Vec<CircuitResult> {
        (0..self.circuits.len())
            .map(|i| self.result_of(CircId(i as u32)))
            .collect()
    }

    /// The measured outcome of one circuit.
    pub fn result_of(&self, circ: CircId) -> CircuitResult {
        let info = &self.circuits[circ.index()];
        let role = |n: &OverlayId| self.nodes[n.index()].circuit(circ).map(|nc| &nc.role);
        let client = match info.path.first().and_then(role) {
            Some(CircuitRole::Client(app)) => Some(app),
            _ => None,
        };
        let server = match info.path.last().and_then(role) {
            Some(CircuitRole::Server { app, .. }) => Some(app),
            _ => None,
        };
        CircuitResult {
            circ,
            first_data_at: client.and_then(|c| c.first_data_at),
            last_byte_at: server.and_then(|s| s.last_byte_at),
            completed: server.is_some_and(|s| s.ended()),
            bytes_delivered: server.map_or(0, |s| s.bytes_received),
            cells_delivered: server.map_or(0, |s| s.cells_received),
            payload_errors: server.map_or(0, |s| s.payload_errors),
        }
    }
}

impl World for TorNetwork {
    type Event = TorEvent;

    fn handle(&mut self, ctx: &mut Context<'_, TorEvent>, event: TorEvent) {
        match event {
            TorEvent::Net(NetEvent::TxComplete { link }) => {
                self.events_handled.tx_complete += 1;
                // A cell that just finished serializing is now physically
                // forwarded: pay the feedback owed to the upstream
                // neighbour. `take()` ensures intermediate switches (the
                // star hub) do not pay it a second time. On a wake-up
                // (DESIGN.md §3) no frame waited for this instant and the
                // link only needs its refill.
                let egress = &mut self.egress;
                let confirm = egress
                    .net
                    .transmitting_mut(link)
                    .and_then(|f| f.confirm.take());
                egress.net.on_tx_complete(ctx, link);
                // Serve the next scheduled frame before anything else so
                // the link never idles while work is waiting.
                egress.refill_link(ctx, link);
                if let Some(cf) = confirm {
                    let my_net = egress.net.link_src(link);
                    egress.send_feedback(ctx, my_net, cf);
                }
            }
            TorEvent::Net(NetEvent::Deliver { link }) => {
                self.events_handled.deliver += 1;
                let egress = &mut self.egress;
                let frame = egress.net.take_delivered(link);
                let here = egress.net.link_dst(link);
                if here != frame.dst {
                    // An intermediate switch (the star hub): forward.
                    let next = egress.next_link(here, frame.dst);
                    egress.net.send(ctx, next, frame);
                } else {
                    self.deliver(ctx, frame);
                }
            }
            control => {
                self.events_handled.other += 1;
                match control {
                    TorEvent::Net(_) => unreachable!("both link events are arms above"),
                    TorEvent::StartCircuit(circ) => self.start_circuit(ctx, circ),
                    TorEvent::Teardown(circ) => self.teardown(ctx, circ, DESTROY_REASON_FINISHED),
                    TorEvent::StreamArrival { circ, stream } => {
                        self.stream_arrival(ctx, circ, stream)
                    }
                    TorEvent::Rebuild(circ) => self.rebuild_circuit(ctx, circ),
                    TorEvent::Epoch(epoch) => self.apply_epoch(ctx, epoch),
                    TorEvent::SetLinkRate { link, rate } => {
                        self.egress.net.set_link_rate(link, rate)
                    }
                    TorEvent::RelayCrash { relay } => self.relay_crash(ctx, relay),
                    TorEvent::CircTimeout { circ, kind } => self.circ_timeout(ctx, circ, kind),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backtap::algorithm::Algorithm;
    use netsim::bandwidth::Bandwidth;
    use netsim::link::LinkConfig;
    use netsim::topology::Path;
    use simcore::time::SimDuration;

    /// A network holding only a 2-hop path: nodes 0 — 1 — 2.
    fn two_hops() -> (Net<WireFrame>, Path) {
        let mut net = Net::new();
        let cfg = LinkConfig::new(Bandwidth::from_mbps(1), SimDuration::ZERO);
        let path = Path::build(&mut net, &[cfg; 2]);
        (net, path)
    }

    /// The fill pattern's arithmetic definition, wrapping like the
    /// release-build loop the ramp window replaced.
    fn pattern_byte(circ: CircId, idx: u64, i: usize) -> u8 {
        let base = (u64::from(circ.0) * 131).wrapping_add(idx.wrapping_mul(31));
        (base.wrapping_add(i as u64) & 0xFF) as u8
    }

    /// All three fill functions against the definition, plus rejection of
    /// every single-byte flip and of a neighbouring `idx`.
    fn check(circ: CircId, idx: u64, len: usize) {
        let expect: Vec<u8> = (0..len).map(|i| pattern_byte(circ, idx, i)).collect();
        let mut into = vec![0xEE; len];
        fill_pattern_into(circ, idx, &mut into);
        assert_eq!(into, expect, "into: circ {circ:?} idx {idx} len {len}");
        if len <= RELAY_DATA_MAX {
            let window = fill_pattern_window(circ, idx, len);
            assert_eq!(window, expect, "window: idx {idx} len {len}");
        }
        assert!(verify_fill_pattern(circ, idx, &expect));
        for i in 0..len {
            into[i] ^= 0x10;
            assert!(
                !verify_fill_pattern(circ, idx, &into),
                "flip at {i} of {len} accepted"
            );
            into[i] ^= 0x10;
        }
        if len > 0 {
            assert!(!verify_fill_pattern(circ, idx.wrapping_add(1), &expect));
        }
    }

    #[test]
    fn fill_functions_agree_with_the_arithmetic_definition_at_every_window_start() {
        // idx 0..256 on circuit 1 visits every window start (31 is odd);
        // 600 bytes run off the ramp for starts > 152 — the fallback.
        let mut starts = [false; 256];
        for idx in 0..256u64 {
            starts[pattern_byte(CircId(1), idx, 0) as usize] = true;
            for len in [0, 1, 7, 8, 495, RELAY_DATA_MAX, 600] {
                check(CircId(1), idx, len);
            }
        }
        assert!(starts.iter().all(|&seen| seen), "not every window start");
        check(CircId(u32::MAX), 12_345, RELAY_DATA_MAX);
    }

    #[test]
    fn fill_pattern_at_the_top_of_the_index_range_wraps_like_the_byte_loop() {
        // `idx * 31` just fits; `base + i` passes u64::MAX from i = 16 on.
        // Only `base & 0xFF` matters, so every path wraps — what the
        // release-build byte loop did (its debug build panicked instead).
        for len in [15, 16, RELAY_DATA_MAX, 600] {
            check(CircId(0), u64::MAX / 31, len);
        }
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn an_unroutable_frame_panics() {
        let (net, path) = two_hops();
        let (a, c) = (path.nodes[0], path.nodes[2]);
        let _ = Egress::new(net, Topology::Path(path)).next_link(a, c);
    }

    /// The reference for `route_of`: search both ends, `a` before `b`,
    /// for the first one registered at `to` for frames from `from`.
    fn find_over_both_ends(
        w: &TorNetwork,
        to: OverlayId,
        from: OverlayId,
        id: CircuitId,
    ) -> Option<(CircId, u32, Direction)> {
        let entry = w.link_routes.try_get(id.0)?;
        [entry.a, entry.b]
            .into_iter()
            .flatten()
            .find(|e| e.node == to && e.from == from)
            .map(|e| (e.circ, e.local, e.dir))
    }

    #[test]
    fn route_of_answers_what_a_find_over_both_ends_answers() {
        use Direction::{Backward, Forward};

        let factory = Algorithm::FixedWindow(4).factory(Default::default());
        let (net, path) = two_hops();
        let mut w = TorNetwork::new(net, Topology::Path(path), factory, SimRng::seed_from(1));
        let (x, y, z) = (OverlayId(0), OverlayId(1), OverlayId(2));
        let c = CircId(7);
        let [both, a_cleared, b_absent, cleared, twice] =
            std::array::from_fn(|_| w.alloc_link_circ_id());
        for id in [both, a_cleared, cleared] {
            w.register_route(id, y, x, c, 1, Forward);
            w.register_route(id, x, y, c, 2, Backward);
        }
        w.register_route(b_absent, y, x, c, 3, Forward);
        w.register_route(twice, y, x, c, 4, Forward);
        w.register_route(twice, y, x, c, 5, Forward);
        w.clear_route_end(a_cleared, y);
        w.clear_route_end(cleared, y);
        w.clear_route_end(cleared, x);
        let past = CircuitId(twice.0 + 1);

        let rows = [
            (both, y, x, Some((c, 1, Forward))),       // `a` matches
            (both, x, y, Some((c, 2, Backward))),      // `b` matches
            (both, z, x, None),                        // `to` mismatched
            (both, y, z, None),                        // `from` mismatched
            (a_cleared, y, x, None),                   // cleared `a`
            (a_cleared, x, y, Some((c, 2, Backward))), // `b` survives it
            (b_absent, y, x, Some((c, 3, Forward))),   // `a` alone
            (b_absent, x, y, None),                    // absent `b`
            (cleared, y, x, None),                     // both cleared: freed
            (twice, y, x, Some((c, 4, Forward))),      // `a` before `b`
            (past, y, x, None),                        // id past the table
            (CircuitId(u32::MAX), y, x, None),
        ];
        for (id, to, from, expect) in rows {
            assert_eq!(
                w.route_of(to, from, id),
                expect,
                "{id:?} {to:?} <- {from:?}"
            );
        }
        for id in (0..=past.0).map(CircuitId) {
            for to in [x, y, z] {
                for from in [x, y, z] {
                    assert_eq!(
                        w.route_of(to, from, id),
                        find_over_both_ends(&w, to, from, id),
                        "{id:?} {to:?} <- {from:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_route_table_slot_is_44_bytes() {
        // Two ends of 20 and the retired flag; a free slot's `None`
        // takes a niche. `route_of` reads the slot where it lies.
        assert_eq!(std::mem::size_of::<Option<LinkRoute>>(), 44);
    }

    /// Feedback credits the hop opposite its route's direction. The scan
    /// that did it before picked the hop whose neighbour is the sender;
    /// the two agree at every end a build registers: the client's (from
    /// its first hop), and each relay's from its predecessor and from its
    /// successor.
    #[test]
    fn every_route_end_reversed_is_the_hop_to_its_sender() {
        use Direction::{Backward, Forward};

        let factory = Algorithm::FixedWindow(4).factory(Default::default());
        let hop = LinkConfig::new(Bandwidth::from_mbps(10), SimDuration::from_millis(1));
        let scenario = crate::builder::PathScenario {
            hops: vec![hop; 4],
            file_bytes: 4_960,
            ..Default::default()
        };
        let (mut sim, h) = scenario.build(factory, 3);
        sim.run();
        let w = sim.world();
        assert!(w.result_of(h.circ).completed);
        let scan = |nc: &crate::node::NodeCircuit, from: OverlayId| {
            [(Forward, &nc.fwd), (Backward, &nc.bwd)]
                .into_iter()
                .find(|(_, hop)| hop.as_ref().is_some_and(|h| h.neighbor == from))
                .map(|(dir, _)| dir)
        };
        // Ends at the client, at a node from its predecessor, at a relay
        // from its successor; overlay node `i` is path node `i`.
        let mut sites = [0; 3];
        for end in w.link_routes.values().flat_map(|r| [r.a, r.b]).flatten() {
            let nc = w.nodes[end.node.index()].circuit_at(end.local);
            assert_eq!(scan(nc, end.from), Some(end.dir.opposite()), "{end:?}");
            let site = match (&nc.role, end.from < end.node) {
                (crate::node::CircuitRole::Client(_), _) => 0,
                (_, true) => 1,
                (_, false) => 2,
            };
            sites[site] += 1;
        }
        // Client 0, relays 1–3, server 4.
        assert_eq!(sites, [1, 4, 3]);
    }

    /// The factory windows forward hops only: a backward (control-only)
    /// hop runs no window whatever the factory returns.
    #[test]
    fn backward_hops_are_unwindowed_whatever_the_factory_returns() {
        let factory = Algorithm::FixedWindow(1).factory(Default::default());
        let hop = LinkConfig::new(Bandwidth::from_mbps(10), SimDuration::from_millis(1));
        let scenario = crate::builder::PathScenario {
            hops: vec![hop; 4],
            file_bytes: 4_960,
            ..Default::default()
        };
        let (mut sim, h) = scenario.build(factory, 3);
        sim.run();
        let w = sim.world();
        assert!(w.result_of(h.circ).completed);
        let (mut fwd, mut bwd) = (0, 0);
        for node in &w.nodes {
            let nc = node
                .circuit(h.circ)
                .expect("every path node carries the circuit");
            if let Some(hop) = &nc.fwd {
                assert_eq!(hop.transport.cwnd(), 1, "{:?}", node.id);
                fwd += 1;
            }
            if let Some(hop) = &nc.bwd {
                assert_eq!(hop.transport.cwnd(), u32::MAX, "{:?}", node.id);
                bwd += 1;
            }
        }
        // Client 0 and relays 1–3 send forward; relays 1–3 and server 4
        // send backward.
        assert_eq!((fwd, bwd), (4, 4));
    }
}
