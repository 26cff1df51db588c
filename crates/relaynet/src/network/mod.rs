//! The overlay engine: a [`simcore::World`] tying relays, circuits,
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
//! * [`conn`] — the connection layer: link-local frame ingress/egress,
//!   per-link round-robin scheduling, and the window-gated egress pump
//!   (methods of [`Egress`], the one owner of the link side).
//! * [`recognition`] — per-cell routing: resolves `(neighbour, link id)`
//!   to circuit state and applies leaky-pipe recognition to relay cells,
//!   deciding *consume here* vs *forward onward*.
//! * [`circuit_build`] — the control plane: CREATE/CREATED/EXTEND/
//!   EXTENDED telescoping, DESTROY propagation, teardown.
//! * [`client_xfer`] — the endpoint applications: the client transfer
//!   loop (BEGIN → DATA → END) and the server's consume path.
//! * [`feedback`] — per-hop feedback frames: emission when a cell leaves
//!   a queue and window-credit application when one arrives.

pub(crate) mod circuit_build;
pub(crate) mod client_xfer;
pub(crate) mod conn;
pub(crate) mod faults;
pub(crate) mod feedback;
pub(crate) mod recognition;

use netsim::link::LinkId;
use netsim::net::{Net, NetEvent, NodeId, SendOutcome};
use netsim::topology::{AccessLinks, Star};
use simcore::rng::SimRng;
use simcore::sim::{Context, World};
use simcore::time::SimTime;
use simstats::registry::MetricsRegistry;
use simstats::sketch::QuantileSketch;

use backtap::hop::HopTransport;
use torcell::cell::RELAY_DATA_MAX;
use torcell::ids::CircuitId;

use crate::circuit::{CircuitInfo, CircuitResult};
use crate::directory::{Directory, EpochDelta};
use crate::event::TorEvent;
use crate::ids::{CircId, Direction, OverlayId};
use crate::node::{CcFactory, NodeRole, OverlayNode};
use crate::pool::PayloadPool;
use crate::router::Router;
use crate::sampler::SamplerKind;
use crate::scheduler::LinkScheduler;
use crate::selection::{DirectoryView, SelectionEngine, SelectionPolicy};
use crate::wire::WireFrame;
use crate::workload::FaultSpec;
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
    /// Timeout-driven rebuild attempts scheduled under backoff.
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

/// Appends the fill pattern for cell `idx` of `circ` onto `buf` — the
/// form the pooled data path uses (the pool hands out empty buffers, so
/// extending writes each byte exactly once).
#[inline]
pub fn fill_pattern_extend(circ: CircId, idx: u64, len: usize, buf: &mut Vec<u8>) {
    let pattern = FillPattern::new(circ, idx);
    match pattern.window(len) {
        Some(window) => buf.extend_from_slice(window),
        None => buf.extend((0..len).map(|i| pattern.byte(i))),
    }
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

/// Both endpoints of one link-local circuit id. Link ids are minted from
/// a global counter, so the table is a dense `Vec` indexed by the id —
/// route resolution on the per-cell path is an array load plus an
/// endpoint compare, no tree walk.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct LinkRoute {
    pub(super) a: Option<RouteEnd>,
    pub(super) b: Option<RouteEnd>,
    /// Set when an end was cleared by a force-reap rather than a
    /// quiesced teardown: the reap writes off in-flight frames that may
    /// still carry this id, so the id is *retired* instead of returning
    /// to the free list — a late frame then resolves to nothing (and is
    /// stale-dropped) instead of colliding with a re-minted id.
    pub(super) retired: bool,
}

/// Circuit-placement state: the relay population, the selection policy,
/// its dedicated randomness stream, and **live load telemetry** — the
/// number of circuits currently routed through each relay, incremented
/// when a circuit is registered and decremented when its client-side
/// participation is reclaimed after a DESTROY wave. Installed by star
/// scenarios ([`TorNetwork::install_placement_with_sampler`]); worlds without it
/// (explicit-path scenarios) rebuild churned circuits over the original
/// path instead of re-selecting.
pub(super) struct PlacementState {
    /// The SoA relay store: bandwidth, delay, and liveness columns,
    /// indexed by relay id (the directory order).
    directory: Directory,
    /// Relay id → overlay node hosting that relay.
    relay_overlays: Vec<OverlayId>,
    /// Overlay index → relay id (`u32::MAX` = not a relay). Only spans
    /// the relay overlays; later overlays (clients/servers) fall off the
    /// end, which reads as "not a relay".
    relay_of_overlay: Vec<u32>,
    /// Relays excluded from selection after being blamed for a circuit
    /// timeout (the client-side failure-attribution set; orthogonal to
    /// directory liveness, which only epochs toggle).
    excluded: Vec<bool>,
    /// Circuits currently routed through each relay.
    load: Vec<u32>,
    /// High-water mark of `load`: the worst concentration each relay
    /// ever saw, surviving teardown decrements — the per-relay hotspot
    /// metric placement experiments compare.
    load_hwm: Vec<u32>,
    /// The pluggable policy (see [`crate::selection`]).
    policy: SelectionPolicy,
    /// The placement randomness stream; policies may only draw from
    /// here (DESIGN.md §9).
    rng: SimRng,
    /// The incremental selection engine: sampler kept in lockstep with
    /// the load ledger and liveness column, plus reusable scratch
    /// buffers (see [`crate::selection::SelectionEngine`]).
    engine: SelectionEngine,
}

impl PlacementState {
    /// The relay id hosted by `node`, if any.
    fn relay_of(&self, node: OverlayId) -> Option<usize> {
        match self.relay_of_overlay.get(node.index()) {
            Some(&r) if r != u32::MAX => Some(r as usize),
            _ => None,
        }
    }

    /// Propagates one relay's load-ledger change into the sampler
    /// (O(log n); a no-op for load-insensitive policies).
    fn note_load_change(&mut self, relay: usize) {
        let PlacementState {
            directory,
            load,
            excluded,
            policy,
            engine,
            ..
        } = self;
        engine.load_changed(
            policy.as_ref(),
            &DirectoryView::with_exclusions(directory, load, excluded),
            relay,
        );
    }
}

/// Runtime fault-injection state: which relays have crashed, the backoff
/// jitter stream, and the circuits parked after exhausting recovery.
/// Installed by scenarios carrying a [`FaultSpec`]; worlds without it
/// take none of the fault branches (the seam is free when unused).
pub(super) struct FaultState {
    /// The resolved timer/backoff parameters.
    pub(super) spec: FaultSpec,
    /// Overlay index → crashed flag (grown lazily; a crashed relay
    /// silently drops every frame addressed to it).
    pub(super) crashed: Vec<bool>,
    /// Backoff jitter stream, consumed only when a timeout fires — so a
    /// fault schedule that never fires a timer perturbs nothing.
    pub(super) jitter: SimRng,
    /// Circuits whose flows are parked (retry cap hit, or the selectable
    /// relay set fell below the interior path length); resumed when the
    /// next epoch join replenishes the live set.
    pub(super) parked: Vec<CircId>,
}

impl FaultState {
    /// Whether the overlay node at `idx` has crashed.
    #[inline]
    pub(super) fn is_crashed(&self, idx: usize) -> bool {
        self.crashed.get(idx).copied().unwrap_or(false)
    }

    /// Marks the overlay node at `idx` crashed; returns `false` if it
    /// already was.
    pub(super) fn mark_crashed(&mut self, idx: usize) -> bool {
        if self.crashed.len() <= idx {
            self.crashed.resize(idx + 1, false);
        }
        if self.crashed[idx] {
            return false;
        }
        self.crashed[idx] = true;
        true
    }
}

/// The link side of the world: everything a stage needs to put a frame
/// on a wire and account for it. One field of [`TorNetwork`], disjoint
/// from `nodes`, so the egress helpers (`pump_dir`, `send_feedback`, the
/// teardown drains — see [`conn`], [`feedback`], [`circuit_build`]) are
/// `&mut self` methods callable while a `&mut NodeCircuit` is held.
pub(super) struct Egress {
    pub(super) net: Net<WireFrame>,
    /// Per-link round-robin circuit schedulers (overlay egress links; the
    /// hub's links stay FIFO — the backbone is not ours to schedule).
    /// One per link of `net`, indexed by `LinkId`.
    pub(super) link_sched: Vec<LinkScheduler>,
    pub(super) router: Router,
    /// A star world's topology, whose access links are minted the first
    /// time a circuit crosses a leaf ([`Egress::access_links`]); `None`
    /// for explicit-link worlds.
    star: Option<Star>,
    /// Overlay index → backing network node (read-only after setup).
    pub(super) net_node_of: Vec<NodeId>,
    /// Recycles DATA payload buffers between server consumption and
    /// client generation (see [`crate::pool`]).
    pub(super) payload_pool: PayloadPool,
    pub(super) stats: WorldStats,
}

impl Egress {
    /// The link side of an overlay over `net`, with one idle scheduler
    /// per link and no overlay nodes yet.
    pub(super) fn new(net: Net<WireFrame>, router: Router) -> Egress {
        let link_sched = (0..net.link_count())
            .map(|_| LinkScheduler::new())
            .collect();
        Egress {
            net,
            link_sched,
            router,
            star: None,
            net_node_of: Vec::new(),
            payload_pool: PayloadPool::new(),
            stats: WorldStats::default(),
        }
    }

    /// The `[uplink, downlink]` of star leaf `leaf`. The first call for a
    /// leaf mints the pair, which also routes it ([`Egress::next_link`]),
    /// and appends one idle scheduler per link, so every per-frame table
    /// stays a dense array indexed by `LinkId`. `None` in a world without
    /// a star.
    fn access_links(&mut self, leaf: NodeId) -> Option<[LinkId; 2]> {
        let star = self.star.as_mut()?;
        if let Some(AccessLinks { up, down }) = star.links_of(leaf) {
            return Some([up, down]);
        }
        let AccessLinks { up, down } = star.mint(&mut self.net, leaf);
        self.link_sched
            .extend([LinkScheduler::new(), LinkScheduler::new()]);
        debug_assert_eq!(self.link_sched.len(), self.net.link_count());
        Some([up, down])
    }

    /// The link a frame at network node `at` bound for `dst` leaves on: a
    /// star world routes through its minted access links, so its routing
    /// table stays empty; an explicit-link world asks the table.
    ///
    /// # Panics
    ///
    /// Panics if no route exists — frames must never be addressed to
    /// unreachable nodes.
    #[inline]
    pub(super) fn next_link(&self, at: NodeId, dst: NodeId) -> LinkId {
        let link = match &self.star {
            Some(star) => star.route(at, dst),
            None => self.router.next_link(at, dst),
        };
        match link {
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

    /// A frame that cannot be resolved (unknown route, retired
    /// sequence): with faults installed this is expected — stale traffic
    /// racing a force-abandoned or crash-reaped circuit — and is counted
    /// as a stale drop. Without faults it remains a hard protocol error:
    /// a dropped cell must never panic the World, but a world that
    /// cannot lose cells must not silently tolerate one either.
    pub(super) fn stale_or_protocol_error(&mut self, faults: &Option<FaultState>, what: &str) {
        if faults.is_some() {
            self.stats.stale_frames_dropped += 1;
        } else {
            self.protocol_error(what);
        }
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
pub struct TorNetwork {
    /// Links, schedulers, routing, pool and counters (see [`Egress`]).
    pub(super) egress: Egress,
    pub(super) nodes: Vec<OverlayNode>,
    /// Network node index → overlay id (`u32::MAX` = no overlay there,
    /// e.g. the star hub). Dense counterpart of [`Egress::net_node_of`].
    pub(super) overlay_of_net: Vec<u32>,
    pub(super) circuits: Vec<CircuitInfo>,
    /// Application-level requests, tracked across circuit incarnations
    /// (see [`crate::workload`]).
    pub(super) flows: Vec<FlowState>,
    /// Route table indexed by link-local circuit id (see [`LinkRoute`]).
    pub(super) link_routes: Vec<LinkRoute>,
    /// Link-local ids whose both route ends were reclaimed, awaiting
    /// reuse (LIFO for determinism). Churn recycles ids instead of
    /// growing the route table.
    pub(super) free_link_ids: Vec<CircuitId>,
    pub(super) factory: CcFactory,
    pub(super) rng: SimRng,
    /// Circuit-placement seam (relay population + policy + live load);
    /// `None` for explicit-path worlds.
    pub(super) placement: Option<PlacementState>,
    /// Pending consensus epoch deltas, indexed by epoch number; each is
    /// consumed (taken) when its [`TorEvent::Epoch`] fires.
    pub(super) epoch_deltas: Vec<EpochDelta>,
    /// Fault-injection state (crashed relays, backoff jitter, parked
    /// circuits); `None` for fault-free worlds.
    pub(super) faults: Option<FaultState>,
    /// Payload walks not held by a live participation: the server's
    /// verify of each DATA cell, the digest of each control cell built
    /// outside the client's generator, and the counts folded in from
    /// reclaimed participations (see [`TorNetwork::payload_passes`]).
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
    /// Creates an overlay over an already-built network and routing table.
    pub fn new(net: Net<WireFrame>, router: Router, factory: CcFactory, rng: SimRng) -> TorNetwork {
        // At most one overlay node per network node: every per-node
        // table is sized once, here.
        let net_nodes = net.node_count();
        let mut egress = Egress::new(net, router);
        egress.net_node_of.reserve_exact(net_nodes);
        TorNetwork {
            egress,
            nodes: Vec::with_capacity(net_nodes),
            overlay_of_net: vec![u32::MAX; net_nodes],
            circuits: Vec::new(),
            flows: Vec::new(),
            // Id 0 is reserved (CircuitId::CONTROL); keep the table
            // aligned with minted ids.
            link_routes: vec![LinkRoute::default()],
            free_link_ids: Vec::new(),
            factory,
            rng,
            placement: None,
            epoch_deltas: Vec::new(),
            faults: None,
            payload_passes: 0,
            events_handled: EventsHandled::default(),
            completion_sketch: QuantileSketch::default(),
        }
    }

    /// Puts the world on a star built without links ([`Star::build`]):
    /// from now on [`TorNetwork::add_circuit_with_workload`] mints a
    /// leaf's access links, routes and schedulers the first time a path
    /// crosses it, so a leaf no circuit ever uses costs no link. Link ids
    /// follow first-use order.
    ///
    /// # Panics
    ///
    /// Panics if called twice, or if the network already has links.
    pub(crate) fn install_star(&mut self, star: Star) {
        let egress = &mut self.egress;
        assert!(egress.star.is_none(), "star installed twice");
        assert_eq!(egress.net.link_count(), 0, "a lazy star starts linkless");
        egress.star = Some(star);
    }

    /// The star this world sits on, if it was built on one.
    pub fn star(&self) -> Option<&Star> {
        self.egress.star.as_ref()
    }

    /// The `[uplink, downlink]` access links of overlay node `node` in a
    /// star world, minted now if no circuit has crossed it yet — for
    /// events that name a link before any traffic does (a link stall).
    /// `None` in a world without a star.
    pub(crate) fn access_links(&mut self, node: OverlayId) -> Option<[LinkId; 2]> {
        let leaf = self.egress.net_node_of[node.index()];
        self.egress.access_links(leaf)
    }

    /// Installs the fault-recovery parameters and the backoff jitter
    /// stream. Scenarios with a [`FaultSpec`] call this before traffic;
    /// without it, crash events still drop frames omnisciently but no
    /// client timers arm (builders always pair the two).
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn install_faults(&mut self, spec: FaultSpec, jitter: SimRng) {
        assert!(self.faults.is_none(), "faults installed twice");
        self.faults = Some(FaultState {
            spec,
            crashed: Vec::new(),
            jitter,
            parked: Vec::new(),
        });
    }

    /// Whether the overlay node `id` has crashed.
    pub fn is_crashed(&self, id: OverlayId) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.is_crashed(id.index()))
    }

    /// Installs the circuit-placement seam: the relay store paired with
    /// the overlay nodes hosting its relays, the selection policy, the
    /// placement randomness stream, and the sampler backing the
    /// selection engine ([`SamplerKind::Auto`] picks linear below the
    /// crossover, Fenwick at consensus scale; differential suites pin
    /// one — the picks are identical either way, see [`crate::sampler`]).
    /// Must be called before the first placement; all load counters
    /// start at zero.
    ///
    /// # Panics
    ///
    /// Panics if called twice, or if `directory` and `relay_overlays`
    /// disagree in length.
    pub fn install_placement_with_sampler(
        &mut self,
        directory: Directory,
        relay_overlays: Vec<OverlayId>,
        policy: SelectionPolicy,
        rng: SimRng,
        sampler: SamplerKind,
    ) {
        assert!(self.placement.is_none(), "placement installed twice");
        assert_eq!(
            directory.len(),
            relay_overlays.len(),
            "one overlay node per relay spec"
        );
        let span = relay_overlays.iter().map(|o| o.index() + 1).max();
        let mut relay_of_overlay = vec![u32::MAX; span.unwrap_or(0)];
        for (r, &o) in relay_overlays.iter().enumerate() {
            assert!(
                relay_of_overlay[o.index()] == u32::MAX,
                "overlay node hosts two relays"
            );
            relay_of_overlay[o.index()] = u32::try_from(r).expect("relay id fits u32");
        }
        let load = vec![0u32; directory.len()];
        let load_hwm = load.clone();
        let engine = SelectionEngine::new(
            policy.as_ref(),
            &DirectoryView::new(&directory, &load),
            sampler,
        );
        let excluded = vec![false; directory.len()];
        self.placement = Some(PlacementState {
            directory,
            relay_overlays,
            relay_of_overlay,
            excluded,
            load,
            load_hwm,
            policy,
            rng,
            engine,
        });
    }

    /// Asks the installed policy for `path_len` distinct relays under
    /// the current load view, returning the overlay nodes hosting them
    /// (in path order). Used for initial placement by star builders and
    /// by the churn engine when a torn-down circuit rebuilds. Runs
    /// through the incremental [`SelectionEngine`] — no weight rebuild,
    /// no allocation on the steady-state path.
    ///
    /// # Panics
    ///
    /// Panics if no placement is installed, or if the policy violates
    /// its contract (wrong count, out-of-range or repeated indices).
    pub fn select_relays(&mut self, path_len: usize) -> Vec<OverlayId> {
        let p = self
            .placement
            .as_mut()
            .expect("no placement policy installed");
        let PlacementState {
            directory,
            load,
            excluded,
            policy,
            rng,
            engine,
            relay_overlays,
            ..
        } = p;
        let view = DirectoryView::with_exclusions(directory, load, excluded);
        let picks = engine.select(policy.as_ref(), &view, rng, path_len);
        assert_eq!(
            picks.len(),
            path_len,
            "policy `{}` returned {} relays, wanted {path_len}",
            policy.name(),
            picks.len()
        );
        for (i, &a) in picks.iter().enumerate() {
            assert!(
                a < directory.len(),
                "policy `{}` picked out-of-range relay {a}",
                policy.name()
            );
            assert!(
                !picks[..i].contains(&a),
                "policy `{}` picked relay {a} twice",
                policy.name()
            );
        }
        picks.iter().map(|&i| relay_overlays[i]).collect()
    }

    /// Toggles one relay's liveness (consensus epoch churn), updating
    /// the store's live count and the selection engine's weight for that
    /// relay. Returns `false` if the relay was already in that state.
    ///
    /// # Panics
    ///
    /// Panics if no placement is installed.
    pub fn set_relay_live(&mut self, relay: usize, live: bool) -> bool {
        let p = self
            .placement
            .as_mut()
            .expect("no placement policy installed");
        if !p.directory.set_live(relay, live) {
            return false;
        }
        let PlacementState {
            directory,
            load,
            excluded,
            policy,
            engine,
            ..
        } = p;
        engine.relay_changed(
            policy.as_ref(),
            &DirectoryView::with_exclusions(directory, load, excluded),
            relay,
        );
        true
    }

    /// Excludes one relay from future selection (blame after a circuit
    /// timeout), propagating the weight change into the selection
    /// engine. Returns `false` if already excluded or no placement is
    /// installed.
    pub fn exclude_relay(&mut self, relay: usize) -> bool {
        let Some(p) = self.placement.as_mut() else {
            return false;
        };
        if p.excluded[relay] {
            return false;
        }
        p.excluded[relay] = true;
        let PlacementState {
            directory,
            load,
            excluded,
            policy,
            engine,
            ..
        } = p;
        engine.relay_changed(
            policy.as_ref(),
            &DirectoryView::with_exclusions(directory, load, excluded),
            relay,
        );
        true
    }

    /// The relay id hosted by overlay node `node`, if a placement seam is
    /// installed and the node hosts one (blame resolution).
    pub(super) fn relay_id_of(&self, node: OverlayId) -> Option<usize> {
        self.placement.as_ref().and_then(|p| p.relay_of(node))
    }

    /// The overlay node hosting relay `relay`: directory index with a
    /// placement seam, the overlay id itself without one (explicit-path
    /// scenarios name overlay nodes directly in their fault schedules).
    pub(super) fn overlay_of_relay(&self, relay: u32) -> OverlayId {
        match self.placement.as_ref() {
            Some(p) => p.relay_overlays[relay as usize],
            None => OverlayId(relay),
        }
    }

    /// Number of relays currently selectable (live, unexcluded, positive
    /// weight) — O(1) via the selection engine; `None` without a
    /// placement seam. The graceful-degradation gate in the recovery
    /// loop compares this against the interior path length.
    pub fn selectable_relays(&self) -> Option<usize> {
        self.placement.as_ref().map(|p| p.engine.selectable())
    }

    /// Circuits currently routed through each relay (indexed by relay
    /// id), if a placement seam is installed. Grows on circuit
    /// registration and shrinks when the client-side participation is
    /// reclaimed after teardown, so full churn teardown returns every
    /// counter to zero.
    pub fn relay_loads(&self) -> Option<&[u32]> {
        self.placement.as_ref().map(|p| p.load.as_slice())
    }

    /// High-water mark of [`TorNetwork::relay_loads`]: the worst circuit
    /// concentration each relay ever carried, surviving teardown
    /// decrements. This is the hotspot metric placement experiments
    /// compare — an end-of-run load snapshot hides the mid-run
    /// concentrations churn already rebuilt away from.
    pub fn relay_load_hwms(&self) -> Option<&[u32]> {
        self.placement.as_ref().map(|p| p.load_hwm.as_slice())
    }

    /// The installed selection policy's name, if any (experiment
    /// labels).
    pub fn selection_policy_name(&self) -> Option<&'static str> {
        self.placement.as_ref().map(|p| p.policy.name())
    }

    /// The selection engine's active sampler name ("linear" /
    /// "fenwick"), if a placement seam is installed.
    pub fn selection_sampler_name(&self) -> Option<&'static str> {
        self.placement.as_ref().map(|p| p.engine.sampler_name())
    }

    /// Per-relay liveness column (indexed by relay id), if a placement
    /// seam is installed. Dark relays are never selected.
    pub fn relay_live(&self) -> Option<&[bool]> {
        self.placement.as_ref().map(|p| p.directory.live())
    }

    /// Installs the consensus epoch delta stream; delta `i` is applied
    /// when [`TorEvent::Epoch`]`(i)` fires (builders schedule those at
    /// the epoch boundaries).
    ///
    /// # Panics
    ///
    /// Panics if deltas were already installed.
    pub fn install_epochs(&mut self, deltas: Vec<EpochDelta>) {
        assert!(self.epoch_deltas.is_empty(), "epoch deltas installed twice");
        self.epoch_deltas = deltas;
    }

    /// Checks the placement ledger invariant: every relay's load counter
    /// equals the number of *accounted* circuit incarnations crossing
    /// it. Returns `true` for worlds without a placement seam. The churn
    /// and epoch property tests call this after every reclamation wave.
    pub fn verify_placement_ledger(&self) -> bool {
        let Some(p) = self.placement.as_ref() else {
            return true;
        };
        let mut expect = vec![0u32; p.directory.len()];
        for info in &self.circuits {
            if !info.accounted {
                continue;
            }
            for &n in &info.path {
                if let Some(r) = p.relay_of(n) {
                    expect[r] += 1;
                }
            }
        }
        expect == p.load
    }

    /// Records `path` into the live load view (one count per relay the
    /// circuit crosses), propagating each increment into the selection
    /// engine; no-op without a placement seam.
    fn account_placement(&mut self, path: &[OverlayId]) {
        if let Some(p) = self.placement.as_mut() {
            for &n in path {
                if let Some(r) = p.relay_of(n) {
                    p.load[r] += 1;
                    p.load_hwm[r] = p.load_hwm[r].max(p.load[r]);
                    p.note_load_change(r);
                }
            }
        }
    }

    /// Removes `path` from the live load view (teardown reclamation),
    /// propagating each decrement into the selection engine; no-op
    /// without a placement seam or if the circuit's +1 was already
    /// reclaimed.
    pub(super) fn unaccount_placement(&mut self, circ: CircId) {
        let Some(p) = self.placement.as_mut() else {
            return;
        };
        let info = &mut self.circuits[circ.index()];
        if !info.accounted {
            return;
        }
        info.accounted = false;
        for &n in &info.path {
            if let Some(r) = p.relay_of(n) {
                debug_assert!(p.load[r] > 0, "placement load underflow");
                p.load[r] = p.load[r].saturating_sub(1);
                p.note_load_change(r);
            }
        }
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
        let entry = &mut self.link_routes[link_id.0 as usize];
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
    /// reclamation). Once both ends are gone the id returns to the free
    /// list and a later circuit build re-mints it — unless any end was
    /// force-reaped ([`LinkRoute::retired`]), in which case the id is
    /// permanently retired: the reap wrote off in-flight frames that
    /// may still carry it, and re-minting would let a straggler resolve
    /// against the wrong circuit. Retirement is bounded by crashes ×
    /// path length, so the table stays effectively flat.
    pub(super) fn clear_route_end(&mut self, link_id: CircuitId, node: OverlayId) {
        let entry = &mut self.link_routes[link_id.0 as usize];
        if entry.a.is_some_and(|e| e.node == node) {
            entry.a = None;
        }
        if entry.b.is_some_and(|e| e.node == node) {
            entry.b = None;
        }
        if entry.a.is_none() && entry.b.is_none() && !entry.retired {
            self.free_link_ids.push(link_id);
        }
    }

    /// Marks a link-local id as retired (see [`LinkRoute::retired`]):
    /// the force-reap path calls this before reclaiming, so the id never
    /// re-enters the free list even after both ends clear.
    pub(super) fn retire_link_id(&mut self, id: CircuitId) {
        self.link_routes[id.0 as usize].retired = true;
    }

    /// Resolves an arriving cell's `(receiving node, sending neighbour,
    /// link-local id)` to `(global circuit, node-local index, flow
    /// direction)` — the per-cell route lookup, run once per frame an
    /// overlay node receives. Both ends are compared where they lie in
    /// the table, end `a` first: at that rate, copying the 44-byte
    /// [`LinkRoute`] out is a measurable share of a cell.
    #[inline]
    pub(super) fn route_of(
        &self,
        to: OverlayId,
        from: OverlayId,
        link_id: CircuitId,
    ) -> Option<(CircId, u32, Direction)> {
        let entry = self.link_routes.get(link_id.0 as usize)?;
        let hit = |end: &Option<RouteEnd>| match end {
            Some(e) if e.node == to && e.from == from => Some((e.circ, e.local, e.dir)),
            _ => None,
        };
        hit(&entry.a).or_else(|| hit(&entry.b))
    }

    /// Registers an overlay participant backed by network node `net_node`.
    ///
    /// # Panics
    ///
    /// Panics if `net_node` is not a node of the world's network, or
    /// already hosts an overlay node.
    pub fn add_overlay(&mut self, net_node: NodeId, role: NodeRole) -> OverlayId {
        self.add_overlays(std::iter::once((net_node, role)))
    }

    /// Registers one overlay participant per `(network node, role)`, in
    /// order, under consecutive ids from the one returned: a star's
    /// leaves in one pass, each node written once where it will live.
    ///
    /// # Panics
    ///
    /// As [`TorNetwork::add_overlay`], for any of the network nodes.
    pub(crate) fn add_overlays(
        &mut self,
        participants: impl IntoIterator<Item = (NodeId, NodeRole)>,
    ) -> OverlayId {
        let first = self.nodes.len();
        let overlay_of_net = &mut self.overlay_of_net;
        let net_node_of = &mut self.egress.net_node_of;
        self.nodes.extend(
            participants
                .into_iter()
                .enumerate()
                .map(|(k, (net_node, role))| {
                    let id = OverlayId(u32::try_from(first + k).expect("too many overlay nodes"));
                    let slot = &mut overlay_of_net[net_node.index()];
                    assert!(
                        *slot == u32::MAX,
                        "network node already hosts an overlay node"
                    );
                    *slot = id.0;
                    net_node_of.push(net_node);
                    OverlayNode::new(id, net_node, role)
                }),
        );
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
    /// (0 = original build). In a star world it mints the access links of
    /// every node on `path` ([`TorNetwork::install_star`]); every
    /// placement and rebuild passes through here before a frame can cross
    /// its path.
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
        self.account_placement(&path);
        self.circuits.push(CircuitInfo {
            path,
            file_bytes: workload.total_bytes(),
            started_at: None,
            workload,
            incarnation,
            accounted: self.placement.is_some(),
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

    /// Installs a scenario-sized payload-pool idle cap (see
    /// [`PayloadPool::scenario_max_idle`]). Builders call this before
    /// any traffic flows; at the circuit counts the async runtime
    /// targets, the default cap would sit below the steady-state
    /// in-flight payload population and thrash alloc/free.
    ///
    /// # Panics
    ///
    /// Panics if the pool has already handed out buffers — resizing
    /// mid-run would corrupt the conservation telemetry.
    pub fn set_payload_pool_cap(&mut self, max_idle: usize) {
        assert_eq!(
            self.egress.payload_pool.acquired(),
            0,
            "payload pool cap must be set before traffic"
        );
        self.egress.payload_pool = PayloadPool::with_max_idle(max_idle);
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
    /// [`QuantileSketch::alpha`] relative error of the exact CDF. Empty
    /// until the first completion.
    pub fn flow_completion_sketch(&self) -> &QuantileSketch {
        &self.completion_sketch
    }

    /// Size of the link-route table (slots, live or free). Stays flat
    /// across churn cycles once the free list primes.
    pub fn link_route_slots(&self) -> usize {
        self.link_routes.len()
    }

    /// Reclaimed link-local ids awaiting reuse.
    pub fn free_link_routes(&self) -> usize {
        self.free_link_ids.len()
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

    /// Collects the measured outcome of every circuit.
    pub fn results(&self) -> Vec<CircuitResult> {
        (0..self.circuits.len())
            .map(|i| self.result_of(CircId(i as u32)))
            .collect()
    }

    /// The measured outcome of one circuit.
    pub fn result_of(&self, circ: CircId) -> CircuitResult {
        let info = &self.circuits[circ.index()];
        let client_node = info.path[0];
        let server_node = *info.path.last().expect("non-empty path");
        let client = self.nodes[client_node.index()]
            .circuit(circ)
            .and_then(|nc| nc.client.as_ref());
        let server = self.nodes[server_node.index()]
            .circuit(circ)
            .and_then(|nc| nc.server.as_ref());
        CircuitResult {
            circ,
            started_at: info.started_at,
            connected_at: client.and_then(|c| c.connected_at),
            first_data_at: client.and_then(|c| c.first_data_at),
            last_byte_at: server.and_then(|s| s.last_byte_at),
            completed: server.is_some_and(|s| s.ended),
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
                    let outcome = egress.net.send(ctx, next, frame);
                    debug_assert_eq!(outcome, SendOutcome::Accepted, "switch dropped a frame");
                } else {
                    self.deliver(ctx, frame);
                }
            }
            control => {
                self.events_handled.other += 1;
                match control {
                    TorEvent::Net(_) => unreachable!("both link events are arms above"),
                    TorEvent::StartCircuit(circ) => self.start_circuit(ctx, circ),
                    TorEvent::Teardown(circ) => self.teardown(ctx, circ),
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
        let mut extended = vec![0xEE; 3];
        fill_pattern_extend(circ, idx, len, &mut extended);
        assert_eq!(extended[..3], [0xEE; 3]);
        assert_eq!(extended[3..], expect, "extend: idx {idx} len {len}");
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
        let mut net = Net::new();
        let (a, b) = (net.add_node("a"), net.add_node("b"));
        let _ = Egress::new(net, Router::new()).next_link(a, b);
    }

    /// The reference for `route_of`: search both ends, `a` before `b`,
    /// for the first one registered at `to` for frames from `from`.
    fn find_over_both_ends(
        w: &TorNetwork,
        to: OverlayId,
        from: OverlayId,
        id: CircuitId,
    ) -> Option<(CircId, u32, Direction)> {
        let entry = w.link_routes.get(id.0 as usize)?;
        [entry.a, entry.b]
            .into_iter()
            .flatten()
            .find(|e| e.node == to && e.from == from)
            .map(|e| (e.circ, e.local, e.dir))
    }

    #[test]
    fn route_of_answers_what_a_find_over_both_ends_answers() {
        use backtap::cc::{CongestionControl, FixedWindowCc};
        use Direction::{Backward, Forward};

        let factory: CcFactory =
            Box::new(|_| -> Box<dyn CongestionControl + Send> { Box::new(FixedWindowCc::new(4)) });
        let mut w = TorNetwork::new(Net::new(), Router::new(), factory, SimRng::seed_from(1));
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
            (cleared, y, x, None),                     // both cleared
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
}
