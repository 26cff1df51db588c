//! Pipeline stage — the circuit control plane.
//!
//! Tor's telescoping build, executed hop by hop: the client CREATEs the
//! first relay, then sends EXTEND relay cells that the current last relay
//! converts into CREATEs toward the next node (answered with CREATED /
//! EXTENDED). Link-local circuit ids are negotiated per connection; onion
//! layers are derived from the CREATE handshakes.
//!
//! Teardown also lives here, as a **two-wave DESTROY protocol** (DESIGN.md
//! §8): the client's DESTROY travels forward through the per-circuit FIFO
//! queues — so it arrives *behind* every previously sent forward cell —
//! and the end of the built path reflects it as a backward echo. A node
//! that has seen both waves, has every sent cell confirmed, and has empty
//! queues can prove no further frame will ever arrive for the circuit: at
//! that moment its slab slot and route ends are reclaimed for reuse.
//! The client-side reclamation additionally drives the churn engine — if
//! the torn-down circuit's flows still owe bytes, a rebuild is scheduled
//! that re-attaches them to a fresh circuit over the same path.

use simcore::sim::Context;
use simcore::time::SimDuration;

use torcell::cell::{Cell, CellBody, RelayCell, RelayCommand, HANDSHAKE_LEN};
use torcell::crypto::{LayerKey, RelayCrypt};
use torcell::ids::{CircuitId, StreamId};

use netsim::net::NodeId;

use crate::event::TorEvent;
use crate::ids::{CircId, Direction, OverlayId};
use crate::node::{
    CircuitPhase, ClientApp, HopCtx, HopDir, NodeCircuit, NodeRole, PendingConfirm, QueuedCell,
    ServerApp,
};
use crate::workload::{CircuitWorkload, StreamSpec};

use backtap::hop::HopTransport;

use super::{Egress, FaultState, TorNetwork, DESTROY_REASON_FINISHED, DESTROY_REASON_REFUSED};

impl Egress {
    /// Discards everything queued on one hop direction of a closing
    /// circuit: owed feedback is still paid (upstream windows must
    /// drain) and DATA payload buffers return to the pool. A silently
    /// reaped participation (a crashed relay, or an orphan stranded
    /// beyond one) passes `pay_confirms = false` — a dead node must not
    /// signal anyone.
    fn drain_hopdir(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        my_net: NodeId,
        hopdir: &mut HopDir,
        pay_confirms: bool,
    ) {
        while let Some(qc) = hopdir.queue.pop_front() {
            self.stats.cells_drained += 1;
            if let Some(cf) = qc.confirm {
                if pay_confirms {
                    self.send_feedback(ctx, my_net, cf);
                }
            }
            if let CellBody::Relay(rc) = qc.cell.body {
                self.payload_pool.reclaim(rc.data);
            }
        }
    }

    /// Discards every cell of the closing circuit already handed to its
    /// egress scheduler(s). Those cells left the hop queues and were
    /// registered on a transport, but have not begun serializing — left
    /// alone they would burn link time only to be dropped at the
    /// receiver. Each drained cell pays its owed confirm, returns its
    /// payload to the pool, and is retired from the transport that
    /// registered it ([`HopTransport::forget`]) so the teardown
    /// quiescence proof is not waiting on feedback that can never come.
    ///
    /// Both hop directions may share one egress link (a star leaf's
    /// uplink), so the drain runs once per distinct link and dispatches
    /// each frame to its transport by destination.
    fn drain_scheduled(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        my_net: NodeId,
        nc: &mut NodeCircuit,
        pay_confirms: bool,
    ) {
        let circ = nc.circ;
        let link_of = |h: &HopDir| self.next_link(my_net, self.net_node_of[h.neighbor.index()]);
        let fwd_link = nc.fwd.as_ref().map(link_of);
        let bwd_link = nc.bwd.as_ref().map(link_of);
        let links = [fwd_link, bwd_link.filter(|b| Some(*b) != fwd_link)];
        for link in links.into_iter().flatten() {
            for frame in self.link_sched[link.index()].drain_circuit(circ) {
                self.stats.cells_drained += 1;
                let crate::wire::FramePayload::Cell { cell, hop_seq } = frame.payload else {
                    debug_assert!(false, "feedback frames are never queued per circuit");
                    continue;
                };
                let net_node_of = &self.net_node_of;
                let hopdir = nc
                    .fwd
                    .as_mut()
                    .filter(|h| net_node_of[h.neighbor.index()] == frame.dst)
                    .or_else(|| {
                        nc.bwd
                            .as_mut()
                            .filter(|h| net_node_of[h.neighbor.index()] == frame.dst)
                    });
                match hopdir {
                    Some(h) => {
                        let forgotten = h.transport.forget(hop_seq);
                        debug_assert!(forgotten, "drained cell was not outstanding");
                    }
                    None => debug_assert!(false, "drained cell matches no hop direction"),
                }
                if let CellBody::Relay(rc) = cell.body {
                    self.payload_pool.reclaim(rc.data);
                }
                if let Some(cf) = frame.confirm {
                    if pay_confirms {
                        self.send_feedback(ctx, my_net, cf);
                    }
                }
            }
        }
    }

    /// Moves a participation to [`CircuitPhase::Closed`]: the client
    /// stops generating cells and the queues drain — the cells this
    /// circuit already handed to its egress link scheduler(s), then both
    /// hop queues — reclaiming every payload. The DESTROY path pays the
    /// drained cells' owed confirms (`pay_confirms = true`); a silent
    /// reap does not, and may find the participation already closed, in
    /// which case only what was queued since (a DESTROY) is left.
    pub(super) fn close_participation(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        my_net: NodeId,
        nc: &mut NodeCircuit,
        pay_confirms: bool,
    ) {
        let was_open = nc.close();
        debug_assert!(was_open || !pay_confirms, "closing twice");
        self.drain_scheduled(ctx, my_net, nc, pay_confirms);
        for h in [nc.fwd.as_mut(), nc.bwd.as_mut()].into_iter().flatten() {
            self.drain_hopdir(ctx, my_net, h, pay_confirms);
        }
    }

    /// Enqueues a DESTROY on `dir`'s hop and pumps it, returning whether
    /// a neighbour was actually notified. A hop whose transport never
    /// sent anything (a drained, never-sent CREATE) has no peer to
    /// notify — the wave reflects instead. A hop whose neighbour has
    /// **crashed** likewise reflects: the DESTROY could never be
    /// confirmed and no echo can come back, so everything outstanding
    /// toward the dead neighbour is written off
    /// ([`HopTransport::forget_all`]) and the wave turns around here.
    fn propagate_destroy(
        &mut self,
        faults: &Option<FaultState>,
        ctx: &mut Context<'_, TorEvent>,
        my_net: NodeId,
        nc: &mut NodeCircuit,
        dir: Direction,
        reason: u8,
    ) -> bool {
        let hopdir = match dir {
            Direction::Forward => nc.fwd.as_mut(),
            Direction::Backward => nc.bwd.as_mut(),
        };
        let Some(hd) = hopdir else {
            return false;
        };
        if faults
            .as_ref()
            .is_some_and(|f| f.is_crashed(hd.neighbor.index()))
        {
            hd.transport.forget_all();
            return false;
        }
        if hd.transport.next_seq() == 0 && hd.queue.is_empty() {
            // Never contacted that neighbour (its CREATE/CREATED was
            // drained unsent): nothing to tear down there.
            return false;
        }
        hd.enqueue(QueuedCell {
            cell: Cell::destroy(CircuitId::CONTROL, reason),
            confirm: None,
            wrap_for_hop: None,
        });
        self.stats.destroys_sent += 1;
        self.pump_dir(ctx, my_net, nc, dir);
        true
    }

    /// One teardown wave, travelling in `wave`, reaches a closed
    /// participation: mark it seen and pass it on. Where there is nobody
    /// further along to notify the wave turns around, so the opposite
    /// wave has passed here too — the end of the built path reflects the
    /// forward wave as the backward echo, while the echo that runs out of
    /// path (at the client) has simply completed the round trip.
    pub(super) fn destroy_wave(
        &mut self,
        faults: &Option<FaultState>,
        ctx: &mut Context<'_, TorEvent>,
        my_net: NodeId,
        nc: &mut NodeCircuit,
        wave: Direction,
        reason: u8,
    ) {
        let duplicate = nc.mark_wave(wave);
        debug_assert!(!duplicate, "duplicate {wave} DESTROY wave");
        if !self.propagate_destroy(faults, ctx, my_net, nc, wave, reason) {
            nc.mark_wave(wave.opposite());
            if wave == Direction::Forward {
                self.propagate_destroy(faults, ctx, my_net, nc, Direction::Backward, reason);
            }
        }
    }
}

impl TorNetwork {
    /// Handshake blob: global circuit id (instrumentation channel for the
    /// responder's registry — documented in DESIGN.md §4) plus fresh
    /// random key material.
    pub(super) fn make_handshake(&mut self, circ: CircId) -> [u8; HANDSHAKE_LEN] {
        let mut hs = [0u8; HANDSHAKE_LEN];
        hs[0..4].copy_from_slice(&circ.0.to_be_bytes());
        self.rng.fill_bytes(&mut hs[4..]);
        hs
    }

    /// Launches a circuit (from a [`TorEvent::StartCircuit`]): the client
    /// CREATEs its first hop and the telescope begins. Stream arrivals
    /// and the workload's teardown point are scheduled here.
    pub(super) fn start_circuit(&mut self, ctx: &mut Context<'_, TorEvent>, circ: CircId) {
        let info = &mut self.circuits[circ.index()];
        assert!(info.started_at.is_none(), "circuit started twice");
        info.started_at = Some(ctx.now());
        let path = info.path.clone();
        let streams = info.workload.streams.clone();
        let teardown_after = info.workload.teardown_after.first().copied();
        let client_id = path[0];
        let first_hop = path[1];
        let link_id = self.alloc_link_circ_id();
        let hs = self.make_handshake(circ);

        // Flow bookkeeping and the workload's timers.
        for (i, spec) in streams.iter().enumerate() {
            let flow = &mut self.flows[spec.flow.index()];
            flow.carried_by += 1;
            if flow.arrival_at.is_none() {
                flow.arrival_at = Some(ctx.now() + spec.offset);
            }
            if !spec.offset.is_zero() {
                ctx.schedule_in(
                    spec.offset,
                    TorEvent::StreamArrival {
                        circ,
                        stream: u32::try_from(i).expect("stream index fits u32"),
                    },
                );
            }
        }
        if let Some(delay) = teardown_after {
            ctx.schedule_in(delay, TorEvent::Teardown(circ));
        }

        let hop_ctx = HopCtx {
            circuit: circ,
            position: 0,
            direction: Direction::Forward,
        };
        let mut transport = HopTransport::new((self.factory)(&hop_ctx));
        transport.enable_cwnd_trace(ctx.now());

        let node = &mut self.nodes[client_id.index()];
        debug_assert_eq!(
            node.role,
            NodeRole::Client,
            "circuit must start at a client"
        );
        let mut nc = NodeCircuit::new(circ, 0);
        nc.client = Some(ClientApp::new(path, &streams, ctx.now()));
        let mut hopdir = HopDir::new(first_hop, link_id, transport);
        hopdir.enqueue(QueuedCell {
            cell: Cell::create(CircuitId::CONTROL, hs),
            confirm: None,
            wrap_for_hop: None,
        });
        nc.fwd = Some(hopdir);
        let my_net = node.net_node;
        let local = node.add_circuit(nc);
        self.register_route(
            link_id,
            client_id,
            first_hop,
            circ,
            local,
            Direction::Backward,
        );
        let nc = self.nodes[client_id.index()].circuit_at_mut(local);
        self.egress.pump_dir(ctx, my_net, nc, Direction::Forward);
        // With faults installed every incarnation arms a build timer —
        // the client's only way to learn about a crash is silence.
        if let Some(f) = self.faults.as_ref() {
            ctx.schedule_in(
                f.spec.build_timeout(),
                TorEvent::CircTimeout {
                    circ,
                    kind: crate::event::TimerKind::Build,
                },
            );
        }
    }

    /// A staggered stream's arrival offset elapsed (from a
    /// [`TorEvent::StreamArrival`]): issue its BEGIN if the circuit is
    /// up. If the circuit is still building, the BEGIN is flushed when
    /// the build completes; if it was torn down, the flow re-arrives on
    /// the rebuilt incarnation.
    pub(super) fn stream_arrival(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        circ: CircId,
        stream: u32,
    ) {
        let Some(local) = self.open_client(circ) else {
            return; // torn down mid-stagger; the rebuild re-attaches the flow
        };
        let node = &mut self.nodes[self.circuits[circ.index()].path[0].index()];
        let my_net = node.net_node;
        let nc = node.circuit_at_mut(local);
        let app = nc.client.as_mut().expect("client app exists");
        let established = app.established();
        let Some(s) = app.streams.get_mut(stream as usize) else {
            self.egress.protocol_error("arrival for unknown stream");
            return;
        };
        s.arrived = true;
        if !established || s.begin_sent {
            return;
        }
        s.begin_sent = true;
        let qc = Self::begin_cell(&mut self.payload_passes, s.id, app.server_hop());
        nc.fwd.as_mut().expect("client forward hop").enqueue(qc);
        self.egress.pump_dir(ctx, my_net, nc, Direction::Forward);
    }

    /// CREATE: become part of the circuit; answer CREATED.
    pub(super) fn handle_create(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        to: OverlayId,
        from: OverlayId,
        link_id: CircuitId,
        handshake: [u8; HANDSHAKE_LEN],
        confirm: PendingConfirm,
    ) {
        let global = CircId(u32::from_be_bytes(
            handshake[0..4].try_into().expect("4 bytes"),
        ));
        let Some(info) = self.circuits.get(global.index()) else {
            self.egress
                .protocol_error("CREATE for unregistered circuit");
            return;
        };
        let Some(position) = info.path.iter().position(|&n| n == to) else {
            self.egress.protocol_error("CREATE at node not on the path");
            return;
        };
        let is_server = position == info.path.len() - 1;
        let expected_streams = info.workload.streams.len();
        // Under faults a CREATE can still be on the wire when its
        // incarnation dies (crash reap, force-abandon): minting a
        // participation now would orphan a zombie slot and collide on
        // a recycled link id. Confirm the consumed frame so a
        // still-draining predecessor stays exact, and refuse.
        if self.faults.is_some() && self.open_client(global).is_none() {
            self.egress
                .stale_or_protocol_error(&self.faults, "CREATE for dead incarnation");
            let my_net = self.nodes[to.index()].net_node;
            self.egress.send_feedback(ctx, my_net, confirm);
            return;
        }

        let hop_ctx = HopCtx {
            circuit: global,
            position,
            direction: Direction::Backward,
        };
        let transport = HopTransport::new((self.factory)(&hop_ctx));

        let node = &mut self.nodes[to.index()];
        let my_net = node.net_node;
        let mut nc = NodeCircuit::new(global, position);
        nc.crypt = Some(RelayCrypt::new(LayerKey::from_handshake(&handshake)));
        if is_server {
            nc.server = Some(ServerApp::new(expected_streams));
        }
        let mut bwd = HopDir::new(from, link_id, transport);
        bwd.enqueue(QueuedCell {
            cell: Cell::created(CircuitId::CONTROL, handshake),
            confirm: None,
            wrap_for_hop: None,
        });
        nc.bwd = Some(bwd);
        let local = node.add_circuit(nc);
        self.register_route(link_id, to, from, global, local, Direction::Forward);

        // Confirm the consumed CREATE, then answer.
        self.egress.send_feedback(ctx, my_net, confirm);
        let nc = self.nodes[to.index()].circuit_at_mut(local);
        self.egress.pump_dir(ctx, my_net, nc, Direction::Backward);
    }

    /// CREATED: the hop we asked for exists. At the client this advances
    /// the build; at a relay it answers a pending EXTEND with EXTENDED.
    pub(super) fn handle_created(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        to: OverlayId,
        from: OverlayId,
        link_id: CircuitId,
        handshake: [u8; HANDSHAKE_LEN],
        confirm: PendingConfirm,
    ) {
        let Some((global, local, _)) = self.route_of(to, from, link_id) else {
            // Under faults a CREATED can race a crash-reap that already
            // cleared this route end.
            self.egress
                .stale_or_protocol_error(&self.faults, "CREATED on unknown route");
            return;
        };
        let my_net = self.nodes[to.index()].net_node;
        self.egress.send_feedback(ctx, my_net, confirm);
        let node = &mut self.nodes[to.index()];
        let nc = node.circuit_at_mut(local);
        if nc.phase != CircuitPhase::Open {
            // Teardown raced the build; the handshake answer dies here
            // (it was confirmed above so the successor's window drains).
            return;
        }
        if nc.client.is_some() {
            self.client_advance_build(ctx, to, global, local, handshake);
        } else {
            // A relay completed an EXTEND: report EXTENDED to the client.
            let Some(echo) = nc.pending_extend.take() else {
                self.egress.protocol_error("CREATED without pending EXTEND");
                return;
            };
            debug_assert_eq!(echo, handshake, "CREATED must echo the extend handshake");
            let mut rc = Self::control_cell(
                &mut self.payload_passes,
                RelayCommand::Extended,
                StreamId::CIRCUIT,
                echo.to_vec(),
            );
            nc.crypt
                .as_mut()
                .expect("relay has crypt state")
                .add_backward(&mut rc);
            let Some(bwd) = nc.bwd.as_mut() else {
                self.egress.protocol_error("relay without backward hop");
                return;
            };
            bwd.enqueue(QueuedCell {
                cell: Cell {
                    circ: CircuitId::CONTROL,
                    body: CellBody::Relay(rc),
                },
                confirm: None,
                wrap_for_hop: None,
            });
            self.egress.pump_dir(ctx, my_net, nc, Direction::Backward);
        }
    }

    /// The client gained a key for one more hop: extend further, or open
    /// the arrived streams if the circuit is complete.
    pub(super) fn client_advance_build(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        client: OverlayId,
        circ: CircId,
        local: u32,
        handshake: [u8; HANDSHAKE_LEN],
    ) {
        // Pre-generate randomness before borrowing node state.
        let next_handshake = self.make_handshake(circ);
        let node = &mut self.nodes[client.index()];
        let my_net = node.net_node;
        let nc = node.circuit_at_mut(local);
        let app = nc.client.as_mut().expect("client app exists");
        app.route.push_layer(LayerKey::from_handshake(&handshake));
        let built = app.route.len();
        let needed = app.path.len() - 1;
        let mut qcs = Vec::new();
        if built < needed {
            let target = app.path[built + 1];
            let mut data = Vec::with_capacity(4 + HANDSHAKE_LEN);
            data.extend_from_slice(&target.0.to_be_bytes());
            data.extend_from_slice(&next_handshake);
            let rc = Self::control_cell(
                &mut self.payload_passes,
                RelayCommand::Extend,
                StreamId::CIRCUIT,
                data,
            );
            qcs.push(QueuedCell {
                cell: Cell {
                    circ: CircuitId::CONTROL,
                    body: CellBody::Relay(rc),
                },
                confirm: None,
                wrap_for_hop: Some(built - 1),
            });
        } else {
            // Circuit complete (now `established()`): open every stream
            // that has already arrived. Later arrivals BEGIN from their
            // own events.
            let server_hop = app.server_hop();
            for s in app.streams.iter_mut().filter(|s| s.arrived) {
                debug_assert!(!s.begin_sent, "BEGIN before the circuit was built");
                s.begin_sent = true;
                qcs.push(Self::begin_cell(&mut self.payload_passes, s.id, server_hop));
            }
        }
        let fwd = nc.fwd.as_mut().expect("client forward hop");
        for qc in qcs {
            fwd.enqueue(qc);
        }
        self.egress.pump_dir(ctx, my_net, nc, Direction::Forward);
    }

    /// A relay recognized a forward cell: only EXTEND is valid here —
    /// convert it into a CREATE toward the next node. `Err` names the
    /// protocol violation; the caller owns the cell and raises it.
    pub(super) fn relay_consume(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        relay: OverlayId,
        circ: CircId,
        local: u32,
        rc: &RelayCell,
    ) -> Result<(), &'static str> {
        if rc.cmd != RelayCommand::Extend {
            return Err("relay consumed a non-EXTEND cell");
        }
        if rc.data.len() != 4 + HANDSHAKE_LEN {
            return Err("malformed EXTEND payload");
        }
        let target = OverlayId(u32::from_be_bytes(
            rc.data[0..4].try_into().expect("4 bytes"),
        ));
        if target.index() >= self.nodes.len() {
            return Err("EXTEND to unknown node");
        }
        let mut hs = [0u8; HANDSHAKE_LEN];
        hs.copy_from_slice(&rc.data[4..]);
        let new_id = self.alloc_link_circ_id();

        let node = &mut self.nodes[relay.index()];
        let my_net = node.net_node;
        let position = node.circuit_at(local).position;
        self.register_route(new_id, relay, target, circ, local, Direction::Backward);
        let hop_ctx = HopCtx {
            circuit: circ,
            position,
            direction: Direction::Forward,
        };
        let transport = HopTransport::new((self.factory)(&hop_ctx));
        let nc = self.nodes[relay.index()].circuit_at_mut(local);
        nc.pending_extend = Some(hs);
        let mut fwd = HopDir::new(target, new_id, transport);
        fwd.enqueue(QueuedCell {
            cell: Cell::create(CircuitId::CONTROL, hs),
            confirm: None,
            wrap_for_hop: None,
        });
        nc.fwd = Some(fwd);
        self.egress.pump_dir(ctx, my_net, nc, Direction::Forward);
        Ok(())
    }

    /// DESTROY: close the circuit and process the teardown wave
    /// ([`Egress::destroy_wave`]). A forward-travelling DESTROY continues
    /// toward the server (or reflects at the end of the built path); the
    /// backward echo continues toward the client.
    pub(super) fn handle_destroy(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        to: OverlayId,
        from: OverlayId,
        link_id: CircuitId,
        reason: u8,
        confirm: PendingConfirm,
    ) {
        let Some((_global, local, wave)) = self.route_of(to, from, link_id) else {
            // Under faults a DESTROY can land on a void: a crash-reap or
            // force-abandon cleared this route end, or the participation
            // was never minted (its CREATE was stale-dropped by the
            // dead-incarnation gate while the teardown wave chased the
            // build wave down the telescope). The sender's confirm is
            // still owed, and — as a real relay refusing a circuit would
            // — the void answers with a REFUSED DESTROY so the wave can
            // turn around instead of dying here; a REFUSED echo is never
            // itself answered, so two voids cannot volley forever.
            self.egress
                .stale_or_protocol_error(&self.faults, "DESTROY on unknown route");
            if self.faults.is_some() {
                let my_net = self.nodes[to.index()].net_node;
                self.egress.send_feedback(ctx, my_net, confirm);
                if reason != DESTROY_REASON_REFUSED {
                    let dst = self.egress.net_node_of[from.index()];
                    let frame = crate::wire::WireFrame {
                        src: my_net,
                        dst,
                        payload: crate::wire::FramePayload::Cell {
                            cell: Cell::destroy(link_id, DESTROY_REASON_REFUSED),
                            // The void has no hop transport; the peer's
                            // confirm for this seq dead-ends as a counted
                            // stale feedback frame.
                            hop_seq: 0,
                        },
                        confirm: None,
                    };
                    let link = self.egress.next_link(my_net, dst);
                    self.egress.sched_send(ctx, link, frame, None);
                    self.egress.stats.destroys_sent += 1;
                }
            }
            return;
        };
        let my_net = self.nodes[to.index()].net_node;
        self.egress.send_feedback(ctx, my_net, confirm);
        let node = &mut self.nodes[to.index()];
        let nc = node.circuit_at_mut(local);
        if nc.phase == CircuitPhase::Open {
            self.egress.close_participation(ctx, my_net, nc, true);
        }
        self.egress
            .destroy_wave(&self.faults, ctx, my_net, nc, wave, reason);
        self.maybe_reclaim(ctx, to, local);
    }

    /// The client's node-local index of `circ` while its participation
    /// is [`CircuitPhase::Open`]; `None` once closed or reclaimed.
    pub(super) fn open_client(&self, circ: CircId) -> Option<u32> {
        let node = &self.nodes[self.circuits[circ.index()].path[0].index()];
        let local = node.local_idx(circ)?;
        (node.circuit_at(local).phase == CircuitPhase::Open).then_some(local)
    }

    /// Client-initiated teardown (from a [`TorEvent::Teardown`]).
    pub(super) fn teardown(&mut self, ctx: &mut Context<'_, TorEvent>, circ: CircId) {
        self.teardown_with_reason(ctx, circ, DESTROY_REASON_FINISHED);
    }

    /// [`TorNetwork::teardown`] carrying an explicit DESTROY reason code
    /// (the recovery loop sends [`super::DESTROY_REASON_TIMEOUT`]).
    pub(super) fn teardown_with_reason(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        circ: CircId,
        reason: u8,
    ) {
        let client_id = self.circuits[circ.index()].path[0];
        let Some(local) = self.open_client(circ) else {
            return;
        };
        // Participations stranded beyond a crashed hop can never hear
        // the DESTROY wave (the crash gate swallows every frame at the
        // dead relay's door): reap them silently now, standing in for
        // the idle timers real relays would run. The wave itself
        // reflects at the last live hop via `propagate_destroy`.
        if self.faults.is_some() {
            let path = self.circuits[circ.index()].path.clone();
            if let Some(k) = path.iter().position(|&n| self.is_crashed(n)) {
                for &n in &path[k + 1..] {
                    self.reap_participation(ctx, n, circ);
                }
            }
        }
        let node = &mut self.nodes[client_id.index()];
        let my_net = node.net_node;
        let nc = node.circuit_at_mut(local);
        self.egress.close_participation(ctx, my_net, nc, true);
        // The client originates the forward wave. If no neighbour was
        // ever contacted (or the first hop is dead) it turns around on
        // the spot and the teardown is already complete.
        self.egress
            .destroy_wave(&self.faults, ctx, my_net, nc, Direction::Forward, reason);
        self.maybe_reclaim(ctx, client_id, local);
    }

    /// Reclaims a participation's slots once teardown quiescence is
    /// proven (see [`NodeCircuit::reclaimable`]): the slab slot returns
    /// to the node's free list and this node's route ends are cleared
    /// (freeing the link-local id once both ends are gone). At the
    /// client this also drives the churn engine: unfinished flows
    /// schedule a rebuild.
    pub(super) fn maybe_reclaim(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        node_id: OverlayId,
        local: u32,
    ) {
        let node = &mut self.nodes[node_id.index()];
        let nc = node.circuit_at(local);
        if nc.is_vacant() || !nc.reclaimable() {
            return;
        }
        let circ = nc.circ;
        let is_client = nc.client.is_some();
        let link_ids = [
            nc.fwd.as_ref().map(|h| h.link_circ_id),
            nc.bwd.as_ref().map(|h| h.link_circ_id),
        ];
        // The work count outlives the participation.
        self.payload_passes += nc.payload_passes();
        node.remove_circuit(local);
        for id in link_ids.into_iter().flatten() {
            self.clear_route_end(id, node_id);
        }
        self.egress.stats.slots_reclaimed += 1;
        if is_client {
            // The client proving teardown quiescence retires the whole
            // incarnation from the live placement view — exactly once
            // per incarnation, so churn feeds back into later
            // selections (congestion-aware policies see relays free up).
            self.unaccount_placement(circ);
            let info = &self.circuits[circ.index()];
            let unfinished = info
                .workload
                .streams
                .iter()
                .any(|s| !self.flows[s.flow.index()].complete());
            if unfinished {
                ctx.schedule_in(info.workload.rebuild_delay, TorEvent::Rebuild(circ));
            }
        }
    }

    /// Re-attaches a torn-down circuit's unfinished flows to a fresh
    /// circuit (from a [`TorEvent::Rebuild`]). With a placement seam
    /// installed the relays are **re-selected** through the
    /// [`crate::selection::PathSelection`] policy under the current load
    /// view — churn feeds back into placement, as real clients re-route
    /// around congested relays; without one (explicit-path worlds) the
    /// original path is reused. Each flow resumes at its remaining byte
    /// count; flows whose arrival offset has not yet elapsed keep their
    /// original arrival time.
    pub(super) fn rebuild_circuit(&mut self, ctx: &mut Context<'_, TorEvent>, old: CircId) {
        let now = ctx.now();
        let old_info = &self.circuits[old.index()];
        let old_path = old_info.path.clone();
        let incarnation = old_info.incarnation + 1;
        let old_retries = old_info.retries;
        // Graceful degradation: a lineage that exhausted its retry cap,
        // or a world whose selectable relay set fell below the interior
        // path length, parks its unfinished flows instead of rebuilding
        // (and instead of panicking inside `select_relays`). Parked
        // circuits resume when the next epoch join replenishes the set.
        if let Some(f) = self.faults.as_ref() {
            let interior = old_path.len().saturating_sub(2);
            let over_cap = old_retries > f.spec.max_retries;
            let too_thin = self.selectable_relays().is_some_and(|live| live < interior);
            if over_cap || too_thin {
                let parked = self.circuits[old.index()]
                    .workload
                    .streams
                    .iter()
                    .filter(|s| !self.flows[s.flow.index()].complete())
                    .count() as u64;
                if parked == 0 {
                    return;
                }
                self.egress.stats.flows_parked += parked;
                self.faults
                    .as_mut()
                    .expect("checked above")
                    .parked
                    .push(old);
                return;
            }
        }
        let path = if self.placement.is_some() && old_path.len() > 2 {
            let relays = self.select_relays(old_path.len() - 2);
            let mut path = Vec::with_capacity(old_path.len());
            path.push(old_path[0]);
            path.extend(relays);
            path.push(*old_path.last().expect("non-empty path"));
            path
        } else {
            old_path
        };
        let old_info = &self.circuits[old.index()];
        let mut streams = Vec::new();
        for s in &old_info.workload.streams {
            let f = &self.flows[s.flow.index()];
            if f.complete() {
                continue;
            }
            let offset = f
                .arrival_at
                .map_or(SimDuration::ZERO, |at| at.saturating_duration_since(now));
            streams.push(StreamSpec {
                flow: s.flow,
                bytes: f.remaining(),
                offset,
            });
        }
        if streams.is_empty() {
            return;
        }
        let workload = CircuitWorkload {
            streams,
            teardown_after: old_info
                .workload
                .teardown_after
                .iter()
                .skip(1)
                .copied()
                .collect(),
            rebuild_delay: old_info.workload.rebuild_delay,
        };
        self.egress.stats.rebuilds += 1;
        let new = self.add_circuit_with_workload(path, workload, incarnation);
        // Timeout charges carry across incarnations: the backoff law and
        // the retry cap apply to the flow lineage, not to one circuit.
        self.circuits[new.index()].retries = old_retries;
        self.start_circuit(ctx, new);
    }

    /// Applies one consensus epoch delta (from a [`TorEvent::Epoch`]):
    /// joining relays go live (selectable again, O(log n) sampler
    /// update each), departing relays go dark, and every accounted
    /// circuit crossing a departure is torn down through the normal
    /// two-wave DESTROY machinery — its unfinished flows rebuild under
    /// the live policy once teardown quiesces, exactly like
    /// workload-driven churn.
    pub(super) fn apply_epoch(&mut self, ctx: &mut Context<'_, TorEvent>, epoch: u32) {
        let Some(delta) = self.epoch_deltas.get_mut(epoch as usize) else {
            return;
        };
        let delta = std::mem::take(delta);
        if delta.is_empty() {
            self.egress.stats.epochs_applied += 1;
            return;
        }
        // Joins first: a relay must never be both dark and picked by a
        // rebuild triggered later in this same boundary.
        let mut joined = 0u64;
        for &r in &delta.join {
            if self.set_relay_live(r as usize, true) {
                joined += 1;
            }
        }
        let mut departed = 0u64;
        for &r in &delta.leave {
            if self.set_relay_live(r as usize, false) {
                departed += 1;
            }
        }
        self.egress.stats.relays_joined += joined;
        self.egress.stats.relays_departed += departed;
        self.egress.stats.epochs_applied += 1;
        // Fresh capacity joined the consensus: wake every parked lineage
        // with a clean retry budget. If the set is still too thin the
        // rebuild simply re-parks — no event loop.
        if joined > 0 {
            if let Some(f) = self.faults.as_mut() {
                let parked = std::mem::take(&mut f.parked);
                for &c in &parked {
                    let delay = self.circuits[c.index()].workload.rebuild_delay;
                    self.circuits[c.index()].retries = 0;
                    ctx.schedule_in(delay, TorEvent::Rebuild(c));
                }
            }
        }
        // Mark the departing relays' overlay nodes, then tear down every
        // live circuit crossing one. `teardown` no-ops on circuits
        // already vacant or closed, so racing workload churn is safe.
        let p = self.placement.as_ref().expect("epochs need a placement");
        let mut leaving = vec![false; self.nodes.len()];
        for &r in &delta.leave {
            leaving[p.relay_overlays[r as usize].index()] = true;
        }
        for i in 0..self.circuits.len() {
            let crosses = {
                let info = &self.circuits[i];
                info.accounted && info.path.iter().any(|n| leaving[n.index()])
            };
            if crosses {
                self.egress.stats.epoch_teardowns += 1;
                self.teardown(ctx, CircId(i as u32));
            }
        }
        debug_assert!(
            self.verify_placement_ledger(),
            "epoch {epoch}: placement ledger out of sync"
        );
    }
}

#[cfg(test)]
mod tests {
    use backtap::cc::FixedWindowCc;
    use netsim::bandwidth::Bandwidth;
    use netsim::link::LinkConfig;
    use netsim::net::{Net, NetEvent};
    use simcore::rng::SimRng;
    use simcore::sim::{Simulator, World};
    use simcore::time::SimTime;

    use super::*;
    use crate::router::Router;
    use crate::wire::{FramePayload, WireFrame};
    use crate::workload::FaultSpec;

    /// A relay and its two neighbours; overlay ids double as network ids.
    const PRED: OverlayId = OverlayId(0);
    const ME: OverlayId = OverlayId(1);
    const SUCC: OverlayId = OverlayId(2);

    /// A world whose one event lends its [`Context`] to a closure: the
    /// kernel hands contexts to nothing but [`World::handle`].
    struct Once<F>(Option<F>);

    impl<F: FnOnce(&mut Context<'_, TorEvent>)> World for Once<F> {
        type Event = TorEvent;

        fn handle(&mut self, ctx: &mut Context<'_, TorEvent>, _: TorEvent) {
            (self.0.take().expect("one event only"))(ctx)
        }
    }

    fn with_ctx(f: impl FnOnce(&mut Context<'_, TorEvent>)) {
        let mut sim = Simulator::new(Once(Some(f)));
        sim.schedule_in(SimDuration::ZERO, TorEvent::Teardown(CircId(0)));
        assert!(sim.step());
    }

    /// The link side of `ME`, wired to `PRED` and `SUCC`, and `ME`'s
    /// participation in circuit 0 with one cell outstanding on each hop
    /// (so both neighbours count as contacted). No world, no other nodes.
    fn rig() -> (Egress, NodeCircuit) {
        let mut net = Net::new();
        let nodes = [
            net.add_node("pred"),
            net.add_node("me"),
            net.add_node("succ"),
        ];
        let cfg = LinkConfig::new(Bandwidth::from_mbps(10), SimDuration::from_millis(1));
        let mut router = Router::new();
        for peer in [PRED, SUCC] {
            let (out, _) = net.add_duplex(nodes[ME.index()], nodes[peer.index()], cfg);
            router.install(nodes[ME.index()], nodes[peer.index()], out);
        }
        let mut egress = Egress::new(net, router);
        egress.net_node_of = nodes.to_vec();

        let mut nc = NodeCircuit::new(CircId(0), 1);
        nc.close();
        nc.fwd = Some(hop(SUCC, 10, true));
        nc.bwd = Some(hop(PRED, 11, true));
        (egress, nc)
    }

    fn hop(neighbor: OverlayId, link_id: u32, contacted: bool) -> HopDir {
        let transport = HopTransport::new(Box::new(FixedWindowCc::new(4)));
        let mut hop = HopDir::new(neighbor, CircuitId(link_id), transport);
        if contacted {
            hop.transport.register_send(SimTime::ZERO);
        }
        hop
    }

    fn my_net(egress: &Egress) -> NodeId {
        egress.net_node_of[ME.index()]
    }

    /// Whether the frame on the wire toward `peer` is a DESTROY.
    fn destroy_on_the_wire_to(egress: &mut Egress, peer: OverlayId) -> bool {
        let link = egress.next_link(my_net(egress), egress.net_node_of[peer.index()]);
        matches!(
            egress.net.last_on_wire_mut(link),
            Some(WireFrame {
                payload: FramePayload::Cell {
                    cell: Cell {
                        body: CellBody::Destroy { .. },
                        ..
                    },
                    ..
                },
                ..
            })
        )
    }

    #[derive(Clone, Copy, Debug)]
    enum Ahead {
        Present,
        NeverContacted,
        Crashed,
    }

    #[test]
    fn teardown_wave_table() {
        use Ahead::{Crashed, NeverContacted, Present};
        use Direction::{Backward, Forward};
        // (wave, the neighbour it is heading for) →
        // (forward wave seen, backward wave seen), who is sent a DESTROY.
        let rows = [
            (Forward, Present, (true, false), Some(SUCC)),
            (Forward, NeverContacted, (true, true), Some(PRED)),
            (Forward, Crashed, (true, true), Some(PRED)),
            (Backward, Present, (false, true), Some(PRED)),
            (Backward, NeverContacted, (true, true), None),
            (Backward, Crashed, (true, true), None),
        ];
        for (wave, ahead, seen, destroy_to) in rows {
            let row = format!("{wave} wave, neighbour {ahead:?}");
            let (mut egress, mut nc) = rig();
            let mut faults = FaultState {
                spec: FaultSpec::default(),
                crashed: Vec::new(),
                jitter: SimRng::seed_from(1),
                parked: Vec::new(),
            };
            let slot = match wave {
                Forward => &mut nc.fwd,
                Backward => &mut nc.bwd,
            };
            let peer = slot.as_ref().expect("rig has both hops").neighbor;
            match ahead {
                Present => {}
                NeverContacted => *slot = Some(hop(peer, 12, false)),
                Crashed => assert!(faults.mark_crashed(peer.index())),
            }
            let faults = Some(faults);
            let me = my_net(&egress);
            with_ctx(|ctx| egress.destroy_wave(&faults, ctx, me, &mut nc, wave, 9));

            let (fwd_wave, bwd_wave) = seen;
            assert_eq!(
                nc.phase,
                CircuitPhase::Closed { fwd_wave, bwd_wave },
                "{row}"
            );
            assert_eq!(
                egress.stats.destroys_sent,
                u64::from(destroy_to.is_some()),
                "{row}"
            );
            for n in [PRED, SUCC] {
                assert_eq!(
                    destroy_on_the_wire_to(&mut egress, n),
                    destroy_to == Some(n),
                    "{row}: frame toward {n}"
                );
            }
            let ahead_hop = match wave {
                Forward => nc.fwd.as_ref(),
                Backward => nc.bwd.as_ref(),
            }
            .expect("rig has both hops");
            let outstanding = match ahead {
                Present => 2, // the earlier cell and the DESTROY
                NeverContacted => 0,
                Crashed => 0, // written off: no confirm can ever come
            };
            assert_eq!(ahead_hop.transport.outstanding(), outstanding, "{row}");
        }
    }

    /// `ME`'s link side as a world of its own: the first event lends the
    /// context to `script`, link events are handled the way
    /// [`TorNetwork`] handles them, arrivals are logged.
    struct LinkSide<F> {
        egress: Egress,
        script: Option<F>,
        arrivals: Vec<SimTime>,
    }

    impl<F: FnOnce(&mut Egress, &mut Context<'_, TorEvent>)> World for LinkSide<F> {
        type Event = TorEvent;

        fn handle(&mut self, ctx: &mut Context<'_, TorEvent>, event: TorEvent) {
            match event {
                TorEvent::Net(NetEvent::TxComplete { link }) => {
                    self.egress.net.on_tx_complete(ctx, link);
                    self.egress.refill_link(ctx, link);
                }
                TorEvent::Net(NetEvent::Deliver { link }) => {
                    self.egress.net.take_delivered(link);
                    self.arrivals.push(ctx.now());
                }
                _ => (self.script.take().expect("one script"))(&mut self.egress, ctx),
            }
        }
    }

    /// Regression: the wake-up a scheduled frame asked for pops a frame
    /// that departs silently while the scheduler still holds another.
    /// `refill_link` must ask again, for the popped frame's last instant
    /// on the wire — or the third frame is never sent.
    #[test]
    fn a_wake_that_sends_a_silent_frame_rearms_for_the_scheduler_behind_it() {
        let (egress, _) = rig();
        let me = my_net(&egress);
        // Three feedback frames at t = 0: 20 B at 10 Mbit/s is 16 µs on
        // the wire each, then 1 ms of propagation.
        let script = |egress: &mut Egress, ctx: &mut Context<'_, TorEvent>| {
            for seq in 0..3 {
                let owed = PendingConfirm {
                    neighbor: PRED,
                    circ_id: CircuitId(11),
                    seq,
                };
                egress.send_feedback(ctx, me, owed);
            }
        };
        let mut sim = Simulator::new(LinkSide {
            egress,
            script: Some(script),
            arrivals: Vec::new(),
        });
        sim.schedule_in(SimDuration::ZERO, TorEvent::Teardown(CircId(0)));
        sim.run();
        assert_eq!(
            sim.world().arrivals,
            [1016, 1032, 1048].map(SimTime::from_micros)
        );
        // The script, a wake-up for each frame that had to wait, and the
        // three arrivals: the first frame cost no departure event.
        assert_eq!(sim.events_processed(), 1 + 2 + 3);
    }

    #[test]
    fn a_silent_close_of_a_closed_participation_drains_nothing_twice() {
        let (mut egress, mut nc) = rig();
        nc.phase = CircuitPhase::Open;
        let me = my_net(&egress);
        // Three forwarded DATA cells, each owing `PRED` a confirm: the
        // first goes on the wire, the second waits in the link scheduler,
        // the third is still in the hop queue when the circuit closes.
        let data_cell = |egress: &mut Egress, seq| {
            let mut buf = egress.payload_pool.acquire();
            buf.resize(torcell::cell::RELAY_DATA_MAX, 0x5A);
            QueuedCell {
                cell: Cell {
                    circ: CircuitId::CONTROL,
                    body: CellBody::Relay(RelayCell::data(StreamId(1), buf)),
                },
                confirm: Some(PendingConfirm {
                    neighbor: PRED,
                    circ_id: CircuitId(11),
                    seq,
                }),
                wrap_for_hop: None,
            }
        };
        with_ctx(|ctx| {
            for seq in 0..2 {
                let qc = data_cell(&mut egress, seq);
                nc.fwd.as_mut().expect("forward hop").enqueue(qc);
            }
            egress.pump_dir(ctx, me, &mut nc, Direction::Forward);
            let qc = data_cell(&mut egress, 2);
            nc.fwd.as_mut().expect("forward hop").enqueue(qc);

            egress.close_participation(ctx, me, &mut nc, true);
            assert_ne!(nc.phase, CircuitPhase::Open);
            let after_close = (egress.stats, egress.payload_pool.returned());
            assert_eq!(egress.stats.cells_drained, 2);
            assert_eq!(egress.stats.feedback_sent, 2, "drained cells still confirm");
            assert_eq!(egress.payload_pool.returned(), 2);
            let fwd = nc.fwd.as_ref().expect("forward hop");
            // The rig's cell and the one on the wire; the scheduled one
            // was retired from the transport.
            assert_eq!(fwd.transport.outstanding(), 2);

            egress.close_participation(ctx, me, &mut nc, false);
            assert_ne!(nc.phase, CircuitPhase::Open);
            assert_eq!(
                (egress.stats, egress.payload_pool.returned()),
                after_close,
                "a second, silent close must find nothing to drain or send"
            );
        });
    }
}
