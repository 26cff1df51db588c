//! Pipeline stage 1 — the connection layer.
//!
//! Everything that touches raw frames on links lives here: ingress
//! dispatch of delivered frames, the per-link round-robin egress
//! scheduler, link-local circuit-id allocation, and the window-gated
//! egress pump ([`Egress::pump_dir`]) that drains a hop's queue while
//! its transport has credit. A relay cell reaches the pump sealed where
//! it was made (torcell builds every one): the pump stamps the link's
//! circuit id and hop sequence number and touches no payload.
//!
//! The sending half is methods of [`Egress`], which owns what a send
//! touches — the links, their schedulers, the topology that addresses
//! and routes every frame, the payload pool and the counters — and
//! nothing a circuit owns. It is one field of [`TorNetwork`], disjoint
//! from `nodes`, so a stage deeper in the pipeline calls
//! `self.egress.pump_dir(ctx, my_net, nc, dir)` while it holds a mutable
//! borrow of one node's circuit state.

use netsim::link::LinkId;
use netsim::net::NodeId;
use simcore::sim::Context;

use torcell::cell::CellBody;
use torcell::ids::CircuitId;

use crate::event::TorEvent;
use crate::ids::{CircId, Direction, OverlayId};
use crate::node::{CircuitPhase, NodeCircuit};
use crate::wire::{FramePayload, WireFrame};

use super::{Egress, LinkRoute, TorNetwork};

impl TorNetwork {
    /// Allocates a link-local circuit id (negotiated per connection, as
    /// in Tor) and its slot in the route table, preferring ids whose
    /// both ends were reclaimed by a teardown — under churn the table
    /// stops growing once freed ids come back.
    pub(super) fn alloc_link_circ_id(&mut self) -> CircuitId {
        CircuitId(self.link_routes.insert(LinkRoute::default()))
    }

    /// Ingress: a frame addressed to one of our overlay nodes arrived.
    /// Classifies it and hands it to the next pipeline stage — feedback to
    /// the window layer, cells to recognition.
    pub(super) fn deliver(&mut self, ctx: &mut Context<'_, TorEvent>, frame: WireFrame) {
        let overlay = |node| match self.egress.topology.index_of(node) {
            Some(i) => OverlayId(i as u32),
            None => unreachable!("frame endpoints host overlay participants"),
        };
        let (to, from) = (overlay(frame.dst), overlay(frame.src));
        if self.egress.is_crashed(to) {
            // A crashed relay receives nothing: everything addressed to
            // it is silently dropped (no confirm, no feedback — its
            // neighbours' windows starve and only client timers notice).
            // Frames it sent *before* crashing were already on the wire
            // and deliver normally; link-id retirement guarantees their
            // ids never resolve against a re-minted circuit. The
            // simulator still owns the payload buffer, so DATA bodies
            // return to the pool.
            self.egress.stats.crash_frames_dropped += 1;
            if let FramePayload::Cell { cell, .. } = frame.payload {
                if let CellBody::Relay(rc) = cell.body {
                    self.egress.payload_pool.reclaim(rc.data);
                }
            }
            return;
        }
        match frame.payload {
            FramePayload::Feedback(fb) => self.on_feedback(ctx, to, from, fb),
            FramePayload::Cell { cell, hop_seq } => self.on_cell(ctx, to, from, cell, hop_seq),
        }
    }
}

impl Egress {
    /// Hands a frame to an overlay egress link: directly if the link is
    /// idle, otherwise into the `Net`'s store, with its handle in the
    /// link's round-robin scheduler (feedback has strict priority; data
    /// cells queue per circuit). The frame on the wire may be departing
    /// silently, so a scheduled frame asks for the `TxComplete` that will
    /// [refill](Egress::refill_link) the link.
    pub(super) fn sched_send(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        link: LinkId,
        frame: WireFrame,
        data_circuit: Option<CircId>,
    ) {
        if self.net.is_busy(link, ctx.now()) {
            let handle = self.net.store(frame);
            let sched = &mut self.link_sched[link.index()];
            match data_circuit {
                Some(circ) => sched.push_cell(circ, handle),
                None => sched.push_feedback(handle),
            }
            self.net.wake_when_idle(ctx, link);
        } else {
            debug_assert_eq!(self.net.queue_len(link), 0, "idle link with queued frames");
            self.net.send(ctx, link, frame);
        }
        debug_assert!(self.scheduled_work_will_be_served(link));
    }

    /// After a transmission completes, starts the next scheduled frame on
    /// the link, if any, and keeps a completion pending for the rest.
    pub(super) fn refill_link(&mut self, ctx: &mut Context<'_, TorEvent>, link: LinkId) {
        let sched = &mut self.link_sched[link.index()];
        if !self.net.is_busy(link, ctx.now()) {
            if let Some(handle) = sched.pop() {
                self.net.send_stored(ctx, link, handle);
            }
        }
        if !sched.is_empty() {
            self.net.wake_when_idle(ctx, link);
        }
        debug_assert!(self.scheduled_work_will_be_served(link));
    }

    /// `netsim`'s wake-up invariant, for the queue kept here: frames in
    /// `link`'s scheduler ⇒ a `TxComplete` is pending to pop the first.
    fn scheduled_work_will_be_served(&self, link: LinkId) -> bool {
        self.link_sched[link.index()].is_empty() || self.net.completion_pending(link)
    }

    /// Egress pump: drains one hop direction — sends queued cells (and, at
    /// a transferring client of an open circuit, freshly generated
    /// DATA/END cells) while the window allows, paying owed feedback as
    /// cells leave the queue.
    pub(super) fn pump_dir(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        my_net: NodeId,
        nc: &mut NodeCircuit,
        dir: Direction,
    ) {
        let circ = nc.circ;
        let generates = dir == Direction::Forward && nc.phase == CircuitPhase::Open;
        let NodeCircuit { fwd, bwd, role, .. } = nc;
        let Some(hopdir) = (match dir {
            Direction::Forward => fwd.as_mut(),
            Direction::Backward => bwd.as_mut(),
        }) else {
            return;
        };
        loop {
            if !hopdir.transport.can_send() {
                break;
            }
            let qc = if let Some(qc) = hopdir.dequeue(&mut self.hop_cells) {
                qc
            } else if generates {
                match TorNetwork::generate_client_cell(
                    role,
                    &mut self.payload_pool,
                    circ,
                    ctx.now(),
                ) {
                    Some(qc) => qc,
                    None => break,
                }
            } else {
                break;
            };

            let mut cell = qc.cell;
            let seq = hopdir.transport.register_send(ctx.now());
            cell.circ = hopdir.link_circ_id;
            let dst = self.topology.node(hopdir.neighbor.index());
            let frame = WireFrame {
                src: my_net,
                dst,
                payload: FramePayload::Cell { cell, hop_seq: seq },
                // Paid when the cell finishes serializing (TxComplete):
                // that is the instant the cell is "forwarded".
                confirm: qc.confirm,
            };
            let link = self.next_link(my_net, dst);
            self.sched_send(ctx, link, frame, Some(circ));
            self.stats.cells_sent += 1;
        }
    }
}
