//! Pipeline stage — per-hop feedback (the BackTap/CircuitStart control
//! plane).
//!
//! A node owes its upstream neighbour a 20-byte feedback frame the moment
//! it takes one of that neighbour's cells *out* of a per-circuit queue —
//! by physically forwarding it (paid at `TxComplete`) or by consuming it
//! locally (paid immediately). Arriving feedback credits the matching hop
//! transport's window and re-runs the egress pump, which is the only way
//! windows grow: there are no end-to-end ACKs anywhere in the overlay.

use netsim::net::NodeId;
use simcore::sim::Context;

use torcell::cell::Feedback;

use crate::event::TorEvent;
use crate::ids::OverlayId;
use crate::node::{CircuitPhase, PendingConfirm};
use crate::wire::{FramePayload, WireFrame};

use super::{Egress, TorNetwork};

impl Egress {
    /// Emits a feedback frame to `cf.neighbor`, echoing that neighbour's
    /// per-hop sequence number for the cell being confirmed.
    pub(super) fn send_feedback(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        my_net: NodeId,
        cf: PendingConfirm,
    ) {
        let dst = self.net_node_of[cf.neighbor.index()];
        let frame = WireFrame {
            src: my_net,
            dst,
            payload: FramePayload::Feedback(Feedback {
                circ: cf.circ_id,
                seq: cf.seq,
            }),
            confirm: None,
        };
        let link = self.next_link(my_net, dst);
        self.sched_send(ctx, link, frame, None);
        self.stats.feedback_sent += 1;
    }
}

impl TorNetwork {
    /// A feedback frame arrived: credit the hop transport that sent the
    /// confirmed cell and pump that direction again.
    pub(super) fn on_feedback(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        to: OverlayId,
        from: OverlayId,
        fb: Feedback,
    ) {
        let Some((_circ, local, _)) = self.route_of(to, from, fb.circ) else {
            self.egress
                .stale_or_protocol_error(&self.faults, "feedback on unknown route");
            return;
        };
        let node = &mut self.nodes[to.index()];
        let my_net = node.net_node;
        let nc = node.circuit_at_mut(local);
        let Some(dir) = nc.direction_toward(from) else {
            self.egress.protocol_error("feedback from non-neighbour");
            return;
        };
        {
            let hopdir = nc.hopdir_toward_mut(from).expect("direction just resolved");
            if hopdir.transport.on_feedback(fb.seq, ctx.now()).is_err() {
                // Under faults this is a write-off racing its own late
                // feedback: a force-abandon forgets every outstanding
                // cell, then a confirm for one of them arrives.
                self.egress
                    .stale_or_protocol_error(&self.faults, "feedback with unknown sequence");
                return;
            }
        }
        let closed = nc.phase != CircuitPhase::Open;
        self.egress.pump_dir(ctx, my_net, nc, dir);
        if closed {
            // This confirm may have been the last outstanding cell of a
            // torn-down circuit — check the quiescence condition.
            self.maybe_reclaim(ctx, to, local);
        }
    }
}
