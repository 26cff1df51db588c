//! Pipeline stage — fault injection and the client-side recovery loop.
//!
//! The failure model (DESIGN.md §12) is *fail-silent*: a crashed relay
//! drops every frame addressed to it — no DESTROY, no notification, no
//! omniscient teardown. Everything downstream of that single rule lives
//! here:
//!
//! * **Injection** — [`TorEvent::RelayCrash`] marks the relay's overlay
//!   node dead (the connection layer's drop gate takes over) and *reaps*
//!   its own participations so its queued payload buffers return to the
//!   pool. Reaping is silent: a dead node pays no confirms and sends no
//!   cells. Every closed circuit whose path crosses it, participation
//!   or not, has its survivors reaped too.
//! * **Detection** — every circuit incarnation arms a **build timer**
//!   when it starts; once established, the timer chain re-arms as a
//!   **liveness timer** against a progress snapshot (delivered bytes of
//!   the circuit's flows, kept in the circuit's record). A timer that
//!   fires with no progress since its snapshot is the client's only
//!   evidence of failure.
//! * **Recovery** — [`TorNetwork::force_abandon`]: blame the first dead
//!   hop on the path (excluding it from future selection), reap the
//!   orphaned participations beyond it (no DESTROY can ever reach them —
//!   the reap stands in for their own idle timers), then tear the
//!   circuit down through the ordinary two-wave DESTROY machinery, which
//!   reflects at the dead hop. The reclamation path then schedules the
//!   rebuild under exponential backoff with jitter; a lineage that
//!   exhausts its retry cap — or a world whose selectable relay set
//!   fell below the path length — parks its flows until an epoch join
//!   replenishes the consensus.
//!
//! Worlds without an installed [`super::FaultState`] never reach any of
//! this code: no timers arm, no branches are taken, and the event stream
//! is bit-identical to a fault-free build.

use simcore::sim::Context;

use crate::event::{TimerKind, TorEvent};
use crate::ids::{CircId, OverlayId};
use crate::node::CircuitPhase;

use super::{TorNetwork, DESTROY_REASON_TIMEOUT};

impl TorNetwork {
    /// A relay crashed (from a [`TorEvent::RelayCrash`]): mark it dead
    /// for the connection layer's drop gate, then walk every circuit
    /// whose path crosses it, silently reaping its participation there
    /// (if any) and repairing a severed teardown. A closed (or
    /// reclaimed) client has sealed the outcome, but its DESTROY wave may
    /// be in, or on its way into, the dead relay — even one that never
    /// minted the participation because its CREATE was refused — and
    /// dies there, so every survivor is reaped on the spot;
    /// exactly-once ledger accounting is kept by the client's
    /// `accounted` flag. Circuits whose client is still open are left
    /// alone: those clients must *detect* the crash through their
    /// timers. The directory is *not* touched — unlike an epoch
    /// departure, nobody is told.
    pub(super) fn relay_crash(&mut self, ctx: &mut Context<'_, TorEvent>, relay: u32) {
        let overlay = self.overlay_of_relay(relay);
        let Some(f) = self.faults.as_mut() else {
            debug_assert!(false, "RelayCrash scheduled without installed fault state");
            return;
        };
        if !f.mark_crashed(overlay.index()) {
            return;
        }
        self.egress.stats.crashes_injected += 1;
        for i in 0..self.circuits.len() {
            if !self.circuits[i].path.contains(&overlay) {
                continue;
            }
            let circ = CircId(i as u32);
            self.reap_participation(ctx, overlay, circ);
            if self.open_client(circ).is_some() {
                continue;
            }
            for n in self.circuits[i].path.clone() {
                if !self.is_crashed(n) {
                    self.reap_participation(ctx, n, circ);
                }
            }
        }
    }

    /// A client circuit timer fired (from a [`TorEvent::CircTimeout`]).
    /// Stale timers — the incarnation was already abandoned, reclaimed,
    /// or torn down — die here; a genuine one either re-arms with a
    /// fresh progress snapshot or abandons the circuit. The snapshot is
    /// the circuit's `liveness_snapshot`: each firing arms at most one
    /// successor and every rebuild is a new [`CircId`], so it always
    /// belongs to the timer firing now.
    pub(super) fn circ_timeout(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        circ: CircId,
        kind: TimerKind,
    ) {
        let Some(f) = self.faults.as_ref() else {
            return;
        };
        let liveness = f.spec.liveness_timeout();
        let info = &self.circuits[circ.index()];
        let Some(local) = self.open_client(circ) else {
            return; // reclaimed, or torn down and awaiting quiescence
        };
        let nc = self.nodes[info.path[0].index()].circuit_at(local);
        let app = nc.client.as_ref().expect("timers only arm at clients");
        if !app.established() {
            // Still telescoping when the build timer fired: the
            // half-built circuit is abandoned outright.
            self.force_abandon(ctx, circ);
            return;
        }
        let all_complete = info
            .workload
            .streams
            .iter()
            .all(|s| self.flows[s.flow.index()].complete());
        if all_complete {
            return; // transfer done; let the chain die
        }
        let now_progress = self.circ_progress(circ);
        if now_progress > info.liveness_snapshot || kind == TimerKind::Build {
            // Progress since the snapshot — or the build beat its timer
            // (one grace period before liveness judgement begins).
            self.circuits[circ.index()].liveness_snapshot = now_progress;
            ctx.schedule_in(
                liveness,
                TorEvent::CircTimeout {
                    circ,
                    kind: TimerKind::Liveness,
                },
            );
        } else {
            self.force_abandon(ctx, circ);
        }
    }

    /// Delivered bytes across the circuit's flows — the liveness
    /// progress metric. The flow ledger stands in for client-visible
    /// acked progress (the simulator is its own oracle); it is monotone,
    /// so an unchanged value across a liveness window proves a stall.
    fn circ_progress(&self, circ: CircId) -> u64 {
        self.circuits[circ.index()]
            .workload
            .streams
            .iter()
            .map(|s| self.flows[s.flow.index()].delivered)
            .sum()
    }

    /// The client gives up on a circuit: blame the first dead hop (if
    /// any), reap the participations stranded beyond it, charge the
    /// lineage one retry under exponential backoff, and run the ordinary
    /// teardown — whose DESTROY wave reflects at the dead hop and whose
    /// reclamation path schedules the rebuild.
    fn force_abandon(&mut self, ctx: &mut Context<'_, TorEvent>, circ: CircId) {
        self.egress.stats.timeouts_fired += 1;
        let path = self.circuits[circ.index()].path.clone();
        // Blame: the path's first dead hop. A timeout with no dead hop
        // is a transient stall — nobody is excluded for it.
        if let Some(k) = path.iter().position(|&n| self.is_crashed(n)) {
            if let Some(r) = self.relay_id_of(path[k]) {
                if self.exclude_relay(r) {
                    self.egress.stats.blamed_exclusions += 1;
                }
            }
        }
        // Exponential backoff with jitter, charged against the lineage.
        // The delay lands in `rebuild_delay`, which the reclamation path
        // reads when it schedules the retry ([`TorNetwork::maybe_reclaim`]).
        let delay = {
            let f = self
                .faults
                .as_mut()
                .expect("force_abandon requires fault state");
            let frac = f.jitter.range_f64(0.0, 1.0);
            f.spec.backoff(self.circuits[circ.index()].retries, frac)
        };
        self.egress.stats.retries += 1;
        let info = &mut self.circuits[circ.index()];
        info.retries += 1;
        info.workload.rebuild_delay = delay;
        self.teardown_with_reason(ctx, circ, DESTROY_REASON_TIMEOUT);
    }

    /// Silently removes one node's participation in `circ`: queued cells
    /// drain back to the payload pool *without* paying confirms or
    /// sending anything (a dead or unreachable node must not signal),
    /// outstanding sends are written off, and the slot reclaims through
    /// the ordinary quiescence path. No-op if the node no longer
    /// participates.
    pub(super) fn reap_participation(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        node_id: OverlayId,
        circ: CircId,
    ) {
        let node = &mut self.nodes[node_id.index()];
        let Some(local) = node.local_idx(circ) else {
            return;
        };
        let my_net = node.net_node;
        let nc = node.circuit_at_mut(local);
        if nc.is_vacant() {
            return;
        }
        self.egress.close_participation(ctx, my_net, nc, false);
        for h in [nc.fwd.as_mut(), nc.bwd.as_mut()].into_iter().flatten() {
            h.transport.forget_all();
        }
        // No wave will ever pass a reaped participation.
        nc.phase = CircuitPhase::Closed {
            fwd_wave: true,
            bwd_wave: true,
        };
        // The write-offs above cover sends that may still be in flight
        // carrying these link-local ids: retire the ids so reclamation
        // never recycles them under a straggler (see
        // [`super::LinkRoute::retired`]).
        let ids = [
            nc.fwd.as_ref().map(|h| h.link_circ_id),
            nc.bwd.as_ref().map(|h| h.link_circ_id),
        ];
        for id in ids.into_iter().flatten() {
            self.retire_link_id(id);
        }
        self.maybe_reclaim(ctx, node_id, local);
    }
}
