//! Fault injection, the void table and the client-side recovery loop:
//! the one module that knows a world can lose frames.
//!
//! The failure model (DESIGN.md §12) is *fail-silent*: a crashed relay
//! drops every frame addressed to it — no DESTROY, no notification, no
//! omniscient teardown. The protocol stages (`conn`, `recognition`,
//! `circuit_build`, `feedback`, `client_xfer`) run the paper's protocol
//! and call in here where a lossy world needs a rule of its own:
//!
//! * **Injection** — [`TorEvent::RelayCrash`] marks the relay's overlay
//!   node dead ([`Egress::mark_crashed`]; the connection layer's drop
//!   gate takes over) and *reaps* its own participations so its queued
//!   payload buffers return to the pool. Reaping is silent: a dead node
//!   pays no confirms and sends no cells. Every closed circuit whose
//!   path crosses it, participation or not, has its survivors reaped too.
//! * **The void table** — [`TorNetwork::on_void`] is the one answer to
//!   an input that resolves to nothing, by `(input, faults installed?)`:
//!
//!   | input | without faults | with faults |
//!   |---|---|---|
//!   | relay cell or CREATED on an unknown route | protocol error | stale drop, no confirm (a relay cell's payload is reclaimed) |
//!   | feedback on an unknown route or sequence | protocol error | stale drop |
//!   | CREATE for an incarnation whose client is closed | mints the participation | stale drop, confirm paid |
//!   | DESTROY on an unknown route | protocol error | stale drop, confirm paid, REFUSED DESTROY to the sender unless it was one |
//!
//!   A teardown wave heading for a crashed neighbour is the last row
//!   ([`Egress::wave_meets_crash`]): the hop is written off and the wave
//!   reflects, as if the path ended there.
//! * **Detection** — every circuit incarnation arms a **build timer**
//!   when it starts ([`TorNetwork::arm_build_timer`]); once established,
//!   the timer chain re-arms as a **liveness timer** against a progress
//!   snapshot (delivered bytes of the circuit's flows, kept in the
//!   circuit's record). A timer that fires with no progress since its
//!   snapshot is the client's only evidence of failure.
//! * **Recovery** — [`TorNetwork::force_abandon`]: blame the first dead
//!   hop on the path (excluding it from future selection), then tear the
//!   circuit down through the ordinary two-wave DESTROY machinery, which
//!   first reaps the orphaned participations beyond the dead hop
//!   ([`TorNetwork::reap_beyond_crash`]; no DESTROY can ever reach them —
//!   the reap stands in for their own idle timers) and reflects at it.
//!   The reclamation path then schedules the rebuild under exponential
//!   backoff with jitter; a lineage that exhausts its retry cap — or a
//!   world whose selectable relay set fell below the path length —
//!   parks its flows ([`TorNetwork::parks`]) until an epoch join
//!   replenishes the consensus ([`TorNetwork::wake_parked`]).
//!
//! Worlds without an installed [`FaultState`] take the left column of
//! the table and every recovery call returns at once: no timers arm and
//! the event stream is bit-identical to a fault-free build.

use simcore::rng::SimRng;
use simcore::sim::Context;

use torcell::cell::Cell;

use crate::event::{TimerKind, TorEvent};
use crate::ids::{CircId, OverlayId};
use crate::node::{CircuitPhase, HopDir, PendingConfirm};
use crate::wire::{FramePayload, WireFrame};
use crate::workload::FaultSpec;

use super::{Egress, TorNetwork, DESTROY_REASON_REFUSED, DESTROY_REASON_TIMEOUT};

/// Runtime fault-injection state: the recovery parameters, the backoff
/// jitter stream, and the circuits parked after exhausting recovery.
/// Which relays have crashed lives on the link side
/// ([`Egress::is_crashed`]), next to the drop gate it serves.
pub(super) struct FaultState {
    /// The resolved timer/backoff parameters.
    spec: FaultSpec,
    /// Backoff jitter stream, consumed only when a timeout fires — so a
    /// fault schedule that never fires a timer perturbs nothing.
    jitter: SimRng,
    /// Circuits whose flows are parked (retry cap hit, or the selectable
    /// relay set fell below the interior path length); resumed when the
    /// next epoch join replenishes the live set.
    parked: Vec<CircId>,
}

/// An input that resolves to nothing: the rows of [`TorNetwork::on_void`].
pub(super) enum Void {
    /// A CREATED or feedback on an unknown route, or feedback for a
    /// sequence its hop never sent or already wrote off, by what it is.
    Stale(&'static str),
    /// A relay cell on an unknown route, with its payload buffer.
    RelayCell(Vec<u8>),
    /// A CREATE for an incarnation whose client is no longer open.
    Create(PendingConfirm),
    /// A DESTROY on an unknown route; the confirm names sender and link id.
    Destroy { reason: u8, confirm: PendingConfirm },
}

impl Egress {
    /// Whether overlay node `n` has crashed: the connection layer's
    /// per-frame drop gate. Fault-free worlds never grow the set.
    #[inline]
    pub(super) fn is_crashed(&self, n: OverlayId) -> bool {
        self.crashed.get(n.index()).copied().unwrap_or(false)
    }

    /// Marks overlay node `n` crashed; returns `false` if it already was.
    pub(super) fn mark_crashed(&mut self, n: OverlayId) -> bool {
        if self.crashed.len() <= n.index() {
            self.crashed.resize(n.index() + 1, false);
        }
        !std::mem::replace(&mut self.crashed[n.index()], true)
    }

    /// The void table's last row: a DESTROY wave heading for a crashed
    /// neighbour can never be confirmed or echoed, so the hop is written
    /// off and the wave must reflect here. Returns whether it must.
    pub(super) fn wave_meets_crash(&self, hd: &mut HopDir) -> bool {
        let crashed = self.is_crashed(hd.neighbor);
        if crashed {
            hd.transport.forget_all();
        }
        crashed
    }
}

impl TorNetwork {
    /// Installs the fault-recovery parameters and the backoff jitter
    /// stream. Scenarios with a [`FaultSpec`] call this before traffic;
    /// a [`TorEvent::RelayCrash`] without it is a bug.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub(crate) fn install_faults(&mut self, spec: FaultSpec, jitter: SimRng) {
        assert!(self.faults.is_none(), "faults installed twice");
        self.faults = Some(FaultState {
            spec,
            jitter,
            parked: Vec::new(),
        });
    }

    /// The void table (module doc): node `to` received `input`, which
    /// resolves to nothing. Returns `false` only where the fault-free
    /// protocol goes on: a CREATE racing its client's teardown mints.
    pub(super) fn on_void(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        to: OverlayId,
        input: Void,
    ) -> bool {
        let egress = &mut self.egress;
        let my_net = egress.topology.node(to.index());
        match (input, self.faults.is_some()) {
            (Void::Stale(what), false) => egress.protocol_error(what),
            (Void::RelayCell(data), false) => {
                egress.payload_pool.reclaim(data);
                egress.protocol_error("relay cell on unknown route");
            }
            (Void::Create(_), false) => return false,
            (Void::Destroy { .. }, false) => egress.protocol_error("DESTROY on unknown route"),
            (Void::Stale(_), true) => egress.stats.stale_frames_dropped += 1,
            (Void::RelayCell(data), true) => {
                egress.payload_pool.reclaim(data);
                egress.stats.stale_frames_dropped += 1;
            }
            // The incarnation died (crash reap, force-abandon) with its
            // CREATE on the wire: minting now would orphan a zombie slot
            // on a retired link id. The consumed frame is still confirmed
            // so a draining predecessor stays exact.
            (Void::Create(confirm), true) => {
                egress.stats.stale_frames_dropped += 1;
                egress.send_feedback(ctx, my_net, confirm);
            }
            // A reap cleared this route end, or the participation was
            // never minted (its CREATE was stale-dropped while the
            // teardown chased the build down the telescope). As a relay
            // refusing a circuit would, the void confirms and answers
            // REFUSED so the wave turns around; a REFUSED DESTROY is never
            // answered, so two voids cannot volley.
            (Void::Destroy { reason, confirm }, true) => {
                egress.stats.stale_frames_dropped += 1;
                egress.send_feedback(ctx, my_net, confirm);
                if reason != DESTROY_REASON_REFUSED {
                    let dst = egress.topology.node(confirm.neighbor.index());
                    let frame = WireFrame {
                        src: my_net,
                        dst,
                        // No hop transport here: the peer's confirm for
                        // this seq dead-ends as stale feedback.
                        payload: FramePayload::Cell {
                            cell: Cell::destroy(confirm.circ_id, DESTROY_REASON_REFUSED),
                            hop_seq: 0,
                        },
                        confirm: None,
                    };
                    let link = egress.next_link(my_net, dst);
                    egress.sched_send(ctx, link, frame, None);
                    egress.stats.destroys_sent += 1;
                }
            }
        }
        true
    }

    /// Arms a new incarnation's build timer: under faults the client's
    /// only way to learn about a crash is silence.
    pub(super) fn arm_build_timer(&mut self, ctx: &mut Context<'_, TorEvent>, circ: CircId) {
        if let Some(f) = self.faults.as_ref() {
            let kind = TimerKind::Build;
            ctx.schedule_in(f.spec.build_timeout(), TorEvent::CircTimeout { circ, kind });
        }
    }

    /// Graceful degradation before a rebuild of `old`: a lineage past
    /// its retry cap, or a world whose selectable relays fell below the
    /// interior path length, parks its unfinished flows (instead of
    /// panicking inside `select_relays`) until
    /// [`TorNetwork::wake_parked`]. Returns whether the lineage stops.
    pub(super) fn parks(&mut self, old: CircId) -> bool {
        let Some(f) = self.faults.as_ref() else {
            return false;
        };
        let info = &self.circuits[old.index()];
        let interior = info.path.len().saturating_sub(2);
        let too_thin = self.selectable_relays().is_some_and(|live| live < interior);
        if info.retries <= f.spec.max_retries && !too_thin {
            return false;
        }
        let parked = self.unfinished_flows(old) as u64;
        if parked > 0 {
            self.egress.stats.flows_parked += parked;
            let f = self.faults.as_mut().expect("checked above");
            f.parked.push(old);
        }
        true
    }

    /// Fresh capacity joined the consensus: wake every parked lineage
    /// with a clean retry budget. If the set is still too thin the
    /// rebuild simply re-parks — no event loop.
    pub(super) fn wake_parked(&mut self, ctx: &mut Context<'_, TorEvent>) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        for c in std::mem::take(&mut f.parked) {
            let info = &mut self.circuits[c.index()];
            info.retries = 0;
            ctx.schedule_in(info.workload.rebuild_delay, TorEvent::Rebuild(c));
        }
    }

    /// Before a client tears `circ` down: participations stranded beyond
    /// a crashed hop can never hear the DESTROY wave (the crash gate
    /// swallows every frame at the dead relay's door), so they are
    /// reaped silently now, standing in for the idle timers real relays
    /// would run. The wave itself reflects at the last live hop
    /// ([`Egress::wave_meets_crash`]).
    pub(super) fn reap_beyond_crash(&mut self, ctx: &mut Context<'_, TorEvent>, circ: CircId) {
        let Some(k) = self.first_crash(circ) else {
            return;
        };
        let beyond = self.circuits[circ.index()].path[k + 1..].to_vec();
        for n in beyond {
            self.reap_participation(ctx, n, circ);
        }
    }

    /// The position of the first crashed hop on `circ`'s path.
    fn first_crash(&self, circ: CircId) -> Option<usize> {
        let path = &self.circuits[circ.index()].path;
        path.iter().position(|&n| self.egress.is_crashed(n))
    }

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
        // Relay `r` is overlay node `r` in every world.
        let overlay = OverlayId(relay);
        if self.faults.is_none() {
            debug_assert!(false, "RelayCrash scheduled without installed fault state");
            return;
        }
        if !self.egress.mark_crashed(overlay) {
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
                if !self.egress.is_crashed(n) {
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
        if self.unfinished_flows(circ) == 0 {
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
        // Blame: the path's first dead hop. A timeout with no dead hop
        // is a transient stall — nobody is excluded for it.
        let blamed = self
            .first_crash(circ)
            .map(|k| self.circuits[circ.index()].path[k]);
        // Only relays crash, and relay `r` is overlay node `r`.
        if blamed.is_some_and(|n| self.exclude_relay(n.index())) {
            self.egress.stats.blamed_exclusions += 1;
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
        self.teardown(ctx, circ, DESTROY_REASON_TIMEOUT);
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
        for h in [nc.fwd.as_ref(), nc.bwd.as_ref()].into_iter().flatten() {
            self.link_routes[h.link_circ_id.0 as usize].retired = true;
        }
        self.maybe_reclaim(ctx, node_id, local);
    }
}
