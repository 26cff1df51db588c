//! Pipeline stage 2 — cell routing and leaky-pipe recognition.
//!
//! [`TorNetwork::on_cell`] classifies an arriving cell by command:
//! control-plane cells (CREATE/CREATED/DESTROY) go straight to the
//! [`circuit_build`](super::circuit_build) stage, padding is confirmed
//! and dropped, and relay cells enter [`TorNetwork::handle_relay`] — the
//! recognition stage proper.
//!
//! Recognition is leaky-pipe, as in Tor: a relay strips its onion layer
//! from every forward relay cell; if the digest then verifies, the cell
//! is *for this hop* and is consumed by the endpoint stage
//! ([`client_xfer`](super::client_xfer) at server/client,
//! [`circuit_build`](super::circuit_build) for EXTEND at a relay).
//! Otherwise the cell is re-queued toward the next hop and the egress
//! pump takes over. Backward cells are symmetric: relays *add* their
//! layer; only the client unwraps the full stack.

use simcore::sim::Context;

use torcell::cell::{Cell, CellBody, RelayCell};
use torcell::ids::CircuitId;

use crate::event::TorEvent;
use crate::ids::{Direction, OverlayId};
use crate::node::{CircuitPhase, PendingConfirm, QueuedCell};

use super::{Egress, TorNetwork};

impl TorNetwork {
    /// Dispatches one arriving cell into the pipeline. Whatever stage
    /// takes the cell owes its sender one feedback frame, built once here.
    pub(super) fn on_cell(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        to: OverlayId,
        from: OverlayId,
        cell: Cell,
        hop_seq: u64,
    ) {
        let confirm = PendingConfirm {
            neighbor: from,
            circ_id: cell.circ,
            seq: hop_seq,
        };
        match cell.body {
            CellBody::Create { handshake } => {
                self.handle_create(ctx, to, from, cell.circ, handshake, confirm)
            }
            CellBody::Created { handshake } => {
                self.handle_created(ctx, to, from, cell.circ, handshake, confirm)
            }
            CellBody::Destroy { reason } => {
                self.handle_destroy(ctx, to, from, cell.circ, reason, confirm)
            }
            CellBody::Padding => {
                // Padding is consumed silently but still confirmed so the
                // sender's window does not leak.
                let my_net = self.egress.net_node_of[to.index()];
                self.egress.send_feedback(ctx, my_net, confirm);
            }
            CellBody::Relay(rc) => self.handle_relay(ctx, to, from, cell.circ, rc, confirm),
        }
    }

    /// A relay cell arrived from a neighbour: resolve its circuit, apply
    /// leaky-pipe recognition, and either consume or forward. Every exit
    /// that drops the cell — protocol errors included — hands its payload
    /// buffer back to the pool *first*, so the pool's
    /// `returned == acquired` ledger holds exactly when a hostile cell
    /// shows up (and, in debug builds, by the time the error aborts).
    /// The endpoint stages borrow the recognized cell and report a
    /// violation as `Err`, so the one reclaim after them covers their
    /// every exit.
    pub(super) fn handle_relay(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        to: OverlayId,
        from: OverlayId,
        link_id: CircuitId,
        mut rc: RelayCell,
        confirm: PendingConfirm,
    ) {
        let Some((global, local, flow)) = self.route_of(to, from, link_id) else {
            self.egress
                .stale_or_protocol_error(&self.faults, "relay cell on unknown route");
            self.egress.payload_pool.reclaim(rc.data);
            return;
        };
        let node = &mut self.nodes[to.index()];
        let my_net = node.net_node;
        let nc = node.circuit_at_mut(local);

        if nc.phase != CircuitPhase::Open {
            // Torn-down circuit: confirm (so the sender's window drains),
            // return the payload buffer to the pool, and drop.
            self.egress.stats.cells_dropped_closed += 1;
            self.egress.send_feedback(ctx, my_net, confirm);
            self.egress.payload_pool.reclaim(rc.data);
            return;
        }

        match flow {
            Direction::Forward => {
                if nc.client.is_some() {
                    self.egress.payload_pool.reclaim(rc.data);
                    self.egress.protocol_error("forward relay cell at client");
                    return;
                }
                let recognized = nc
                    .crypt
                    .as_mut()
                    .expect("non-client has crypt state")
                    .strip_forward(&mut rc);
                if recognized {
                    self.egress.send_feedback(ctx, my_net, confirm);
                    let verdict = if nc.server.is_some() {
                        self.server_consume(ctx, to, global, local, &rc)
                    } else {
                        self.relay_consume(ctx, to, global, local, &rc)
                    };
                    self.egress.consumed(rc, verdict);
                } else {
                    if nc.server.is_some() {
                        self.egress.payload_pool.reclaim(rc.data);
                        self.egress
                            .protocol_error("unrecognized relay cell at server");
                        return;
                    }
                    let Some(fwd) = nc.fwd.as_mut() else {
                        self.egress.payload_pool.reclaim(rc.data);
                        self.egress
                            .protocol_error("forwarding past the built circuit");
                        return;
                    };
                    fwd.enqueue(QueuedCell {
                        cell: Cell {
                            circ: CircuitId::CONTROL,
                            body: CellBody::Relay(rc),
                        },
                        confirm: Some(confirm),
                        wrap_for_hop: None,
                    });
                    self.egress.pump_dir(ctx, my_net, nc, Direction::Forward);
                }
            }
            Direction::Backward => {
                if let Some(app) = nc.client.as_mut() {
                    self.egress.send_feedback(ctx, my_net, confirm);
                    let verdict = match app.route.unwrap_inbound(&mut rc) {
                        Some(origin) => {
                            self.client_consume_backward(ctx, to, global, local, origin, &rc)
                        }
                        None => Err("backward cell not recognized by any layer"),
                    };
                    self.egress.consumed(rc, verdict);
                } else {
                    nc.crypt
                        .as_mut()
                        .expect("relay has crypt state")
                        .add_backward(&mut rc);
                    let Some(bwd) = nc.bwd.as_mut() else {
                        self.egress.payload_pool.reclaim(rc.data);
                        self.egress
                            .protocol_error("backward cell with no client side");
                        return;
                    };
                    bwd.enqueue(QueuedCell {
                        cell: Cell {
                            circ: CircuitId::CONTROL,
                            body: CellBody::Relay(rc),
                        },
                        confirm: Some(confirm),
                        wrap_for_hop: None,
                    });
                    self.egress.pump_dir(ctx, my_net, nc, Direction::Backward);
                }
            }
        }
    }
}

impl Egress {
    /// The end of a relay cell an endpoint stage consumed: its payload
    /// buffer returns to the pool, and only then is the violation the
    /// stage reported (if any) raised.
    fn consumed(&mut self, rc: RelayCell, verdict: Result<(), &'static str>) {
        self.payload_pool.reclaim(rc.data);
        if let Err(what) = verdict {
            self.protocol_error(what);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use netsim::bandwidth::Bandwidth;
    use netsim::link::{LinkConfig, LinkId};
    use simcore::time::SimDuration;
    use torcell::cell::{RelayCommand, RELAY_DATA_MAX};
    use torcell::ids::StreamId;

    use super::*;
    use crate::builder::{fixed_window_factory, PathHandles, PathScenario};
    use crate::pool::PayloadPool;
    use crate::wire::{FramePayload, WireFrame};

    /// Runs a one-DATA-cell transfer over three relays; the first relay
    /// cell accepted by `pick` that `link` carries is rewritten in
    /// flight by `tamper`. Whatever protocol error that provokes, the
    /// pool's ledger must balance: debug builds abort on the error (the
    /// buffer is already back by then), release builds count it and run
    /// on to quiescence.
    fn pool_ledger_survives(
        link: impl Fn(&PathHandles) -> LinkId,
        pick: impl Fn(&RelayCell) -> bool,
        tamper: impl Fn(&mut RelayCell, &mut PayloadPool),
    ) {
        let hop = LinkConfig::new(Bandwidth::from_mbps(10), SimDuration::from_millis(1));
        let scenario = PathScenario {
            hops: vec![hop; 4],
            file_bytes: RELAY_DATA_MAX as u64,
            ..Default::default()
        };
        let (mut sim, handles) = scenario.build(fixed_window_factory(4), 5);
        let link = link(&handles);
        loop {
            assert!(sim.step(), "ran dry before the cell to tamper with");
            let world = sim.world_mut();
            if let Some(WireFrame {
                payload:
                    FramePayload::Cell {
                        cell:
                            Cell {
                                body: CellBody::Relay(rc),
                                ..
                            },
                        ..
                    },
                ..
            }) = world.egress.net.last_on_wire_mut(link)
            {
                if pick(rc) {
                    tamper(rc, &mut world.egress.payload_pool);
                    break;
                }
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            sim.run();
        }));
        assert_eq!(outcome.is_err(), cfg!(debug_assertions));
        let world = sim.world();
        assert_eq!(world.stats().protocol_errors, 1);
        let pool = world.payload_pool();
        assert!(pool.acquired() > 0);
        assert_eq!(pool.returned(), pool.acquired(), "payload buffer leaked");
    }

    /// Swaps the payload for a pool-sized buffer of junk.
    fn junk(rc: &mut RelayCell, pool: &mut PayloadPool) {
        rc.data = pool.acquire();
        rc.data.resize(RELAY_DATA_MAX, 0x66);
    }

    #[test]
    fn corrupt_data_cell_at_the_server_returns_its_buffer() {
        pool_ledger_survives(
            |h| *h.fwd_links.last().expect("path has links"),
            |rc| rc.data.len() == RELAY_DATA_MAX,
            |rc, _| rc.data[100] ^= 0x01,
        );
    }

    // `stream` and `cmd` ride outside the digest: a restamped DATA cell
    // still passes recognition and reaches the server's consume stage.
    #[test]
    fn data_cell_restamped_to_an_unknown_stream_returns_its_buffer() {
        pool_ledger_survives(
            |h| *h.fwd_links.last().expect("path has links"),
            |rc| rc.cmd == RelayCommand::Data,
            |rc, _| rc.stream = StreamId(99),
        );
    }

    #[test]
    fn data_cell_restamped_to_a_command_the_server_rejects_returns_its_buffer() {
        pool_ledger_survives(
            |h| *h.fwd_links.last().expect("path has links"),
            |rc| rc.cmd == RelayCommand::Data,
            |rc, _| rc.cmd = RelayCommand::Connected,
        );
    }

    #[test]
    fn junk_forwarded_past_the_built_circuit_returns_its_buffer() {
        // The first EXTEND, bound for relay 1 — the whole circuit so far.
        pool_ledger_survives(
            |h| h.fwd_links[0],
            |rc| rc.cmd == RelayCommand::Extend,
            junk,
        );
    }

    #[test]
    fn junk_unrecognized_by_every_client_layer_returns_its_buffer() {
        pool_ledger_survives(
            |h| h.rev_links[0],
            |rc| rc.cmd == RelayCommand::Connected,
            junk,
        );
    }
}
