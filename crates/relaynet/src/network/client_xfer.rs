//! Pipeline stage — endpoint applications (the data plane's two ends).
//!
//! The client side generates the transfer workload: each stream of the
//! circuit's workload opens with its own BEGIN once it has arrived and
//! the circuit is built; after its CONNECTED the client pumps its DATA
//! cells (window permitting), round-robining generation across the open
//! streams, and finishes each stream with one END. The server side
//! consumes recognized forward cells — answering BEGIN with CONNECTED,
//! counting and verifying DATA per stream (and crediting the stream's
//! flow), and timestamping completion.
//!
//! Every relay cell is sealed by torcell where it is made: the client's
//! with [`OnionRoute::seal_for_hop`](torcell::crypto::OnionRoute::seal_for_hop)
//! (digest and every onion layer in one walk; a DATA cell's fill too,
//! from the fill pattern's window into a pooled buffer), CONNECTED with
//! the server's [`RelayCrypt::seal_backward`](torcell::crypto::RelayCrypt::seal_backward).
//! DATA and END are *generated lazily* inside the egress pump, so layer
//! counters advance in send order ([`seal_control`] says why queued
//! cells keep that order too).

use simcore::sim::Context;
use simcore::time::SimTime;

use torcell::cell::{RelayCell, RelayCommand};
use torcell::crypto::OnionRoute;
use torcell::ids::StreamId;

use crate::event::TorEvent;
use crate::ids::{CircId, Direction, OverlayId};
use crate::node::{CircuitRole, QueuedCell};
use crate::pool::PayloadPool;

use super::{fill_pattern_window, verify_fill_pattern, TorNetwork, END_REASON_DONE};

/// BEGIN's payload: the address the server's end of a stream connects to.
pub(super) const BEGIN_ADDRESS: &[u8] = b"server:443";

/// A control cell (EXTEND, BEGIN, END) for `hop` of `route`, sealed
/// where it is made: digest and every layer up to `hop` in one walk, as a
/// DATA cell is.
///
/// Sealing advances the layers' counters, which must advance in the order
/// cells leave the client. They do: the forward queue is FIFO, and DATA
/// and END are generated only when it is empty, so no cell is sealed on
/// a route between a queued cell's sealing and its send. A queued cell
/// drained at teardown advanced counters that no later cell reads: a
/// closed client seals nothing.
pub(super) fn seal_control(
    route: &mut OnionRoute,
    hop: usize,
    cmd: RelayCommand,
    stream: StreamId,
    plain: &[u8],
) -> QueuedCell {
    let buf = Vec::with_capacity(plain.len());
    QueuedCell::relay(route.seal_for_hop(hop, cmd, stream, plain, buf), None)
}

impl TorNetwork {
    /// Produces the next client-originated cell — DATA round-robined
    /// across the open streams, or a stream's trailing END — or `None`
    /// at a relay or server, or if no stream has anything to send. DATA
    /// payload buffers come from `pool` (zero-allocation steady state:
    /// the server reclaims every consumed payload into the same pool).
    pub(super) fn generate_client_cell(
        role: &mut CircuitRole,
        pool: &mut PayloadPool,
        circ: CircId,
        now: SimTime,
    ) -> Option<QueuedCell> {
        let CircuitRole::Client(app) = role else {
            return None;
        };
        if !app.established() {
            return None;
        }
        let server_hop = app.server_hop();
        let n = app.streams.len();
        for k in 0..n {
            let i = (app.rr_cursor + k) % n;
            let s = &mut app.streams[i];
            if !(s.arrived && s.open) {
                continue;
            }
            if s.sent_cells < s.total_cells {
                let len = s.cell_len(s.sent_cells);
                s.sent_cells += 1;
                let sid = s.id;
                // The fill pattern indexes by the circuit-aggregate send
                // counter: the single-path FIFO delivers cells in send
                // order, so the server verifies with its (0-based)
                // aggregate arrival counter no matter how streams
                // interleave.
                let idx = app.sent_cells;
                app.sent_cells += 1;
                let plain = fill_pattern_window(circ, idx, len);
                // The route counts the walk: fill, digest and wrap in one.
                let rc = app.route.seal_for_hop(
                    server_hop,
                    RelayCommand::Data,
                    sid,
                    plain,
                    pool.acquire(),
                );
                if app.first_data_at.is_none() {
                    app.first_data_at = Some(now);
                }
                app.rr_cursor = (i + 1) % n;
                return Some(QueuedCell::relay(rc, None));
            } else if !s.end_sent {
                s.end_sent = true;
                let sid = s.id;
                app.rr_cursor = (i + 1) % n;
                let end = [END_REASON_DONE; 8];
                return Some(seal_control(
                    &mut app.route,
                    server_hop,
                    RelayCommand::End,
                    sid,
                    &end,
                ));
            }
        }
        None
    }

    /// The server recognized a forward cell. `Err` names the protocol
    /// violation; the caller owns the cell and raises it.
    pub(super) fn server_consume(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        server: OverlayId,
        circ: CircId,
        local: u32,
        rc: &RelayCell,
    ) -> Result<(), &'static str> {
        let node = &mut self.nodes[server.index()];
        let my_net = node.net_node;
        let nc = node.circuit_at_mut(local);
        let CircuitRole::Server { crypt, app } = &mut nc.role else {
            unreachable!("recognition hands server_consume servers only");
        };
        match rc.cmd {
            RelayCommand::Begin => {
                let stream = app
                    .stream_mut(rc.stream)
                    .ok_or("BEGIN outside the workload")?;
                if stream.open {
                    return Err("duplicate BEGIN for a stream");
                }
                stream.open = true;
                let reply = crypt.seal_backward(RelayCommand::Connected, rc.stream, vec![0xC0; 8]);
                nc.bwd
                    .as_mut()
                    .expect("server backward hop")
                    .enqueue(&mut self.egress.hop_cells, QueuedCell::relay(reply, None));
                self.egress.pump_dir(ctx, my_net, nc, Direction::Backward);
            }
            RelayCommand::Data => {
                app.stream_mut(rc.stream)
                    .filter(|s| s.open)
                    .ok_or("DATA before BEGIN")?;
                // Aggregate arrival counter = fill-pattern index (the
                // counterpart of the client's aggregate send counter).
                let idx = app.cells_received;
                app.cells_received += 1;
                self.payload_passes += 1;
                if !verify_fill_pattern(circ, idx, &rc.data) {
                    app.payload_errors += 1;
                    debug_assert!(false, "payload verification failed");
                }
                app.bytes_received += rc.data.len() as u64;
                app.last_byte_at = Some(ctx.now());
                // Credit the stream's flow — the accounting that
                // survives circuit churn.
                let sidx = (rc.stream.0 - 1) as usize;
                let info = &self.circuits[circ.index()];
                let spec = info
                    .workload
                    .streams
                    .get(sidx)
                    .ok_or("DATA for stream outside the workload")?;
                let flow = &mut self.flows[spec.flow.index()];
                flow.delivered += rc.data.len() as u64;
                flow.cells_delivered += 1;
                debug_assert!(
                    flow.delivered <= flow.requested,
                    "flow over-delivered: duplicated bytes"
                );
                if flow.complete() && flow.completed_at.is_none() {
                    flow.completed_at = Some(ctx.now());
                    // Fold the completion into the streaming sketch
                    // the moment it happens — the O(buckets) twin of
                    // the exact per-flow CDF.
                    if let Some(ttlb) = flow.completion_time() {
                        self.completion_sketch.record(ttlb.as_secs_f64());
                    }
                }
            }
            RelayCommand::End => {
                let stream = app
                    .stream_mut(rc.stream)
                    .filter(|s| s.open)
                    .ok_or("END before BEGIN")?;
                if !stream.ended {
                    stream.ended = true;
                    app.streams_ended += 1;
                }
            }
            _ => return Err("unexpected relay command at server"),
        }
        Ok(())
    }

    /// The client recognized a backward cell originated by hop `origin`.
    /// `Err` names the protocol violation; the caller owns the cell and
    /// raises it.
    pub(super) fn client_consume_backward(
        &mut self,
        ctx: &mut Context<'_, TorEvent>,
        client: OverlayId,
        circ: CircId,
        local: u32,
        origin: usize,
        rc: &RelayCell,
    ) -> Result<(), &'static str> {
        match rc.cmd {
            RelayCommand::Extended => {
                if rc.data.len() != torcell::cell::HANDSHAKE_LEN {
                    return Err("malformed EXTENDED payload");
                }
                let nc = self.nodes[client.index()].circuit_at_mut(local);
                debug_assert_eq!(
                    origin,
                    nc.client_mut().route.len() - 1,
                    "EXTENDED must originate from the current last hop"
                );
                let mut hs = [0u8; torcell::cell::HANDSHAKE_LEN];
                hs.copy_from_slice(&rc.data);
                self.client_advance_build(ctx, client, circ, local, hs);
            }
            RelayCommand::Connected => {
                let node = &mut self.nodes[client.index()];
                let my_net = node.net_node;
                let nc = node.circuit_at_mut(local);
                let app = nc.client_mut();
                if !app.established() {
                    return Err("CONNECTED before the circuit was built");
                }
                let s = app
                    .stream_mut(rc.stream)
                    .ok_or("CONNECTED for unknown stream")?;
                if s.open || !s.begin_sent {
                    return Err("unexpected CONNECTED");
                }
                s.open = true;
                self.egress.pump_dir(ctx, my_net, nc, Direction::Forward);
            }
            RelayCommand::End => {
                // Server-initiated close; nothing to do for bulk transfers.
            }
            _ => return Err("unexpected backward relay command"),
        }
        Ok(())
    }
}
