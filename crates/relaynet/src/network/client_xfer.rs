//! Pipeline stage — endpoint applications (the data plane's two ends).
//!
//! The client side generates the transfer workload: each stream of the
//! circuit's workload opens with its own BEGIN once it has arrived and
//! the circuit is built; after its CONNECTED the client pumps its DATA
//! cells (wrapped for the server's onion layer, window permitting),
//! round-robining generation across the open streams, and finishes each
//! stream with one END. The server side consumes recognized forward
//! cells — answering BEGIN with CONNECTED, counting and verifying DATA
//! per stream (and crediting the stream's flow), and timestamping
//! completion. Cells are *generated lazily* inside the egress pump so
//! that onion-layer counters advance in exact send order.

use simcore::sim::Context;
use simcore::time::SimTime;

use torcell::cell::{Cell, CellBody, RelayCell, RelayCommand};
use torcell::crypto::payload_digest;
use torcell::ids::{CircuitId, StreamId};

use crate::event::TorEvent;
use crate::ids::{CircId, Direction, OverlayId};
use crate::node::{ClientApp, QueuedCell};
use crate::pool::PayloadPool;

use super::{fill_pattern_extend, verify_fill_pattern, TorNetwork, END_REASON_DONE};

impl TorNetwork {
    /// A non-DATA relay cell carrying `data`, counting the digest's walk
    /// of it into `passes`. `data` must be ≥ 8 bytes so leaky-pipe
    /// recognition stays sound (see `OnionRoute::wrap_for_hop`).
    pub(super) fn control_cell(
        passes: &mut u64,
        cmd: RelayCommand,
        stream: StreamId,
        data: Vec<u8>,
    ) -> RelayCell {
        debug_assert!(data.len() >= 8, "control payload too short to address");
        *passes += 1;
        RelayCell {
            cmd,
            stream,
            digest: payload_digest(&data),
            data,
        }
    }

    /// The BEGIN cell opening stream `sid` (recognized by the server's
    /// onion layer at `server_hop`).
    pub(super) fn begin_cell(passes: &mut u64, sid: StreamId, server_hop: usize) -> QueuedCell {
        let rc = Self::control_cell(passes, RelayCommand::Begin, sid, b"server:443".to_vec());
        QueuedCell {
            cell: Cell {
                circ: CircuitId::CONTROL,
                body: CellBody::Relay(rc),
            },
            confirm: None,
            wrap_for_hop: Some(server_hop),
        }
    }

    /// Produces the next client-originated cell — DATA round-robined
    /// across the open streams, or a stream's trailing END — or `None`
    /// if no stream has anything to send. DATA payload buffers come
    /// from `pool` (zero-allocation steady state: the server reclaims
    /// every consumed payload into the same pool).
    pub(super) fn generate_client_cell(
        client: Option<&mut ClientApp>,
        pool: &mut PayloadPool,
        circ: CircId,
        now: SimTime,
    ) -> Option<QueuedCell> {
        let app = client?;
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
                let mut payload = pool.acquire();
                fill_pattern_extend(circ, idx, len, &mut payload);
                // One walk to fill, one for `RelayCell::data`'s digest.
                app.payload_passes += 2;
                if app.first_data_at.is_none() {
                    app.first_data_at = Some(now);
                }
                app.rr_cursor = (i + 1) % n;
                return Some(QueuedCell {
                    cell: Cell {
                        circ: CircuitId::CONTROL, // restamped at send
                        body: CellBody::Relay(RelayCell::data(sid, payload)),
                    },
                    confirm: None,
                    wrap_for_hop: Some(server_hop),
                });
            } else if !s.end_sent {
                s.end_sent = true;
                let sid = s.id;
                app.rr_cursor = (i + 1) % n;
                let rc = Self::control_cell(
                    &mut app.payload_passes,
                    RelayCommand::End,
                    sid,
                    vec![END_REASON_DONE; 8],
                );
                return Some(QueuedCell {
                    cell: Cell {
                        circ: CircuitId::CONTROL,
                        body: CellBody::Relay(rc),
                    },
                    confirm: None,
                    wrap_for_hop: Some(server_hop),
                });
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
        let app = nc.server.as_mut().expect("server app exists");
        match rc.cmd {
            RelayCommand::Begin => {
                let stream = app
                    .stream_mut(rc.stream)
                    .ok_or("BEGIN outside the workload")?;
                if stream.open {
                    return Err("duplicate BEGIN for a stream");
                }
                stream.open = true;
                let mut reply = Self::control_cell(
                    &mut self.payload_passes,
                    RelayCommand::Connected,
                    rc.stream,
                    vec![0xC0u8; 8],
                );
                nc.crypt
                    .as_mut()
                    .expect("server has crypt state")
                    .add_backward(&mut reply);
                nc.bwd
                    .as_mut()
                    .expect("server backward hop")
                    .enqueue(QueuedCell {
                        cell: Cell {
                            circ: CircuitId::CONTROL,
                            body: CellBody::Relay(reply),
                        },
                        confirm: None,
                        wrap_for_hop: None,
                    });
                self.egress.pump_dir(ctx, my_net, nc, Direction::Backward);
            }
            RelayCommand::Data => {
                let stream = app
                    .stream_mut(rc.stream)
                    .filter(|s| s.open)
                    .ok_or("DATA before BEGIN")?;
                stream.cells_received += 1;
                stream.bytes_received += rc.data.len() as u64;
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
                if app.first_byte_at.is_none() {
                    app.first_byte_at = Some(ctx.now());
                }
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
                if flow.first_byte_at.is_none() {
                    flow.first_byte_at = Some(ctx.now());
                }
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
                    app.ended = app.streams_ended == app.expected_streams;
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
                let node = &self.nodes[client.index()];
                let nc = node.circuit_at(local);
                let app = nc.client.as_ref().expect("client app");
                debug_assert_eq!(
                    origin,
                    app.route.len() - 1,
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
                let app = nc.client.as_mut().expect("client app");
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
                if app.connected_at.is_none() {
                    app.connected_at = Some(ctx.now());
                }
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
