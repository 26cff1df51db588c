//! What actually travels on the simulated links.
//!
//! A [`WireFrame`] is either a 512-byte cell (stamped with the sender's
//! per-hop transport sequence number, which the BackTap framing carries so
//! feedback can reference it) or a 20-byte feedback frame. Source and
//! destination are *network* node ids; intermediate switches (the star
//! hub) forward frames toward `dst` without inspecting the payload.

use netsim::frame::Frame;
use netsim::net::NodeId;
use torcell::cell::{Cell, Feedback, CELL_LEN, FEEDBACK_WIRE_LEN};

use crate::node::PendingConfirm;

/// Per-hop frame payload.
#[derive(Clone, Debug)]
pub enum FramePayload {
    /// A cell plus the sender's per-hop sequence number (BackTap framing;
    /// 8 bytes of the 512-byte budget are accounted to the hop header in
    /// the wire-size model, mirroring how BackTap piggybacks its header).
    Cell {
        /// The cell itself.
        cell: Cell,
        /// Per-hop sequence number assigned by the sending transport.
        hop_seq: u64,
    },
    /// A feedback frame ("that cell is moving").
    Feedback(Feedback),
}

/// A frame on the wire between two overlay endpoints.
#[derive(Clone, Debug)]
pub struct WireFrame {
    /// Network node of the overlay sender.
    pub src: NodeId,
    /// Network node of the overlay recipient.
    pub dst: NodeId,
    /// Content.
    pub payload: FramePayload,
    /// Sender-side bookkeeping, **not** wire content (zero wire bytes):
    /// the feedback owed upstream for a forwarded cell. The overlay pays
    /// it the instant the cell finishes serializing onto the outgoing
    /// link — the moment it is physically "forwarded" in the paper's
    /// sense — and detaches the tag before the frame travels on.
    pub confirm: Option<PendingConfirm>,
}

impl Frame for WireFrame {
    fn wire_size(&self) -> u32 {
        match &self.payload {
            FramePayload::Cell { .. } => CELL_LEN as u32,
            FramePayload::Feedback(_) => FEEDBACK_WIRE_LEN as u32,
        }
    }

    /// Only an owed confirm has to be paid at the departure instant.
    fn awaits_departure(&self) -> bool {
        self.confirm.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torcell::ids::{CircuitId, StreamId};

    #[test]
    fn wire_sizes() {
        let mut net: netsim::net::Net<WireFrame> = netsim::net::Net::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        let cell_frame = WireFrame {
            src: a,
            dst: b,
            payload: FramePayload::Cell {
                cell: Cell::relay_data(CircuitId(1), StreamId(1), vec![1, 2, 3]),
                hop_seq: 0,
            },
            confirm: None,
        };
        assert_eq!(cell_frame.wire_size(), 512);
        let fb_frame = WireFrame {
            src: b,
            dst: a,
            payload: FramePayload::Feedback(Feedback {
                circ: CircuitId(1),
                seq: 0,
            }),
            confirm: None,
        };
        assert_eq!(fb_frame.wire_size(), 20);
    }
}
