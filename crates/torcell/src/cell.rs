//! Cell and frame structures.
//!
//! The overlay exchanges two kinds of frames between adjacent nodes:
//!
//! * **Cells** — fixed 512-byte units (as in Tor). Every cell carries a
//!   link-local circuit id and a command; RELAY cells additionally carry a
//!   relay sub-header and up to [`RELAY_DATA_MAX`] bytes of payload.
//! * **Feedback** — the small per-hop control message introduced by
//!   BackTap/CircuitStart: when a relay *forwards* a cell it tells its
//!   predecessor "cell `seq` of circuit `c` is moving". Feedback is not a
//!   cell; it is a [`FEEDBACK_WIRE_LEN`]-byte frame of its own.
//!
//! Sizes follow Tor's v4 link protocol (4-byte circuit ids): a 512-byte
//! cell is 4 (circ id) + 1 (command) + 507 (payload); a relay header
//! consumes 11 payload bytes leaving 496 for data.

use crate::ids::{CircuitId, StreamId};

/// Total size of a cell on the wire, bytes.
pub const CELL_LEN: usize = 512;
/// Size of the circuit-id field.
pub const CIRCID_LEN: usize = 4;
/// Size of the command field.
pub const COMMAND_LEN: usize = 1;
/// Payload bytes available after the cell header.
pub const CELL_PAYLOAD_LEN: usize = CELL_LEN - CIRCID_LEN - COMMAND_LEN; // 507
/// Size of the relay sub-header inside a RELAY cell's payload.
pub const RELAY_HEADER_LEN: usize = 11;
/// Maximum application bytes in one RELAY cell.
pub const RELAY_DATA_MAX: usize = CELL_PAYLOAD_LEN - RELAY_HEADER_LEN; // 496
/// Wire size of a feedback frame, bytes.
pub const FEEDBACK_WIRE_LEN: usize = 20;
/// Size of the handshake blob carried by CREATE/CREATED cells.
pub const HANDSHAKE_LEN: usize = 16;

/// Top-level cell commands (wire codes in parentheses).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum CellCommand {
    /// Extend a circuit to this node (1).
    Create = 1,
    /// Acknowledge a CREATE (2).
    Created = 2,
    /// Carry relay payload (3).
    Relay = 3,
    /// Tear the circuit down (4).
    Destroy = 4,
    /// Link padding; ignored by the overlay (5).
    Padding = 5,
}

impl CellCommand {
    /// Parses a wire code.
    pub fn from_wire(code: u8) -> Option<CellCommand> {
        match code {
            1 => Some(CellCommand::Create),
            2 => Some(CellCommand::Created),
            3 => Some(CellCommand::Relay),
            4 => Some(CellCommand::Destroy),
            5 => Some(CellCommand::Padding),
            _ => None,
        }
    }

    /// The wire code.
    pub fn to_wire(self) -> u8 {
        self as u8
    }
}

/// Commands carried in the relay sub-header.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum RelayCommand {
    /// Open a stream to the destination (1).
    Begin = 1,
    /// Application data (2).
    Data = 2,
    /// Close a stream; `data[0]` is the reason (3).
    End = 3,
    /// Stream successfully opened (4).
    Connected = 4,
    /// End-to-end window update for the fixed-window baseline transport (5).
    Sendme = 5,
    /// Ask the recognizing relay to extend the circuit to the node named
    /// in the payload (6).
    Extend = 6,
    /// Report a successful extension back to the client, echoing the new
    /// hop's handshake (7).
    Extended = 7,
}

impl RelayCommand {
    /// Parses a wire code.
    pub fn from_wire(code: u8) -> Option<RelayCommand> {
        match code {
            1 => Some(RelayCommand::Begin),
            2 => Some(RelayCommand::Data),
            3 => Some(RelayCommand::End),
            4 => Some(RelayCommand::Connected),
            5 => Some(RelayCommand::Sendme),
            6 => Some(RelayCommand::Extend),
            7 => Some(RelayCommand::Extended),
            _ => None,
        }
    }

    /// The wire code.
    pub fn to_wire(self) -> u8 {
        self as u8
    }
}

/// The relay sub-header and payload of a RELAY cell.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RelayCell {
    /// What this relay cell means.
    pub cmd: RelayCommand,
    /// Target stream ([`StreamId::CIRCUIT`] for circuit-level cells).
    pub stream: StreamId,
    /// Integrity digest over the payload (see
    /// [`crate::crypto::payload_digest`]); checked by the recognizing hop.
    pub digest: u32,
    /// Application bytes, at most [`RELAY_DATA_MAX`].
    pub data: Vec<u8>,
}

impl RelayCell {
    /// Builds a DATA relay cell, computing the digest.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds [`RELAY_DATA_MAX`].
    pub fn data(stream: StreamId, data: Vec<u8>) -> RelayCell {
        assert!(
            data.len() <= RELAY_DATA_MAX,
            "relay payload of {} bytes exceeds max {}",
            data.len(),
            RELAY_DATA_MAX
        );
        let digest = crate::crypto::payload_digest(&data);
        RelayCell {
            cmd: RelayCommand::Data,
            stream,
            digest,
            data,
        }
    }

    /// Verifies the digest against the payload.
    pub fn digest_ok(&self) -> bool {
        crate::crypto::payload_digest(&self.data) == self.digest
    }
}

/// The body of a cell, by command.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CellBody {
    /// CREATE with an opaque handshake blob (key material stand-in).
    Create {
        /// Handshake bytes.
        handshake: [u8; HANDSHAKE_LEN],
    },
    /// CREATED echoing a handshake blob.
    Created {
        /// Handshake bytes.
        handshake: [u8; HANDSHAKE_LEN],
    },
    /// RELAY payload.
    Relay(RelayCell),
    /// DESTROY with a reason code.
    Destroy {
        /// Why the circuit was torn down.
        reason: u8,
    },
    /// Padding (no content).
    Padding,
}

impl CellBody {
    /// The command corresponding to this body.
    pub fn command(&self) -> CellCommand {
        match self {
            CellBody::Create { .. } => CellCommand::Create,
            CellBody::Created { .. } => CellCommand::Created,
            CellBody::Relay(_) => CellCommand::Relay,
            CellBody::Destroy { .. } => CellCommand::Destroy,
            CellBody::Padding => CellCommand::Padding,
        }
    }
}

/// A full cell: link-local circuit id plus body. Always [`CELL_LEN`] bytes
/// on the wire regardless of content (padding is implicit).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cell {
    /// Link-local circuit id.
    pub circ: CircuitId,
    /// Decoded body.
    pub body: CellBody,
}

impl Cell {
    /// Builds a RELAY DATA cell.
    pub fn relay_data(circ: CircuitId, stream: StreamId, data: Vec<u8>) -> Cell {
        Cell {
            circ,
            body: CellBody::Relay(RelayCell::data(stream, data)),
        }
    }

    /// Builds a CREATE cell.
    pub fn create(circ: CircuitId, handshake: [u8; HANDSHAKE_LEN]) -> Cell {
        Cell {
            circ,
            body: CellBody::Create { handshake },
        }
    }

    /// Builds a CREATED cell.
    pub fn created(circ: CircuitId, handshake: [u8; HANDSHAKE_LEN]) -> Cell {
        Cell {
            circ,
            body: CellBody::Created { handshake },
        }
    }

    /// Builds a DESTROY cell.
    pub fn destroy(circ: CircuitId, reason: u8) -> Cell {
        Cell {
            circ,
            body: CellBody::Destroy { reason },
        }
    }

    /// The command byte of this cell.
    pub fn command(&self) -> CellCommand {
        self.body.command()
    }

    /// Wire size — always [`CELL_LEN`].
    pub fn wire_size(&self) -> usize {
        CELL_LEN
    }
}

/// The per-hop feedback frame ("the cell is moving").
///
/// Sent by a relay to its predecessor at the moment it *forwards* a cell
/// toward its successor. `seq` echoes the per-hop sequence number the
/// predecessor assigned when sending the cell, so the predecessor can
/// compute an RTT sample and advance its window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Feedback {
    /// Circuit the forwarded cell belonged to (link-local id on the
    /// predecessor link).
    pub circ: CircuitId,
    /// Per-hop sequence number of the forwarded cell.
    pub seq: u64,
}

impl Feedback {
    /// Wire size — always [`FEEDBACK_WIRE_LEN`].
    pub fn wire_size(&self) -> usize {
        FEEDBACK_WIRE_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_constants_are_consistent() {
        assert_eq!(CIRCID_LEN + COMMAND_LEN + CELL_PAYLOAD_LEN, CELL_LEN);
        assert_eq!(RELAY_HEADER_LEN + RELAY_DATA_MAX, CELL_PAYLOAD_LEN);
        assert_eq!(CELL_PAYLOAD_LEN, 507);
        assert_eq!(RELAY_DATA_MAX, 496);
    }

    #[test]
    fn command_wire_round_trip() {
        for cmd in [
            CellCommand::Create,
            CellCommand::Created,
            CellCommand::Relay,
            CellCommand::Destroy,
            CellCommand::Padding,
        ] {
            assert_eq!(CellCommand::from_wire(cmd.to_wire()), Some(cmd));
        }
        assert_eq!(CellCommand::from_wire(0), None);
        assert_eq!(CellCommand::from_wire(99), None);
    }

    #[test]
    fn relay_command_wire_round_trip() {
        for cmd in [
            RelayCommand::Begin,
            RelayCommand::Data,
            RelayCommand::End,
            RelayCommand::Connected,
            RelayCommand::Sendme,
            RelayCommand::Extend,
            RelayCommand::Extended,
        ] {
            assert_eq!(RelayCommand::from_wire(cmd.to_wire()), Some(cmd));
        }
        assert_eq!(RelayCommand::from_wire(0), None);
    }

    #[test]
    fn relay_data_digest_is_valid() {
        let rc = RelayCell::data(StreamId(1), vec![1, 2, 3]);
        assert!(rc.digest_ok());
        let mut tampered = rc.clone();
        tampered.data[0] ^= 0xFF;
        assert!(!tampered.digest_ok());
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn oversize_relay_payload_rejected() {
        let _ = RelayCell::data(StreamId(1), vec![0; RELAY_DATA_MAX + 1]);
    }

    #[test]
    fn max_size_relay_payload_accepted() {
        let rc = RelayCell::data(StreamId(1), vec![7; RELAY_DATA_MAX]);
        assert_eq!(rc.data.len(), RELAY_DATA_MAX);
        assert!(rc.digest_ok());
    }

    #[test]
    fn body_commands() {
        assert_eq!(
            Cell::create(CircuitId(1), [0; HANDSHAKE_LEN]).command(),
            CellCommand::Create
        );
        assert_eq!(
            Cell::created(CircuitId(1), [0; HANDSHAKE_LEN]).command(),
            CellCommand::Created
        );
        assert_eq!(
            Cell::relay_data(CircuitId(1), StreamId(0), vec![]).command(),
            CellCommand::Relay
        );
        assert_eq!(
            Cell::destroy(CircuitId(1), 2).command(),
            CellCommand::Destroy
        );
        assert_eq!(
            Cell {
                circ: CircuitId(1),
                body: CellBody::Padding
            }
            .command(),
            CellCommand::Padding
        );
    }

    #[test]
    fn wire_sizes_are_fixed() {
        let small = Cell::relay_data(CircuitId(1), StreamId(0), vec![1]);
        let big = Cell::relay_data(CircuitId(1), StreamId(0), vec![1; RELAY_DATA_MAX]);
        assert_eq!(small.wire_size(), CELL_LEN);
        assert_eq!(big.wire_size(), CELL_LEN);
        assert_eq!(
            Feedback {
                circ: CircuitId(1),
                seq: 0
            }
            .wire_size(),
            FEEDBACK_WIRE_LEN
        );
    }
}
