//! Byte-exact wire codec for cells and feedback frames.
//!
//! Layout (all integers big-endian, as in Tor's link protocol):
//!
//! ```text
//! Cell (512 bytes):
//!   [0..4)    circuit id (u32)
//!   [4..5)    command (u8)
//!   [5..512)  payload, zero-padded:
//!     CREATE/CREATED: 16-byte handshake blob
//!     DESTROY:        1-byte reason
//!     RELAY:          relay sub-header + data
//!       [0..1)   relay command (u8)
//!       [1..3)   'recognized' (u16, always 0 at the recognizing hop)
//!       [3..5)   stream id (u16)
//!       [5..9)   digest (u32)
//!       [9..11)  data length (u16)
//!       [11..]   data, then zero padding
//!
//! Feedback (20 bytes):
//!   [0..4)    magic 0x4642_434B ("FBCK")
//!   [4..8)    circuit id (u32)
//!   [8..16)   cell sequence (u64)
//!   [16..20)  FNV-1a-32 checksum of bytes [0..16)
//! ```
//!
//! The simulator normally moves *structured* cells between nodes for
//! speed; the codec is exercised at the application boundaries, in
//! property tests (round-trip for every representable cell), and in the
//! codec throughput bench, guaranteeing the structured shortcut is
//! equivalence-preserving.
//!
//! Encoding writes into plain `Vec<u8>` buffers; the crate carries no
//! external byte-buffer dependency.

#[cfg(test)]
use crate::cell::RELAY_HEADER_LEN;
use crate::cell::{
    Cell, CellBody, CellCommand, Feedback, RelayCell, RelayCommand, CELL_LEN, CELL_PAYLOAD_LEN,
    FEEDBACK_WIRE_LEN, HANDSHAKE_LEN, RELAY_DATA_MAX,
};
use crate::ids::{CircuitId, StreamId};

/// Feedback frame magic bytes ("FBCK").
pub const FEEDBACK_MAGIC: u32 = 0x4642_434B;

/// A big-endian cursor over an immutable byte slice.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        head
    }

    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn get_u16(&mut self) -> u16 {
        u16::from_be_bytes(self.take(2).try_into().expect("2 bytes"))
    }

    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take(8).try_into().expect("8 bytes"))
    }
}

/// Decoding failures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// Input was not exactly the expected frame length.
    WrongLength {
        /// Bytes required.
        expected: usize,
        /// Bytes supplied.
        got: usize,
    },
    /// The cell command byte is not assigned.
    UnknownCommand(u8),
    /// The relay command byte is not assigned.
    UnknownRelayCommand(u8),
    /// The 'recognized' field of a relay cell was non-zero — the payload
    /// is still wrapped in at least one onion layer and must not be parsed
    /// here.
    NotRecognized(u16),
    /// The relay data length field exceeds [`RELAY_DATA_MAX`].
    BadRelayLength(u16),
    /// A feedback frame did not start with [`FEEDBACK_MAGIC`].
    BadMagic(u32),
    /// A feedback frame failed its checksum.
    BadChecksum {
        /// Checksum in the frame.
        stored: u32,
        /// Checksum recomputed from the frame contents.
        computed: u32,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::WrongLength { expected, got } => {
                write!(f, "wrong frame length: expected {expected}, got {got}")
            }
            CodecError::UnknownCommand(c) => write!(f, "unknown cell command {c}"),
            CodecError::UnknownRelayCommand(c) => write!(f, "unknown relay command {c}"),
            CodecError::NotRecognized(v) => {
                write!(f, "relay cell not recognized (recognized field = {v:#06x})")
            }
            CodecError::BadRelayLength(l) => write!(f, "relay length {l} exceeds maximum"),
            CodecError::BadMagic(m) => write!(f, "bad feedback magic {m:#010x}"),
            CodecError::BadChecksum { stored, computed } => {
                write!(
                    f,
                    "feedback checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Encodes a cell to its exact 512-byte wire form.
pub fn encode_cell(cell: &Cell) -> Vec<u8> {
    let mut buf = Vec::with_capacity(CELL_LEN);
    buf.extend_from_slice(&cell.circ.0.to_be_bytes());
    buf.push(cell.command().to_wire());
    match &cell.body {
        CellBody::Create { handshake } | CellBody::Created { handshake } => {
            buf.extend_from_slice(handshake);
        }
        CellBody::Destroy { reason } => {
            buf.push(*reason);
        }
        CellBody::Padding => {}
        CellBody::Relay(rc) => {
            debug_assert!(rc.data.len() <= RELAY_DATA_MAX);
            buf.push(rc.cmd.to_wire());
            buf.extend_from_slice(&0u16.to_be_bytes()); // recognized
            buf.extend_from_slice(&rc.stream.0.to_be_bytes());
            buf.extend_from_slice(&rc.digest.to_be_bytes());
            buf.extend_from_slice(&(rc.data.len() as u16).to_be_bytes());
            buf.extend_from_slice(&rc.data);
        }
    }
    // Zero-pad to the fixed cell size.
    buf.resize(CELL_LEN, 0);
    buf
}

/// Decodes a 512-byte wire cell.
///
/// Relay payloads must be fully unwrapped ("recognized") — decoding is the
/// job of the hop that owns the innermost remaining layer.
pub fn decode_cell(wire: &[u8]) -> Result<Cell, CodecError> {
    if wire.len() != CELL_LEN {
        return Err(CodecError::WrongLength {
            expected: CELL_LEN,
            got: wire.len(),
        });
    }
    let mut buf = Reader::new(wire);
    let circ = CircuitId(buf.get_u32());
    let cmd_byte = buf.get_u8();
    let cmd = CellCommand::from_wire(cmd_byte).ok_or(CodecError::UnknownCommand(cmd_byte))?;
    debug_assert_eq!(buf.remaining(), CELL_PAYLOAD_LEN);
    let body = match cmd {
        CellCommand::Create | CellCommand::Created => {
            let mut handshake = [0u8; HANDSHAKE_LEN];
            handshake.copy_from_slice(buf.take(HANDSHAKE_LEN));
            if cmd == CellCommand::Create {
                CellBody::Create { handshake }
            } else {
                CellBody::Created { handshake }
            }
        }
        CellCommand::Destroy => CellBody::Destroy {
            reason: buf.get_u8(),
        },
        CellCommand::Padding => CellBody::Padding,
        CellCommand::Relay => {
            let relay_cmd_byte = buf.get_u8();
            let relay_cmd = RelayCommand::from_wire(relay_cmd_byte)
                .ok_or(CodecError::UnknownRelayCommand(relay_cmd_byte))?;
            let recognized = buf.get_u16();
            if recognized != 0 {
                return Err(CodecError::NotRecognized(recognized));
            }
            let stream = StreamId(buf.get_u16());
            let digest = buf.get_u32();
            let len = buf.get_u16();
            if usize::from(len) > RELAY_DATA_MAX {
                return Err(CodecError::BadRelayLength(len));
            }
            let data = buf.take(usize::from(len)).to_vec();
            CellBody::Relay(RelayCell {
                cmd: relay_cmd,
                stream,
                digest,
                data,
            })
        }
    };
    Ok(Cell { circ, body })
}

/// Encodes a feedback frame to its exact 20-byte wire form.
pub fn encode_feedback(fb: &Feedback) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FEEDBACK_WIRE_LEN);
    buf.extend_from_slice(&FEEDBACK_MAGIC.to_be_bytes());
    buf.extend_from_slice(&fb.circ.0.to_be_bytes());
    buf.extend_from_slice(&fb.seq.to_be_bytes());
    let checksum = crate::crypto::payload_digest(&buf[..16]);
    buf.extend_from_slice(&checksum.to_be_bytes());
    debug_assert_eq!(buf.len(), FEEDBACK_WIRE_LEN);
    buf
}

/// Decodes a 20-byte feedback frame, verifying magic and checksum.
pub fn decode_feedback(wire: &[u8]) -> Result<Feedback, CodecError> {
    if wire.len() != FEEDBACK_WIRE_LEN {
        return Err(CodecError::WrongLength {
            expected: FEEDBACK_WIRE_LEN,
            got: wire.len(),
        });
    }
    let mut buf = Reader::new(wire);
    let magic = buf.get_u32();
    if magic != FEEDBACK_MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let circ = CircuitId(buf.get_u32());
    let seq = buf.get_u64();
    let stored = buf.get_u32();
    let computed = crate::crypto::payload_digest(&wire[..16]);
    if stored != computed {
        return Err(CodecError::BadChecksum { stored, computed });
    }
    Ok(Feedback { circ, seq })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(cell: Cell) {
        let wire = encode_cell(&cell);
        assert_eq!(wire.len(), CELL_LEN);
        let decoded = decode_cell(&wire).expect("decode");
        assert_eq!(decoded, cell);
    }

    #[test]
    fn create_round_trip() {
        let mut hs = [0u8; HANDSHAKE_LEN];
        for (i, b) in hs.iter_mut().enumerate() {
            *b = i as u8;
        }
        round_trip(Cell::create(CircuitId(0xDEAD), hs));
        round_trip(Cell::created(CircuitId(1), hs));
    }

    #[test]
    fn destroy_round_trip() {
        round_trip(Cell::destroy(CircuitId(7), 3));
    }

    #[test]
    fn padding_round_trip() {
        round_trip(Cell {
            circ: CircuitId(2),
            body: CellBody::Padding,
        });
    }

    #[test]
    fn relay_data_round_trip() {
        round_trip(Cell::relay_data(
            CircuitId(9),
            StreamId(4),
            vec![1, 2, 3, 4, 5],
        ));
        round_trip(Cell::relay_data(CircuitId(9), StreamId(4), vec![]));
        round_trip(Cell::relay_data(
            CircuitId(u32::MAX),
            StreamId(u16::MAX),
            vec![0xAB; RELAY_DATA_MAX],
        ));
    }

    #[test]
    fn relay_control_round_trip() {
        for cmd in [
            RelayCommand::Begin,
            RelayCommand::End,
            RelayCommand::Connected,
            RelayCommand::Sendme,
        ] {
            // 8 payload bytes: the shortest a relay cell may carry and
            // still be addressed to one hop (see `wrap_for_hop`).
            let data = vec![0xC0; 8];
            round_trip(Cell {
                circ: CircuitId(3),
                body: CellBody::Relay(RelayCell {
                    cmd,
                    stream: StreamId(1),
                    digest: crate::crypto::payload_digest(&data),
                    data,
                }),
            });
        }
    }

    /// Exhaustive variant coverage: encode→decode identity for *every*
    /// `RelayCommand` and every `CellBody` variant, at representative
    /// payload sizes (empty, single byte, mid, maximal). The match on
    /// `CellBody` has no wildcard arm, so adding a variant without
    /// extending this test fails to compile.
    #[test]
    fn every_variant_round_trips() {
        const ALL_RELAY: [RelayCommand; 7] = [
            RelayCommand::Begin,
            RelayCommand::Data,
            RelayCommand::End,
            RelayCommand::Connected,
            RelayCommand::Sendme,
            RelayCommand::Extend,
            RelayCommand::Extended,
        ];
        let mut hs = [0u8; HANDSHAKE_LEN];
        for (i, b) in hs.iter_mut().enumerate() {
            *b = (i * 17) as u8;
        }
        let mut bodies: Vec<CellBody> = vec![
            CellBody::Create { handshake: hs },
            CellBody::Created { handshake: hs },
            CellBody::Destroy { reason: 0 },
            CellBody::Destroy { reason: u8::MAX },
            CellBody::Padding,
        ];
        for cmd in ALL_RELAY {
            for len in [0usize, 1, 100, RELAY_DATA_MAX] {
                let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
                bodies.push(CellBody::Relay(RelayCell {
                    cmd,
                    stream: StreamId(if len == 0 { 0 } else { u16::MAX }),
                    digest: crate::crypto::payload_digest(&data),
                    data,
                }));
            }
        }
        for body in bodies {
            // Compile-time exhaustiveness guard: every variant must be
            // listed here.
            match &body {
                CellBody::Create { .. }
                | CellBody::Created { .. }
                | CellBody::Destroy { .. }
                | CellBody::Padding
                | CellBody::Relay(_) => {}
            }
            for circ in [0u32, 1, u32::MAX] {
                round_trip(Cell {
                    circ: CircuitId(circ),
                    body: body.clone(),
                });
            }
        }
    }

    #[test]
    fn wire_is_exactly_512_bytes_and_padded() {
        let wire = encode_cell(&Cell::relay_data(CircuitId(1), StreamId(1), vec![0xFF; 3]));
        assert_eq!(wire.len(), CELL_LEN);
        // Bytes after header+data must be zero padding.
        let data_end = 5 + RELAY_HEADER_LEN + 3;
        assert!(wire[data_end..].iter().all(|&b| b == 0));
    }

    #[test]
    fn decode_rejects_wrong_length() {
        assert_eq!(
            decode_cell(&[0u8; 100]),
            Err(CodecError::WrongLength {
                expected: CELL_LEN,
                got: 100
            })
        );
        assert_eq!(
            decode_cell(&[0u8; CELL_LEN + 1]),
            Err(CodecError::WrongLength {
                expected: CELL_LEN,
                got: CELL_LEN + 1
            })
        );
    }

    #[test]
    fn decode_rejects_unknown_command() {
        let mut wire = encode_cell(&Cell::destroy(CircuitId(1), 0));
        wire[4] = 0xEE;
        assert_eq!(decode_cell(&wire), Err(CodecError::UnknownCommand(0xEE)));
    }

    #[test]
    fn decode_rejects_unknown_relay_command() {
        let mut wire = encode_cell(&Cell::relay_data(CircuitId(1), StreamId(1), vec![]));
        wire[5] = 0x77;
        assert_eq!(
            decode_cell(&wire),
            Err(CodecError::UnknownRelayCommand(0x77))
        );
    }

    #[test]
    fn decode_rejects_unrecognized_relay() {
        let mut wire = encode_cell(&Cell::relay_data(CircuitId(1), StreamId(1), vec![]));
        wire[6] = 0x01; // poke the 'recognized' field
        assert_eq!(decode_cell(&wire), Err(CodecError::NotRecognized(0x0100)));
    }

    #[test]
    fn decode_rejects_oversize_relay_length() {
        let mut wire = encode_cell(&Cell::relay_data(CircuitId(1), StreamId(1), vec![]));
        let bad = (RELAY_DATA_MAX as u16 + 1).to_be_bytes();
        wire[14] = bad[0];
        wire[15] = bad[1];
        assert_eq!(
            decode_cell(&wire),
            Err(CodecError::BadRelayLength(RELAY_DATA_MAX as u16 + 1))
        );
    }

    #[test]
    fn digest_survives_round_trip() {
        let cell = Cell::relay_data(CircuitId(1), StreamId(1), b"payload".to_vec());
        let wire = encode_cell(&cell);
        let decoded = decode_cell(&wire).unwrap();
        match decoded.body {
            CellBody::Relay(rc) => assert!(rc.digest_ok()),
            _ => panic!("expected relay cell"),
        }
    }

    #[test]
    fn feedback_round_trip() {
        let fb = Feedback {
            circ: CircuitId(0xABCD),
            seq: u64::MAX - 3,
        };
        let wire = encode_feedback(&fb);
        assert_eq!(wire.len(), FEEDBACK_WIRE_LEN);
        assert_eq!(decode_feedback(&wire), Ok(fb));
    }

    #[test]
    fn feedback_rejects_wrong_length() {
        assert_eq!(
            decode_feedback(&[0u8; 19]),
            Err(CodecError::WrongLength {
                expected: 20,
                got: 19
            })
        );
    }

    #[test]
    fn feedback_rejects_bad_magic() {
        let mut wire = encode_feedback(&Feedback {
            circ: CircuitId(1),
            seq: 2,
        });
        wire[0] = 0;
        assert!(matches!(
            decode_feedback(&wire),
            Err(CodecError::BadMagic(_))
        ));
    }

    #[test]
    fn feedback_rejects_corrupted_body() {
        let mut wire = encode_feedback(&Feedback {
            circ: CircuitId(1),
            seq: 2,
        });
        wire[9] ^= 0xFF; // corrupt the sequence field
        assert!(matches!(
            decode_feedback(&wire),
            Err(CodecError::BadChecksum { .. })
        ));
    }

    #[test]
    fn error_display_strings() {
        let e = CodecError::WrongLength {
            expected: 512,
            got: 3,
        };
        assert!(e.to_string().contains("512"));
        assert!(CodecError::UnknownCommand(9).to_string().contains('9'));
        assert!(CodecError::NotRecognized(1)
            .to_string()
            .contains("recognized"));
    }
}
