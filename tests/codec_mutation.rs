//! Hostile frames through `torcell::codec`: valid encodings of every cell
//! variant and of feedback, mutated by every single-bit flip of the bytes
//! the decoder reads as header, by seeded overwrites anywhere in the
//! frame, and by truncation and extension. Decoding must end in `Ok` or a
//! typed `CodecError`, never a panic, and every `Ok` must re-encode to
//! exactly the header bytes it was decoded from.

use std::panic::{catch_unwind, AssertUnwindSafe};

use simcore::rng::SimRng;
use torcell::cell::{CIRCID_LEN, COMMAND_LEN, RELAY_HEADER_LEN};
use torcell::prelude::*;

/// Offset of a cell's body: circuit id and command.
const CELL_HEADER: usize = CIRCID_LEN + COMMAND_LEN;

/// Valid cells of every `CellBody` variant and every relay command, at
/// empty, short and full relay payloads.
fn valid_cells() -> Vec<Cell> {
    let hs: [u8; HANDSHAKE_LEN] = std::array::from_fn(|i| (i * 37 + 5) as u8);
    let mut cells = vec![
        Cell::create(CircuitId(0x0102_0304), hs),
        Cell::created(CircuitId(u32::MAX), hs),
        Cell::destroy(CircuitId(7), 3),
        Cell {
            circ: CircuitId(0),
            body: CellBody::Padding,
        },
    ];
    for cmd in [
        RelayCommand::Begin,
        RelayCommand::Data,
        RelayCommand::End,
        RelayCommand::Connected,
        RelayCommand::Sendme,
        RelayCommand::Extend,
        RelayCommand::Extended,
    ] {
        for len in [0, 8, RELAY_DATA_MAX] {
            let data: Vec<u8> = (0..len).map(|i| (i * 13 + 1) as u8).collect();
            cells.push(Cell {
                circ: CircuitId(0xA5A5_0042),
                body: CellBody::Relay(RelayCell {
                    cmd,
                    recognized: 0,
                    stream: StreamId(0x0BAD),
                    digest: payload_digest(&data),
                    data,
                }),
            });
        }
    }
    cells
}

/// The bytes of a wire cell the decoder reads for `cell`: the header, the
/// body's fields and, for a relay cell, its data.
fn read_len(cell: &Cell) -> usize {
    CELL_HEADER
        + match &cell.body {
            CellBody::Create { .. } | CellBody::Created { .. } => HANDSHAKE_LEN,
            CellBody::Destroy { .. } => 1,
            CellBody::Padding => 0,
            CellBody::Relay(rc) => RELAY_HEADER_LEN + rc.data.len(),
        }
}

/// Decodes `wire`; a panic fails with `what`. An `Ok` must re-encode to
/// the bytes it was read from.
fn check_cell(wire: &[u8], what: &str) -> Result<Cell, CodecError> {
    let decoded = catch_unwind(AssertUnwindSafe(|| decode_cell(wire)))
        .unwrap_or_else(|_| panic!("decode_cell panicked on {what}"));
    if let Ok(cell) = &decoded {
        let n = read_len(cell);
        assert_eq!(encode_cell(cell)[..n], wire[..n], "{what}: re-encoding");
    }
    decoded
}

/// Decodes `wire`; a panic fails with `what`. An `Ok` must re-encode to
/// `wire` itself (a feedback frame is all header).
fn check_feedback(wire: &[u8], what: &str) -> Result<Feedback, CodecError> {
    let decoded = catch_unwind(AssertUnwindSafe(|| decode_feedback(wire)))
        .unwrap_or_else(|_| panic!("decode_feedback panicked on {what}"));
    if let Ok(fb) = &decoded {
        assert_eq!(encode_feedback(fb), wire, "{what}: re-encoding");
    }
    decoded
}

/// Truncations to every shorter length and extensions by 1, 2 and a
/// whole frame: all of them the wrong length.
fn resized(wire: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let shorter = (0..wire.len()).map(|n| wire[..n].to_vec());
    let longer = [1, 2, wire.len()].into_iter().map(|extra| {
        let mut long = wire.to_vec();
        long.resize(wire.len() + extra, 0xEE);
        long
    });
    shorter.chain(longer)
}

#[test]
fn every_header_bit_flip_of_every_cell_variant_decodes_or_errs() {
    let mut outcomes = [0usize; 2];
    for cell in valid_cells() {
        let wire = encode_cell(&cell);
        assert_eq!(check_cell(&wire, "the valid frame"), Ok(cell.clone()));
        let header = match &cell.body {
            CellBody::Relay(_) => CELL_HEADER + RELAY_HEADER_LEN,
            _ => read_len(&cell),
        };
        for bit in 0..8 * header {
            let mut bad = wire.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let what = format!("{:?} with bit {bit} flipped", cell.command());
            let decoded = check_cell(&bad, &what);
            outcomes[usize::from(decoded.is_ok())] += 1;
            // A flip of the `recognized` field never decodes.
            if matches!(cell.body, CellBody::Relay(_)) && (48..64).contains(&bit) {
                assert!(
                    matches!(decoded, Err(CodecError::NotRecognized(_))),
                    "{what}: {decoded:?}"
                );
            }
        }
    }
    // Both outcomes happen: a flipped circuit id decodes, a flipped
    // `recognized` bit does not.
    assert!(outcomes.iter().all(|&n| n > 0), "{outcomes:?}");
}

#[test]
fn every_header_bit_flip_of_a_feedback_frame_errs() {
    let fb = Feedback {
        circ: CircuitId(0x0BAD_F00D),
        seq: 0x0123_4567_89AB_CDEF,
    };
    let wire = encode_feedback(&fb);
    assert_eq!(check_feedback(&wire, "the valid frame"), Ok(fb));
    for bit in 0..8 * FEEDBACK_WIRE_LEN {
        let mut bad = wire.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        let decoded = check_feedback(&bad, &format!("bit {bit} flipped"));
        assert!(decoded.is_err(), "bit {bit}: {decoded:?}");
    }
}

#[test]
fn seeded_overwrites_of_any_frame_decode_or_err() {
    let mut rng = SimRng::seed_from(0x0DEC_0DE5);
    let fb = encode_feedback(&Feedback {
        circ: CircuitId(9),
        seq: 77,
    });
    for cell in valid_cells() {
        let wire = encode_cell(&cell);
        for round in 0..64 {
            // A run of 1–16 random bytes at a random offset, biased to
            // the header half the time.
            let mut bad = wire.clone();
            let span = if round % 2 == 0 {
                CELL_HEADER + RELAY_HEADER_LEN
            } else {
                CELL_LEN
            };
            let at = rng.range_usize(0, span);
            let len = rng.range_usize(1, 17).min(CELL_LEN - at);
            rng.fill_bytes(&mut bad[at..at + len]);
            let _ = check_cell(
                &bad,
                &format!("{:?} overwritten at {at}+{len}", cell.command()),
            );
        }
        let mut bad = fb.clone();
        let at = rng.range_usize(0, FEEDBACK_WIRE_LEN);
        let len = rng.range_usize(1, 5).min(FEEDBACK_WIRE_LEN - at);
        rng.fill_bytes(&mut bad[at..at + len]);
        let _ = check_feedback(&bad, &format!("feedback overwritten at {at}+{len}"));
    }
}

#[test]
fn truncated_and_extended_frames_are_the_wrong_length() {
    let fb = encode_feedback(&Feedback {
        circ: CircuitId(1),
        seq: 2,
    });
    for resized in resized(&fb) {
        assert_eq!(
            check_feedback(&resized, &format!("feedback of {} bytes", resized.len())),
            Err(CodecError::WrongLength {
                expected: FEEDBACK_WIRE_LEN,
                got: resized.len()
            })
        );
    }
    for cell in valid_cells() {
        for resized in resized(&encode_cell(&cell)) {
            let what = format!("{:?} of {} bytes", cell.command(), resized.len());
            assert_eq!(
                check_cell(&resized, &what),
                Err(CodecError::WrongLength {
                    expected: CELL_LEN,
                    got: resized.len()
                })
            );
        }
    }
}
