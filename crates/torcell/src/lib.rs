//! # torcell — the Tor data plane: cells, codec, onion layering
//!
//! Every unit of information in the overlay is either a fixed 512-byte
//! **cell** (as in Tor) or a 20-byte per-hop **feedback** frame (the
//! BackTap/CircuitStart addition this reproduction exists to study).
//!
//! * [`ids`] — [`CircuitId`](ids::CircuitId) (link-local, as in Tor),
//!   [`StreamId`](ids::StreamId), [`CellSeq`](ids::CellSeq).
//! * [`cell`] — structures and size constants.
//! * [`codec`] — byte-exact, error-checked wire encoding (dependency-free).
//! * [`crypto`] — onion layering *stand-in* (size-preserving keyed
//!   keystream; **not secure**, see module docs and DESIGN.md §2).
//!
//! Property tests (`tests/` and the root-package proptest suite) establish
//! `decode(encode(cell)) == cell` for every representable cell, which is
//! what licenses the simulator to move structured cells instead of byte
//! buffers on its fast path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cell;
pub mod codec;
pub mod crypto;
pub mod ids;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::cell::{
        Cell, CellBody, Feedback, RelayCell, RelayCommand, CELL_LEN, FEEDBACK_WIRE_LEN,
        HANDSHAKE_LEN, RELAY_DATA_MAX,
    };
    pub use crate::codec::{
        decode_cell, decode_feedback, encode_cell, encode_feedback, CodecError,
    };
    pub use crate::crypto::{
        payload_digest, DigestKey, LayerCipher, LayerKey, OnionRoute, RelayCrypt,
    };
    pub use crate::ids::{CircuitId, StreamId};
}
