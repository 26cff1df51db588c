//! # netsim — packet-level network substrate
//!
//! The CircuitStart reproduction's stand-in for ns-3's point-to-point
//! models: nodes connected by simplex rate/delay links with drop-tail
//! egress queues, simulated to the nanosecond on top of [`simcore`].
//!
//! ## Pieces
//!
//! * [`bandwidth`] — [`Bandwidth`](bandwidth::Bandwidth) and exact
//!   serialization-time arithmetic.
//! * [`frame`] — the [`Frame`](frame::Frame) trait (a frame only needs a
//!   wire size; higher layers define content and routing).
//! * [`link`] — link configuration, drop-tail queue policies, telemetry.
//! * [`net`] — the [`Net`](net::Net) state machine (send → serialize →
//!   propagate → deliver) and its two events.
//! * [`topology`] — canonical shapes: path, star (nstor's "Internet"
//!   abstraction), dumbbell.
//!
//! ## Timing model
//!
//! Store-and-forward, exactly like ns-3's point-to-point channel: a
//! `b`-byte frame sent at `t` on an idle link of rate `r` and delay `d`
//! arrives at `t + 8b/r + d`; a busy link queues the frame first. There is
//! no implicit per-hop processing delay — relays add their own if desired.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bandwidth;
pub mod frame;
pub mod link;
pub mod net;
pub mod topology;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::bandwidth::Bandwidth;
    pub use crate::frame::{Frame, RawFrame};
    pub use crate::link::{LinkConfig, LinkId, LinkStats, QueueLimit};
    pub use crate::net::{Net, NetEvent, NodeId, SendOutcome};
    pub use crate::topology::{AccessConfig, AccessLinks, Dumbbell, Path, Star};
}

pub use bandwidth::Bandwidth;
pub use frame::{Frame, RawFrame};
pub use link::{LinkConfig, LinkId, LinkStats, QueueLimit};
pub use net::{Net, NetEvent, NodeId, SendOutcome};
pub use topology::{AccessConfig, AccessLinks, Dumbbell, Path, Star};
