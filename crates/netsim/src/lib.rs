//! # netsim — packet-level network substrate
//!
//! The CircuitStart reproduction's stand-in for ns-3's point-to-point
//! models: nodes connected by simplex rate/delay links with unbounded
//! egress FIFOs, simulated to the nanosecond on top of [`simcore`]. The
//! transport above bounds every queue with its hop-by-hop windows, so a
//! link never drops a frame.
//!
//! ## Pieces
//!
//! * [`bandwidth`] — [`Bandwidth`](bandwidth::Bandwidth) and exact
//!   serialization-time arithmetic.
//! * [`frame`] — the [`Frame`](frame::Frame) trait (a frame only needs a
//!   wire size; higher layers define content and routing).
//! * [`link`] — link configuration (a rate and a delay), telemetry.
//! * [`net`] — the [`Net`](net::Net) state machine (send → serialize →
//!   propagate → deliver) and its two events.
//! * [`topology`] — canonical shapes: path and star (nstor's "Internet"
//!   abstraction).
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
