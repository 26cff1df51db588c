//! # backtap — hop-by-hop, window-based overlay transport
//!
//! A reproduction of the transport substrate the CircuitStart paper builds
//! on (BackTap, *"Mind the Gap: Towards a Backpressure-Based Transport
//! Protocol for the Tor Network"*, NSDI '16): every relay runs a
//! per-circuit congestion window toward its successor, driven not by
//! end-to-end ACKs but by **per-hop feedback** — the successor tells the
//! sender when it has *forwarded* a cell, so the window captures the state
//! of the successor relay, not only the link in between.
//!
//! ## Layout
//!
//! * [`config`] — shared parameters (γ, α, β, initial/min/max window).
//! * [`cc`] — the [`CongestionControl`](cc::CongestionControl) trait, the
//!   [`RampExit`](cc::RampExit) policy hook, and the simple controllers
//!   (fixed window, unlimited).
//! * [`delay_cc`] — [`DelayCc`](delay_cc::DelayCc): discrete-round
//!   doubling ramp + Vegas congestion avoidance. With
//!   [`HalvingExit`](cc::HalvingExit) this is the paper's "without
//!   CircuitStart" baseline; the `circuitstart` crate plugs in overshoot
//!   compensation to form the paper's contribution. `DelayCc::without_ramp`
//!   with a large initial window models JumpStart-style senders.
//! * [`hop`] — [`HopTransport`](hop::HopTransport): sequence numbers,
//!   in-flight tracking, RTT samples (send-decision → feedback) and the
//!   base RTT, statistics, cwnd tracing.
//!
//! The crate is network-agnostic: it never touches links or queues. The
//! `relaynet` crate wires transports to the simulated network.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cc;
pub mod config;
pub mod delay_cc;
pub mod hop;
