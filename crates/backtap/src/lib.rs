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
//! * [`config`] — the swept parameters (γ, θ, initial window) and the
//!   paper's fixed ones as constants (α, β, window floor and ceiling).
//! * [`cc`] — [`Controller`](cc::Controller), the closed set of per-hop
//!   controllers: delay-based or a fixed window (unlimited on backward
//!   hops).
//! * [`delay_cc`] — [`DelayCc`](delay_cc::DelayCc): discrete-round
//!   doubling ramp + Vegas congestion avoidance, left through one of two
//!   ramp exits: the halving of the paper's "without CircuitStart"
//!   baseline, or CircuitStart's overshoot compensation.
//!   A controller runs its ramp at most once; `DelayCc::without_ramp`
//!   skips it, and with a large initial window models JumpStart-style
//!   senders.
//! * [`hop`] — [`HopTransport`](hop::HopTransport): sequence numbers,
//!   in-flight tracking, RTT samples (send-decision → feedback) and the
//!   base RTT, statistics, cwnd tracing.
//! * [`algorithm`] — [`Algorithm`](algorithm::Algorithm), which names
//!   CircuitStart and every baseline the evaluation runs, and
//!   [`CcFactory`](algorithm::CcFactory), the `Copy` value an overlay
//!   holds to build each circuit's forward-hop controller.
//!
//! The crate is network-agnostic: it never touches links or queues. The
//! `relaynet` crate wires transports to the simulated network.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithm;
pub mod cc;
pub mod config;
pub mod delay_cc;
pub mod hop;
