//! # circuitstart — a slow start for multi-hop anonymity systems
//!
//! A from-scratch Rust reproduction of *CircuitStart: A Slow Start For
//! Multi-Hop Anonymity Systems* (Döpmann & Tschorsch, SIGCOMM 2018
//! Posters and Demos), together with every substrate the paper relies on
//! (see the workspace crates `simcore`, `netsim`, `torcell`, `backtap`,
//! `relaynet`).
//!
//! ## The algorithm in one paragraph
//!
//! In a Tor-like overlay running a hop-by-hop windowed transport, each
//! relay doubles its per-circuit window once per RTT, driven by per-hop
//! *feedback* messages ("your cell is moving") rather than end-to-end
//! ACKs. A Vegas-style delay test on the round's timing (DESIGN.md §4
//! "The ramp-exit rule") ends the ramp; instead of halving, CircuitStart
//! sets the window to **the number of cells of the current round already
//! fed back** — the packet train the successor sustained without
//! queueing, i.e. a direct measurement of the optimal window. Because a
//! bottleneck relay's shrunken window throttles what its predecessor can
//! get confirmed, the minimum window propagates hop by hop back to the
//! source.
//!
//! ## Quick start
//!
//! ```
//! use circuitstart::prelude::*;
//!
//! // Figure 1a geometry: 3 relays, bottleneck one hop from the source.
//! let mut cfg = fig1_trace(1, Algorithm::CircuitStart);
//! cfg.file_bytes = 100_000; // keep the doc test fast
//! let report = run_trace(&cfg);
//! assert!(report.result.completed);
//! // The source window ramped 2 → 4 → … and settled near the optimum.
//! assert_eq!(report.cwnd_cells[0].1, 2);
//! assert!(report.settling_time_ms(0.35).is_some());
//! ```
//!
//! ## Crate layout
//!
//! * [`Algorithm`] — re-exported from `backtap::algorithm`, where it
//!   names CircuitStart and every baseline and builds each one's
//!   controller and overlay factory.
//! * [`optimal`] — the paper's analytical optimal-window model.
//! * [`harness`] — end-to-end experiment runners for both figure panels.
//! * [`presets`] — the exact parameterizations the figure binaries and
//!   the ablations of DESIGN.md §5 run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
pub mod optimal;
pub mod presets;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::harness::{
        run_cdf, run_to_completion, run_trace, CdfReport, TraceScenarioConfig,
    };
    pub use crate::optimal::PathModel;
    pub use crate::presets::{fig1_cdf, fig1_trace, policy_cdf};
    pub use backtap::algorithm::Algorithm;
    pub use backtap::config::CcConfig;
}

pub use backtap::algorithm::Algorithm;
pub use harness::run_to_completion;
pub use optimal::PathModel;
