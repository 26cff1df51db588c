//! # relaynet — a network-level model of the Tor overlay
//!
//! The reproduction's stand-in for `nstor` (the ns-3-based Tor model the
//! paper evaluates on): clients, relays, and servers exchanging fixed-size
//! cells over simulated links, with
//!
//! * telescoping circuit construction (CREATE / EXTEND / EXTENDED),
//! * leaky-pipe recognition via per-hop onion layers,
//! * per-hop windowed transports driven by forwarding **feedback**
//!   (the BackTap substrate CircuitStart plugs into),
//! * multi-stream client/server applications with per-flow
//!   time-to-last-byte accounting ([`workload`]): several streams
//!   multiplexed per circuit, staggered and bursty arrival processes,
//!   and circuit churn (teardown + rebuild with slot reclamation),
//! * relay directories with sampled bandwidths and **pluggable path
//!   selection** ([`selection`]): a [`selection::PathSelection`] policy
//!   seam with uniform, Tor-style bandwidth-weighted, latency-aware,
//!   and congestion-aware policies over live load telemetry,
//! * the two evaluation topologies (explicit path, nstor-style star),
//!   and
//! * the **async relay runtime** ([`runtime`]): sharded experiments
//!   run across worker threads behind the
//!   `simcore::exec::Executor` seam, with the deterministic
//!   single-threaded `World` as the bit-exact oracle.
//!
//! The congestion-control algorithm is a value the world holds, a
//! `backtap::algorithm::CcFactory` that builds one `backtap::cc::Controller`
//! per circuit for its forward hops; `backtap::algorithm::Algorithm`
//! names the paper's controller and every baseline. Backward
//! (control-only) hops are unwindowed by construction.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod circuit;
pub mod directory;
pub mod event;
pub mod ids;
pub mod memory;
pub mod network;
pub mod node;
pub mod pool;
pub mod runtime;
pub mod sampler;
pub mod scheduler;
pub mod selection;
pub mod wire;
pub mod workload;

pub use builder::{PathHandles, PathScenario, StarScenario};
pub use circuit::CircuitResult;
pub use directory::{Directory, DirectoryConfig, RelaySpec};
pub use event::TorEvent;
pub use ids::{CircId, Direction, OverlayId};
pub use memory::MemoryLedger;
pub use network::{fill_pattern_into, verify_fill_pattern, EventsHandled, TorNetwork, WorldStats};
pub use pool::PayloadPool;
pub use scheduler::LinkScheduler;
pub use selection::{BandwidthWeighted, SelectionPolicy};
pub use wire::{FramePayload, WireFrame};
