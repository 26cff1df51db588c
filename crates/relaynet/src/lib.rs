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
//! The congestion-control algorithm is injected through
//! [`node::CcFactory`], so this crate knows nothing about CircuitStart
//! itself — the `circuitstart` crate supplies the paper's controller, and
//! [`builder::baseline_factory`] supplies the paper's baseline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod circuit;
pub mod directory;
pub mod event;
pub mod ids;
pub mod network;
pub mod node;
pub mod pool;
pub mod runtime;
pub mod sampler;
pub mod scheduler;
pub mod selection;
pub mod wire;
pub mod workload;

pub use builder::{
    baseline_factory, fixed_window_factory, jumpstart_factory, unlimited_factory, PathHandles,
    PathScenario, StarScenario,
};
pub use circuit::{CircuitInfo, CircuitResult};
pub use directory::{Directory, DirectoryConfig, EpochDelta, RelaySpec};
pub use event::{TimerKind, TorEvent};
pub use ids::{CircId, Direction, OverlayId};
pub use network::{fill_pattern_into, verify_fill_pattern, EventsHandled, TorNetwork, WorldStats};
pub use node::{CcFactory, HopCtx, NodeRole};
pub use pool::PayloadPool;
pub use runtime::{
    fingerprint, FactoryMaker, ShardReport, ShardedStar, StatsKind, SweepReport, WorldFingerprint,
};
pub use sampler::{FenwickSampler, LinearSampler, Sampler, SamplerKind};
pub use scheduler::LinkScheduler;
pub use selection::{
    all_policies, BandwidthWeighted, CongestionAware, DirectoryView, LatencyAware, PathSelection,
    SelectionEngine, SelectionPolicy, Uniform,
};
pub use wire::{FramePayload, WireFrame};
pub use workload::{
    ArrivalSpec, ChurnSpec, CircuitWorkload, EpochSchedule, EpochSpec, FaultSchedule, FaultSpec,
    FlowId, FlowState, LinkStall, StreamSpec, WorkloadSpec,
};
