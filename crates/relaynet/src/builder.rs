//! Scenario builders: wire topology, overlay, circuits, and start events
//! into a ready-to-run [`Simulator`].
//!
//! Two canonical scenarios cover the paper's evaluation:
//!
//! * [`PathScenario`] — one circuit over a chain of nodes with explicit
//!   per-hop link parameters (Figure 1 upper panels: put the bottleneck at
//!   a chosen distance from the source).
//! * [`StarScenario`] — nstor's network model: every relay, client, and
//!   server hangs off a central switch by its own access link; many
//!   circuits run concurrently over randomly selected relays (Figure 1
//!   lower panel).

use backtap::cc::UnlimitedCc;
use backtap::config::CcConfig;
use backtap::delay_cc::DelayCc;
use netsim::bandwidth::Bandwidth;
use netsim::link::{LinkConfig, LinkId};
use netsim::net::Net;
use netsim::topology::{AccessConfig, Path, Star};
use simcore::event::QueueKind;
use simcore::rng::SimRng;
use simcore::sim::Simulator;
use simcore::time::{SimDuration, SimTime};

use std::sync::Arc;

use crate::directory::{Directory, DirectoryConfig};
use crate::event::TorEvent;
use crate::ids::{CircId, Direction, OverlayId};
use crate::network::TorNetwork;
use crate::node::{CcFactory, NodeRole};
use crate::router::Router;
use crate::sampler::SamplerKind;
use crate::selection::{SelectionPolicy, Uniform};
use crate::workload::{EpochSpec, FaultSchedule, FaultSpec, WorkloadSpec};

/// A single circuit over an explicit chain of links.
#[derive(Clone, Debug)]
pub struct PathScenario {
    /// Per-hop link parameters: `hops[0]` is client↔first relay, the last
    /// entry is exit↔server. A circuit with `k` relays has `k + 1` hops.
    pub hops: Vec<LinkConfig>,
    /// Payload bytes the client transfers (split across the workload's
    /// streams).
    pub file_bytes: u64,
    /// Stream multiplexing, arrival process, and churn (default: one
    /// immediate bulk stream, no churn — the paper's shape).
    pub workload: WorkloadSpec,
    /// Fault injection (see [`FaultSpec`]): relay crashes and transient
    /// link stalls, with the client's timer/backoff machinery armed.
    /// `None` (the default) keeps the run bit-identical to pre-fault
    /// builds (the "faults" RNG stream is only derived when this is
    /// set). With no placement seam, a crashed relay stays on the
    /// rebuild path — the lineage retries under backoff until the retry
    /// cap parks it, deterministically.
    pub faults: Option<FaultSpec>,
}

impl Default for PathScenario {
    fn default() -> Self {
        PathScenario {
            hops: Vec::new(),
            file_bytes: 1 << 20,
            workload: WorkloadSpec::default(),
            faults: None,
        }
    }
}

/// Handles into a built [`PathScenario`]: the circuit plus the link and
/// node ids needed for telemetry and mid-flow interventions.
#[derive(Clone, Debug)]
pub struct PathHandles {
    /// The single circuit.
    pub circ: CircId,
    /// Forward links, `fwd[i]` carrying hop `i` (client side = 0).
    pub fwd_links: Vec<netsim::link::LinkId>,
    /// Reverse links (feedback path).
    pub rev_links: Vec<netsim::link::LinkId>,
    /// Overlay nodes in path order.
    pub overlay_path: Vec<crate::ids::OverlayId>,
}

impl PathScenario {
    /// Builds the network and returns the simulator plus handles.
    /// The circuit starts at `t = 0`.
    pub fn build(&self, factory: CcFactory, seed: u64) -> (Simulator<TorNetwork>, PathHandles) {
        self.build_with_queue(factory, seed, QueueKind::default())
    }

    /// [`PathScenario::build`] with an explicit event-queue implementation
    /// — the seam the differential determinism tests drive (calendar vs
    /// legacy heap must produce bit-identical experiments).
    pub fn build_with_queue(
        &self,
        factory: CcFactory,
        seed: u64,
        queue: QueueKind,
    ) -> (Simulator<TorNetwork>, PathHandles) {
        assert!(
            self.hops.len() >= 2,
            "a path circuit needs at least client↔relay↔server"
        );
        let mut net: Net<crate::wire::WireFrame> = Net::new();
        let topo = Path::build(&mut net, &self.hops);
        let mut router = Router::new();
        for i in 0..topo.hop_count() {
            router.install(topo.nodes[i], topo.nodes[i + 1], topo.fwd[i]);
            router.install(topo.nodes[i + 1], topo.nodes[i], topo.rev[i]);
        }
        let master = SimRng::seed_from(seed);
        let mut world = TorNetwork::new(net, router, factory, master.derive("handshakes"));
        let last = topo.nodes.len() - 1;
        let overlay_path: Vec<_> = topo
            .nodes
            .iter()
            .enumerate()
            .map(|(i, &nn)| {
                let role = if i == 0 {
                    NodeRole::Client
                } else if i == last {
                    NodeRole::Server
                } else {
                    NodeRole::Relay
                };
                world.add_overlay(nn, role)
            })
            .collect();
        let mut wl_rng = master.derive("workload");
        let workload = self
            .workload
            .resolve(self.file_bytes, &mut wl_rng, |bytes| world.add_flow(bytes));
        let circ = world.add_circuit_with_workload(overlay_path.clone(), workload, 0);
        // Like epochs, the fault schedule draws from a stream that is
        // only derived when faults are configured — a fault-free build
        // consumes exactly the randomness it always did.
        let fault_schedule = self.faults.as_ref().map(|spec| {
            let frng = master.derive("faults");
            let mut srng = frng.derive("schedule");
            // Interior relays, named by overlay id directly (no
            // placement seam in a path world).
            let candidates: Vec<u32> = (1..last as u32).collect();
            let schedule = spec.resolve(&candidates, &mut srng);
            world.install_faults(*spec, frng.derive("backoff"));
            schedule
        });
        let mut sim = Simulator::with_queue(world, queue);
        sim.schedule_at(SimTime::ZERO, TorEvent::StartCircuit(circ));
        if let Some(schedule) = fault_schedule {
            let spec = self.faults.as_ref().expect("schedule implies spec");
            // Relay overlay id `r` sits between hops `r-1` and `r`: a
            // stall throttles its upstream hop in both directions.
            schedule_faults(&mut sim, spec, schedule, |_, r| {
                [topo.fwd[r - 1], topo.rev[r - 1]]
            });
        }
        let handles = PathHandles {
            circ,
            fwd_links: topo.fwd,
            rev_links: topo.rev,
            overlay_path,
        };
        (sim, handles)
    }
}

/// Many circuits over a randomly generated relay population in a star.
#[derive(Clone, Debug)]
pub struct StarScenario {
    /// Relay population parameters.
    pub directory: DirectoryConfig,
    /// Number of concurrent circuits (each gets its own client and server
    /// leaf).
    pub circuits: usize,
    /// Relays per circuit (Tor default: 3).
    pub relays_per_circuit: usize,
    /// Access rate of client and server leaves (fast, so relays are the
    /// bottleneck, as in the paper's setup).
    pub endpoint_rate: Bandwidth,
    /// Client/server access delay range (uniform, one-way, ms).
    pub endpoint_delay_ms: (f64, f64),
    /// Payload bytes per circuit.
    pub file_bytes: u64,
    /// Circuit starts are jittered uniformly over `[0, start_jitter_ms]`
    /// to avoid artificial phase lock between 50 identical state machines.
    pub start_jitter_ms: f64,
    /// Path-selection policy (see [`crate::selection`]): how each
    /// circuit picks its relays from the generated directory, with live
    /// load telemetry fed back on build and teardown. Default:
    /// [`Uniform`]. Churn rebuilds re-select through the same policy.
    pub selection: SelectionPolicy,
    /// Stream multiplexing, arrival process, and churn, applied to every
    /// circuit (resolved independently per circuit from the master
    /// seed). Default: one immediate bulk stream, no churn.
    pub workload: WorkloadSpec,
    /// Consensus epoch churn (see [`EpochSpec`]): relays join/leave the
    /// live set at epoch boundaries, tearing down crossing circuits.
    /// `None` (the default) keeps every relay live forever — and keeps
    /// the run bit-identical to pre-epoch builds (the "epochs" RNG
    /// stream is only derived when this is set).
    pub epochs: Option<EpochSpec>,
    /// Which weighted-sampler implementation backs the selection engine
    /// (picks are identical either way; see [`crate::sampler`]).
    /// Default: [`SamplerKind::Auto`].
    pub sampler: SamplerKind,
    /// Fault injection (see [`FaultSpec`]): relay crashes and transient
    /// access-link stalls drawn from the initially-live relay set, with
    /// the client-side timer/backoff/blame recovery loop armed. `None`
    /// (the default) keeps the run bit-identical to pre-fault builds
    /// (the "faults" RNG stream is only derived when this is set).
    pub faults: Option<FaultSpec>,
}

impl Default for StarScenario {
    fn default() -> Self {
        StarScenario {
            directory: DirectoryConfig::default(),
            circuits: 50,
            relays_per_circuit: 3,
            endpoint_rate: Bandwidth::from_mbps(200),
            endpoint_delay_ms: (3.0, 8.0),
            file_bytes: 1 << 20,
            start_jitter_ms: 50.0,
            selection: Arc::new(Uniform),
            workload: WorkloadSpec::default(),
            epochs: None,
            sampler: SamplerKind::Auto,
            faults: None,
        }
    }
}

impl StarScenario {
    /// Builds the network and returns the simulator plus all circuit ids.
    pub fn build(&self, factory: CcFactory, seed: u64) -> (Simulator<TorNetwork>, Vec<CircId>) {
        self.build_with_queue(factory, seed, QueueKind::default())
    }

    /// [`StarScenario::build`] with an explicit event-queue implementation
    /// (see [`PathScenario::build_with_queue`]).
    pub fn build_with_queue(
        &self,
        factory: CcFactory,
        seed: u64,
        queue: QueueKind,
    ) -> (Simulator<TorNetwork>, Vec<CircId>) {
        assert!(self.circuits > 0, "need at least one circuit");
        assert!(
            self.relays_per_circuit >= 1,
            "need at least one relay per circuit"
        );
        let master = SimRng::seed_from(seed);
        let mut directory = Directory::generate(&self.directory, &master.derive("directory"));
        let relay_count = directory.len();
        let mut endpoint_rng = master.derive("endpoints");
        let mut jitter_rng = master.derive("start-jitter");
        // The epoch schedule is drawn from its own labelled stream, and
        // that stream is only derived when epochs are configured — a
        // no-epoch build consumes exactly the randomness it always did.
        let epoch_schedule = self.epochs.as_ref().map(|spec| {
            let mut rng = master.derive("epochs");
            spec.resolve(relay_count, self.relays_per_circuit, &mut rng)
        });

        // Leaves: all relays first, then client/server pairs per circuit.
        // Every provisioned relay has a leaf; its access links are minted
        // when a circuit first crosses it (`TorNetwork::install_star`).
        // Epochs only toggle liveness, never the physical topology.
        let mut accesses = Vec::with_capacity(relay_count + 2 * self.circuits);
        accesses.extend(directory.iter_specs().map(|r| AccessConfig {
            rate: r.bandwidth,
            delay: r.delay,
        }));
        for _ in 0..self.circuits {
            for _ in 0..2 {
                let delay_ms = if self.endpoint_delay_ms.1 > self.endpoint_delay_ms.0 {
                    endpoint_rng.range_f64(self.endpoint_delay_ms.0, self.endpoint_delay_ms.1)
                } else {
                    self.endpoint_delay_ms.0
                };
                accesses.push(AccessConfig {
                    rate: self.endpoint_rate,
                    delay: SimDuration::from_secs_f64(delay_ms / 1e3),
                });
            }
        }

        let mut net: Net<crate::wire::WireFrame> = Net::new();
        let star = Star::build(&mut net, accesses);
        let mut world = TorNetwork::new(net, Router::new(), factory, master.derive("handshakes"));
        // Size the payload pool from the scenario: with many concurrent
        // circuits the default idle cap would sit below the steady-state
        // in-flight population and thrash alloc/free.
        world.set_payload_pool_cap(crate::pool::PayloadPool::scenario_max_idle(self.circuits));
        // One overlay node per leaf, in leaf order: the relays', then the
        // endpoints'. Leaf `i` hosts overlay node `first + i`.
        let first = world.add_overlays((0..star.leaf_count()).map(|i| {
            let role = match i.checked_sub(relay_count) {
                None => NodeRole::Relay,
                Some(e) if e % 2 == 0 => NodeRole::Client,
                Some(_) => NodeRole::Server,
            };
            (star.leaf(i), role)
        }));
        let overlay = |leaf: usize| OverlayId(first.0 + leaf as u32);
        world.install_star(star);
        // The initial standby pool goes dark before placement installs,
        // so the first circuits already select from the live set only.
        if let Some(sched) = &epoch_schedule {
            for &r in &sched.initial_dark {
                directory.set_live(r as usize, false);
            }
        }
        // The placement seam: the network owns the relay store, the
        // policy, and the "paths" stream, so both the initial placement
        // below and churn-driven rebuilds select through the same
        // policy — each placement seeing the load left by its
        // predecessors.
        world.install_placement_with_sampler(
            directory,
            (0..relay_count).map(overlay).collect(),
            self.selection.clone(),
            master.derive("paths"),
            self.sampler,
        );
        // Like epochs, the fault schedule draws from a stream that is
        // only derived when faults are configured — a fault-free build
        // consumes exactly the randomness it always did. Victims come
        // from the initially-live set so faults hit relays circuits can
        // actually cross.
        let fault_schedule = self.faults.as_ref().map(|spec| {
            let frng = master.derive("faults");
            let mut srng = frng.derive("schedule");
            let dark: Vec<bool> = {
                let mut v = vec![false; relay_count];
                if let Some(sched) = &epoch_schedule {
                    for &r in &sched.initial_dark {
                        v[r as usize] = true;
                    }
                }
                v
            };
            let candidates: Vec<u32> = (0..relay_count as u32)
                .filter(|&r| !dark[r as usize])
                .collect();
            let schedule = spec.resolve(&candidates, &mut srng);
            world.install_faults(*spec, frng.derive("backoff"));
            schedule
        });

        let mut circuits = Vec::with_capacity(self.circuits);
        let mut sim_events: Vec<(SimTime, CircId)> = Vec::with_capacity(self.circuits);
        for c in 0..self.circuits {
            let client = overlay(relay_count + 2 * c);
            let server = overlay(relay_count + 2 * c + 1);
            let picks = world.select_relays(self.relays_per_circuit);
            let mut path = Vec::with_capacity(self.relays_per_circuit + 2);
            path.push(client);
            path.extend(picks);
            path.push(server);
            let mut wl_rng = master.derive_indexed("workload", c as u64);
            let workload = self
                .workload
                .resolve(self.file_bytes, &mut wl_rng, |bytes| world.add_flow(bytes));
            let circ = world.add_circuit_with_workload(path, workload, 0);
            let start = if self.start_jitter_ms > 0.0 {
                SimTime::from_secs_f64(jitter_rng.range_f64(0.0, self.start_jitter_ms) / 1e3)
            } else {
                SimTime::ZERO
            };
            sim_events.push((start, circ));
            circuits.push(circ);
        }

        if let Some(sched) = epoch_schedule {
            world.install_epochs(sched.deltas);
        }
        let mut sim = Simulator::with_queue(world, queue);
        for (t, circ) in sim_events {
            sim.schedule_at(t, TorEvent::StartCircuit(circ));
        }
        if let Some(spec) = &self.epochs {
            let interval = spec.interval();
            for i in 0..spec.epochs {
                sim.schedule_at(
                    SimTime::ZERO + interval * u64::from(i + 1),
                    TorEvent::Epoch(i),
                );
            }
        }
        if let Some(schedule) = fault_schedule {
            let spec = self.faults.as_ref().expect("schedule implies spec");
            // A stalled relay's access link slows in both directions —
            // the "slow relay" failure mode, recoverable without blame.
            // Its `SetLinkRate` events name the links, so they are minted
            // now, whether or not a circuit crosses the relay yet.
            schedule_faults(&mut sim, spec, schedule, |world, r| {
                world.access_links(overlay(r)).expect("a star world")
            });
        }
        (sim, circuits)
    }
}

/// Schedules a resolved fault plan: every crash, then per stall a
/// throttle to `rate / stall_factor` and a restore on each of the
/// relay's two links. `links_of` maps a relay id to that link pair,
/// whose rate is still the provisioned one: nothing has run yet.
fn schedule_faults(
    sim: &mut Simulator<TorNetwork>,
    spec: &FaultSpec,
    schedule: FaultSchedule,
    mut links_of: impl FnMut(&mut TorNetwork, usize) -> [LinkId; 2],
) {
    for (at, relay) in schedule.crashes {
        sim.schedule_at(SimTime::ZERO + at, TorEvent::RelayCrash { relay });
    }
    for s in schedule.stalls {
        let links = links_of(sim.world_mut(), s.relay as usize);
        let full = sim.world().net().link_config(links[0]).rate;
        let throttled = Bandwidth::from_bps(
            ((full.bps() as f64 / spec.stall_factor.max(1.0)).floor() as u64).max(1),
        );
        for link in links {
            sim.schedule_at(
                SimTime::ZERO + s.at,
                TorEvent::SetLinkRate {
                    link,
                    rate: throttled,
                },
            );
            sim.schedule_at(
                SimTime::ZERO + s.at + s.duration,
                TorEvent::SetLinkRate { link, rate: full },
            );
        }
    }
}

/// The paper's "without CircuitStart" baseline: BackTap's delay-based
/// controller with the traditional halving exit on every forward hop;
/// backward (control-only) hops are unwindowed.
pub fn baseline_factory(cfg: CcConfig) -> CcFactory {
    Box::new(move |ctx| match ctx.direction {
        Direction::Forward => Box::new(DelayCc::with_ramp(
            "backtap-classic",
            cfg,
            Box::new(backtap::cc::HalvingExit),
        )),
        Direction::Backward => Box::new(UnlimitedCc),
    })
}

/// JumpStart-style factory: no ramp-up at all, the forward window opens at
/// `jump_cwnd` immediately (the paper cites this family as unsuitable for
/// multi-hop overlays — used as an ablation baseline).
pub fn jumpstart_factory(cfg: CcConfig, jump_cwnd: u32) -> CcFactory {
    Box::new(move |ctx| match ctx.direction {
        Direction::Forward => Box::new(DelayCc::without_ramp("jumpstart", cfg, jump_cwnd)),
        Direction::Backward => Box::new(UnlimitedCc),
    })
}

/// Fixed per-hop windows (vanilla-Tor-flavoured ablation).
pub fn fixed_window_factory(window: u32) -> CcFactory {
    Box::new(move |ctx| match ctx.direction {
        Direction::Forward => Box::new(backtap::cc::FixedWindowCc::new(window)),
        Direction::Backward => Box::new(UnlimitedCc),
    })
}

/// No windows anywhere — relays forward as fast as links allow. Useful to
/// measure raw path capacity and as a worst-case queueing baseline.
pub fn unlimited_factory() -> CcFactory {
    Box::new(|_| Box::new(UnlimitedCc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ArrivalSpec, ChurnSpec};
    use simcore::sim::StopReason;

    fn hop(mbps: u64, delay_ms: u64) -> LinkConfig {
        LinkConfig::new(
            Bandwidth::from_mbps(mbps),
            SimDuration::from_millis(delay_ms),
        )
    }

    /// Full-stack smoke test: 2-relay circuit, fixed windows, small file.
    #[test]
    fn path_transfer_completes_with_fixed_windows() {
        let scenario = PathScenario {
            hops: vec![hop(10, 2), hop(10, 2), hop(10, 2)],
            file_bytes: 10_000,
            ..Default::default()
        };
        let (mut sim, h) = scenario.build(fixed_window_factory(8), 1);
        let circ = h.circ;
        let report = sim.run();
        assert_eq!(report.reason, StopReason::QueueEmpty);
        let world = sim.world();
        let r = world.result_of(circ);
        assert!(r.completed, "transfer must complete");
        assert_eq!(r.bytes_delivered, 10_000);
        assert_eq!(r.cells_delivered, 21); // ceil(10000/496)
        assert_eq!(r.payload_errors, 0);
        assert_eq!(world.stats().protocol_errors, 0);
        assert_eq!(world.net().total_drops(), 0);
        assert!(r.transfer_time().unwrap() > SimDuration::ZERO);
    }

    #[test]
    fn path_transfer_with_delay_cc_baseline() {
        let scenario = PathScenario {
            hops: vec![hop(50, 2), hop(8, 5), hop(50, 2), hop(50, 2)],
            file_bytes: 200_000,
            ..Default::default()
        };
        let (mut sim, h) = scenario.build(baseline_factory(CcConfig::default()), 7);
        let circ = h.circ;
        sim.run();
        let world = sim.world();
        let r = world.result_of(circ);
        assert!(r.completed);
        assert_eq!(r.bytes_delivered, 200_000);
        assert_eq!(r.payload_errors, 0);
        assert_eq!(world.stats().protocol_errors, 0);
        // The client ramped: its cwnd trace must contain a doubling.
        let trace = world.source_cwnd_trace(circ).expect("tracing enabled");
        assert!(trace.len() >= 2, "cwnd must have changed during ramp-up");
        assert_eq!(trace[0].1, 2, "initial window is 2 cells");
    }

    #[test]
    fn single_relay_minimal_path() {
        let scenario = PathScenario {
            hops: vec![hop(10, 1), hop(10, 1)],
            file_bytes: 496,
            ..Default::default()
        };
        let (mut sim, h) = scenario.build(fixed_window_factory(4), 3);
        let circ = h.circ;
        sim.run();
        let r = sim.world().result_of(circ);
        assert!(r.completed);
        assert_eq!(r.cells_delivered, 1);
        assert_eq!(sim.world().stats().protocol_errors, 0);
    }

    #[test]
    fn long_path_five_relays() {
        let scenario = PathScenario {
            hops: vec![hop(20, 1); 6],
            file_bytes: 50_000,
            ..Default::default()
        };
        let (mut sim, h) = scenario.build(baseline_factory(CcConfig::default()), 5);
        let circ = h.circ;
        sim.run();
        let r = sim.world().result_of(circ);
        assert!(r.completed);
        assert_eq!(r.bytes_delivered, 50_000);
        assert_eq!(sim.world().stats().protocol_errors, 0);
    }

    #[test]
    fn data_path_reuses_payload_buffers() {
        // The zero-alloc steady state: across a multi-thousand-cell
        // transfer, fresh payload allocations stay bounded by the cells
        // in flight (window-sized), with everything else served by pool
        // reuse. Guards the pool plumbing against a silent revert to
        // one-allocation-per-cell.
        let scenario = PathScenario {
            hops: vec![hop(50, 2), hop(50, 2), hop(50, 2)],
            file_bytes: 1 << 20, // 2115 DATA cells
            ..Default::default()
        };
        let (mut sim, h) = scenario.build(fixed_window_factory(32), 4);
        sim.run();
        let world = sim.world();
        let r = world.result_of(h.circ);
        assert!(r.completed);
        let (allocated, reused) = world.payload_pool().stats();
        assert_eq!(
            allocated + reused,
            r.cells_delivered,
            "one acquire per DATA cell"
        );
        assert!(
            allocated <= 64,
            "fresh allocations ({allocated}) must stay window-bounded, not per-cell"
        );
        assert!(
            reused > r.cells_delivered / 2,
            "most payloads must come from pool reuse (got {reused})"
        );
    }

    #[test]
    fn relay_queue_is_bounded_by_backpressure() {
        // Slow middle link: the first relay's forward queue must stay
        // bounded by the client's window, not grow with the file.
        let scenario = PathScenario {
            hops: vec![hop(100, 1), hop(5, 5), hop(100, 1)],
            file_bytes: 300_000,
            ..Default::default()
        };
        let (mut sim, h) = scenario.build(fixed_window_factory(10), 2);
        let circ = h.circ;
        sim.run();
        let world = sim.world();
        let r = world.result_of(circ);
        assert!(r.completed);
        let relay1 = world.circuit_info(circ).path[1];
        let hwm = world
            .fwd_queue_hwm(relay1, circ)
            .expect("relay forward queue");
        assert!(
            hwm <= 10,
            "queue high-water {hwm} must be bounded by the 10-cell window"
        );
    }

    #[test]
    fn star_two_circuits_complete() {
        let scenario = StarScenario {
            circuits: 2,
            file_bytes: 30_000,
            directory: DirectoryConfig {
                relays: 6,
                bandwidth_mbps: (20.0, 50.0),
                delay_ms: (2.0, 5.0),
            },
            ..Default::default()
        };
        let (mut sim, circuits) = scenario.build(baseline_factory(CcConfig::default()), 11);
        let report = sim.run();
        assert_eq!(report.reason, StopReason::QueueEmpty);
        let world = sim.world();
        for c in circuits {
            let r = world.result_of(c);
            assert!(r.completed, "{c} incomplete");
            assert_eq!(r.bytes_delivered, 30_000);
            assert_eq!(r.payload_errors, 0);
        }
        assert_eq!(world.stats().protocol_errors, 0);
        assert_eq!(world.net().total_drops(), 0);
    }

    #[test]
    fn star_circuits_share_relays_fairly_enough_to_finish() {
        // Tiny relay pool forces sharing.
        let scenario = StarScenario {
            circuits: 4,
            relays_per_circuit: 2,
            file_bytes: 20_000,
            directory: DirectoryConfig {
                relays: 3,
                bandwidth_mbps: (10.0, 20.0),
                delay_ms: (2.0, 4.0),
            },
            ..Default::default()
        };
        let (mut sim, circuits) = scenario.build(baseline_factory(CcConfig::default()), 13);
        sim.run();
        let world = sim.world();
        for c in circuits {
            assert!(world.result_of(c).completed);
        }
        assert_eq!(world.stats().protocol_errors, 0);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let scenario = PathScenario {
            hops: vec![hop(30, 2), hop(10, 3), hop(30, 2)],
            file_bytes: 100_000,
            ..Default::default()
        };
        let run = |seed| {
            let (mut sim, h) = scenario.build(baseline_factory(CcConfig::default()), seed);
            let circ = h.circ;
            sim.run();
            let w = sim.world();
            (
                w.result_of(circ).last_byte_at,
                w.source_cwnd_trace(circ).unwrap().to_vec(),
                w.stats().cells_sent,
            )
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must reproduce identical runs");
        let c = run(43);
        assert_eq!(a.0.is_some(), c.0.is_some());
    }

    #[test]
    fn jumpstart_overshoots_but_completes() {
        let scenario = PathScenario {
            hops: vec![hop(50, 2), hop(8, 5), hop(50, 2)],
            file_bytes: 150_000,
            ..Default::default()
        };
        let (mut sim, h) = scenario.build(jumpstart_factory(CcConfig::default(), 100), 9);
        let circ = h.circ;
        sim.run();
        let world = sim.world();
        assert!(world.result_of(circ).completed);
        // With a 100-cell initial window everywhere, the burst piles up in
        // front of the bottleneck link (hop 1) — the behaviour the paper
        // warns about. Queueing lives in the link's round-robin scheduler
        // (links take one frame at a time).
        let hwm = world.sched_backlog_hwm(h.fwd_links[1]);
        assert!(
            hwm > 30,
            "jumpstart should pile up a large queue, got {hwm}"
        );
    }

    #[test]
    fn unlimited_factory_moves_data() {
        let scenario = PathScenario {
            hops: vec![hop(10, 1), hop(10, 1)],
            file_bytes: 5_000,
            ..Default::default()
        };
        let (mut sim, h) = scenario.build(unlimited_factory(), 21);
        let circ = h.circ;
        sim.run();
        assert!(sim.world().result_of(circ).completed);
    }

    #[test]
    fn teardown_destroys_circuit_state() {
        let scenario = PathScenario {
            hops: vec![hop(10, 1), hop(10, 1), hop(10, 1)],
            file_bytes: 4_960,
            ..Default::default()
        };
        let (mut sim, h) = scenario.build(fixed_window_factory(4), 17);
        let circ = h.circ;
        sim.run();
        assert!(sim.world().result_of(circ).completed);
        let slots_before = sim.world().link_route_slots();
        // Tear down after completion; the DESTROY wave and its echo must
        // propagate silently and reclaim every participation.
        sim.schedule_in(SimDuration::from_millis(1), TorEvent::Teardown(circ));
        sim.run();
        let world = sim.world();
        assert_eq!(world.stats().protocol_errors, 0);
        let path = world.circuit_info(circ).path.clone();
        for &n in &path {
            assert!(
                world.node(n).circuit(circ).is_none(),
                "{n} must reclaim the torn-down circuit's slot"
            );
            assert_eq!(world.node(n).free_slot_count(), 1);
        }
        // One DESTROY per hop per wave direction: 3 hops, 2 waves.
        assert_eq!(world.stats().destroys_sent, 2 * (path.len() as u64 - 1));
        assert_eq!(world.stats().slots_reclaimed, path.len() as u64);
        // Both ends of every link-local id were cleared.
        assert_eq!(world.link_route_slots(), slots_before);
        assert_eq!(world.free_link_routes(), path.len() - 1);
        // Completed flows do not trigger a rebuild.
        assert_eq!(world.stats().rebuilds, 0);
        assert!(world.flows()[0].complete());
    }

    #[test]
    fn multi_stream_circuit_delivers_every_flow() {
        let scenario = PathScenario {
            hops: vec![hop(20, 2), hop(20, 2), hop(20, 2)],
            file_bytes: 60_000,
            workload: WorkloadSpec {
                streams_per_circuit: 3,
                arrival: ArrivalSpec::UniformJitter { max_ms: 20.0 },
                churn: None,
            },
            faults: None,
        };
        let (mut sim, h) = scenario.build(fixed_window_factory(8), 5);
        let report = sim.run();
        assert_eq!(report.reason, StopReason::QueueEmpty);
        let world = sim.world();
        assert_eq!(world.stats().protocol_errors, 0);
        assert_eq!(world.flows().len(), 3);
        let mut total = 0;
        for f in world.flows() {
            assert!(f.complete(), "every flow must finish");
            assert!(f.completion_time().unwrap() > SimDuration::ZERO);
            total += f.delivered;
        }
        assert_eq!(total, 60_000, "no byte lost or duplicated");
        // The aggregate circuit result still sees the union.
        let r = world.result_of(h.circ);
        assert!(r.completed, "all ENDs consumed");
        assert_eq!(r.bytes_delivered, 60_000);
        assert_eq!(r.payload_errors, 0);
        let cdf = world.flow_completion_cdf().expect("3 completed flows");
        assert_eq!(cdf.len(), 3);
    }

    #[test]
    fn churn_rebuilds_and_conserves_bytes() {
        // Teardown fires mid-transfer twice; the flows must still
        // deliver every byte, and the slabs must not leak slots.
        let scenario = PathScenario {
            hops: vec![hop(10, 2), hop(10, 2), hop(10, 2)],
            file_bytes: 120_000,
            workload: WorkloadSpec {
                streams_per_circuit: 2,
                arrival: ArrivalSpec::Immediate,
                churn: Some(ChurnSpec {
                    teardown_after_ms: (30.0, 60.0),
                    rebuild_delay_ms: 5.0,
                    cycles: 2,
                }),
            },
            faults: None,
        };
        let (mut sim, h) = scenario.build(baseline_factory(CcConfig::default()), 23);
        let report = sim.run();
        assert_eq!(report.reason, StopReason::QueueEmpty);
        let world = sim.world();
        assert_eq!(world.stats().protocol_errors, 0);
        assert_eq!(world.stats().rebuilds, 2, "two churn cycles");
        assert_eq!(world.circuit_count(), 3, "one record per incarnation");
        let mut total = 0;
        for f in world.flows() {
            assert!(f.complete(), "churn must not strand a flow");
            assert_eq!(f.carried_by, 3, "each flow rode every incarnation");
            total += f.delivered;
        }
        assert_eq!(total, 120_000);
        // Mid-flight teardown drops in-flight cells; the rebuilt circuit
        // re-sends them, so the wire saw *more* cells than the payload
        // needs — but the flows never over-count.
        assert!(world.stats().cells_dropped_closed > 0 || world.stats().cells_drained > 0);
        // Slot reclamation: only the final incarnation's participations
        // remain; every torn-down incarnation's slots were reused.
        for &n in &world.circuit_info(h.circ).path {
            let node = world.node(n);
            assert_eq!(node.circuit_count(), 1, "only the live incarnation");
            assert_eq!(node.slab_len(), 1, "rebuilds reuse reclaimed slots");
        }
        assert_eq!(world.stats().slots_reclaimed, 2 * 4);
    }
}
