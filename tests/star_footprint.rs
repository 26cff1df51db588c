//! A star world pays for the relays its circuits touch. Building a star
//! adds the hub and one node per leaf; a leaf's two access links are
//! minted the first time a registered path crosses it, or when a
//! scheduled link stall names them (DESIGN.md §3, §11). A consensus-sized
//! directory whose circuits cross a few dozen relays therefore holds a
//! few dozen link pairs, however many relays it lists — and keeps holding
//! exactly one pair per leaf any path has ever crossed as churn, epochs
//! and fault recovery re-select.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

use backtap::config::CcConfig;
use circuitstart::Algorithm;
use netsim::link::LinkId;
use netsim::net::NodeId;
use relaynet::selection::CongestionAware;
use relaynet::workload::{ArrivalSpec, ChurnSpec, EpochSpec, FaultSpec, WorkloadSpec};
use relaynet::{CircId, DirectoryConfig, OverlayId, StarScenario, TorEvent, TorNetwork};
use simcore::sim::StopReason;

/// Every network node on any registered path, every incarnation.
fn path_leaves(world: &TorNetwork) -> BTreeSet<NodeId> {
    (0..world.circuit_count())
        .flat_map(|c| world.circuit_info(CircId(c as u32)).path.iter())
        .map(|&n| world.node(n).net_node)
        .collect()
}

/// `consensus7k_epochs` at test scale (700 relays, 8 circuits,
/// congestion-aware selection, four epochs), with two churn cycles per
/// circuit on top.
fn consensus_star() -> StarScenario {
    StarScenario {
        circuits: 8,
        relays_per_circuit: 3,
        file_bytes: 60_000,
        directory: DirectoryConfig {
            relays: 700,
            bandwidth_mbps: (15.0, 100.0),
            delay_ms: (2.0, 12.0),
        },
        workload: WorkloadSpec {
            streams_per_circuit: 2,
            arrival: ArrivalSpec::UniformJitter { max_ms: 30.0 },
            churn: Some(ChurnSpec {
                teardown_after_ms: (40.0, 100.0),
                rebuild_delay_ms: 10.0,
                cycles: 2,
            }),
        },
        epochs: Some(EpochSpec {
            interval_ms: 45.0,
            epochs: 4,
            churn: 7,
            standby_fraction: 0.1,
        }),
        selection: Arc::new(CongestionAware),
        ..Default::default()
    }
}

#[test]
fn a_consensus_star_holds_one_link_pair_per_leaf_on_a_path() {
    let (mut sim, _) =
        consensus_star().build(Algorithm::CircuitStart.factory(CcConfig::default()), 7);
    let at_build = path_leaves(sim.world());
    // 8 clients, 8 servers and at most 24 distinct relays.
    assert!(at_build.len() <= 40, "{} leaves", at_build.len());
    assert_eq!(sim.world().net().link_count(), 2 * at_build.len());

    let report = sim.run();
    assert_eq!(report.reason, StopReason::QueueEmpty);
    let world = sim.world();
    assert_eq!(world.stats().protocol_errors, 0);
    assert_eq!(world.stats().epochs_applied, 4);
    assert!(world.stats().rebuilds > 0, "churn must re-select");
    assert!(world.flows().iter().all(|f| f.complete()));
    let crossed = path_leaves(world);
    assert!(
        crossed.len() > at_build.len(),
        "rebuilds crossed no new relay"
    );
    assert_eq!(world.net().link_count(), 2 * crossed.len());
}

/// Slabs double from one slot (DESIGN.md §3): a relay of the consensus
/// star that only ever held one participation reserves one slot, where
/// a first reservation of four kept three idle slots on almost every
/// relay a circuit crossed. Every node reserves its high water rounded
/// up to a power of two.
#[test]
fn a_consensus_relay_with_one_participation_reserves_one_slot() {
    let (mut sim, _) =
        consensus_star().build(Algorithm::CircuitStart.factory(CcConfig::default()), 7);
    assert_eq!(sim.run().reason, StopReason::QueueEmpty);
    let world = sim.world();
    let slabs: Vec<_> = (0..world.node_count())
        .map(|i| world.node(OverlayId(i as u32)).slots())
        .collect();
    for (i, slab) in slabs.iter().enumerate() {
        let expected = match slab.high_water {
            0 => 0,
            n => n.next_power_of_two(),
        };
        assert_eq!(slab.reserved, expected, "node {i}: {slab:?}");
    }
    let single = slabs.iter().filter(|s| s.high_water == 1).count();
    assert!(
        single > 16,
        "only {single} nodes held exactly one participation"
    );
}

/// `star16_faults` with fewer circuits, so the stalled relay sits on no
/// path at build time (seed chosen for it; asserted below).
fn faulty_star() -> StarScenario {
    StarScenario {
        circuits: 4,
        file_bytes: 64 * 1024,
        directory: DirectoryConfig {
            relays: 32,
            bandwidth_mbps: (30.0, 90.0),
            delay_ms: (2.0, 6.0),
        },
        faults: Some(FaultSpec {
            crashes: 2,
            crash_window_ms: (40.0, 120.0),
            stalls: 1,
            stall_window_ms: (40.0, 120.0),
            stall_duration_ms: 60.0,
            stall_factor: 200.0,
            build_timeout_ms: 300.0,
            liveness_timeout_ms: 600.0,
            ..Default::default()
        }),
        ..Default::default()
    }
}

#[test]
fn a_stalled_relays_links_exist_from_the_start() {
    let (mut sim, _) = faulty_star().build(Algorithm::CircuitStart.factory(CcConfig::default()), 1);
    let at_build = path_leaves(sim.world());
    let links_at_build = sim.world().net().link_count();
    let stalled: Rc<RefCell<Vec<LinkId>>> = Rc::default();
    let seen = Rc::clone(&stalled);
    sim.set_probe(Box::new(move |_, event| {
        if let TorEvent::SetLinkRate { link, .. } = *event {
            seen.borrow_mut().push(link);
        }
    }));
    let report = sim.run();
    assert_eq!(report.reason, StopReason::QueueEmpty);
    let world = sim.world();
    let net = world.net();
    let stalled = stalled.borrow();
    assert_eq!(stalled.len(), 4, "a throttle and a restore on each link");
    assert!(
        stalled.iter().all(|l| l.index() < links_at_build),
        "a stalled link was minted after build"
    );
    let victim = net.link_src(stalled[0]);
    assert_eq!(net.link_dst(stalled[0]), net.link_src(stalled[1]), "hub");
    assert!(
        !at_build.contains(&victim),
        "the stalled relay must be on no initial path for this test to bite"
    );
    assert_eq!(links_at_build, 2 * (at_build.len() + 1));
    let mut crossed = path_leaves(world);
    crossed.insert(victim);
    assert_eq!(net.link_count(), 2 * crossed.len());
}
