//! A world is a value: cloning a `Simulator<TorNetwork>` copies every
//! piece of simulated state — nodes, hop transports and their
//! controllers, links and frames in flight, pending events, randomness
//! streams — and shares nothing with the original. So a fork taken at
//! any event runs on to exactly the run it was taken from, and taking it
//! changes nothing in the original.
//!
//! Each world runs once unforked for the reference fingerprint. A second
//! copy then steps to eight seeded event indices, is cloned at each, and
//! every clone runs to quiescence; last the original, forked eight
//! times, runs to quiescence too. All nine fingerprints must equal the
//! reference. State held outside the value (an `Rc` shared between
//! nodes, a thread-local counter) shows up here as a fork that diverges.
//! A fork must also reserve what the unforked run reserves: every
//! slab's use, the link schedulers' queue slots, every owner's bytes in
//! the memory ledger and the event queue's work counts end equal, which
//! they do not when a copy keeps only its original's lengths.

use std::sync::Arc;

use circuitstart::Algorithm;
use netsim::bandwidth::Bandwidth;
use netsim::link::LinkConfig;
use relaynet::runtime::{fingerprint, WorldFingerprint};
use relaynet::selection::CongestionAware;
use relaynet::workload::{ArrivalSpec, ChurnSpec, FaultSpec, WorkloadSpec};
use relaynet::{DirectoryConfig, MemoryLedger, OverlayId, PathScenario, StarScenario, TorNetwork};
use simcore::event::QueueWork;
use simcore::rng::SimRng;
use simcore::sim::{Simulator, StopReason};
use simcore::slab::SlabUse;
use simcore::time::SimDuration;

/// Forks per world.
const FORKS: usize = 8;

/// How a finished run uses its slabs and its event queue.
#[derive(PartialEq, Debug)]
struct Reserved {
    queue: QueueWork,
    calendar_entries: Option<SlabUse>,
    frame_store: SlabUse,
    hop_cells: SlabUse,
    link_routes: SlabUse,
    node_slots: Vec<SlabUse>,
    sched_slots: usize,
    memory: MemoryLedger,
}

fn reserved(sim: &Simulator<TorNetwork>) -> Reserved {
    let world = sim.world();
    Reserved {
        queue: sim.queue_work(),
        calendar_entries: sim.queue_entries(),
        frame_store: world.net().frame_store(),
        hop_cells: world.hop_cells(),
        link_routes: world.link_routes(),
        node_slots: (0..world.node_count())
            .map(|i| world.node(OverlayId(i as u32)).slots())
            .collect(),
        sched_slots: world.sched_reserved_slots(),
        memory: world.memory(),
    }
}

/// Checks `build`'s world forks to its own run, reserving what it
/// reserves; returns that run's fingerprint.
fn assert_forks_agree(name: &str, build: impl Fn() -> Simulator<TorNetwork>) -> WorldFingerprint {
    let mut whole = build();
    assert_eq!(whole.run().reason, StopReason::QueueEmpty);
    let reference = fingerprint(whole.world(), whole.events_processed());
    assert_eq!(reference.stats.protocol_errors, 0, "{name}");
    let reference_reserved = reserved(&whole);

    let mut rng = SimRng::seed_from(47).derive(name);
    let mut at: Vec<u64> = (0..FORKS)
        .map(|_| rng.range_u64(0, whole.events_processed()))
        .collect();
    at.sort_unstable();

    let mut sim = build();
    for &i in &at {
        while sim.events_processed() < i {
            assert!(sim.step(), "{name}: ran dry before event {i}");
        }
        let mut fork = sim.clone();
        fork.run();
        assert_eq!(
            fingerprint(fork.world(), fork.events_processed()),
            reference,
            "{name}: the fork taken at event {i} diverged"
        );
        assert_eq!(
            reserved(&fork),
            reference_reserved,
            "{name}: the fork taken at event {i} reserves otherwise"
        );
    }
    sim.run();
    assert_eq!(
        fingerprint(sim.world(), sim.events_processed()),
        reference,
        "{name}: the original diverged after forks at {at:?}"
    );
    assert_eq!(
        reserved(&sim),
        reference_reserved,
        "{name}: the original reserves otherwise after forks at {at:?}"
    );
    reference
}

/// `churn_teardown`'s mid-flight teardown: a slow middle link, two
/// streams, one teardown and rebuild.
#[test]
fn a_churning_path_forks_to_the_same_run() {
    let hop = |mbps, ms| LinkConfig::new(Bandwidth::from_mbps(mbps), SimDuration::from_millis(ms));
    let scenario = PathScenario {
        hops: vec![hop(100, 1), hop(5, 5), hop(100, 1)],
        file_bytes: 1 << 20,
        workload: WorkloadSpec {
            streams_per_circuit: 2,
            arrival: ArrivalSpec::Immediate,
            churn: Some(ChurnSpec {
                teardown_after_ms: (200.0, 200.0),
                rebuild_delay_ms: 300.0,
                cycles: 1,
            }),
        },
        faults: None,
    };
    let factory = Algorithm::CircuitStart.factory(Default::default());
    let run = assert_forks_agree("path", || scenario.build(factory, 7).0);
    assert_eq!(run.stats.rebuilds, 1);
}

/// `fault_recovery`'s star: 8 circuits of 3 relays over 16, under
/// congestion-aware selection.
fn star(workload: WorkloadSpec, faults: Option<FaultSpec>) -> StarScenario {
    StarScenario {
        circuits: 8,
        relays_per_circuit: 3,
        file_bytes: 150_000,
        directory: DirectoryConfig {
            relays: 16,
            bandwidth_mbps: (40.0, 100.0),
            delay_ms: (1.0, 3.0),
        },
        selection: Arc::new(CongestionAware),
        workload,
        faults,
        ..Default::default()
    }
}

fn two_streams(churn: Option<ChurnSpec>) -> WorkloadSpec {
    WorkloadSpec {
        streams_per_circuit: 2,
        arrival: ArrivalSpec::UniformJitter { max_ms: 15.0 },
        churn,
    }
}

/// Every circuit torn down and rebuilt twice mid-transfer, on
/// CircuitStart: each rebuild starts a fresh controller's ramp.
#[test]
fn a_churning_star_forks_to_the_same_run() {
    let scenario = star(
        two_streams(Some(ChurnSpec {
            teardown_after_ms: (40.0, 100.0),
            rebuild_delay_ms: 5.0,
            cycles: 2,
        })),
        None,
    );
    let factory = Algorithm::CircuitStart.factory(Default::default());
    let run = assert_forks_agree("churn star", || scenario.build(factory, 31).0);
    assert_eq!(run.stats.rebuilds, 16);
}

/// Two relay crashes: build and liveness timers, blame, backoff and
/// rebuilds.
#[test]
fn a_faulty_star_forks_to_the_same_run() {
    let scenario = star(
        two_streams(None),
        Some(FaultSpec {
            crashes: 2,
            crash_window_ms: (40.0, 120.0),
            build_timeout_ms: 300.0,
            liveness_timeout_ms: 600.0,
            ..Default::default()
        }),
    );
    let factory = Algorithm::ClassicBacktap.factory(Default::default());
    let run = assert_forks_agree("fault star", || scenario.build(factory, 31).0);
    assert_eq!(run.stats.crashes_injected, 2);
    assert!(run.stats.retries > 0);
}
