//! End-to-end queue equivalence: full experiments must be bit-identical
//! whether the simulator runs on the calendar queue (default) or the
//! legacy binary-heap oracle. This is the system-level complement of the
//! `simcore` differential property suite — it proves the queue swap
//! changes *nothing observable*: event ordering, WorldStats counters,
//! cwnd traces, per-hop feedback counts, and completion times all match,
//! across seeds and for both evaluation topologies.
//!
//! Workload runs fingerprint through the shared
//! [`relaynet::runtime::WorldFingerprint`] — the same exact-observables
//! record the async-runtime differential suite (`tests/async_runtime.rs`)
//! compares across executors, so the queue seam and the runtime seam
//! are pinned against one definition of "the same run". The
//! queue × runtime product matrix itself lives in that suite
//! (`queue_and_runtime_seams_compose`).

use circuitstart::prelude::*;
use relaynet::builder::{PathScenario, StarScenario};
use relaynet::selection::all_policies;
use relaynet::workload::{ArrivalSpec, ChurnSpec, WorkloadSpec};
use relaynet::{DirectoryConfig, WorldStats};
use simcore::event::QueueKind;
use simcore::time::SimDuration;

/// Everything observable about one fig-1-style path run.
#[derive(PartialEq, Debug)]
struct PathFingerprint {
    cwnd_trace: Vec<(f64, u32)>,
    feedback_received: u64,
    transfer_time: Option<f64>,
    cells_delivered: u64,
    stats: WorldStats,
    events_processed: u64,
}

fn run_path(distance: usize, seed: u64, kind: QueueKind) -> PathFingerprint {
    let base = fig1_trace(distance, Algorithm::CircuitStart);
    let scenario = PathScenario {
        hops: base.hops(),
        file_bytes: 400_000,
        ..Default::default()
    };
    let (mut sim, h) =
        scenario.build_with_queue(Algorithm::CircuitStart.factory(base.cc), seed, kind);
    sim.run();
    let world = sim.world();
    let r = world.result_of(h.circ);
    PathFingerprint {
        cwnd_trace: world
            .source_cwnd_trace(h.circ)
            .expect("tracing enabled")
            .iter()
            .map(|&(t, c)| (t.as_secs_f64(), c))
            .collect(),
        feedback_received: world
            .client_transport(h.circ)
            .map_or(0, |t| t.stats().feedback_received),
        transfer_time: r.transfer_time().map(|d: SimDuration| d.as_secs_f64()),
        cells_delivered: r.cells_delivered,
        stats: *world.stats(),
        events_processed: sim.events_processed(),
    }
}

#[test]
fn fig1_path_runs_identically_on_both_queues_across_seeds() {
    for seed in [1u64, 7, 42] {
        for distance in [1usize, 3] {
            let cal = run_path(distance, seed, QueueKind::Calendar);
            let heap = run_path(distance, seed, QueueKind::BinaryHeap);
            assert_eq!(
                cal, heap,
                "seed {seed} distance {distance}: queue implementations diverge"
            );
        }
    }
}

#[test]
fn star_runs_identically_on_both_queues_across_seeds() {
    let scenario = StarScenario {
        circuits: 5,
        file_bytes: 50_000,
        directory: DirectoryConfig {
            relays: 8,
            bandwidth_mbps: (15.0, 80.0),
            delay_ms: (3.0, 9.0),
        },
        ..Default::default()
    };
    let run = |seed, kind| {
        let (mut sim, circuits) = scenario.build_with_queue(
            Algorithm::CircuitStart.factory(CcConfig::default()),
            seed,
            kind,
        );
        run_to_completion(&mut sim);
        let world = sim.world();
        let times: Vec<Option<f64>> = circuits
            .iter()
            .map(|&c| world.result_of(c).transfer_time().map(|d| d.as_secs_f64()))
            .collect();
        (times, *world.stats(), sim.events_processed())
    };
    for seed in [3u64, 11, 99] {
        assert_eq!(
            run(seed, QueueKind::Calendar),
            run(seed, QueueKind::BinaryHeap),
            "seed {seed}: star experiment diverges between queue implementations"
        );
    }
}

#[test]
fn baseline_algorithms_also_match() {
    // The equivalence must hold regardless of the controller in play.
    let scenario = PathScenario {
        hops: fig1_trace(1, Algorithm::ClassicBacktap).hops(),
        file_bytes: 200_000,
        ..Default::default()
    };
    for algorithm in [Algorithm::ClassicBacktap, Algorithm::FixedWindow(16)] {
        let factory = algorithm.factory(CcConfig::default());
        let run = |kind| {
            let (mut sim, h) = scenario.build_with_queue(factory, 5, kind);
            sim.run();
            let w = sim.world();
            (
                w.result_of(h.circ).cells_delivered,
                *w.stats(),
                sim.events_processed(),
            )
        };
        let cal = run(QueueKind::Calendar);
        let heap = run(QueueKind::BinaryHeap);
        assert_eq!(
            cal, heap,
            "{algorithm:?}: diverges between queue implementations"
        );
    }
}

/// Everything observable about a churning multi-stream workload run:
/// per-flow outcomes, slab telemetry, counters, event count. Churn is
/// the first workload that reclaims and reuses circuit-id slots, route
/// slots, and pooled payload buffers mid-run, so the fingerprint pins
/// all of that too — via the shared exact-observables record of the
/// async runtime.
use relaynet::runtime::fingerprint as workload_fingerprint;

fn churn_workload() -> WorkloadSpec {
    WorkloadSpec {
        streams_per_circuit: 3,
        arrival: ArrivalSpec::OnOff {
            burst: 2,
            gap_ms: (10.0, 40.0),
        },
        churn: Some(ChurnSpec {
            teardown_after_ms: (35.0, 90.0),
            rebuild_delay_ms: 4.0,
            cycles: 2,
        }),
    }
}

#[test]
fn churn_path_runs_identically_on_both_queues_across_seeds() {
    let scenario = PathScenario {
        hops: fig1_trace(2, Algorithm::CircuitStart).hops(),
        file_bytes: 150_000,
        workload: churn_workload(),
        faults: None,
    };
    let run = |seed, kind| {
        let (mut sim, _) = scenario.build_with_queue(
            Algorithm::CircuitStart.factory(CcConfig::default()),
            seed,
            kind,
        );
        run_to_completion(&mut sim);
        workload_fingerprint(sim.world(), sim.events_processed())
    };
    for seed in [2u64, 29, 77] {
        let cal = run(seed, QueueKind::Calendar);
        let heap = run(seed, QueueKind::BinaryHeap);
        assert!(
            cal.stats.rebuilds >= 1,
            "seed {seed}: churn must actually rebuild (got {cal:?})"
        );
        assert_eq!(
            cal, heap,
            "seed {seed}: churn path experiment diverges between queues"
        );
    }
}

#[test]
fn churn_star_runs_identically_on_both_queues_across_seeds() {
    let scenario = StarScenario {
        circuits: 4,
        file_bytes: 60_000,
        directory: DirectoryConfig {
            relays: 7,
            bandwidth_mbps: (15.0, 60.0),
            delay_ms: (2.0, 8.0),
        },
        workload: churn_workload(),
        ..Default::default()
    };
    let run = |seed, kind| {
        let (mut sim, _) = scenario.build_with_queue(
            Algorithm::CircuitStart.factory(CcConfig::default()),
            seed,
            kind,
        );
        run_to_completion(&mut sim);
        workload_fingerprint(sim.world(), sim.events_processed())
    };
    for seed in [5u64, 41, 83] {
        let cal = run(seed, QueueKind::Calendar);
        let heap = run(seed, QueueKind::BinaryHeap);
        assert!(
            cal.stats.rebuilds >= 1,
            "seed {seed}: churn must actually rebuild"
        );
        assert_eq!(
            cal, heap,
            "seed {seed}: churn star experiment diverges between queues"
        );
    }
}

/// Every path-selection policy must preserve queue equivalence, on both
/// evaluation topologies. The star runs a churning workload so rebuild
/// re-selection — the one place a policy draws randomness *mid-run*,
/// inside event handling — is exercised; the load view at rebuild time
/// must therefore also be bit-identical across queue implementations.
/// The path topology has no directory (placement seam uninstalled); it
/// rides along once per seed to pin the policy-free degenerate case:
/// churn there rebuilds over the original path.
#[test]
fn selection_policies_run_identically_on_both_queues_across_seeds() {
    let policies = all_policies();
    let path_scenario = PathScenario {
        hops: fig1_trace(2, Algorithm::CircuitStart).hops(),
        file_bytes: 100_000,
        workload: churn_workload(),
        faults: None,
    };
    let run_path = |seed, kind| {
        let (mut sim, _) = path_scenario.build_with_queue(
            Algorithm::CircuitStart.factory(CcConfig::default()),
            seed,
            kind,
        );
        run_to_completion(&mut sim);
        workload_fingerprint(sim.world(), sim.events_processed())
    };
    for seed in [5u64, 41, 83] {
        assert_eq!(
            run_path(seed, QueueKind::Calendar),
            run_path(seed, QueueKind::BinaryHeap),
            "seed {seed}: churn path experiment diverges between queues"
        );
    }
    for policy in policies {
        let star_scenario = StarScenario {
            circuits: 3,
            file_bytes: 50_000,
            directory: DirectoryConfig {
                relays: 7,
                bandwidth_mbps: (15.0, 60.0),
                delay_ms: (2.0, 8.0),
            },
            workload: churn_workload(),
            selection: policy.clone(),
            ..Default::default()
        };
        let run_star = |seed, kind| {
            let (mut sim, _) = star_scenario.build_with_queue(
                Algorithm::CircuitStart.factory(CcConfig::default()),
                seed,
                kind,
            );
            run_to_completion(&mut sim);
            let loads = sim.world().relay_loads().expect("placement").to_vec();
            (
                workload_fingerprint(sim.world(), sim.events_processed()),
                loads,
            )
        };
        for seed in [5u64, 41, 83] {
            let cal = run_star(seed, QueueKind::Calendar);
            let heap = run_star(seed, QueueKind::BinaryHeap);
            assert!(
                cal.0.stats.rebuilds >= 1,
                "{} seed {seed}: churn must actually rebuild",
                policy.name()
            );
            assert_eq!(
                cal,
                heap,
                "{} seed {seed}: star experiment diverges between queues",
                policy.name()
            );
        }
    }
}
