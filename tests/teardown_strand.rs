//! Stranded teardowns: a teardown that lands on a circuit mid-transfer
//! must always finish. At quiescence every flow is complete or counted
//! in `flows_parked`, every pooled payload buffer is back
//! (`returned == acquired`), and no client still holds a closed
//! participation — a closed client that never proves quiescence
//! schedules no rebuild, so its flows would wait forever.
//!
//! Three recipes used to strand worlds, from two roots (DESIGN.md §4,
//! §12):
//!
//! * churn teardowns 400–700 ms after start on the 50-circuit star and
//!   epoch departures 80 ms apart on the 7000-relay consensus shape:
//!   the teardown drains cells of an open slow-start train, and the
//!   ramp kept counting them as sent, so the client's DESTROY waited
//!   behind a window that could never reopen;
//! * churn teardowns racing relay crashes: a DESTROY headed for a relay
//!   that never minted the participation, and that relay crashed
//!   before the DESTROY landed, so nobody ever confirmed it.
//!
//! The named tests replay world indices that stranded; the ignored
//! sweep replays each recipe's full count:
//! `cargo test --release --test teardown_strand -- --ignored`.

use backtap::config::CcConfig;
use circuitstart::algorithm::circuit_start_factory;
use relaynet::node::CircuitPhase;
use relaynet::selection::CongestionAware;
use relaynet::workload::{ArrivalSpec, ChurnSpec, EpochSpec, FaultSpec, WorkloadSpec};
use relaynet::{CircId, DirectoryConfig, StarScenario};
use simcore::sim::StopReason;

/// The world seed of recipe index `i`.
fn world_seed(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Three on/off streams per circuit, two teardown/rebuild cycles with
/// the first teardown `teardown_after_ms` after the circuit starts.
fn churn(teardown_after_ms: (f64, f64)) -> WorkloadSpec {
    WorkloadSpec {
        streams_per_circuit: 3,
        arrival: ArrivalSpec::OnOff {
            burst: 2,
            gap_ms: (10.0, 50.0),
        },
        churn: Some(ChurnSpec {
            teardown_after_ms,
            rebuild_delay_ms: 10.0,
            cycles: 2,
        }),
    }
}

fn star(circuits: usize, relays: usize, workload: WorkloadSpec) -> StarScenario {
    StarScenario {
        circuits,
        file_bytes: 256 * 1024,
        directory: DirectoryConfig {
            relays,
            bandwidth_mbps: (30.0, 90.0),
            delay_ms: (2.0, 6.0),
        },
        workload,
        ..Default::default()
    }
}

/// 50 circuits over 100 relays, churn teardowns 400–700 ms after start
/// — established circuits, mid-transfer.
fn late_churn_star() -> StarScenario {
    star(50, 100, churn((400.0, 700.0)))
}

/// 64 circuits over 7000 relays under congestion-aware selection, four
/// consensus epochs 80 ms apart: the last departures hit established
/// circuits.
fn epoch_departures() -> StarScenario {
    StarScenario {
        circuits: 64,
        relays_per_circuit: 3,
        file_bytes: 60_000,
        directory: DirectoryConfig {
            relays: 7000,
            bandwidth_mbps: (15.0, 100.0),
            delay_ms: (2.0, 12.0),
        },
        workload: WorkloadSpec {
            streams_per_circuit: 2,
            arrival: ArrivalSpec::UniformJitter { max_ms: 30.0 },
            churn: None,
        },
        epochs: Some(EpochSpec {
            interval_ms: 80.0,
            epochs: 4,
            churn: 70,
            standby_fraction: 0.1,
        }),
        selection: std::sync::Arc::new(CongestionAware),
        ..Default::default()
    }
}

/// 16 circuits over 32 relays, churn cycles *and* two crashes plus a
/// link stall in 40–120 ms.
fn churn_with_crashes() -> StarScenario {
    StarScenario {
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
        ..star(16, 32, churn((40.0, 100.0)))
    }
}

/// Runs world `i` of `scenario` (CircuitStart, default parameters) to
/// quiescence and lists everything a finished teardown rules out; empty
/// when the world ended clean.
fn strands(scenario: &StarScenario, i: u64) -> Vec<String> {
    let factory = circuit_start_factory(CcConfig::default());
    let (mut sim, _) = scenario.build(factory, world_seed(i));
    let report = sim.run();
    let world = sim.world();
    let mut found = Vec::new();
    if report.reason != StopReason::QueueEmpty {
        found.push(format!("stopped on {:?}", report.reason));
    }
    let incomplete = world.flows().iter().filter(|f| !f.complete()).count() as u64;
    if incomplete != world.stats().flows_parked {
        found.push(format!(
            "{incomplete} flows incomplete, {} parked",
            world.stats().flows_parked
        ));
    }
    let pool = world.payload_pool();
    if pool.returned() != pool.acquired() {
        found.push(format!(
            "pool returned {} of {} buffers",
            pool.returned(),
            pool.acquired()
        ));
    }
    for c in 0..world.circuit_count() {
        let circ = CircId(c as u32);
        let client = world.circuit_info(circ).path[0];
        if let Some(nc) = world.node(client).circuit(circ) {
            if nc.phase != CircuitPhase::Open {
                found.push(format!("circuit {c}: closed client still holds its slot"));
            }
        }
    }
    found
}

fn assert_clean(scenario: &StarScenario, indices: &[u64]) {
    for &i in indices {
        let found = strands(scenario, i);
        assert!(found.is_empty(), "world {i} stranded: {found:?}");
    }
}

#[test]
fn late_churn_teardowns_on_a_star_finish() {
    assert_clean(&late_churn_star(), &[1, 2, 3, 7]);
}

#[test]
fn epoch_departures_of_established_circuits_finish() {
    assert_clean(&epoch_departures(), &[319, 356, 1233, 1246, 1350]);
}

#[test]
fn churn_teardowns_racing_crashes_finish() {
    assert_clean(&churn_with_crashes(), &[8, 66, 91]);
}

#[test]
#[ignore = "sweep: run with --release"]
fn no_recipe_strands_a_world() {
    for (name, scenario, worlds) in [
        ("late churn star", late_churn_star(), 40),
        ("epoch departures", epoch_departures(), 1500),
        ("churn with crashes", churn_with_crashes(), 400),
    ] {
        let stranded: Vec<u64> = (0..worlds)
            .filter(|&i| !strands(&scenario, i).is_empty())
            .collect();
        assert!(
            stranded.is_empty(),
            "{name}: {} of {worlds} worlds stranded: {stranded:?}",
            stranded.len()
        );
    }
}
