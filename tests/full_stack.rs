//! End-to-end integration: full circuit builds and transfers across
//! algorithms, path lengths, and file sizes, with the invariants every
//! healthy run must satisfy.

use circuitstart::prelude::*;
use netsim::bandwidth::Bandwidth;
use netsim::link::LinkConfig;
use relaynet::{PathScenario, StarScenario};
use simcore::time::SimDuration;

fn hop(mbps: u64, delay_ms: u64) -> LinkConfig {
    LinkConfig::new(
        Bandwidth::from_mbps(mbps),
        SimDuration::from_millis(delay_ms),
    )
}

/// Runs one path transfer and applies the universal health checks.
fn run_path(
    hops: Vec<LinkConfig>,
    file_bytes: u64,
    algorithm: Algorithm,
    seed: u64,
) -> relaynet::CircuitResult {
    let scenario = PathScenario {
        hops,
        file_bytes,
        ..Default::default()
    };
    let (mut sim, handles) = scenario.build(algorithm.factory(CcConfig::default()), seed);
    run_to_completion(&mut sim);
    let world = sim.world();
    assert_eq!(world.stats().protocol_errors, 0, "protocol errors");
    assert_eq!(
        world.net().total_drops(),
        0,
        "backpressure must prevent drops"
    );
    let result = world.result_of(handles.circ);
    assert!(result.completed, "transfer must complete");
    assert_eq!(result.bytes_delivered, file_bytes);
    assert_eq!(result.payload_errors, 0, "onion layering must round-trip");
    result
}

#[test]
fn every_algorithm_completes_the_fig1_geometry() {
    for algorithm in [
        Algorithm::CircuitStart,
        Algorithm::AdaptiveCircuitStart,
        Algorithm::ClassicBacktap,
        Algorithm::JumpStart(64),
        Algorithm::FixedWindow(16),
        Algorithm::NoSlowStart,
    ] {
        let hops = vec![hop(100, 5), hop(20, 5), hop(100, 5), hop(100, 5)];
        let result = run_path(hops, 300_000, algorithm, 11);
        assert!(
            result.transfer_time().unwrap() > SimDuration::ZERO,
            "{algorithm:?}"
        );
    }
}

#[test]
fn path_lengths_from_one_to_six_relays() {
    for relays in 1..=6 {
        let hops = vec![hop(50, 3); relays + 1];
        let result = run_path(hops, 100_000, Algorithm::CircuitStart, relays as u64);
        assert_eq!(result.cells_delivered, 100_000u64.div_ceil(496));
    }
}

#[test]
fn file_sizes_from_one_byte_to_megabytes() {
    for &bytes in &[1u64, 495, 496, 497, 4_960, 123_456, 2 << 20] {
        let hops = vec![hop(60, 2), hop(30, 4), hop(60, 2)];
        let result = run_path(hops, bytes, Algorithm::CircuitStart, bytes);
        assert_eq!(result.bytes_delivered, bytes);
        assert_eq!(result.cells_delivered, bytes.div_ceil(496));
    }
}

#[test]
fn goodput_respects_the_analytical_ceiling() {
    let hops = vec![hop(100, 5), hop(20, 5), hop(100, 5), hop(100, 5)];
    let model = PathModel::from_hops(&hops);
    let result = run_path(hops, 2 << 20, Algorithm::CircuitStart, 5);
    let goodput = result.goodput_bps().unwrap();
    assert!(
        goodput <= model.max_goodput_bps() * 1.001,
        "goodput {goodput} exceeds the physical ceiling {}",
        model.max_goodput_bps()
    );
    // And a transfer long enough to amortize the ramp should get close.
    assert!(
        goodput >= model.max_goodput_bps() * 0.75,
        "goodput {goodput} too far below ceiling {}",
        model.max_goodput_bps()
    );
}

#[test]
fn transfer_time_bounded_below_by_the_model() {
    let hops = vec![hop(100, 5), hop(20, 5), hop(100, 5), hop(100, 5)];
    let model = PathModel::from_hops(&hops);
    let file = 1 << 20;
    let result = run_path(hops, file, Algorithm::CircuitStart, 9);
    let measured = result.transfer_time().unwrap();
    let ideal = model.ideal_transfer_time(file);
    assert!(
        measured >= ideal,
        "measured {measured} cannot beat the ideal pipeline {ideal}"
    );
    assert!(
        measured.as_secs_f64() <= ideal.as_secs_f64() * 1.5,
        "measured {measured} too far above ideal {ideal} — startup cost exploded"
    );
}

#[test]
fn asymmetric_delays_and_rates() {
    let hops = vec![hop(80, 1), hop(12, 20), hop(35, 2), hop(90, 8)];
    let result = run_path(hops, 400_000, Algorithm::CircuitStart, 13);
    assert!(result.completed);
}

#[test]
fn very_slow_bottleneck_still_completes() {
    let hops = vec![hop(100, 5), hop(2, 5), hop(100, 5)];
    let result = run_path(hops, 100_000, Algorithm::CircuitStart, 17);
    // 100 kB at ~1.94 Mbit/s goodput ≈ 0.41 s.
    let t = result.transfer_time().unwrap().as_secs_f64();
    assert!((0.4..1.0).contains(&t), "transfer time {t}");
}

#[test]
fn star_mixed_workload_all_complete() {
    let scenario = StarScenario {
        circuits: 8,
        file_bytes: 80_000,
        start_jitter_ms: 30.0,
        directory: relaynet::DirectoryConfig {
            relays: 10,
            bandwidth_mbps: (15.0, 80.0),
            delay_ms: (3.0, 10.0),
        },
        ..Default::default()
    };
    for algorithm in [Algorithm::CircuitStart, Algorithm::ClassicBacktap] {
        let (mut sim, circuits) = scenario.build(algorithm.factory(CcConfig::default()), 23);
        run_to_completion(&mut sim);
        let world = sim.world();
        assert_eq!(world.stats().protocol_errors, 0);
        assert_eq!(world.net().total_drops(), 0);
        for c in circuits {
            let r = world.result_of(c);
            assert!(r.completed, "{algorithm:?} {c:?}");
            assert_eq!(r.payload_errors, 0);
        }
    }
}

#[test]
fn every_selection_policy_also_runs() {
    for selection in relaynet::selection::all_policies() {
        let scenario = StarScenario {
            circuits: 5,
            file_bytes: 40_000,
            selection: selection.clone(),
            directory: relaynet::DirectoryConfig {
                relays: 8,
                bandwidth_mbps: (10.0, 100.0),
                delay_ms: (3.0, 8.0),
            },
            ..Default::default()
        };
        let (mut sim, circuits) =
            scenario.build(Algorithm::CircuitStart.factory(CcConfig::default()), 31);
        run_to_completion(&mut sim);
        let world = sim.world();
        assert_eq!(world.selection_policy_name(), Some(selection.name()));
        // Every live circuit is in the load view: 5 circuits × 3 relays.
        let loads = world.relay_loads().expect("placement installed");
        assert_eq!(loads.iter().map(|&l| u64::from(l)).sum::<u64>(), 15);
        for c in circuits {
            assert!(world.result_of(c).completed, "{}", selection.name());
        }
    }
}

#[test]
fn feedback_volume_matches_cell_volume() {
    // Every accepted cell is confirmed exactly once (forwarded or
    // consumed), so feedback frames == cell frames at quiescence.
    let scenario = PathScenario {
        hops: vec![hop(50, 3); 4],
        file_bytes: 50_000,
        ..Default::default()
    };
    let (mut sim, _) = scenario.build(Algorithm::CircuitStart.factory(CcConfig::default()), 3);
    run_to_completion(&mut sim);
    let stats = sim.world().stats();
    assert_eq!(
        stats.feedback_sent, stats.cells_sent,
        "one feedback per transmitted cell"
    );
}
