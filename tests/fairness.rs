//! Progress guarantees across circuits sharing a relay. Round-robin
//! scheduling guarantees *service* fairness among backlogged circuits —
//! not equal completion times (a circuit whose window idles yields its
//! slots). These tests pin down what it does guarantee: every circuit
//! progresses, nobody is starved past the capacity bound, and an
//! aggressive sender cannot push a windowed peer beyond that bound.

use circuitstart::prelude::*;
use relaynet::{DirectoryConfig, StarScenario};

/// A star where every circuit crosses the same single relay — maximal
/// contention at one point.
fn single_relay_star(circuits: usize, file_bytes: u64) -> StarScenario {
    StarScenario {
        circuits,
        relays_per_circuit: 1,
        file_bytes,
        start_jitter_ms: 5.0,
        directory: DirectoryConfig {
            relays: 1,
            bandwidth_mbps: (30.0, 30.1),
            delay_ms: (5.0, 5.0),
        },
        ..Default::default()
    }
}

/// Time to push `circuits × file_bytes` of cells through one 30 Mbit/s
/// access direction if it were perfectly scheduled — the fair-share
/// completion bound for the *last* finisher.
fn fair_serial_seconds(circuits: usize, file_bytes: u64) -> f64 {
    let cells = file_bytes.div_ceil(496) * circuits as u64;
    cells as f64 * 512.0 * 8.0 / 30e6
}

#[test]
fn equal_transfers_all_complete_within_the_capacity_bound() {
    let (circuits_n, file) = (6usize, 200_000u64);
    let scenario = single_relay_star(circuits_n, file);
    let (mut sim, circuits) =
        scenario.build(Algorithm::CircuitStart.factory(CcConfig::default()), 3);
    run_to_completion(&mut sim);
    let world = sim.world();
    let bound = fair_serial_seconds(circuits_n, file);
    let times: Vec<f64> = circuits
        .iter()
        .map(|&c| {
            let r = world.result_of(c);
            assert!(r.completed);
            r.transfer_time().unwrap().as_secs_f64()
        })
        .collect();
    let max = times.iter().cloned().fold(0.0, f64::max);
    // The last finisher may not exceed a small multiple of the serial
    // capacity bound. Round-robin wastes no slot while anyone is
    // backlogged, but windowed senders are not always backlogged: under
    // contention the shared standing queue inflates every circuit's RTT
    // measurements, windows clamp conservatively, and the relay idles
    // between bursts — measured slowdowns sit around 2.3–3× serial.
    assert!(
        max <= bound * 3.5,
        "slowest circuit {max:.3} s vs fair-serial bound {bound:.3} s ({times:?})"
    );
    // And early finishers may not be *implausibly* early (they'd have to
    // exceed their own access rate): nobody beats 1/n of the bound.
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        min >= bound / circuits_n as f64,
        "fastest circuit {min:.3} s impossibly fast vs bound {bound:.3} s"
    );
    assert_eq!(world.stats().protocol_errors, 0);
}

#[test]
fn aggressive_window_cannot_push_peers_past_the_capacity_bound() {
    // One JumpStart sender (100-cell burst window) against CircuitStart
    // senders on the same relay. Delay-based senders are known to be
    // out-competed by aggressive ones — the standing queue the aggressor
    // leaves inflates every RTT measurement, so the CircuitStart circuits
    // compensate to small shares (BackTap assumes a *cooperating*
    // deployment, all relays speaking the same protocol). Round-robin
    // still caps the damage: the peers keep progressing and finish within
    // a small multiple of the fair-serial capacity bound, instead of
    // being starved outright as FIFO queueing would allow.
    let (circuits_n, file) = (4usize, 200_000u64);
    let scenario = single_relay_star(circuits_n, file);
    let cc = CcConfig::default();
    let factory: relaynet::CcFactory = Box::new(move |ctx| {
        // Circuit 0 is the aggressor; the rest run CircuitStart.
        let algo = if ctx.circuit.0 == 0 {
            Algorithm::JumpStart(100)
        } else {
            Algorithm::CircuitStart
        };
        match ctx.direction {
            relaynet::Direction::Forward => algo.make_controller(cc),
            relaynet::Direction::Backward => Box::new(backtap::cc::UnlimitedCc),
        }
    });
    let (mut sim, circuits) = scenario.build(factory, 9);
    run_to_completion(&mut sim);
    let world = sim.world();
    let bound = fair_serial_seconds(circuits_n, file);
    for &c in &circuits[1..] {
        let r = world.result_of(c);
        assert!(r.completed, "{c:?} must complete");
        let t = r.transfer_time().unwrap().as_secs_f64();
        assert!(
            t <= bound * 4.0,
            "windowed circuit {c:?} starved beyond bounded degradation: {t:.3} s vs fair-serial {bound:.3} s"
        );
    }
}

#[test]
fn many_small_flows_all_progress() {
    // 12 short transfers over 2 relays: nobody may be locked out — the
    // run quiescing with every transfer complete is the progress proof.
    let scenario = StarScenario {
        circuits: 12,
        relays_per_circuit: 2,
        file_bytes: 30_000,
        directory: DirectoryConfig {
            relays: 2,
            bandwidth_mbps: (25.0, 25.1),
            delay_ms: (4.0, 6.0),
        },
        ..Default::default()
    };
    let (mut sim, circuits) =
        scenario.build(Algorithm::CircuitStart.factory(CcConfig::default()), 21);
    run_to_completion(&mut sim);
    let world = sim.world();
    for c in circuits {
        let r = world.result_of(c);
        assert!(r.completed);
        assert_eq!(r.payload_errors, 0);
    }
    assert_eq!(world.net().total_drops(), 0);
}
