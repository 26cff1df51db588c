//! Bit-reproducibility: the whole point of a deterministic simulator is
//! that a seed pins down every event. These tests re-run complete
//! experiments and require identical traces, byte for byte.

use circuitstart::prelude::*;
use relaynet::runtime::fingerprint;
use relaynet::StarScenario;

fn trace_fingerprint(cfg: &TraceScenarioConfig) -> (Vec<(f64, u32)>, Option<f64>, u64) {
    let report = run_trace(cfg);
    (
        report.cwnd_cells.clone(),
        report.result.transfer_time().map(|d| d.as_secs_f64()),
        report.result.cells_delivered,
    )
}

#[test]
fn trace_runs_are_bit_identical() {
    let mut cfg = fig1_trace(1, Algorithm::CircuitStart);
    cfg.file_bytes = 300_000;
    let a = trace_fingerprint(&cfg);
    let b = trace_fingerprint(&cfg);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_change_only_what_randomness_touches() {
    // The path geometry is fixed; the only seeded choice is handshake
    // bytes, which must not affect timing at all.
    let mut cfg = fig1_trace(1, Algorithm::CircuitStart);
    cfg.file_bytes = 200_000;
    let a = trace_fingerprint(&cfg);
    cfg.seed = 999;
    let b = trace_fingerprint(&cfg);
    assert_eq!(
        a, b,
        "handshake randomness must not perturb deterministic timing"
    );
}

#[test]
fn star_runs_are_bit_identical() {
    let scenario = StarScenario {
        circuits: 6,
        file_bytes: 60_000,
        directory: relaynet::DirectoryConfig {
            relays: 8,
            bandwidth_mbps: (15.0, 80.0),
            delay_ms: (3.0, 9.0),
        },
        ..Default::default()
    };
    let run = || {
        let (mut sim, _) = scenario.build(Algorithm::CircuitStart.factory(CcConfig::default()), 42);
        run_to_completion(&mut sim);
        fingerprint(sim.world(), sim.events_processed())
    };
    assert_eq!(run(), run());
}

#[test]
fn star_seed_changes_topology_and_times() {
    let scenario = StarScenario {
        circuits: 6,
        file_bytes: 60_000,
        directory: relaynet::DirectoryConfig {
            relays: 8,
            bandwidth_mbps: (15.0, 80.0),
            delay_ms: (3.0, 9.0),
        },
        ..Default::default()
    };
    let run = |seed| {
        let (mut sim, circuits) =
            scenario.build(Algorithm::CircuitStart.factory(CcConfig::default()), seed);
        run_to_completion(&mut sim);
        let world = sim.world();
        circuits
            .iter()
            .map(|&c| world.result_of(c).transfer_time().map(|d| d.as_secs_f64()))
            .collect::<Vec<_>>()
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(a, b, "different seeds must sample different networks");
}

#[test]
fn cdf_experiment_is_reproducible() {
    let mut cfg = fig1_cdf();
    cfg.star.circuits = 5;
    cfg.star.file_bytes = 50_000;
    cfg.star.directory.relays = 8;
    cfg.repetitions = 1;
    let a = run_cdf(&cfg);
    let b = run_cdf(&cfg);
    for (x, y) in a.series.iter().zip(&b.series) {
        assert_eq!(x.algorithm_key, y.algorithm_key);
        assert_eq!(x.cdf.sorted_samples(), y.cdf.sorted_samples());
    }
}
