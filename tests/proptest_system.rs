//! System-level property tests: conservation, window invariants, and
//! monotonicity over randomly drawn topologies, file sizes, and seeds.
//! Case counts are tuned so the suite stays responsive in debug builds.
//!
//! Randomized configurations are drawn from [`simcore::rng::SimRng`]
//! streams with fixed master seeds — proptest-style coverage with
//! bit-for-bit reproducibility and no external dependencies.

use backtap::config::{MAX_CWND, MIN_CWND};
use circuitstart::prelude::*;
use netsim::bandwidth::Bandwidth;
use netsim::link::LinkConfig;
use relaynet::PathScenario;
use simcore::rng::SimRng;
use simcore::time::SimDuration;

/// Arbitrary small path geometry: 1–4 relays, 5–80 Mbit/s links,
/// 1–12 ms delays.
fn arb_hops(rng: &mut SimRng) -> Vec<LinkConfig> {
    let n = rng.range_usize(2, 6);
    (0..n)
        .map(|_| {
            let mbps = rng.range_u64(5, 81);
            let ms = rng.range_u64(1, 13);
            LinkConfig::new(Bandwidth::from_mbps(mbps), SimDuration::from_millis(ms))
        })
        .collect()
}

fn run(
    hops: Vec<LinkConfig>,
    file_bytes: u64,
    algorithm: Algorithm,
    seed: u64,
) -> (relaynet::CircuitResult, relaynet::WorldStats) {
    let scenario = PathScenario {
        hops,
        file_bytes,
        ..Default::default()
    };
    let (mut sim, handles) = scenario.build(algorithm.factory(CcConfig::default()), seed);
    run_to_completion(&mut sim);
    let world = sim.world();
    (world.result_of(handles.circ), *world.stats())
}

/// Cells are conserved: every payload byte the client offers arrives
/// exactly once, unharmed, in order — for arbitrary geometry.
#[test]
fn conservation_over_random_paths() {
    let mut gen = SimRng::seed_from(0x5EED_0001);
    for _ in 0..24 {
        let hops = arb_hops(&mut gen);
        let file = gen.range_u64(1, 121) * 1000;
        let seed = gen.u64();
        let (result, stats) = run(hops, file, Algorithm::CircuitStart, seed);
        assert!(result.completed);
        assert_eq!(result.bytes_delivered, file);
        assert_eq!(result.cells_delivered, file.div_ceil(496));
        assert_eq!(result.payload_errors, 0);
        assert_eq!(stats.protocol_errors, 0);
    }
}

/// Transfer time is monotone (within tolerance) in file size on a
/// fixed path: more data never finishes faster.
#[test]
fn ttlb_monotone_in_file_size() {
    let mut gen = SimRng::seed_from(0x5EED_0002);
    for _ in 0..24 {
        let hops = arb_hops(&mut gen);
        let small = gen.range_u64(5, 41) * 1000;
        let big = small + gen.range_u64(10, 101) * 1000;
        let seed = gen.u64();
        let (r_small, _) = run(hops.clone(), small, Algorithm::CircuitStart, seed);
        let (r_big, _) = run(hops, big, Algorithm::CircuitStart, seed);
        assert!(
            r_big.transfer_time().unwrap() >= r_small.transfer_time().unwrap(),
            "bigger file finished faster: {:?} vs {:?}",
            r_big.transfer_time(),
            r_small.transfer_time()
        );
    }
}

/// The transfer never beats the analytical lower bound, regardless of
/// geometry or algorithm.
#[test]
fn never_faster_than_the_ideal_pipeline() {
    let mut gen = SimRng::seed_from(0x5EED_0003);
    for _ in 0..24 {
        let hops = arb_hops(&mut gen);
        let file = gen.range_u64(5, 81) * 1000;
        let algorithm = [
            Algorithm::CircuitStart,
            Algorithm::ClassicBacktap,
            Algorithm::JumpStart(64),
        ][gen.range_usize(0, 3)];
        let seed = gen.u64();
        let model = PathModel::from_hops(&hops);
        let (result, _) = run(hops, file, algorithm, seed);
        assert!(
            result.transfer_time().unwrap() >= model.ideal_transfer_time(file),
            "{algorithm:?} beat physics"
        );
    }
}

/// The source window never leaves `[MIN_CWND, MAX_CWND]`, for any
/// geometry and any point in time.
#[test]
fn cwnd_respects_bounds_throughout() {
    let mut gen = SimRng::seed_from(0x5EED_0004);
    for _ in 0..24 {
        let hops = arb_hops(&mut gen);
        let file = gen.range_u64(5, 61) * 1000;
        let seed = gen.u64();
        let scenario = PathScenario {
            hops,
            file_bytes: file,
            ..Default::default()
        };
        let cc = CcConfig::default();
        let (mut sim, handles) = scenario.build(Algorithm::CircuitStart.factory(cc), seed);
        run_to_completion(&mut sim);
        let trace = sim.world().source_cwnd_trace(handles.circ).unwrap();
        for &(_, cwnd) in trace {
            assert!((MIN_CWND..=MAX_CWND).contains(&cwnd));
        }
    }
}

/// Determinism as a property: any configuration replayed with the
/// same seed produces the identical transfer time.
#[test]
fn determinism_over_random_configs() {
    let mut gen = SimRng::seed_from(0x5EED_0005);
    for _ in 0..12 {
        let hops = arb_hops(&mut gen);
        let file = gen.range_u64(5, 51) * 1000;
        let seed = gen.u64();
        let (a, _) = run(hops.clone(), file, Algorithm::CircuitStart, seed);
        let (b, _) = run(hops, file, Algorithm::CircuitStart, seed);
        assert_eq!(a.transfer_time(), b.transfer_time());
        assert_eq!(a.last_byte_at, b.last_byte_at);
    }
}
