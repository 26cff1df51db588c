//! The path-selection seam, end to end: pinned pick fingerprints (the
//! API migration must reproduce the historical hard-wired selection bit
//! for bit), SimRng-driven property loops over random directories and
//! loads (proptest-style, as in `proptest_workload.rs`), and the load-
//! accounting ledger under full churn teardown.

use std::sync::Arc;

use circuitstart::prelude::*;
use relaynet::directory::{Directory, DirectoryConfig};
use relaynet::selection::{
    all_policies, select, BandwidthWeighted, CongestionAware, LatencyAware, PathSelection, Uniform,
};
use relaynet::workload::{ArrivalSpec, ChurnSpec, WorkloadSpec};
use relaynet::{CircId, StarScenario, TorEvent};
use simcore::rng::SimRng;
use simcore::time::SimDuration;

/// Replays the exact derivation chain `StarScenario::build` uses for
/// placement: the directory from `derive("directory")`, picks from
/// `derive("paths")`, zero load at build time.
fn first_picks(policy: &dyn PathSelection, seed: u64, n: usize) -> Vec<Vec<usize>> {
    picks_under_load(policy, seed, n, |_| 0)
}

/// [`first_picks`] with relay `i` carrying `load_of(i)` circuits.
fn picks_under_load(
    policy: &dyn PathSelection,
    seed: u64,
    n: usize,
    load_of: fn(u32) -> u32,
) -> Vec<Vec<usize>> {
    let master = SimRng::seed_from(seed);
    let dir = Directory::generate(&DirectoryConfig::default(), &master.derive("directory"));
    let load: Vec<u32> = (0..dir.len() as u32).map(load_of).collect();
    let mut rng = master.derive("paths");
    (0..n)
        .map(|_| select(policy, &dir.view(&load), &mut rng, 3))
        .collect()
}

/// The picks the pre-seam `Directory::select_path_uniform` /
/// `select_path_weighted` implementations produced on these seeds,
/// recorded before the migration. `Uniform` and `BandwidthWeighted`
/// must reproduce them bit for bit — the acceptance criterion that the
/// redesign changed the API, not the experiments.
#[test]
fn uniform_and_bandwidth_picks_are_pinned_to_the_pre_seam_behaviour() {
    let pinned_uniform: [(u64, [[usize; 3]; 8]); 3] = [
        (
            1,
            [
                [28, 3, 2],
                [26, 10, 22],
                [18, 10, 28],
                [2, 5, 7],
                [28, 3, 25],
                [12, 21, 19],
                [26, 16, 23],
                [14, 27, 15],
            ],
        ),
        (
            7,
            [
                [8, 18, 5],
                [23, 6, 2],
                [22, 1, 18],
                [7, 25, 17],
                [13, 16, 7],
                [22, 1, 11],
                [13, 12, 25],
                [17, 27, 8],
            ],
        ),
        (
            42,
            [
                [27, 1, 6],
                [10, 11, 21],
                [16, 13, 28],
                [20, 18, 21],
                [2, 10, 21],
                [2, 16, 13],
                [4, 18, 5],
                [11, 19, 15],
            ],
        ),
    ];
    let pinned_weighted: [(u64, [[usize; 3]; 8]); 3] = [
        (
            1,
            [
                [20, 29, 23],
                [23, 5, 26],
                [3, 19, 26],
                [29, 22, 5],
                [16, 22, 17],
                [1, 10, 22],
                [13, 22, 1],
                [6, 3, 21],
            ],
        ),
        (
            7,
            [
                [14, 25, 0],
                [8, 16, 14],
                [2, 23, 4],
                [5, 9, 16],
                [26, 20, 8],
                [17, 26, 2],
                [6, 3, 4],
                [14, 26, 23],
            ],
        ),
        (
            42,
            [
                [3, 6, 11],
                [20, 1, 18],
                [8, 19, 12],
                [0, 15, 3],
                [18, 8, 20],
                [8, 13, 14],
                [6, 4, 21],
                [25, 10, 22],
            ],
        ),
    ];
    for (seed, expected) in pinned_uniform {
        let got = first_picks(&Uniform, seed, 8);
        for (g, e) in got.iter().zip(expected) {
            assert_eq!(g[..], e[..], "uniform seed {seed}");
        }
    }
    for (seed, expected) in pinned_weighted {
        let got = first_picks(&BandwidthWeighted, seed, 8);
        for (g, e) in got.iter().zip(expected) {
            assert_eq!(g[..], e[..], "bandwidth-weighted seed {seed}");
        }
    }
}

/// The other two policies, pinned on the same seeds to the picks
/// recorded while each policy still drew through its own per-call
/// weighted scan: `LatencyAware` at zero load, and `CongestionAware` under
/// the uneven `(i * 7) % 23` load of `policies_diverge_on_a_shared_view`
/// (at zero load it reduces to `BandwidthWeighted`, pinned above).
/// With these, all four policies are pinned bit for bit.
#[test]
fn latency_and_congestion_picks_are_pinned_to_the_per_call_draw() {
    let pinned_latency: [(u64, [[usize; 3]; 8]); 3] = [
        (
            1,
            [
                [19, 28, 25],
                [24, 7, 27],
                [4, 17, 26],
                [29, 25, 8],
                [15, 23, 17],
                [1, 12, 24],
                [13, 24, 1],
                [8, 4, 19],
            ],
        ),
        (
            7,
            [
                [17, 27, 2],
                [11, 19, 17],
                [5, 25, 7],
                [8, 14, 19],
                [28, 22, 11],
                [19, 27, 4],
                [8, 6, 9],
                [17, 27, 25],
            ],
        ),
        (
            42,
            [
                [3, 6, 11],
                [16, 1, 14],
                [6, 15, 11],
                [1, 11, 3],
                [15, 6, 16],
                [6, 11, 10],
                [4, 3, 18],
                [23, 8, 20],
            ],
        ),
    ];
    let pinned_congestion: [(u64, [[usize; 3]; 8]); 3] = [
        (
            1,
            [
                [20, 28, 23],
                [23, 0, 24],
                [0, 21, 24],
                [29, 23, 0],
                [17, 23, 10],
                [0, 14, 23],
                [10, 23, 0],
                [0, 7, 23],
            ],
        ),
        (
            7,
            [
                [12, 23, 0],
                [4, 16, 14],
                [0, 23, 5],
                [0, 11, 21],
                [23, 16, 2],
                [18, 23, 0],
                [0, 7, 8],
                [13, 23, 20],
            ],
        ),
        (
            42,
            [
                [1, 4, 10],
                [20, 0, 18],
                [7, 19, 10],
                [0, 14, 6],
                [18, 7, 20],
                [7, 10, 14],
                [4, 2, 20],
                [23, 7, 20],
            ],
        ),
    ];
    for (seed, expected) in pinned_latency {
        let got = first_picks(&LatencyAware, seed, 8);
        for (g, e) in got.iter().zip(expected) {
            assert_eq!(g[..], e[..], "latency-aware seed {seed}");
        }
    }
    for (seed, expected) in pinned_congestion {
        let got = picks_under_load(&CongestionAware, seed, 8, |i| (i * 7) % 23);
        for (g, e) in got.iter().zip(expected) {
            assert_eq!(g[..], e[..], "congestion-aware seed {seed}");
        }
    }
}

/// The same pin, through the whole builder: on seed 1 the first star
/// circuits must route over exactly the relays the pre-seam builder
/// picked (relay overlay ids coincide with directory indices because
/// relays are registered first).
#[test]
fn star_builder_routes_over_the_pinned_picks() {
    let scenario = StarScenario {
        circuits: 2,
        file_bytes: 10_000,
        ..Default::default()
    };
    let (sim, circuits) = scenario.build(Algorithm::CircuitStart.factory(CcConfig::default()), 1);
    let world = sim.world();
    let relay_ids = |c: CircId| -> Vec<u32> {
        let p = &world.circuit_info(c).path;
        p[1..p.len() - 1].iter().map(|o| o.0).collect()
    };
    assert_eq!(relay_ids(circuits[0]), vec![28, 3, 2]);
    assert_eq!(relay_ids(circuits[1]), vec![26, 10, 22]);
}

/// Property: every policy returns exactly `path_len` distinct in-range
/// indices, over random directories, random (possibly heavy) load
/// views, and random path lengths.
#[test]
fn every_policy_returns_distinct_in_range_indices_on_random_views() {
    let mut rng = SimRng::seed_from(0x5E1EC7);
    for case in 0..60 {
        let cfg = DirectoryConfig {
            relays: rng.range_usize(1, 40),
            bandwidth_mbps: (rng.range_f64(1.0, 20.0), rng.range_f64(20.0, 200.0)),
            delay_ms: (rng.range_f64(0.0, 5.0), rng.range_f64(5.0, 30.0)),
        };
        let dir = Directory::generate(&cfg, &rng.derive_indexed("dir", case));
        let load: Vec<u32> = (0..dir.len())
            .map(|_| rng.range_u64(0, 100) as u32)
            .collect();
        let path_len = rng.range_usize(1, dir.len().min(6) + 1);
        for policy in all_policies() {
            let mut draw = rng.derive_indexed("draw", case);
            let picks = select(policy.as_ref(), &dir.view(&load), &mut draw, path_len);
            assert_eq!(picks.len(), path_len, "case {case} {}", policy.name());
            let mut sorted = picks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                path_len,
                "case {case} {} repeated a relay: {picks:?}",
                policy.name()
            );
            assert!(
                picks.iter().all(|&i| i < dir.len()),
                "case {case} {} out of range: {picks:?}",
                policy.name()
            );
        }
    }
}

/// The four policies are genuinely different selectors: on a shared
/// directory, seed, and non-trivial load view, no two of them produce
/// the same pick sequence.
#[test]
fn policies_diverge_on_a_shared_view() {
    let dir = Directory::generate(&DirectoryConfig::default(), &SimRng::seed_from(9));
    // Uneven load so CongestionAware separates from BandwidthWeighted
    // (at zero load it reduces to it by construction).
    let load: Vec<u32> = (0..dir.len() as u32).map(|i| (i * 7) % 23).collect();
    let sequences: Vec<(String, Vec<Vec<usize>>)> = all_policies()
        .iter()
        .map(|p| {
            let mut rng = SimRng::seed_from(77);
            let picks = (0..12)
                .map(|_| select(p.as_ref(), &dir.view(&load), &mut rng, 3))
                .collect();
            (p.name().to_string(), picks)
        })
        .collect();
    for i in 0..sequences.len() {
        for j in i + 1..sequences.len() {
            assert_ne!(
                sequences[i].1, sequences[j].1,
                "{} and {} selected identically",
                sequences[i].0, sequences[j].0
            );
        }
    }
}

/// Property: `CongestionAware` load accounting is a ledger — after the
/// workload completes, the live view holds exactly one count per relay
/// participation of the surviving incarnations; after tearing every
/// circuit down, every counter returns to zero. Random star and churn
/// configurations throughout.
#[test]
fn congestion_load_accounting_returns_to_zero_after_full_churn_teardown() {
    let mut rng = SimRng::seed_from(0x10AD);
    for case in 0..6 {
        let circuits = rng.range_usize(2, 5);
        let relays_per_circuit = rng.range_usize(1, 4);
        let scenario = StarScenario {
            circuits,
            relays_per_circuit,
            file_bytes: rng.range_u64(30_000, 90_000),
            directory: DirectoryConfig {
                relays: rng.range_usize(relays_per_circuit.max(3), 9),
                bandwidth_mbps: (15.0, 70.0),
                delay_ms: (2.0, 8.0),
            },
            workload: WorkloadSpec {
                streams_per_circuit: rng.range_usize(1, 4),
                arrival: ArrivalSpec::UniformJitter {
                    max_ms: rng.range_f64(1.0, 25.0),
                },
                churn: Some(ChurnSpec {
                    teardown_after_ms: (rng.range_f64(10.0, 30.0), rng.range_f64(30.0, 80.0)),
                    rebuild_delay_ms: rng.range_f64(0.0, 8.0),
                    cycles: rng.range_usize(1, 3) as u32,
                }),
            },
            selection: Arc::new(CongestionAware),
            ..Default::default()
        };
        let (mut sim, _) = scenario.build(
            Algorithm::CircuitStart.factory(CcConfig::default()),
            1000 + case,
        );
        run_to_completion(&mut sim);
        {
            let world = sim.world();
            assert_eq!(world.stats().protocol_errors, 0, "case {case}");
            assert!(world.stats().rebuilds >= 1, "case {case}: churn must churn");
            let loads = world.relay_loads().expect("placement installed");
            // Only the surviving (final) incarnations are live: one per
            // original circuit, each crossing `relays_per_circuit`
            // distinct relays.
            assert_eq!(
                loads.iter().map(|&l| u64::from(l)).sum::<u64>(),
                (circuits * relays_per_circuit) as u64,
                "case {case}: live view must hold exactly the surviving incarnations"
            );
        }
        // Tear everything down (stale ids no-op); the ledger must zero.
        // (`run_to_completion` parked the clock at its horizon, so drive
        // the teardown wave with an unlimited run.)
        for c in 0..sim.world().circuit_count() {
            sim.schedule_in(
                SimDuration::from_millis(1),
                TorEvent::Teardown(CircId(c as u32)),
            );
        }
        let report = sim.run();
        assert_eq!(
            report.reason,
            simcore::sim::StopReason::QueueEmpty,
            "case {case}"
        );
        let world = sim.world();
        assert_eq!(world.stats().protocol_errors, 0, "case {case}");
        let loads = world.relay_loads().expect("placement installed");
        assert!(
            loads.iter().all(|&l| l == 0),
            "case {case}: teardown must return every load counter to zero, got {loads:?}"
        );
    }
}

/// Live-load snapshots actually move: a congestion-aware run must at
/// some point have selected under non-zero load (the rebuilds), which
/// shows up as rebuilt paths that differ from their first incarnation.
#[test]
fn churn_rebuilds_reselect_through_the_policy() {
    let scenario = StarScenario {
        circuits: 4,
        relays_per_circuit: 3,
        file_bytes: 120_000,
        directory: DirectoryConfig {
            relays: 12,
            bandwidth_mbps: (15.0, 70.0),
            delay_ms: (2.0, 8.0),
        },
        workload: WorkloadSpec {
            streams_per_circuit: 2,
            arrival: ArrivalSpec::Immediate,
            churn: Some(ChurnSpec {
                teardown_after_ms: (20.0, 40.0),
                rebuild_delay_ms: 3.0,
                cycles: 2,
            }),
        },
        selection: Arc::new(CongestionAware),
        ..Default::default()
    };
    let (mut sim, originals) =
        scenario.build(Algorithm::CircuitStart.factory(CcConfig::default()), 6);
    run_to_completion(&mut sim);
    let world = sim.world();
    assert!(
        world.stats().rebuilds >= 4,
        "both cycles × several circuits"
    );
    assert!(world.circuit_count() > originals.len());
    // Endpoints survive re-selection; at least one rebuilt incarnation
    // picked a different relay set than the first incarnation did.
    let mut any_reselected = false;
    for c in originals.len()..world.circuit_count() {
        let info = world.circuit_info(CircId(c as u32));
        assert_eq!(info.path.len(), 5, "client + 3 relays + server");
    }
    for &orig in &originals {
        let orig_path = world.circuit_info(orig).path.clone();
        for c in originals.len()..world.circuit_count() {
            let info = world.circuit_info(CircId(c as u32));
            if info.path[0] == orig_path[0] {
                // Same client ⇒ same flow chain.
                assert_eq!(
                    info.path.last(),
                    orig_path.last(),
                    "server endpoint must survive re-selection"
                );
                if info.path[1..info.path.len() - 1] != orig_path[1..orig_path.len() - 1] {
                    any_reselected = true;
                }
            }
        }
    }
    assert!(
        any_reselected,
        "with 12 relays and 8+ rebuilds some incarnation must re-route"
    );
}

/// `DirectoryView` exposes exactly what the network accounts: after a
/// plain (churn-free) build, every circuit is visible in the loads and
/// the per-relay counts match the built paths.
#[test]
fn load_view_matches_built_paths() {
    let scenario = StarScenario {
        circuits: 6,
        file_bytes: 20_000,
        directory: DirectoryConfig {
            relays: 9,
            bandwidth_mbps: (15.0, 70.0),
            delay_ms: (2.0, 8.0),
        },
        selection: Arc::new(LatencyAware),
        ..Default::default()
    };
    let (sim, circuits) = scenario.build(Algorithm::CircuitStart.factory(CcConfig::default()), 12);
    let world = sim.world();
    let loads = world.relay_loads().expect("placement installed");
    let mut expect = vec![0u32; 9];
    for &c in &circuits {
        let p = &world.circuit_info(c).path;
        for o in &p[1..p.len() - 1] {
            expect[o.index()] += 1;
        }
    }
    assert_eq!(loads, expect.as_slice());
}
