//! Workload-engine property tests: byte conservation and slot
//! reclamation under randomly drawn stream counts, arrival offsets, and
//! churn points — in the style of `proptest_system.rs` (SimRng-driven
//! loops with fixed master seeds: proptest-style coverage with
//! bit-for-bit reproducibility and no external dependencies).
//!
//! Churn is the first workload that reclaims and reuses circuit-id
//! slots, route-table slots, and pooled payload buffers mid-run, so
//! these properties are what make the rest of the suite trustworthy:
//! if a teardown leaked a slot or a byte, arbitrary later state would
//! silently alias it.

use circuitstart::prelude::*;
use netsim::bandwidth::Bandwidth;
use netsim::link::LinkConfig;
use relaynet::workload::{ArrivalSpec, ChurnSpec, WorkloadSpec};
use relaynet::PathScenario;
use simcore::rng::SimRng;
use simcore::time::SimDuration;

/// Arbitrary small path geometry: 1–3 relays, 8–60 Mbit/s links,
/// 1–10 ms delays.
fn arb_hops(rng: &mut SimRng) -> Vec<LinkConfig> {
    let n = rng.range_usize(2, 5);
    (0..n)
        .map(|_| {
            let mbps = rng.range_u64(8, 61);
            let ms = rng.range_u64(1, 11);
            LinkConfig::new(Bandwidth::from_mbps(mbps), SimDuration::from_millis(ms))
        })
        .collect()
}

/// Arbitrary workload: 1–4 streams, any arrival process, and (when
/// `churn` is set) 1–3 teardown/rebuild cycles placed early enough to
/// race in-flight DATA.
fn arb_workload(rng: &mut SimRng, churn: bool) -> WorkloadSpec {
    let arrival = match rng.range_usize(0, 3) {
        0 => ArrivalSpec::Immediate,
        1 => ArrivalSpec::UniformJitter {
            max_ms: rng.range_f64(1.0, 60.0),
        },
        _ => ArrivalSpec::OnOff {
            burst: rng.range_usize(1, 3),
            gap_ms: (5.0, rng.range_f64(6.0, 50.0)),
        },
    };
    WorkloadSpec {
        streams_per_circuit: rng.range_usize(1, 5),
        arrival,
        churn: churn.then(|| ChurnSpec {
            teardown_after_ms: (rng.range_f64(10.0, 40.0), rng.range_f64(40.0, 120.0)),
            rebuild_delay_ms: rng.range_f64(0.0, 10.0),
            cycles: rng.range_usize(1, 4) as u32,
        }),
    }
}

fn build_and_run(
    hops: Vec<LinkConfig>,
    file_bytes: u64,
    workload: WorkloadSpec,
    seed: u64,
) -> simcore::sim::Simulator<relaynet::TorNetwork> {
    let scenario = PathScenario {
        hops,
        file_bytes,
        workload,
        faults: None,
    };
    let (mut sim, _) = scenario.build(Algorithm::CircuitStart.factory(CcConfig::default()), seed);
    run_to_completion(&mut sim);
    sim
}

/// Bytes are conserved under any workload: the sum of per-stream
/// delivered bytes equals the sum requested — streams never lose bytes
/// to a teardown (the rebuilt circuit re-attaches the remainder) and
/// never duplicate them (re-sends start exactly at the delivered
/// prefix).
#[test]
fn no_byte_lost_or_duplicated_under_random_workloads() {
    let mut gen = SimRng::seed_from(0x5EED_0010);
    for case in 0..20 {
        let hops = arb_hops(&mut gen);
        let churn = case % 2 == 0;
        let workload = arb_workload(&mut gen, churn);
        let file = gen.range_u64(20, 121) * 1000;
        let seed = gen.u64();
        let sim = build_and_run(hops, file, workload, seed);
        let world = sim.world();
        assert_eq!(world.stats().protocol_errors, 0, "case {case}");
        let mut requested = 0;
        let mut delivered = 0;
        for f in world.flows() {
            assert!(f.complete(), "case {case}: stranded flow {f:?}");
            assert!(f.delivered <= f.requested, "case {case}: duplicated bytes");
            requested += f.requested;
            delivered += f.delivered;
        }
        assert_eq!(requested, file, "case {case}: workload covers the file");
        assert_eq!(delivered, requested, "case {case}: conservation");
    }
}

/// Every torn-down circuit's slots are reclaimed: after quiescence only
/// the final incarnations hold slab slots, the reclaimed-slot count
/// matches the teardown count exactly, and pooled payload buffers all
/// found their way home.
#[test]
fn teardown_reclaims_every_slot_and_buffer() {
    let mut gen = SimRng::seed_from(0x5EED_0011);
    for case in 0..12 {
        let hops = arb_hops(&mut gen);
        let path_nodes = hops.len() + 1;
        let workload = arb_workload(&mut gen, true);
        let file = gen.range_u64(30, 101) * 1000;
        let seed = gen.u64();
        let sim = build_and_run(hops, file, workload, seed);
        let world = sim.world();
        assert!(world.stats().rebuilds >= 1, "case {case}: churn must fire");
        // A circuit is live iff its client still holds a participation;
        // torn-down incarnations must be gone from *every* node on the
        // path — a partially reclaimed teardown (say, a relay stuck with
        // a dead slot) is exactly the leak this test exists to catch.
        let mut live = 0usize;
        for c in 0..world.circuit_count() {
            let circ = relaynet::CircId(c as u32);
            let path = world.circuit_info(circ).path.clone();
            if world.node(path[0]).circuit(circ).is_some() {
                live += 1;
                continue;
            }
            for &n in &path {
                assert!(
                    world.node(n).circuit(circ).is_none(),
                    "case {case}: node {n} still holds torn-down {circ}"
                );
            }
        }
        let torn = world.circuit_count() - live;
        assert!(torn >= 1, "case {case}: at least one incarnation was torn");
        // Slot accounting is consistent at every node: the slab holds
        // exactly the participations the global-id map names.
        for n in 0..path_nodes {
            let node = world.node(relaynet::OverlayId(n as u32));
            assert_eq!(
                node.slots().held,
                node.circuit_count(),
                "case {case}: node {n} slab books do not balance"
            );
            assert_eq!(
                node.circuit_count(),
                live,
                "case {case}: node {n} keeps only the live incarnations"
            );
        }
        // Post-build teardowns send exactly one DESTROY per hop per wave;
        // mid-build teardowns reach only the built prefix, so the total
        // is bounded by the full-path count.
        assert!(
            world.stats().destroys_sent >= 2
                && world.stats().destroys_sent <= torn as u64 * 2 * (path_nodes as u64 - 1),
            "case {case}: destroy count {} outside [2, {}]",
            world.stats().destroys_sent,
            torn as u64 * 2 * (path_nodes as u64 - 1)
        );
        // Every pooled payload buffer handed out was handed back —
        // through delivery, closed-circuit drops, or teardown drains.
        let pool = world.payload_pool();
        assert_eq!(
            pool.returned(),
            pool.acquired(),
            "case {case}: payload buffers leaked in flight"
        );
    }
}

/// Slab sizes are a function of peak concurrency, not of churn volume:
/// doubling the number of teardown/rebuild cycles leaves the node
/// slabs and the link-route table exactly as large. This is the
/// "no slab growth across rebuild cycles" invariant — rebuilds recycle
/// reclaimed slots instead of appending.
#[test]
fn slab_sizes_flat_across_extra_rebuild_cycles() {
    let mut gen = SimRng::seed_from(0x5EED_0012);
    for case in 0..6 {
        let hops = arb_hops(&mut gen);
        let path_nodes = hops.len() + 1;
        let streams = gen.range_usize(1, 4);
        let file = gen.range_u64(40, 101) * 1000;
        let seed = gen.u64();
        let measure = |cycles: u32| {
            let workload = WorkloadSpec {
                streams_per_circuit: streams,
                arrival: ArrivalSpec::Immediate,
                churn: Some(ChurnSpec {
                    teardown_after_ms: (15.0, 45.0),
                    rebuild_delay_ms: 3.0,
                    cycles,
                }),
            };
            let sim = build_and_run(hops.clone(), file, workload, seed);
            let world = sim.world();
            let slabs: Vec<usize> = (0..path_nodes)
                .map(|n| world.node(relaynet::OverlayId(n as u32)).slots().high_water)
                .collect();
            (
                slabs,
                world.link_routes().high_water,
                world.stats().rebuilds,
            )
        };
        let (slabs_short, routes_short, rebuilds_short) = measure(2);
        let (slabs_long, routes_long, rebuilds_long) = measure(4);
        assert!(
            rebuilds_long > rebuilds_short,
            "case {case}: the longer run must churn more ({rebuilds_short} vs {rebuilds_long})"
        );
        assert_eq!(
            slabs_short, slabs_long,
            "case {case}: extra churn cycles grew a node slab"
        );
        assert_eq!(
            routes_short, routes_long,
            "case {case}: extra churn cycles grew the route table"
        );
    }
}

/// Determinism as a property, now under churn: replaying any workload
/// configuration with the same seed reproduces identical per-flow
/// completion times and identical reclamation counters.
#[test]
fn workload_determinism_over_random_configs() {
    let mut gen = SimRng::seed_from(0x5EED_0013);
    for case in 0..8 {
        let hops = arb_hops(&mut gen);
        let workload = arb_workload(&mut gen, case % 2 == 0);
        let file = gen.range_u64(20, 81) * 1000;
        let seed = gen.u64();
        let fingerprint = |sim: &simcore::sim::Simulator<relaynet::TorNetwork>| {
            let world = sim.world();
            (
                world
                    .flows()
                    .iter()
                    .map(|f| (f.delivered, f.completed_at))
                    .collect::<Vec<_>>(),
                world.stats().slots_reclaimed,
                world.stats().rebuilds,
                sim.events_processed(),
            )
        };
        let a = build_and_run(hops.clone(), file, workload, seed);
        let b = build_and_run(hops, file, workload, seed);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "case {case}: same seed must replay identically"
        );
    }
}
