//! The star build, pinned to the bit. Speeding up `StarScenario::build`
//! must not move a single draw, id or name: these digests cover what the
//! build hands the run (the directory's columns, every leaf's access
//! parameters, every node's name, the initial paths) and what the run
//! makes of it (the post-run `WorldFingerprint`). They were recorded
//! before the build's per-relay work was cut down (DESIGN.md §11, "What
//! a build pays per relay"), for csbench's `consensus7k_epochs`
//! shape at seeds 1–4 and its `star50_churn` shape at seed 1; a change
//! that moves one on purpose moves simulated behaviour and says so.

use std::sync::Arc;

use backtap::config::CcConfig;
use circuitstart::Algorithm;
use relaynet::runtime::fingerprint;
use relaynet::selection::CongestionAware;
use relaynet::workload::{ArrivalSpec, ChurnSpec, EpochSpec, WorkloadSpec};
use relaynet::{CircId, Directory, DirectoryConfig, StarScenario};
use simcore::rng::SimRng;
use simcore::sim::StopReason;

/// FNV-1a, 64-bit, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// `consensus7k_epochs`: 7000 relays, 64 circuits, congestion-aware
/// selection, four consensus epochs.
fn consensus7k() -> StarScenario {
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
            interval_ms: 45.0,
            epochs: 4,
            churn: 70,
            standby_fraction: 0.1,
        }),
        selection: Arc::new(CongestionAware),
        ..Default::default()
    }
}

/// `star50_churn`: 50 circuits over 100 relays, three on/off streams per
/// circuit, two teardown/rebuild cycles.
fn star50_churn() -> StarScenario {
    StarScenario {
        circuits: 50,
        file_bytes: 256 * 1024,
        directory: DirectoryConfig {
            relays: 100,
            bandwidth_mbps: (30.0, 90.0),
            delay_ms: (2.0, 6.0),
        },
        workload: WorkloadSpec {
            streams_per_circuit: 3,
            arrival: ArrivalSpec::OnOff {
                burst: 2,
                gap_ms: (10.0, 50.0),
            },
            churn: Some(ChurnSpec {
                teardown_after_ms: (40.0, 100.0),
                rebuild_delay_ms: 10.0,
                cycles: 2,
            }),
        },
        ..Default::default()
    }
}

/// `(build digest, post-run fingerprint digest)` of `scenario` at `seed`.
fn digests(scenario: &StarScenario, seed: u64) -> (u64, u64) {
    let mut h = Fnv::new();
    let directory = Directory::generate(
        &scenario.directory,
        &SimRng::seed_from(seed).derive("directory"),
    );
    for &bps in directory.bandwidths_bps() {
        h.u64(bps);
    }
    for d in directory.delays() {
        h.u64(d.as_nanos());
    }

    let (mut sim, circuits) =
        scenario.build(Algorithm::CircuitStart.factory(CcConfig::default()), seed);
    let world = sim.world();
    let star = world.star().expect("a star world");
    for i in 0..star.leaf_count() {
        let access = star.access(i);
        if let Some(spec) = (i < directory.len()).then(|| directory.spec(i)) {
            assert_eq!(access.rate, spec.bandwidth, "relay leaf {i}");
            assert_eq!(access.delay, spec.delay, "relay leaf {i}");
        }
        h.u64(star.leaf(i).index() as u64);
        h.u64(access.rate.bps());
        h.u64(access.delay.as_nanos());
    }
    let net = world.net();
    assert_eq!(net.node_count(), 1 + star.leaf_count(), "hub and leaves");
    for n in std::iter::once(star.hub()).chain((0..star.leaf_count()).map(|i| star.leaf(i))) {
        let name = net.node_name(n);
        h.u64(name.len() as u64);
        h.bytes(name.as_bytes());
    }
    assert_eq!(circuits.len(), scenario.circuits);
    for (c, &circ) in circuits.iter().enumerate() {
        assert_eq!(circ, CircId(c as u32));
        for &o in &world.circuit_info(circ).path {
            h.u64(u64::from(o.0));
            h.u64(world.node(o).net_node.index() as u64);
        }
    }
    let build = h.0;

    let report = sim.run();
    assert_eq!(report.reason, StopReason::QueueEmpty);
    assert_eq!(sim.world().stats().protocol_errors, 0);
    let fp = fingerprint(sim.world(), report.events_processed);
    let mut h = Fnv::new();
    h.bytes(format!("{fp:?}").as_bytes());
    (build, h.0)
}

#[test]
fn consensus7k_epochs_builds_and_runs_as_recorded() {
    let golden: [(u64, u64, u64); 4] = [
        (1, 0xb1ab_5045_bf26_aa4e, 0x3630_49f4_0751_72b4),
        (2, 0x298a_b52d_793f_130a, 0x98be_ec1b_7b2e_3b6b),
        (3, 0x6324_30e8_cfd8_57d6, 0xf3fb_ea8c_74e4_5359),
        (4, 0xf6a3_98b2_dd6d_4c3e, 0x7a20_d985_5599_8f89),
    ];
    let scenario = consensus7k();
    let got: Vec<(u64, u64, u64)> = golden
        .iter()
        .map(|&(seed, _, _)| {
            let (build, run) = digests(&scenario, seed);
            eprintln!("consensus7k_epochs seed {seed}: {build:#018x}, {run:#018x}");
            (seed, build, run)
        })
        .collect();
    assert_eq!(got, golden);
}

#[test]
fn star50_churn_builds_and_runs_as_recorded() {
    let got = digests(&star50_churn(), 1);
    eprintln!("star50_churn seed 1: {:#018x}, {:#018x}", got.0, got.1);
    assert_eq!(got, (0xd992_1453_9d89_3e86, 0xf437_14f1_c00b_dd99));
}
