//! The five workloads: scenario generation from the seed, the closed
//! build → run → collect → drop loop, and the validity checks.
//!
//! The benchmark draws everything it needs from `--seed` here and hands
//! the program under test only built scenario values plus a world seed.

use std::time::Instant;

use backtap::config::CcConfig;
use circuitstart::Algorithm;
use netsim::bandwidth::Bandwidth;
use netsim::link::LinkConfig;
use relaynet::runtime::{fingerprint, WorldFingerprint};
use relaynet::selection::CongestionAware;
use relaynet::workload::{ArrivalSpec, ChurnSpec, EpochSpec, FaultSpec, WorkloadSpec};
use relaynet::{
    CircId, DirectoryConfig, PathHandles, PathScenario, StarScenario, TorNetwork, WorldStats,
};
use simcore::sim::{Simulator, StopReason};
use simcore::time::SimDuration;

use crate::stats::{fnv1a64, SplitMix64};

/// How much work one batch holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// `--quick`: about an eighth of the work, same assertions.
    Quick,
    /// Small enough for an unoptimised `cargo test` build; only the unit
    /// tests construct it.
    #[cfg_attr(not(test), allow(dead_code))]
    Test,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Path3Bulk,
    Path3Short,
    Star50Churn,
    Star16Faults,
    Consensus7kEpochs,
}

pub const ALL_WORKLOADS: [Workload; 5] = [
    Workload::Path3Bulk,
    Workload::Path3Short,
    Workload::Star50Churn,
    Workload::Star16Faults,
    Workload::Consensus7kEpochs,
];

/// A scenario ready to be built — the only thing the program under test
/// is given.
#[derive(Clone, Debug)]
pub enum Scenario {
    Path(PathScenario),
    Star(StarScenario),
}

/// A built world plus what the tracer needs to classify links.
pub struct Built {
    pub sim: Simulator<TorNetwork>,
    pub circuits: Vec<CircId>,
    /// Present for path worlds: forward/reverse link ids.
    pub path: Option<PathHandles>,
}

impl Scenario {
    pub fn build_with(&self, algorithm: Algorithm, world_seed: u64) -> Built {
        let factory = algorithm.factory(CcConfig::default());
        match self {
            Scenario::Path(s) => {
                let (sim, h) = s.build(factory, world_seed);
                Built {
                    sim,
                    circuits: vec![h.circ],
                    path: Some(h),
                }
            }
            Scenario::Star(s) => {
                let (sim, circuits) = s.build(factory, world_seed);
                Built {
                    sim,
                    circuits,
                    path: None,
                }
            }
        }
    }

    /// Every workload measures CircuitStart with `CcConfig::default()`.
    pub fn build(&self, world_seed: u64) -> Built {
        self.build_with(Algorithm::CircuitStart, world_seed)
    }

    /// Per-hop link parameters of a path scenario.
    #[cfg(test)]
    pub fn hops(&self) -> Option<&[LinkConfig]> {
        match self {
            Scenario::Path(s) => Some(&s.hops),
            Scenario::Star(_) => None,
        }
    }
}

/// Path geometry: 3 relays, 4 × (100 Mbit/s, 2 ms), each rate and delay
/// drawn within ±2% of nominal from the world seed so that no two seeds
/// simulate the identical transfer.
fn path3(file_bytes: u64, world_seed: u64) -> Scenario {
    let mut rng = SplitMix64(world_seed ^ 0x7061_7468_3367_656f);
    let hops = (0..4)
        .map(|_| {
            let rate = 100e6 * (1.0 + 0.02 * rng.next_signed_unit());
            let delay_s = 2e-3 * (1.0 + 0.02 * rng.next_signed_unit());
            LinkConfig::new(
                Bandwidth::from_bps(rate as u64),
                SimDuration::from_secs_f64(delay_s),
            )
        })
        .collect();
    Scenario::Path(PathScenario {
        hops,
        file_bytes,
        ..Default::default()
    })
}

/// Three on/off streams per circuit and two teardown/rebuild cycles.
/// The first teardown lands 40–100 ms after the circuit starts, while
/// it is still telescoping: at the parent commit a teardown that hits
/// an *established* circuit mid-transfer can strand its flows (the
/// client never proves quiescence, so no rebuild is scheduled — see
/// README "Findings"), and a benchmark workload must not fail.
fn churn_workload() -> WorkloadSpec {
    WorkloadSpec {
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
    }
}

fn churn_star(circuits: usize, relays: usize, file_bytes: u64) -> StarScenario {
    StarScenario {
        circuits,
        file_bytes,
        directory: DirectoryConfig {
            relays,
            bandwidth_mbps: (30.0, 90.0),
            delay_ms: (2.0, 6.0),
        },
        workload: churn_workload(),
        ..Default::default()
    }
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Path3Bulk => "path3_bulk",
            Workload::Path3Short => "path3_short",
            Workload::Star50Churn => "star50_churn",
            Workload::Star16Faults => "star16_faults",
            Workload::Consensus7kEpochs => "consensus7k_epochs",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL_WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Worlds built, run and dropped one after another in one batch.
    pub fn worlds_per_batch(self, scale: Scale) -> usize {
        match (self, scale) {
            (Workload::Path3Short, Scale::Full) => 60,
            (Workload::Path3Short, Scale::Quick) => 8,
            (Workload::Path3Short, Scale::Test) => 2,
            (Workload::Star16Faults | Workload::Consensus7kEpochs, Scale::Full) => 4,
            _ => 1,
        }
    }

    /// `*Scenario::build` calls per bracketed set-up chunk, sized so a
    /// chunk lasts about as long as a reference pass.
    pub fn setup_chunk(self, scale: Scale) -> usize {
        let full = match self {
            Workload::Path3Bulk | Workload::Path3Short => 4000,
            Workload::Star50Churn => 150,
            Workload::Star16Faults => 500,
            Workload::Consensus7kEpochs => 6,
        };
        match scale {
            Scale::Full => full,
            Scale::Quick => (full / 8).max(1),
            Scale::Test => (full / 400).max(1),
        }
    }

    /// The scenario of the world with seed `world_seed`.
    pub fn scenario(self, scale: Scale, world_seed: u64) -> Scenario {
        const KIB: u64 = 1024;
        match self {
            Workload::Path3Bulk => {
                let bytes = match scale {
                    Scale::Full => 32 * KIB * KIB,
                    Scale::Quick => 4 * KIB * KIB,
                    Scale::Test => 256 * KIB,
                };
                path3(bytes, world_seed)
            }
            Workload::Path3Short => {
                let bytes = match scale {
                    Scale::Test => 64 * KIB,
                    _ => 512 * KIB,
                };
                path3(bytes, world_seed)
            }
            Workload::Star50Churn => Scenario::Star(match scale {
                Scale::Full => churn_star(50, 100, 256 * KIB),
                Scale::Quick => churn_star(12, 24, 128 * KIB),
                Scale::Test => churn_star(4, 8, 64 * KIB),
            }),
            Workload::Star16Faults => {
                let (circuits, relays, bytes) = match scale {
                    Scale::Full => (16, 32, 256 * KIB),
                    Scale::Quick => (16, 32, 128 * KIB),
                    Scale::Test => (6, 16, 64 * KIB),
                };
                Scenario::Star(StarScenario {
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
                    // Crashes only, no churn cycles: a churn teardown that
                    // races a crash strands flows too.
                    workload: WorkloadSpec {
                        churn: None,
                        ..churn_workload()
                    },
                    ..churn_star(circuits, relays, bytes)
                })
            }
            Workload::Consensus7kEpochs => {
                let (relays, circuits) = match scale {
                    Scale::Full => (7000, 64),
                    Scale::Quick => (7000, 32),
                    Scale::Test => (700, 8),
                };
                Scenario::Star(StarScenario {
                    circuits,
                    relays_per_circuit: 3,
                    file_bytes: 60_000,
                    directory: DirectoryConfig {
                        relays,
                        bandwidth_mbps: (15.0, 100.0),
                        delay_ms: (2.0, 12.0),
                    },
                    workload: WorkloadSpec {
                        streams_per_circuit: 2,
                        arrival: ArrivalSpec::UniformJitter { max_ms: 30.0 },
                        churn: None,
                    },
                    // Epochs at 45, 90, 135 and 180 ms: inside the build
                    // phase, for the reason given on `churn_workload`.
                    epochs: Some(EpochSpec {
                        interval_ms: 45.0,
                        epochs: 4,
                        churn: relays / 100,
                        standby_fraction: 0.1,
                    }),
                    selection: std::sync::Arc::new(CongestionAware),
                    ..Default::default()
                })
            }
        }
    }

    /// The per-workload sanity guard: the mechanism the workload exists
    /// to exercise actually fired in this world.
    fn guard(self, stats: &WorldStats) -> Result<(), String> {
        match self {
            Workload::Path3Bulk | Workload::Path3Short => Ok(()),
            Workload::Star50Churn if stats.rebuilds == 0 => {
                Err("churn never rebuilt a circuit".to_string())
            }
            Workload::Star16Faults if stats.crashes_injected == 0 => {
                Err("fault schedule injected no crash".to_string())
            }
            Workload::Consensus7kEpochs if stats.epochs_applied != 4 => Err(format!(
                "{} of 4 consensus epochs applied",
                stats.epochs_applied
            )),
            _ => Ok(()),
        }
    }
}

/// World `k` of a run seeded `seed`. Hashed rather than `seed + k` so
/// that runs with neighbouring seeds share no world.
pub fn world_seed(seed: u64, k: u64) -> u64 {
    SplitMix64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .next_u64()
}

/// Whether each flow failed: not `complete()` at quiescence (parked
/// flows are exactly that) or carried by a circuit whose server saw
/// payload errors. `complete[i]` is flow `i`'s state; each entry of
/// `circuits` lists a circuit incarnation's flows and its payload-error
/// count.
pub fn failed_flows(complete: &[bool], circuits: &[(Vec<usize>, u64)]) -> usize {
    let mut failed: Vec<bool> = complete.iter().map(|&c| !c).collect();
    for (flows, payload_errors) in circuits {
        if *payload_errors > 0 {
            for &f in flows {
                failed[f] = true;
            }
        }
    }
    failed.iter().filter(|&&f| f).count()
}

/// What one world contributed, read after `sim.run()` returned.
#[derive(Clone, Debug, Default)]
pub struct WorldOutcome {
    pub cells: u64,
    pub events: u64,
    pub flows: u64,
    pub failed: u64,
    /// `FlowState::completion_time` of every completed flow, simulated ns.
    pub ttlb_ns: Vec<u64>,
    pub stats: WorldStats,
}

/// Host seconds of one world's four phases.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseSeconds {
    pub build: f64,
    pub run: f64,
    pub collect: f64,
    pub drop: f64,
}

/// Reads a quiesced world and checks everything that makes a run
/// invalid (as opposed to a counted failed operation).
pub fn collect(
    workload: Workload,
    built: &Built,
    reason: StopReason,
    events: u64,
) -> Result<WorldOutcome, String> {
    let world = built.sim.world();
    let stats = *world.stats();
    if reason != StopReason::QueueEmpty {
        return Err(format!("world did not quiesce: {reason:?}"));
    }
    if stats.protocol_errors > 0 {
        return Err(format!("{} protocol errors", stats.protocol_errors));
    }
    if !world.verify_placement_ledger() {
        return Err("placement ledger out of sync with live circuits".to_string());
    }
    workload.guard(&stats)?;
    let flows = world.flows();
    let complete: Vec<bool> = flows.iter().map(|f| f.complete()).collect();
    let circuits: Vec<(Vec<usize>, u64)> = world
        .results()
        .iter()
        .map(|r| {
            let info = world.circuit_info(r.circ);
            let on_it = info
                .workload
                .streams
                .iter()
                .map(|s| s.flow.index())
                .collect();
            (on_it, r.payload_errors)
        })
        .collect();
    Ok(WorldOutcome {
        cells: flows.iter().map(|f| f.cells_delivered).sum(),
        events,
        flows: flows.len() as u64,
        failed: failed_flows(&complete, &circuits) as u64,
        ttlb_ns: flows
            .iter()
            .filter_map(|f| f.completion_time())
            .map(|d| d.as_nanos())
            .collect(),
        stats,
    })
}

/// One closed iteration: build → run to quiescence → collect → drop,
/// each phase timed from outside. `before_run` may install a probe on
/// the built simulator; what it returns comes back to `after_run` with
/// the quiesced world and the instant `sim.run()` returned, before the
/// world is dropped.
pub fn run_world<T>(
    workload: Workload,
    scenario: &Scenario,
    seed: u64,
    before_run: impl FnOnce(&mut Built) -> T,
    after_run: impl FnOnce(&Built, T, Instant),
) -> Result<(WorldOutcome, PhaseSeconds), String> {
    let t0 = Instant::now();
    let mut built = scenario.build(seed);
    let t1 = Instant::now();
    let token = before_run(&mut built);
    let t2 = Instant::now();
    let report = built.sim.run();
    let t3 = Instant::now();
    let outcome = collect(workload, &built, report.reason, report.events_processed);
    let t4 = Instant::now();
    after_run(&built, token, t3);
    let t5 = Instant::now();
    drop(built);
    let t6 = Instant::now();
    let phases = PhaseSeconds {
        build: (t1 - t0).as_secs_f64(),
        run: (t3 - t2).as_secs_f64(),
        collect: (t4 - t3).as_secs_f64(),
        drop: (t6 - t5).as_secs_f64(),
    };
    outcome
        .map(|o| (o, phases))
        .map_err(|e| format!("{} world seed {seed}: {e}", workload.name()))
}

/// Runs a world to quiescence and fingerprints it.
pub fn fingerprint_world(
    workload: Workload,
    scenario: &Scenario,
    seed: u64,
) -> Result<WorldFingerprint, String> {
    let mut built = scenario.build(seed);
    let report = built.sim.run();
    collect(workload, &built, report.reason, report.events_processed)?;
    Ok(fingerprint(built.sim.world(), report.events_processed))
}

/// FNV digest of a fingerprint's `Debug` rendering: every field of
/// every flow, slab, pool and counter feeds it, so any change in
/// simulated behaviour changes the digest (and so does adding a field
/// to `WorldFingerprint`, which is a change of definition to re-record).
pub fn digest(fp: &WorldFingerprint) -> u64 {
    fnv1a64(format!("{fp:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_share_counts_incomplete_and_corrupted_flows() {
        // Flows 0..6 over three circuit incarnations; flow 5 is on none
        // (never attached — e.g. parked before its first build).
        let complete = [true, true, false, true, true, false];
        let circuits = vec![
            (vec![0, 1], 0), // clean
            (vec![2, 3], 0), // flow 2 incomplete (parked)
            (vec![3, 4], 7), // payload errors taint complete flows 3 and 4
            (Vec::new(), 1), // errors on an empty incarnation taint nothing
        ];
        assert_eq!(failed_flows(&complete, &circuits), 4); // 2, 3, 4, 5
        assert_eq!(failed_flows(&[true, true], &[(vec![0, 1], 0)]), 0);
        assert_eq!(failed_flows(&[], &[]), 0);
    }

    #[test]
    fn world_seeds_differ_across_seeds_and_worlds() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 1..=20 {
            for k in 0..40 {
                assert!(seen.insert(world_seed(seed, k)), "collision at {seed}/{k}");
            }
        }
        assert_eq!(world_seed(3, 9), world_seed(3, 9));
    }

    #[test]
    fn names_round_trip() {
        for w in ALL_WORKLOADS {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn path_geometry_is_jittered_within_two_percent() {
        let a = Workload::Path3Bulk.scenario(Scale::Test, 1);
        let b = Workload::Path3Bulk.scenario(Scale::Test, 2);
        let (ha, hb) = (a.hops().expect("path"), b.hops().expect("path"));
        assert_eq!(ha.len(), 4);
        assert!(ha.iter().zip(hb).any(|(x, y)| x.rate != y.rate));
        for h in ha.iter().chain(hb) {
            let mbps = h.rate.as_mbps_f64();
            assert!((98.0..=102.0).contains(&mbps), "{mbps}");
            let ms = h.delay.as_millis_f64();
            assert!((1.96..=2.04).contains(&ms), "{ms}");
        }
    }
}
