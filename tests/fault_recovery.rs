//! Fault injection and client-side recovery, end to end: relays crash
//! silently mid-transfer, clients detect the stall through build and
//! liveness timers, blame the dead hop, exclude it from selection, and
//! rebuild under exponential backoff — while every conservation law of
//! DESIGN.md §11/§12 keeps holding. The properties under test:
//!
//! * no panic and no lost or duplicated flow bytes under any fault
//!   schedule — survivors complete at exactly their requested size;
//! * full reclamation after quiescence: every pooled payload buffer
//!   back at rest, the placement ledger equal to the surviving
//!   accounted incarnations, slot slabs drained;
//! * determinism — fault schedules are bit-identical across event-queue
//!   implementations, sampler implementations, and the threaded runtime
//!   (3 seeds × 4 policies vs the single-threaded oracle);
//! * a zero-fault configuration is bit-identical to the pre-fault
//!   build, pinned by absolute event counts.
//!
//! Long matrix tests run under a watchdog (the async-runtime idiom): a
//! recovery bug that deadlocks the event loop must fail, not hang.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use netsim::bandwidth::Bandwidth;
use netsim::link::LinkConfig;
use relaynet::builder::{baseline_factory, fixed_window_factory};
use relaynet::runtime::{fingerprint, ShardedStar, StatsKind};
use relaynet::sampler::SamplerKind;
use relaynet::selection::{all_policies, CongestionAware};
use relaynet::workload::{ArrivalSpec, ChurnSpec, EpochSpec, FaultSpec, WorkloadSpec};
use relaynet::{DirectoryConfig, PathScenario, StarScenario, TorEvent, WorldStats};
use simcore::event::QueueKind;
use simcore::exec::{DeterministicExecutor, ThreadedExecutor};
use simcore::sim::StopReason;
use simcore::time::SimDuration;

/// Runs `f` on a helper thread under a deadline: a hung event loop (the
/// classic recovery failure mode) becomes a test failure instead of a
/// stuck suite.
fn with_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(120))
        .expect("fault-recovery run deadlocked")
}

/// A star with enough bytes in flight that the crash window lands
/// mid-transfer on several circuits, but with links fast enough that a
/// healthy circuit comfortably beats its timers — timeouts in these
/// runs mean genuine failures, not congestion false-positives.
fn faulty_star(spec: FaultSpec) -> StarScenario {
    StarScenario {
        circuits: 8,
        relays_per_circuit: 3,
        file_bytes: 150_000,
        directory: DirectoryConfig {
            relays: 16,
            bandwidth_mbps: (40.0, 100.0),
            delay_ms: (1.0, 3.0),
        },
        selection: Arc::new(CongestionAware),
        workload: WorkloadSpec {
            streams_per_circuit: 2,
            arrival: ArrivalSpec::UniformJitter { max_ms: 15.0 },
            churn: None,
        },
        faults: Some(spec),
        ..Default::default()
    }
}

/// Timers generous enough that no healthy circuit in these scenarios
/// ever trips them: detection latency is not under test here, and a
/// congestion false-positive would turn a recovery test into a noise
/// test.
fn lenient() -> FaultSpec {
    FaultSpec {
        build_timeout_ms: 300.0,
        liveness_timeout_ms: 600.0,
        ..Default::default()
    }
}

fn assert_quiescent(world: &relaynet::TorNetwork) {
    assert_eq!(world.stats().protocol_errors, 0);
    let pool = world.payload_pool();
    assert_eq!(pool.returned(), pool.acquired(), "buffers leaked in flight");
    assert_eq!(pool.idle(), pool.stats().0 as usize, "buffers not at rest");
}

/// The tentpole loop end to end: crashes are injected, timers fire,
/// the dead relays are blamed and excluded, circuits rebuild around
/// them, and every flow still completes at exactly its requested size.
#[test]
fn relay_crashes_recover_and_conserve_bytes() {
    with_watchdog(|| {
        let scenario = faulty_star(FaultSpec {
            crashes: 2,
            crash_window_ms: (40.0, 120.0),
            ..lenient()
        });
        let (mut sim, circuits) = scenario.build(baseline_factory(Default::default()), 31);
        let report = sim.run();
        assert_eq!(report.reason, StopReason::QueueEmpty);
        let world = sim.world();
        let stats = world.stats();
        assert_eq!(stats.crashes_injected, 2, "both crashes must land");
        assert!(stats.timeouts_fired > 0, "no client noticed the crash");
        assert!(stats.retries > 0, "no circuit retried");
        assert!(
            stats.blamed_exclusions >= 1,
            "a dead on-path relay must be blamed"
        );
        assert!(
            stats.crash_frames_dropped > 0,
            "a crashed relay must eat frames"
        );
        // Byte conservation across the crash: every flow completes
        // exactly once — dropped in-flight DATA is re-sent on the
        // rebuilt circuit, never duplicated.
        let total_requested = 150_000u64 * circuits.len() as u64;
        let mut delivered = 0u64;
        for f in world.flows() {
            assert!(f.complete(), "a crash stranded a flow");
            assert_eq!(f.delivered, f.requested, "over- or under-delivery");
            delivered += f.delivered;
        }
        assert_eq!(delivered, total_requested);
        assert_quiescent(world);
        assert!(world.verify_placement_ledger(), "ledger out of sync");
    });
}

/// A transient stall is survivable without scapegoats: the liveness
/// timer may abandon and rebuild, but with no dead hop on the path
/// nobody is excluded, and every byte still arrives.
#[test]
fn transient_stalls_recover_without_blame() {
    with_watchdog(|| {
        let scenario = faulty_star(FaultSpec {
            crashes: 0,
            stalls: 3,
            stall_window_ms: (30.0, 90.0),
            stall_duration_ms: 300.0,
            stall_factor: 200.0,
            ..lenient()
        });
        let (mut sim, _) = scenario.build(baseline_factory(Default::default()), 47);
        let report = sim.run();
        assert_eq!(report.reason, StopReason::QueueEmpty);
        let world = sim.world();
        let stats = world.stats();
        assert_eq!(stats.crashes_injected, 0);
        assert_eq!(
            stats.blamed_exclusions, 0,
            "a stall must never cost a live relay its directory spot"
        );
        assert!(world.flows().iter().all(|f| f.complete()));
        assert_quiescent(world);
        assert!(world.verify_placement_ledger());
    });
}

/// Fault schedules are part of the deterministic experiment: the same
/// seed produces bit-identical runs across event-queue and sampler
/// implementations.
#[test]
fn fault_runs_are_queue_and_sampler_invariant() {
    with_watchdog(|| {
        let spec = FaultSpec {
            crashes: 2,
            stalls: 1,
            ..lenient()
        };
        for seed in [11u64, 67] {
            let run = |queue: QueueKind, sampler: SamplerKind| {
                let scenario = StarScenario {
                    sampler,
                    ..faulty_star(spec)
                };
                let (mut sim, _) =
                    scenario.build_with_queue(baseline_factory(Default::default()), seed, queue);
                let report = sim.run();
                fingerprint(sim.world(), report.events_processed)
            };
            let base = run(QueueKind::Calendar, SamplerKind::Linear);
            assert!(base.stats.crashes_injected > 0, "seed {seed}: no faults");
            for (queue, sampler) in [
                (QueueKind::Calendar, SamplerKind::Fenwick),
                (QueueKind::BinaryHeap, SamplerKind::Linear),
                (QueueKind::BinaryHeap, SamplerKind::Fenwick),
            ] {
                assert_eq!(
                    base,
                    run(queue, sampler),
                    "seed {seed}: {queue:?}/{sampler:?} diverged under faults"
                );
            }
        }
    });
}

/// The threaded runtime must reproduce the oracle under fault schedules
/// too — crash drops and stale-route drops are counted, not protocol
/// errors, so the sharded runner's strictness survives.
#[test]
fn threaded_runtime_reproduces_oracle_under_faults() {
    with_watchdog(|| {
        for policy in all_policies() {
            for seed in [5u64, 41, 83] {
                let exp = ShardedStar {
                    scenario: StarScenario {
                        selection: policy.clone(),
                        ..faulty_star(FaultSpec {
                            crashes: 1,
                            ..lenient()
                        })
                    },
                    shards: 2,
                    seed,
                    queue: QueueKind::default(),
                    stats: StatsKind::default(),
                };
                let maker: relaynet::runtime::FactoryMaker =
                    Arc::new(|| baseline_factory(Default::default()));
                let oracle = exp.run(&DeterministicExecutor, maker.clone());
                let threaded = exp.run(&ThreadedExecutor::new(4), maker);
                assert_eq!(
                    oracle.shards,
                    threaded.shards,
                    "{} seed {seed}: threaded diverged from oracle under faults",
                    policy.name()
                );
                assert_eq!(oracle.stats, threaded.stats);
                assert_eq!(oracle.bytes_delivered, threaded.bytes_delivered);
            }
        }
    });
}

/// On an explicit path there is no re-selection: a crashed middle relay
/// stays on every rebuilt path, so the lineage burns its retry cap and
/// parks its flows — deterministically, with the world still draining
/// to quiescence instead of hanging or panicking.
#[test]
fn retry_cap_parks_flows_on_an_unroutable_path() {
    with_watchdog(|| {
        let hop = |mbps, delay_ms| {
            LinkConfig::new(
                Bandwidth::from_mbps(mbps),
                SimDuration::from_millis(delay_ms),
            )
        };
        let scenario = PathScenario {
            hops: vec![hop(50, 2), hop(50, 2), hop(50, 2)],
            file_bytes: 2 << 20,
            workload: WorkloadSpec {
                streams_per_circuit: 2,
                arrival: ArrivalSpec::Immediate,
                churn: None,
            },
            faults: Some(FaultSpec {
                crashes: 1,
                crash_window_ms: (20.0, 30.0),
                max_retries: 2,
                backoff_base_ms: 5.0,
                backoff_cap_ms: 20.0,
                ..Default::default()
            }),
        };
        let (mut sim, _) = scenario.build(fixed_window_factory(16), 9);
        let report = sim.run();
        assert_eq!(report.reason, StopReason::QueueEmpty, "parking must drain");
        let world = sim.world();
        let stats = world.stats();
        assert_eq!(stats.crashes_injected, 1);
        assert!(stats.timeouts_fired > 0);
        assert!(
            stats.flows_parked > 0,
            "an unroutable lineage must park, not spin"
        );
        assert!(
            stats.retries <= u64::from(3u32),
            "retry cap of 2 must bound the lineage: {}",
            stats.retries
        );
        assert!(
            world.flows().iter().any(|f| !f.complete()),
            "a parked flow cannot have completed"
        );
        assert_quiescent(world);
    });
}

/// The teardown storm: explicit client teardowns, epoch departures, and
/// relay crashes all race on the same circuits at randomized offsets.
/// At every interleaving the placement ledger stays exact (each
/// incarnation un-accounted exactly once) and the pool fully reclaims.
#[test]
fn teardown_storm_keeps_ledger_and_pool_exact() {
    with_watchdog(|| {
        for (round, offset_ms) in [17u64, 49, 86, 131, 203].into_iter().enumerate() {
            let scenario = StarScenario {
                epochs: Some(EpochSpec {
                    interval_ms: 90.0,
                    epochs: 3,
                    churn: 3,
                    standby_fraction: 0.25,
                }),
                ..faulty_star(FaultSpec {
                    crashes: 2,
                    crash_window_ms: (30.0, 160.0),
                    ..lenient()
                })
            };
            let seed = 100 + round as u64;
            let (mut sim, circuits) = scenario.build(baseline_factory(Default::default()), seed);
            // The storm: every circuit is explicitly torn down at the
            // round's offset, racing whatever the epoch engine and the
            // fault schedule are doing to the same paths at that time.
            for (i, &c) in circuits.iter().enumerate() {
                sim.schedule_in(
                    SimDuration::from_millis(offset_ms + i as u64 % 7),
                    TorEvent::Teardown(c),
                );
            }
            let report = sim.run();
            assert_eq!(
                report.reason,
                StopReason::QueueEmpty,
                "storm at {offset_ms} ms did not drain"
            );
            let world = sim.world();
            assert!(
                world.verify_placement_ledger(),
                "storm at {offset_ms} ms broke the ledger"
            );
            assert_quiescent(world);
            // Final sweep: tearing down every incarnation ever created
            // must drain the load view to all-zero — exactly-once
            // accounting survived the three-way race.
            for i in 0..world.circuit_count() {
                sim.schedule_in(
                    SimDuration::from_millis(1),
                    TorEvent::Teardown(relaynet::CircId(i as u32)),
                );
            }
            sim.run();
            let world = sim.world();
            let loads = world.relay_loads().expect("placement installed");
            assert!(
                loads.iter().all(|&l| l == 0),
                "storm at {offset_ms} ms leaked load: {loads:?}"
            );
            assert!(world.verify_placement_ledger());
            assert_quiescent(world);
        }
    });
}

/// FNV-1a over a value's `Debug` rendering: a whole `Vec` of flow
/// records or a `WorldStats` pinned as one number.
fn fnv_of(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Runs a fault-free star to quiescence and pins it: every flow's
/// `(requested, delivered, cells, completion time)`, the `WorldStats`
/// and the kernel's event total.
///
/// The two FNV pins were recorded from the build *before* `netsim`
/// stopped scheduling a `TxComplete` for frames nobody waits on
/// (DESIGN.md §3) and have held untouched since: no flow's completion
/// time moved by a nanosecond. `events` is the one number that change
/// re-recorded. Returns the stats for assertions that read better by name.
fn assert_pinned(
    scenario: StarScenario,
    flows: u64,
    stats: u64,
    events: u64,
    cells_sent: u64,
) -> WorldStats {
    assert!(scenario.faults.is_none());
    let (mut sim, _) = scenario.build(baseline_factory(Default::default()), 31);
    let report = sim.run();
    let world = sim.world();
    assert_eq!(report.reason, StopReason::QueueEmpty);
    assert!(world.flows().iter().all(|f| f.complete()));
    let print = fingerprint(world, report.events_processed);
    assert_eq!(fnv_of(&print.flows), flows, "a flow's record moved");
    assert_eq!(fnv_of(&print.stats), stats, "{:?}", print.stats);
    assert_eq!(print.stats.cells_sent, cells_sent);
    assert_eq!(report.events_processed, events);
    print.stats
}

/// A scenario without faults must stay bit-identical to the pre-fault
/// build: no "faults" RNG stream is derived, no timers arm, no
/// recovery branch executes. Pinned by absolute event count and
/// delivery stats so later changes cannot silently shift the baseline.
#[test]
fn no_fault_config_means_no_behaviour_change() {
    let scenario = StarScenario {
        faults: None,
        ..faulty_star(FaultSpec::default())
    };
    // Absolute pin (flows, stats and `cells_sent` as recorded from the
    // pre-fault build of this scenario; 80 664 events until silent
    // departures): the fault seam must be free when unconfigured.
    let stats = assert_pinned(
        scenario,
        0xed47_d233_e9dd_6fc3,
        0x6dfb_74a4_504e_f4c6,
        61_602,
        10_080,
    );
    assert_eq!(stats.crashes_injected, 0);
    assert_eq!(stats.timeouts_fired, 0);
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.crash_frames_dropped, 0);
    assert_eq!(stats.stale_frames_dropped, 0);
}

/// The same pin with circuits torn down and rebuilt twice mid-transfer:
/// DESTROY waves, drained schedulers and reclaimed slots are fault-free
/// behaviour too.
#[test]
fn no_fault_churn_star_is_pinned() {
    let scenario = StarScenario {
        faults: None,
        workload: WorkloadSpec {
            churn: Some(ChurnSpec {
                teardown_after_ms: (40.0, 100.0),
                rebuild_delay_ms: 5.0,
                cycles: 2,
            }),
            ..faulty_star(FaultSpec::default()).workload
        },
        ..faulty_star(FaultSpec::default())
    };
    let stats = assert_pinned(
        scenario,
        0x1573_796b_4b28_b70b,
        0x26fc_dedc_d1b0_0448,
        62_911,
        10_444,
    );
    assert_eq!(stats.rebuilds, 16, "8 circuits × 2 cycles");
}
