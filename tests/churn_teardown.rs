//! Mid-flight DESTROY coverage: a teardown racing in-flight DATA cells
//! must not panic anywhere in the pipeline (`recognition` keeps
//! confirming and dropping, `feedback` keeps draining windows), must
//! return every in-flight pooled payload buffer to the `PayloadPool`,
//! and must propagate exactly one `DESTROY_REASON_FINISHED` per hop per
//! wave direction. The teardown quiescence window is observed directly
//! by pausing the simulator between full teardown and the churn
//! rebuild.

use netsim::bandwidth::Bandwidth;
use netsim::link::LinkConfig;
use relaynet::builder::fixed_window_factory;
use relaynet::workload::{ArrivalSpec, ChurnSpec, WorkloadSpec};
use relaynet::{PathScenario, TorEvent};
use simcore::sim::{RunLimits, StopReason};
use simcore::time::{SimDuration, SimTime};

fn hop(mbps: u64, delay_ms: u64) -> LinkConfig {
    LinkConfig::new(
        Bandwidth::from_mbps(mbps),
        SimDuration::from_millis(delay_ms),
    )
}

/// Slow middle link so DATA piles up in relay queues and on the wire —
/// the teardown then has plenty of in-flight cells to race.
fn bottleneck_hops() -> Vec<LinkConfig> {
    vec![hop(100, 1), hop(5, 5), hop(100, 1)]
}

#[test]
fn midflight_destroy_returns_inflight_buffers_and_counts_one_destroy_per_hop() {
    let scenario = PathScenario {
        hops: bottleneck_hops(),
        file_bytes: 1 << 20,
        workload: WorkloadSpec {
            streams_per_circuit: 2,
            arrival: ArrivalSpec::Immediate,
            churn: Some(ChurnSpec {
                // Fires long before the ~1.7 s transfer can finish, and
                // well after the ~30 ms build: a pure data-plane race.
                teardown_after_ms: (200.0, 200.0),
                rebuild_delay_ms: 300.0,
                cycles: 1,
            }),
        },
        faults: None,
    };
    let (mut sim, h) = scenario.build(fixed_window_factory(16), 7);
    let path_nodes = 4u64; // client + 2 relays + server

    // Phase 1: run past the teardown but not into the rebuild — the
    // window where the circuit is fully torn down and the workload
    // engine is idle.
    let report = sim.run_with_limits(RunLimits {
        until: Some(SimTime::from_millis(400)),
        max_events: None,
    });
    assert_ne!(report.reason, StopReason::QueueEmpty, "rebuild still due");
    let world = sim.world();
    assert_eq!(world.stats().protocol_errors, 0);
    assert!(
        world.stats().cells_dropped_closed > 0 || world.stats().cells_drained > 0,
        "the DESTROY must actually race in-flight DATA"
    );
    // Exactly one DESTROY propagation per hop per wave direction.
    assert_eq!(world.stats().destroys_sent, 2 * (path_nodes - 1));
    assert_eq!(world.stats().slots_reclaimed, path_nodes);
    assert_eq!(world.stats().rebuilds, 0, "rebuild delayed past the pause");
    // Every pooled payload buffer is back at rest: nothing in flight,
    // nothing generated, so the idle population equals every buffer the
    // pool ever allocated, and the high-water mark recorded the spike.
    let pool = world.payload_pool();
    let (allocated, _) = pool.stats();
    assert_eq!(pool.returned(), pool.acquired(), "buffers leaked in flight");
    assert_eq!(pool.idle(), allocated as usize, "all buffers at rest");
    assert!(pool.idle_hwm() >= pool.idle());
    // The torn incarnation is unreachable everywhere; the flows are not
    // yet done.
    for &n in &world.circuit_info(h.circ).path {
        assert!(world.node(n).circuit(h.circ).is_none(), "{n} kept a slot");
    }
    assert!(world.flows().iter().any(|f| !f.complete()));

    // Phase 2: let the rebuild run the workload to completion.
    let report = sim.run();
    assert_eq!(report.reason, StopReason::QueueEmpty);
    let world = sim.world();
    assert_eq!(world.stats().protocol_errors, 0);
    assert_eq!(world.stats().rebuilds, 1);
    for f in world.flows() {
        assert!(f.complete(), "flow stranded by the teardown: {f:?}");
        assert_eq!(f.carried_by, 2, "both incarnations carried the flow");
    }
    let total: u64 = world.flows().iter().map(|f| f.delivered).sum();
    assert_eq!(total, 1 << 20);
    let pool = world.payload_pool();
    assert_eq!(pool.returned(), pool.acquired());
    // The torn incarnation never counted as a completed circuit; the
    // flow ledger is the canonical accounting across incarnations.
    assert!(!world.result_of(h.circ).completed);
    assert_eq!(world.result_of(h.circ).payload_errors, 0);
}

#[test]
fn manual_teardown_event_mid_transfer_is_equivalent_to_churn() {
    // The raw TorEvent::Teardown path (no churn spec): unfinished flows
    // still rebuild, bytes are still conserved.
    let scenario = PathScenario {
        hops: bottleneck_hops(),
        file_bytes: 600_000,
        ..Default::default()
    };
    let (mut sim, h) = scenario.build(fixed_window_factory(16), 11);
    sim.schedule_at(SimTime::from_millis(150), TorEvent::Teardown(h.circ));
    let report = sim.run();
    assert_eq!(report.reason, StopReason::QueueEmpty);
    let world = sim.world();
    assert_eq!(world.stats().protocol_errors, 0);
    assert_eq!(world.stats().rebuilds, 1);
    assert!(world.stats().cells_dropped_closed > 0 || world.stats().cells_drained > 0);
    assert_eq!(world.flows().len(), 1);
    assert!(world.flows()[0].complete());
    assert_eq!(world.flows()[0].delivered, 600_000);
    assert_eq!(
        world.payload_pool().returned(),
        world.payload_pool().acquired()
    );
}

#[test]
fn teardown_racing_the_build_never_panics_or_leaks() {
    // DESTROY while CREATE/CREATED/EXTEND handshakes are still in
    // flight: every teardown point along the build must close cleanly
    // (the wave reflects at the built frontier) and the rebuilt circuit
    // must still deliver every byte.
    for teardown_ms in [1.0, 5.0, 12.0, 25.0, 60.0] {
        let scenario = PathScenario {
            hops: vec![hop(20, 10); 4], // 3 relays, 10 ms links: slow build
            file_bytes: 100_000,
            workload: WorkloadSpec {
                streams_per_circuit: 2,
                arrival: ArrivalSpec::Immediate,
                churn: Some(ChurnSpec {
                    teardown_after_ms: (teardown_ms, teardown_ms),
                    rebuild_delay_ms: 5.0,
                    cycles: 1,
                }),
            },
            faults: None,
        };
        let (mut sim, _) = scenario.build(fixed_window_factory(8), 13);
        let report = sim.run();
        assert_eq!(
            report.reason,
            StopReason::QueueEmpty,
            "teardown at {teardown_ms} ms deadlocked"
        );
        let world = sim.world();
        assert_eq!(
            world.stats().protocol_errors,
            0,
            "teardown at {teardown_ms} ms tripped the pipeline"
        );
        assert_eq!(world.stats().rebuilds, 1);
        for f in world.flows() {
            assert!(f.complete(), "teardown at {teardown_ms} ms stranded a flow");
        }
        let pool = world.payload_pool();
        assert_eq!(
            pool.returned(),
            pool.acquired(),
            "teardown at {teardown_ms} ms leaked payload buffers"
        );
        // Slot books balance on every node after the dust settles.
        for n in 0..5u32 {
            let node = world.node(relaynet::OverlayId(n));
            assert_eq!(
                node.slab_len(),
                node.circuit_count() + node.free_slot_count()
            );
            assert_eq!(node.circuit_count(), 1, "only the live incarnation");
        }
    }
}

#[test]
fn scheduler_queued_cells_drop_at_destroy_without_burning_link_time() {
    // Regression: cells a circuit had already handed to its egress link
    // scheduler used to serialize onto the wire after the circuit
    // closed, just to be dropped at the receiver — burning link time
    // and, critically, queueing the DESTROY *behind* them. Setup: the
    // client's own access link is the bottleneck (2 Mbit/s ≈ 2 ms per
    // cell), so a 16-cell window parks ~15 DATA cells in the client's
    // link scheduler. At teardown those must be drained in place: their
    // payloads return to the pool immediately and the DESTROY wave
    // completes within a couple of RTTs instead of waiting out ~30 ms
    // of dead serialization.
    let scenario = PathScenario {
        hops: vec![hop(2, 2), hop(100, 1), hop(100, 1)],
        file_bytes: 500_000,
        workload: WorkloadSpec {
            streams_per_circuit: 1,
            arrival: ArrivalSpec::Immediate,
            churn: Some(ChurnSpec {
                teardown_after_ms: (50.0, 50.0),
                rebuild_delay_ms: 400.0,
                cycles: 1,
            }),
        },
        faults: None,
    };
    let (mut sim, h) = scenario.build(fixed_window_factory(16), 19);
    // Pause 25 ms after the teardown: far less than the ~30 ms the
    // drained backlog would have needed on the wire, ample for the
    // DESTROY round trip over the fast relay links.
    let report = sim.run_with_limits(RunLimits {
        until: Some(SimTime::from_millis(75)),
        max_events: None,
    });
    assert_ne!(report.reason, StopReason::QueueEmpty, "rebuild still due");
    let world = sim.world();
    assert_eq!(world.stats().protocol_errors, 0);
    assert!(
        world.stats().cells_drained >= 10,
        "the scheduler backlog must be drained, not serialized (drained {})",
        world.stats().cells_drained
    );
    // Post-DESTROY link time: had the backlog serialized, the wave
    // could not have completed yet — full slot reclamation this early
    // proves the queued cells never occupied the wire.
    assert_eq!(
        world.stats().slots_reclaimed,
        4,
        "teardown must quiesce within the DESTROY round trip"
    );
    assert_eq!(world.stats().destroys_sent, 2 * 3);
    assert_eq!(world.stats().rebuilds, 0, "rebuild delayed past the pause");
    // No pooled payload leaked: everything the client ever acquired is
    // back at rest — including the buffers drained out of the link
    // scheduler.
    let pool = world.payload_pool();
    assert_eq!(pool.returned(), pool.acquired(), "buffers leaked in flight");
    assert_eq!(pool.idle(), pool.stats().0 as usize, "all buffers at rest");

    // The rebuilt incarnation still delivers every byte.
    let report = sim.run();
    assert_eq!(report.reason, StopReason::QueueEmpty);
    let world = sim.world();
    assert_eq!(world.stats().protocol_errors, 0);
    assert_eq!(world.stats().rebuilds, 1);
    assert!(world.flows().iter().all(|f| f.complete()));
    assert_eq!(
        world.flows().iter().map(|f| f.delivered).sum::<u64>(),
        500_000
    );
    assert_eq!(
        world.payload_pool().returned(),
        world.payload_pool().acquired()
    );
    assert!(!world.result_of(h.circ).completed);
}

#[test]
fn destroy_count_scales_with_cycles() {
    // Two full post-build teardowns of a 4-node path: 2 cycles × 2
    // waves × 3 hops = 12 DESTROYs, 2 × 4 slots reclaimed.
    let scenario = PathScenario {
        hops: bottleneck_hops(),
        file_bytes: 2 << 20,
        workload: WorkloadSpec {
            streams_per_circuit: 1,
            arrival: ArrivalSpec::Immediate,
            churn: Some(ChurnSpec {
                teardown_after_ms: (150.0, 150.0),
                rebuild_delay_ms: 10.0,
                cycles: 2,
            }),
        },
        faults: None,
    };
    let (mut sim, _) = scenario.build(fixed_window_factory(16), 3);
    let report = sim.run();
    assert_eq!(report.reason, StopReason::QueueEmpty);
    let world = sim.world();
    assert_eq!(world.stats().protocol_errors, 0);
    assert_eq!(world.stats().rebuilds, 2);
    assert_eq!(world.stats().destroys_sent, 2 * 2 * 3);
    assert_eq!(world.stats().slots_reclaimed, 2 * 4);
    assert!(world.flows()[0].complete());
}
