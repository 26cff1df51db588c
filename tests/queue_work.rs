//! The event queue's off-path work, counted exactly
//! (`Simulator::queue_work`, DESIGN.md §5).
//!
//! A star with relay crashes arms circuit timers 300–600 ms ahead of
//! transport events spaced microseconds apart (DESIGN.md §12). Those
//! far-future timers must not set the calendar's bucket width: when they
//! did, near-term events piled dozens to a bucket, 9–31% of all pushes
//! landed inside the sorted ready run and paid an O(k) insert, and the
//! buckets reserved ~60× the most events ever pending. A fault-free churn
//! star has no far-future tail, and its counts are pinned to the digit as
//! the negative control.

use backtap::config::CcConfig;
use circuitstart::algorithm::circuit_start_factory;
use relaynet::workload::{ArrivalSpec, ChurnSpec, FaultSpec, WorkloadSpec};
use relaynet::{DirectoryConfig, StarScenario};
use simcore::event::QueueWork;
use simcore::sim::StopReason;

/// Three on/off streams per circuit over a 30–90 Mbit/s, 2–6 ms star.
fn star(circuits: usize, relays: usize, churn: Option<ChurnSpec>) -> StarScenario {
    StarScenario {
        circuits,
        file_bytes: 256 * 1024,
        directory: DirectoryConfig {
            relays,
            bandwidth_mbps: (30.0, 90.0),
            delay_ms: (2.0, 6.0),
        },
        workload: WorkloadSpec {
            streams_per_circuit: 3,
            arrival: ArrivalSpec::OnOff {
                burst: 2,
                gap_ms: (10.0, 50.0),
            },
            churn,
        },
        ..Default::default()
    }
}

/// `star16_faults`: 16 circuits over 32 relays, two crashes and a link
/// stall, build and liveness timers armed.
fn faulty_star() -> StarScenario {
    StarScenario {
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
        ..star(16, 32, None)
    }
}

/// `star50_churn`: 50 circuits over 100 relays, two teardown/rebuild
/// cycles each, no faults.
fn churn_star() -> StarScenario {
    star(
        50,
        100,
        Some(ChurnSpec {
            teardown_after_ms: (40.0, 100.0),
            rebuild_delay_ms: 10.0,
            cycles: 2,
        }),
    )
}

/// What one world's queue did over a whole run.
struct Census {
    events: u64,
    /// The counts at quiescence.
    work: QueueWork,
    /// The most slots reserved at any sampled instant (every 256 events
    /// and at the end).
    peak_reserved: usize,
    /// The most events pending at once.
    peak_pending: usize,
}

fn census(scenario: &StarScenario, seed: u64) -> Census {
    let (mut sim, _) = scenario.build(circuit_start_factory(CcConfig::default()), seed);
    let (mut peak_reserved, mut peak_pending) = (0, 0);
    while sim.step() {
        peak_pending = peak_pending.max(sim.pending_events());
        if sim.events_processed() % 256 == 0 {
            peak_reserved = peak_reserved.max(sim.queue_work().reserved_slots);
        }
    }
    assert_eq!(sim.run().reason, StopReason::QueueEmpty);
    let work = sim.queue_work();
    Census {
        events: sim.events_processed(),
        work,
        peak_reserved: peak_reserved.max(work.reserved_slots),
        peak_pending,
    }
}

#[test]
fn far_future_timers_leave_the_calendar_lean() {
    for seed in 1..=4 {
        let c = census(&faulty_star(), seed);
        let merges_per_event = c.work.merge_inserts as f64 / c.events as f64;
        // 0.015–0.036 measured on seeds 1–4; 0.087–0.307 when the
        // timers set the width.
        assert!(
            merges_per_event <= 0.06,
            "seed {seed}: {merges_per_event:.3} merge-inserts per event"
        );
        // 6.5–7.6× measured: a touched bucket holds at least four slots
        // and the ring has up to twice as many buckets as entries. 16–95×
        // when the timers set the width.
        assert!(
            c.peak_reserved <= 16 * c.peak_pending,
            "seed {seed}: {} slots reserved for at most {} pending events",
            c.peak_reserved,
            c.peak_pending
        );
    }
}

#[test]
fn a_fault_free_churn_star_keeps_its_exact_counts() {
    let c = census(&churn_star(), 1);
    assert_eq!(c.events, 670_109);
    assert_eq!(
        c.work,
        QueueWork {
            merge_inserts: 5_870,
            refills: 348_427,
            refilled: 664_239,
            resizes: 5,
            reserved_slots: 54_804,
        }
    );
    assert_eq!(c.peak_pending, 6_603);
}
