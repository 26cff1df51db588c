//! The event queue's off-path work, counted exactly
//! (`Simulator::queue_work`, DESIGN.md §5).
//!
//! A star with relay crashes arms circuit timers 300–600 ms ahead of
//! transport events spaced microseconds apart (DESIGN.md §12). Those
//! far-future timers must not set the calendar's bucket width: when they
//! did, near-term events piled dozens to a bucket and 9–31% of all pushes
//! landed inside the sorted ready run and paid an O(k) insert. The
//! calendar's pending entries share one slab (`simcore::slab`) that
//! grows by bounded steps, so its reservation follows the most events
//! ever pending, not the spread of buckets they passed through. A
//! fault-free churn star has no far-future tail, and its counts are
//! pinned to the digit as the negative control. The same slab type holds
//! the `Net`'s frames, the hop queues' cells and the link-route table:
//! on the churn star each of the four reserves at most one step past its
//! high water.

use backtap::config::CcConfig;
use circuitstart::Algorithm;
use relaynet::workload::{ArrivalSpec, ChurnSpec, FaultSpec, WorkloadSpec};
use relaynet::{DirectoryConfig, MemoryLedger, StarScenario};
use simcore::event::QueueWork;
use simcore::sim::StopReason;
use simcore::slab::{SlabUse, STEP};

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
    /// The calendar's entry slab at quiescence.
    entries: SlabUse,
    /// The most slots reserved at any sampled instant (every 256 events
    /// and at the end).
    peak_reserved: usize,
    /// The most events pending at once.
    peak_pending: usize,
}

fn calendar_entries<W: simcore::sim::World>(sim: &simcore::Simulator<W>) -> SlabUse {
    sim.queue_entries()
        .expect("the calendar is the default queue")
}

fn census(scenario: &StarScenario, seed: u64) -> Census {
    let (mut sim, _) = scenario.build(Algorithm::CircuitStart.factory(CcConfig::default()), seed);
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
        entries: calendar_entries(&sim),
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
        // 1.07–1.75× measured while the entry arena doubled when full;
        // the slab grows by bounded steps, so it holds at most one step
        // past the most entries ever on the bucket side, and the ready
        // run keeps the capacity of its longest division. 6.5–7.6× when
        // each bucket kept its own capacity, 16–95× when the timers set
        // the width.
        assert!(
            c.peak_reserved <= 2 * c.peak_pending,
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
            // Seven steps of the entry slab and the ready run's 128; the
            // doubling arena reserved 8,192 and the same 128.
            reserved_slots: 7_296,
        }
    );
    assert_eq!(
        c.entries,
        SlabUse {
            held: 0,
            high_water: 6_603,
            reserved: 7_168,
        }
    );
    assert_eq!(c.peak_pending, 6_603);
}

/// `Net` stores each frame once (DESIGN.md §3): its store has a slot per
/// frame held at the busiest instant, and a link's FIFOs are lists
/// through those slots, where per-link rings reserved for every link's
/// own peak. A frame waiting in a link's scheduler is held there too;
/// the scheduler's queues keep only 4-byte handles, and their capacity
/// follows every circuit's own peak. The world's memory ledger is
/// pinned beside them, owner by owner.
#[test]
fn a_fault_free_churn_star_stores_each_frame_once() {
    let (mut sim, _) = churn_star().build(Algorithm::CircuitStart.factory(CcConfig::default()), 1);
    assert_eq!(sim.run().reason, StopReason::QueueEmpty);
    let world = sim.world();
    let store = world.net().frame_store();
    assert_eq!(store.held, 0);
    assert_eq!(store.high_water, 7_454);
    // Eight steps; doubling reached the same 8,192 on this seed.
    assert_eq!(store.reserved, 8_192);
    let handle_bytes = std::mem::size_of::<netsim::net::FrameHandle>();
    assert_eq!(handle_bytes, 4);
    let sched_slots = world.sched_reserved_slots();
    assert_eq!(sched_slots, 13_960);
    assert_eq!(sched_slots * handle_bytes, 55_840);
    // Every owner's bytes at quiescence. The store is 8,192 slots of a
    // frame and its queue stamp (88 B), a list link and a free-list
    // entry (4 B each); the hop cells are 2,048 slots of 64 + 4 + 4 B;
    // the schedulers' 13,960 handles are 55,840 of their 113,440 B, and
    // on each of the 200 links (of 400) that queued a cell, the rotation
    // reserves 4 entries of a circuit id and its queue (40 B) and the
    // spares 4 queues (32 B), 288 B; the
    // send times are 26,912 ring slots of 8 B on the participations
    // still held; the pool is the payloads' live peak, idle.
    assert_eq!(
        world.memory(),
        MemoryLedger {
            frame_store: 786_432,
            hop_send_times: 215_296,
            node_slabs: 171_424,
            hop_cells: 147_456,
            schedulers: 113_440,
            link_routes: 11_520,
            payload_pool: 2_973_712,
        }
    );
}

/// The hop queues' cells share one slab per world: it keeps a slot per
/// cell queued at the busiest instant, where each hop's own `VecDeque`
/// kept that hop's peak (10,928 slots of 64 bytes on this seed).
#[test]
fn a_fault_free_churn_star_queues_hop_cells_in_one_slab() {
    let (mut sim, _) = churn_star().build(Algorithm::CircuitStart.factory(CcConfig::default()), 1);
    assert_eq!(sim.run().reason, StopReason::QueueEmpty);
    // 1,810 cells queued at the end of the busiest event, and one more
    // inside it: a relay queues a cell before its pump takes it out.
    assert_eq!(
        sim.world().hop_cells(),
        SlabUse {
            held: 0,
            high_water: 1_811,
            reserved: 2_048,
        }
    );
}

/// Every world-wide slab of a churn-star world reserves at most one step
/// past its high water: the calendar's entries, the frame store, the hop
/// cells and the link-route table, on seeds 1–16. A doubling store
/// reserved 16,384 slots for at most 9,174 frames on 8 of these seeds.
fn slabs_stay_within_a_step(seeds: std::ops::RangeInclusive<u64>) {
    for seed in seeds {
        let (mut sim, _) =
            churn_star().build(Algorithm::CircuitStart.factory(CcConfig::default()), seed);
        assert_eq!(sim.run().reason, StopReason::QueueEmpty);
        // Whether the owner is empty at quiescence: the route table still
        // routes the circuits that finished without a teardown.
        let owners = [
            ("calendar entries", calendar_entries(&sim), true),
            ("frame store", sim.world().net().frame_store(), true),
            ("hop cells", sim.world().hop_cells(), true),
            ("link routes", sim.world().link_routes(), false),
        ];
        for (owner, usage, drains) in owners {
            assert!(
                !drains || usage.held == 0,
                "seed {seed}: {owner} holds values at quiescence"
            );
            assert!(
                usage.reserved <= usage.high_water + STEP,
                "seed {seed}: {owner} reserves {} slots for a high water of {}",
                usage.reserved,
                usage.high_water
            );
        }
    }
}

#[test]
fn churn_star_slabs_reserve_within_a_step_seeds_1_to_8() {
    slabs_stay_within_a_step(1..=8);
}

#[test]
fn churn_star_slabs_reserve_within_a_step_seeds_9_to_16() {
    slabs_stay_within_a_step(9..=16);
}
