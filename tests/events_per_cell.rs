//! The noise-free work count behind the kernel's share of a cell: how
//! many events the world handles per delivered DATA cell. Like
//! `tests/payload_passes.rs` it is a pure function of the cells
//! processed, so it can gate what wall-clock (±15%) cannot: a PR that
//! elides or batches events has to move these numbers on purpose
//! (ROADMAP item 1a; DESIGN.md §5).

use netsim::bandwidth::Bandwidth;
use netsim::link::LinkConfig;
use relaynet::{fixed_window_factory, EventsHandled, PathScenario};
use simcore::time::SimDuration;
use torcell::cell::RELAY_DATA_MAX;

/// One finished `relays`-relay path transfer of `cells` full cells: the
/// events handled by kind, and the kernel's own count of them.
fn events(relays: usize, cells: u64) -> (EventsHandled, u64) {
    let hop = LinkConfig::new(Bandwidth::from_mbps(50), SimDuration::from_millis(2));
    let scenario = PathScenario {
        hops: vec![hop; relays + 1],
        file_bytes: cells * RELAY_DATA_MAX as u64,
        ..Default::default()
    };
    let (mut sim, handles) = scenario.build(fixed_window_factory(16), 3);
    sim.run();
    let world = sim.world();
    let result = world.result_of(handles.circ);
    assert!(result.completed);
    assert_eq!(result.cells_delivered, cells);
    assert_eq!(world.stats().protocol_errors, 0);
    (world.events_handled(), sim.events_processed())
}

/// Events each extra delivered DATA cell costs, by kind: the slope
/// between two transfer sizes, which cancels the per-circuit control
/// cells and timers (a constant of the path length).
fn events_per_data_cell(relays: usize) -> EventsHandled {
    let (small, _) = events(relays, 40);
    let (large, _) = events(relays, 240);
    let slope = |small: u64, large: u64| {
        let extra = large - small;
        assert_eq!(extra % 200, 0, "not a whole number of events per cell");
        extra / 200
    };
    EventsHandled {
        tx_complete: slope(small.tx_complete, large.tx_complete),
        deliver: slope(small.deliver, large.deliver),
        other: slope(small.other, large.other),
    }
}

/// A 3-relay path has four links. A DATA cell is serialized and delivered
/// once on each (4 + 4), and each hop's forwarding is confirmed by one
/// feedback frame travelling the other way, serialized and delivered once
/// (4 + 4) — **16** events, the `simcore.events_per_cell` csbench reports
/// on `path3_bulk`. Nothing else fires per cell: no timer, no wake-up.
#[test]
fn a_three_relay_transfer_handles_sixteen_events_per_data_cell() {
    let per_cell = events_per_data_cell(3);
    assert_eq!(
        per_cell,
        EventsHandled {
            tx_complete: 8,
            deliver: 8,
            other: 0
        }
    );
}

/// The same rule at other path lengths: one cell frame and one feedback
/// frame per link, a `TxComplete` and a `Deliver` each.
#[test]
fn events_per_cell_are_two_frames_per_link() {
    for relays in [1, 4, 6] {
        let links = relays as u64 + 1;
        assert_eq!(
            events_per_data_cell(relays),
            EventsHandled {
                tx_complete: 2 * links,
                deliver: 2 * links,
                other: 0
            },
            "{relays} relays"
        );
    }
}

/// The three counts partition the events the kernel dispatched.
#[test]
fn the_kinds_sum_to_the_kernel_total() {
    let (handled, kernel_total) = events(3, 40);
    let EventsHandled {
        tx_complete,
        deliver,
        other,
    } = handled;
    assert!(other > 0, "circuit start and stream arrival are events too");
    assert_eq!(tx_complete + deliver + other, kernel_total);
}
