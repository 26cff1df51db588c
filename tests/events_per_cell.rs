//! The noise-free work count behind the kernel's share of a cell: how
//! many events the world handles per delivered DATA cell. Like
//! `tests/payload_passes.rs` it is a pure function of the cells
//! processed, so it can gate what wall-clock (±15%) cannot: a PR that
//! elides or batches events has to move these numbers on purpose
//! (ROADMAP item 2; DESIGN.md §5).
//!
//! Moved on purpose, 16 → **11** at three relays: a `TxComplete` now
//! exists only where somebody needs the departure instant. That is the
//! sender of a *forwarded* cell, which pays the feedback it owes upstream
//! at the nanosecond the cell has left (one per relay, `r`), and a link
//! with work queued behind a frame on the wire, which is woken once when
//! it falls idle (none on an un-backlogged path). A client-originated
//! cell and every feedback frame depart silently and cost only their
//! `Deliver` (`2(r+1)`): `3r + 2` events, where there used to be
//! `4(r+1)` (DESIGN.md §3, "Silent departures").

use std::cell::Cell;
use std::rc::Rc;

use circuitstart::Algorithm;
use netsim::bandwidth::Bandwidth;
use netsim::link::LinkConfig;
use netsim::net::NetEvent;
use relaynet::{EventsHandled, PathScenario, TorEvent};
use simcore::time::SimDuration;
use torcell::cell::RELAY_DATA_MAX;

/// What one finished path transfer cost.
struct Handled {
    /// Events the world handled, by kind.
    by_kind: EventsHandled,
    /// `TxComplete`s on the client's access link, and the frames it sent.
    access_tx_complete: u64,
    access_frames: u64,
    /// The kernel's own count of events.
    kernel_total: u64,
}

/// One finished transfer of `cells` full cells over `hops` (one relay
/// fewer than links) under a fixed window.
fn events(hops: &[LinkConfig], window: u32, cells: u64) -> Handled {
    let scenario = PathScenario {
        hops: hops.to_vec(),
        file_bytes: cells * RELAY_DATA_MAX as u64,
        ..Default::default()
    };
    let (mut sim, handles) = scenario.build(
        Algorithm::FixedWindow(window).factory(Default::default()),
        3,
    );
    let access = handles.fwd_links[0];
    let access_tx_complete = Rc::new(Cell::new(0));
    let count = Rc::clone(&access_tx_complete);
    sim.set_probe(Box::new(move |_, event| {
        if matches!(event, TorEvent::Net(NetEvent::TxComplete { link }) if *link == access) {
            count.set(count.get() + 1);
        }
    }));
    sim.run();
    let world = sim.world();
    let result = world.result_of(handles.circ);
    assert!(result.completed);
    assert_eq!(result.cells_delivered, cells);
    assert_eq!(world.stats().protocol_errors, 0);
    Handled {
        by_kind: world.events_handled(),
        access_tx_complete: access_tx_complete.get(),
        access_frames: world.net().stats(access).frames_sent,
        kernel_total: sim.events_processed(),
    }
}

/// `relays + 1` identical links, fast enough that nothing ever queues.
fn even_path(relays: usize) -> Vec<LinkConfig> {
    let hop = LinkConfig::new(Bandwidth::from_mbps(50), SimDuration::from_millis(2));
    vec![hop; relays + 1]
}

/// What each extra delivered DATA cell costs: the slope between two
/// transfer sizes, which cancels the per-circuit control cells and timers
/// (a constant of the path length).
fn per_data_cell(hops: &[LinkConfig], window: u32) -> Handled {
    let small = events(hops, window, 40);
    let large = events(hops, window, 240);
    let slope = |small: u64, large: u64| {
        let extra = large - small;
        assert_eq!(extra % 200, 0, "not a whole number per cell");
        extra / 200
    };
    Handled {
        by_kind: EventsHandled {
            tx_complete: slope(small.by_kind.tx_complete, large.by_kind.tx_complete),
            deliver: slope(small.by_kind.deliver, large.by_kind.deliver),
            other: slope(small.by_kind.other, large.by_kind.other),
        },
        access_tx_complete: slope(small.access_tx_complete, large.access_tx_complete),
        access_frames: slope(small.access_frames, large.access_frames),
        kernel_total: slope(small.kernel_total, large.kernel_total),
    }
}

/// A 3-relay path has four links. A DATA cell is delivered once on each
/// and so is the feedback frame that confirms each hop's forwarding
/// (4 + 4 `Deliver`). Only the three relays' forwards carry a confirm to
/// pay at the departure instant (3 `TxComplete`); the client's own cell
/// and all four feedback frames depart silently — **11** events, the
/// `simcore.events_per_cell` csbench reports on `path3_bulk`. Nothing
/// else fires per cell: no timer, no wake-up.
#[test]
fn a_three_relay_transfer_handles_eleven_events_per_data_cell() {
    assert_eq!(
        per_data_cell(&even_path(3), 16).by_kind,
        EventsHandled {
            tx_complete: 3,
            deliver: 8,
            other: 0
        }
    );
}

/// The same rule at other path lengths: one cell frame and one feedback
/// frame per link, a `Deliver` each, and a `TxComplete` per relay —
/// `3r + 2`.
#[test]
fn events_per_cell_are_two_frames_per_link() {
    for (relays, total) in [(1, 5), (4, 14), (6, 20)] {
        let per_cell = per_data_cell(&even_path(relays), 16);
        assert_eq!(
            per_cell.by_kind,
            EventsHandled {
                tx_complete: relays as u64,
                deliver: 2 * (relays as u64 + 1),
                other: 0
            },
            "{relays} relays"
        );
        assert_eq!(per_cell.kernel_total, total, "{relays} relays");
    }
}

/// A backlogged link pays for its wake-ups, and no more than it used to.
/// The client's access link is ten times slower than the rest and the
/// window keeps ~30 cells scheduled behind the one on its wire, so every
/// silently departing cell there has a successor waiting: exactly one
/// `TxComplete` per frame on that link (its wake-up), as before. The
/// other links are un-backlogged and unchanged — `r + 1` departures,
/// still under the old `2(r + 1)`.
#[test]
fn a_backlogged_link_is_woken_once_per_frame() {
    let relays = 3;
    let mut hops = even_path(relays);
    hops[0].rate = Bandwidth::from_mbps(5);
    let per_cell = per_data_cell(&hops, 32);
    assert_eq!(
        (per_cell.access_tx_complete, per_cell.access_frames),
        (1, 1)
    );
    assert_eq!(
        per_cell.by_kind,
        EventsHandled {
            tx_complete: relays as u64 + 1,
            deliver: 2 * (relays as u64 + 1),
            other: 0
        }
    );
    assert!(per_cell.kernel_total <= 4 * (relays as u64 + 1));
}

/// The three counts partition the events the kernel dispatched.
#[test]
fn the_kinds_sum_to_the_kernel_total() {
    let handled = events(&even_path(3), 16, 40);
    let EventsHandled {
        tx_complete,
        deliver,
        other,
    } = handled.by_kind;
    assert!(other > 0, "circuit start and stream arrival are events too");
    assert_eq!(tx_complete + deliver + other, handled.kernel_total);
}
