//! The noise-free work count behind the per-cell cost: how many times a
//! delivered DATA cell's payload is walked end to end, summed over every
//! stage of the cell path. Wall-clock moves ±15% between runs; this count
//! is a pure function of the cells processed, so it is the regression
//! gate a speed claim cannot be (ROADMAP item 1a; DESIGN.md §5).

use netsim::bandwidth::Bandwidth;
use netsim::link::LinkConfig;
use relaynet::{fixed_window_factory, PathScenario};
use simcore::time::SimDuration;
use torcell::cell::RELAY_DATA_MAX;

/// Total payload walks and delivered DATA cells of one `relays`-relay
/// path transfer of `cells` full cells.
fn walks(relays: usize, cells: u64) -> (u64, u64) {
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
    assert_eq!(result.payload_errors, 0);
    assert_eq!(world.stats().protocol_errors, 0);
    (world.payload_passes(), result.cells_delivered)
}

/// Walks each extra delivered DATA cell costs: the slope between two
/// transfer sizes, which cancels the per-circuit control cells (EXTEND /
/// EXTENDED, BEGIN / CONNECTED, END — a constant of the path length).
fn walks_per_data_cell(relays: usize) -> u64 {
    let (small, small_cells) = walks(relays, 40);
    let (large, large_cells) = walks(relays, 240);
    assert_eq!((small_cells, large_cells), (40, 240));
    let extra = large - small;
    assert_eq!(extra % 200, 0, "not a whole number of walks per cell");
    extra / 200
}

/// A 3-relay circuit has four onion layers (three relays and the server).
/// Every stage touches a DATA payload **once**: fill (1), digest (1) and
/// one fused wrap of all four layers (1) at the client; one strip-and-
/// recognise pass at each of the four hops (4); one verify at the server
/// (1) — **8** walks, 3,968 bytes touched per delivered cell.
///
/// Before the loops were fused (PR 12 and earlier) the same cell cost
/// **15**: 1 fill + 1 digest + 4 separate keystream passes at the client,
/// a keystream pass *then* a digest pass at each of the 4 hops, and the
/// server's verify — 7,440 bytes touched.
#[test]
fn a_three_relay_transfer_walks_each_data_payload_exactly_eight_times() {
    assert_eq!(walks_per_data_cell(3), 8);
}

/// The same rule at other path lengths: fill + digest + verify, one wrap
/// pass per group of ≤ 4 layers, one strip pass per layer.
#[test]
fn walks_per_cell_follow_the_one_pass_per_stage_rule() {
    for relays in [1, 4, 6] {
        let layers = relays as u64 + 1;
        assert_eq!(
            walks_per_data_cell(relays),
            3 + layers.div_ceil(4) + layers,
            "{relays} relays"
        );
    }
}

/// The count survives teardown: reclaimed participations fold their
/// walks into the world's total instead of taking them along.
#[test]
fn teardown_does_not_lose_the_count() {
    let hop = LinkConfig::new(Bandwidth::from_mbps(50), SimDuration::from_millis(2));
    let scenario = PathScenario {
        hops: vec![hop; 4],
        file_bytes: 40 * RELAY_DATA_MAX as u64,
        ..Default::default()
    };
    let (mut sim, handles) = scenario.build(fixed_window_factory(16), 3);
    sim.run();
    let before = sim.world().payload_passes();
    sim.schedule_in(
        SimDuration::from_millis(1),
        relaynet::TorEvent::Teardown(handles.circ),
    );
    sim.run();
    assert_eq!(sim.world().stats().slots_reclaimed, 5);
    assert_eq!(sim.world().payload_passes(), before);
}
