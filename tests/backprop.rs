//! Backpropagation: the paper's claim that the minimum window propagates
//! from the bottleneck relay back to the source, and that hop-by-hop
//! windows keep queues bounded (the BackTap property CircuitStart builds
//! on).

use circuitstart::prelude::*;
use relaynet::PathScenario;

/// Builds the fig-1 geometry with the bottleneck at `distance`, runs a
/// CircuitStart transfer, and returns the built simulator for inspection.
fn run_geometry(
    distance: usize,
    file: u64,
) -> (
    simcore::Simulator<relaynet::TorNetwork>,
    relaynet::builder::PathHandles,
) {
    let base = fig1_trace(distance, Algorithm::CircuitStart);
    let scenario = PathScenario {
        hops: base.hops(),
        file_bytes: file,
        ..Default::default()
    };
    let (mut sim, handles) = scenario.build(Algorithm::CircuitStart.factory(base.cc), 1);
    run_to_completion(&mut sim);
    assert_eq!(sim.world().stats().protocol_errors, 0);
    assert!(sim.world().result_of(handles.circ).completed);
    (sim, handles)
}

#[test]
fn source_window_lands_at_the_bottleneck_bdp_for_every_distance() {
    for distance in 0..=3 {
        let base = fig1_trace(distance, Algorithm::CircuitStart);
        let report = run_trace(&base);
        let w_star = report.optimal_cells;
        let final_cwnd = f64::from(report.cwnd_cells.last().unwrap().1);
        assert!(
            (final_cwnd - w_star).abs() / w_star < 0.35,
            "distance {distance}: final window {final_cwnd} vs optimal {w_star}"
        );
    }
}

#[test]
fn relay_windows_converge_near_their_own_optima() {
    // With the bottleneck at the exit↔server link, every relay's forward
    // window must end near its own BDP — the backpropagated minimum.
    let (sim, handles) = run_geometry(3, 2 << 20);
    let world = sim.world();
    let base = fig1_trace(3, Algorithm::CircuitStart);
    let model = base.model();
    // Relays occupy path positions 1..=3; relay at position p sends on
    // link p (hop index p).
    for position in 1..=3usize {
        let node = handles.overlay_path[position];
        let nc = world
            .node(node)
            .circuit(handles.circ)
            .expect("relay participates");
        let cwnd = nc.fwd.as_ref().expect("forward hop").transport.cwnd();
        let w_star = model.optimal_cwnd_cells(position);
        assert!(
            (f64::from(cwnd) - w_star).abs() / w_star < 0.5,
            "relay at position {position}: window {cwnd} vs optimal {w_star:.1}"
        );
    }
}

#[test]
fn overshoot_grows_with_bottleneck_distance() {
    // The paper's motivating observation: the farther the bottleneck,
    // the longer congestion evidence takes to reach the source, so the
    // peak (pre-compensation) window is at least as large.
    let near = run_trace(&fig1_trace(1, Algorithm::CircuitStart));
    let far = run_trace(&fig1_trace(3, Algorithm::CircuitStart));
    assert!(
        far.peak_cwnd_cells() >= near.peak_cwnd_cells(),
        "far {} vs near {}",
        far.peak_cwnd_cells(),
        near.peak_cwnd_cells()
    );
}

#[test]
fn queues_stay_bounded_by_upstream_windows() {
    // BackTap's core property: per-circuit relay queues are bounded by
    // the predecessor's (peak) window — no unbounded buffering anywhere.
    let (sim, handles) = run_geometry(3, 2 << 20);
    let world = sim.world();
    let source_peak = world
        .source_cwnd_trace(handles.circ)
        .unwrap()
        .iter()
        .map(|&(_, c)| c)
        .max()
        .unwrap() as usize;
    for position in 1..=3usize {
        let node = handles.overlay_path[position];
        let hwm = world
            .fwd_queue_hwm(node, handles.circ)
            .expect("relay forward queue");
        assert!(
            hwm <= 2 * source_peak,
            "relay {position} queue hwm {hwm} vs source peak {source_peak}"
        );
    }
    // Link egress queues are similarly bounded (no runaway buffers).
    for &link in &handles.fwd_links {
        let hwm = world.net().stats(link).queue_hwm_frames;
        assert!(
            hwm <= 3 * source_peak,
            "link queue hwm {hwm} vs source peak {source_peak}"
        );
    }
}

#[test]
fn bottleneck_link_is_saturated_after_convergence() {
    let (sim, handles) = run_geometry(1, 2 << 20);
    let world = sim.world();
    let bottleneck = handles.fwd_links[1];
    let stats = world.net().stats(bottleneck);
    // Utilization accounting: busy time over the span between first and
    // last byte ≈ bottleneck share. The ramp spends some time below, so
    // require a solid but not perfect fraction over the whole run.
    let result = world.result_of(handles.circ);
    let span = result.last_byte_at.unwrap() - result.first_data_at.unwrap();
    let util = stats.busy_time.as_secs_f64() / span.as_secs_f64();
    assert!(
        util > 0.85,
        "bottleneck utilization {util:.3} too low — ramp never converged"
    );
}

#[test]
fn classic_baseline_undershoots_after_halving() {
    // The contrast the paper draws: halving lands the window at half the
    // peak, which for the near bottleneck is well below the optimum.
    let report = run_trace(&fig1_trace(1, Algorithm::ClassicBacktap));
    let peak = report.peak_cwnd_cells();
    let after_exit = report
        .cwnd_cells
        .iter()
        .skip_while(|&&(_, c)| c < peak)
        .nth(1)
        .map(|&(_, c)| c)
        .expect("exit happened");
    assert_eq!(after_exit, peak / 2, "traditional exit halves");
    assert!(
        f64::from(after_exit) < report.optimal_cells,
        "halving from 64 under the ≈50-cell optimum"
    );
}
