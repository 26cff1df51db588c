//! Experiment-shape tests: the qualitative structure of the paper's
//! Figure 1 must hold in the reproduction — who wins, in which direction,
//! and with which characteristic curve features. (Exact values come from
//! the figure binaries and ablations of DESIGN.md §5; these tests pin the
//! *shape* so regressions are caught by CI, not by eyeballing plots.)

use circuitstart::prelude::*;

// ---------------------------------------------------------------------
// Upper panels: cwnd traces
// ---------------------------------------------------------------------

#[test]
fn fig1a_overshoot_then_compensation_to_optimal() {
    let report = run_trace(&fig1_trace(1, Algorithm::CircuitStart));
    // (1) doubling from 2,
    assert_eq!(report.cwnd_cells[0].1, 2);
    // (2) the peak overshoots the optimum,
    assert!(
        f64::from(report.peak_cwnd_cells()) > report.optimal_cells,
        "peak {} vs optimal {}",
        report.peak_cwnd_cells(),
        report.optimal_cells
    );
    // (3) compensation lands in a tight band around the optimum (the
    // paper: "accurately estimate the optimal cwnd"),
    let peak = report.peak_cwnd_cells();
    let after_exit = report
        .cwnd_cells
        .iter()
        .skip_while(|&&(_, c)| c < peak)
        .nth(1)
        .map(|&(_, c)| f64::from(c))
        .expect("compensation step exists");
    assert!(
        (after_exit - report.optimal_cells).abs() / report.optimal_cells < 0.15,
        "compensation {after_exit} vs optimal {}",
        report.optimal_cells
    );
    // (4) and the window stays settled.
    assert!(report.settling_time_ms(0.35).is_some());
}

#[test]
fn fig1b_far_bottleneck_compensates_via_backpropagation() {
    let report = run_trace(&fig1_trace(3, Algorithm::CircuitStart));
    assert!(f64::from(report.peak_cwnd_cells()) > report.optimal_cells);
    // The source cannot measure a 3-hop-away bottleneck in one round; the
    // backpropagation rule must still bring it into the band.
    assert!(
        report.settling_time_ms(0.35).is_some(),
        "distance-3 window must settle near optimal; trace {:?}",
        report.cwnd_cells
    );
}

#[test]
fn classic_exit_halves_instead_of_measuring() {
    for distance in [1usize, 3] {
        let report = run_trace(&fig1_trace(distance, Algorithm::ClassicBacktap));
        let peak = report.peak_cwnd_cells();
        let after = report
            .cwnd_cells
            .iter()
            .skip_while(|&&(_, c)| c < peak)
            .nth(1)
            .map(|&(_, c)| c)
            .expect("exit exists");
        assert_eq!(after, peak / 2, "distance {distance}");
    }
}

#[test]
fn circuitstart_beats_classic_on_transfer_time_in_the_trace_geometry() {
    for distance in [1usize, 3] {
        let cs = run_trace(&fig1_trace(distance, Algorithm::CircuitStart));
        let classic = run_trace(&fig1_trace(distance, Algorithm::ClassicBacktap));
        let t_cs = cs.result.transfer_time().unwrap();
        let t_classic = classic.result.transfer_time().unwrap();
        assert!(
            t_cs < t_classic,
            "distance {distance}: CircuitStart {t_cs} vs classic {t_classic}"
        );
    }
}

#[test]
fn ramp_is_fast_settling_within_paper_axis() {
    // The paper plots 0–300 ms of *transfer* time. Our traces include the
    // circuit build (~150 ms); compensation must land within ~150 ms of
    // transfer start, i.e. well inside the paper's axis.
    let report = run_trace(&fig1_trace(1, Algorithm::CircuitStart));
    let settle = report.settling_time_ms(0.35).expect("settles");
    assert!(settle < 150.0, "settled {settle} ms after transfer start");
}

// ---------------------------------------------------------------------
// Lower panel: TTLB CDF
// ---------------------------------------------------------------------

/// A scaled-down Figure 1c (fewer circuits/repetitions so the suite stays
/// fast in debug builds); the bench regenerates the full preset.
fn small_cdf() -> CdfReport {
    let mut cfg = fig1_cdf();
    cfg.star.circuits = 16;
    cfg.star.directory.relays = 12;
    cfg.star.file_bytes = 300_000;
    cfg.repetitions = 2;
    run_cdf(&cfg)
}

#[test]
fn fig1c_circuitstart_improves_on_plain_backtap() {
    // The paper's pairing: CircuitStart vs BackTap without a startup
    // phase (Vegas-only ramping is its cited weakness).
    let report = small_cdf();
    let cs = &report.get("circuitstart").unwrap().cdf;
    let backtap = &report.get("no-slow-start").unwrap().cdf;
    for s in &report.series {
        assert_eq!(s.incomplete, 0, "{}", s.algorithm_key);
    }
    assert!(
        cs.median() < backtap.median(),
        "median {} vs {}",
        cs.median(),
        backtap.median()
    );
    // The bulk of the distribution shifts left; at paper scale the best
    // quantile improves by ≈0.5 s (`fig1_cdf`, DESIGN.md §5). The extreme tail
    // (circuits that measured their share during peak congestion) may
    // cross back — exactly as the paper's own CDFs converge at the top.
    let gain = cs.max_quantile_improvement_over(backtap);
    assert!(
        gain > 0.1 * backtap.median(),
        "best-quantile gain {gain} too small: cs {cs}, backtap {backtap}"
    );
    assert!(
        cs.quantile(0.25) < backtap.quantile(0.25),
        "lower quartile must improve: {} vs {}",
        cs.quantile(0.25),
        backtap.quantile(0.25)
    );
}

#[test]
fn fig1c_circuitstart_not_inferior_to_classic_slow_start() {
    // The transplanted traditional slow start (halving exit) is an extra
    // baseline; under round-robin relays its aggressive windows buy no
    // scheduling advantage, and CircuitStart must stay competitive while
    // keeping queues honest. At this scaled-down size (16 circuits, 12
    // relays, 2 repetitions) the measured mean ratio sits at 1.19–1.29
    // across seeds — CircuitStart trades a bounded slowdown for honest
    // queues; the bound below catches a real regression, not noise.
    let report = small_cdf();
    let cs = &report.get("circuitstart").unwrap().cdf;
    let classic = &report.get("classic").unwrap().cdf;
    assert!(
        cs.mean() <= classic.mean() * 1.35,
        "mean {} vs {}",
        cs.mean(),
        classic.mean()
    );
}

#[test]
fn fig1c_axis_range_matches_paper() {
    // The paper's x-axis runs to 3 s with the mass well inside; the
    // scaled-down run must land in the same order of magnitude.
    let report = small_cdf();
    for s in &report.series {
        assert!(
            s.cdf.max() < 3.0,
            "{}: worst sample {} outside the paper's axis",
            s.algorithm_key,
            s.cdf.max()
        );
        assert!(
            s.cdf.median() > 0.05,
            "{}: median {} implausibly fast",
            s.algorithm_key,
            s.cdf.median()
        );
    }
}
