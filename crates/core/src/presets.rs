//! Paper-parameter presets: the exact configurations the figure
//! regeneration binaries and the ablations of DESIGN.md §5 use.
//!
//! The poster does not publish its simulation parameters; these values
//! are chosen so that the *axes* match the paper's plots (source cwnd
//! 0–70 KB over 0–300 ms; TTLB CDF over 0–3 s); the binaries listed in
//! DESIGN.md §5 print the measured outcomes.

use backtap::config::CcConfig;
use netsim::bandwidth::Bandwidth;
use relaynet::builder::StarScenario;
use relaynet::directory::DirectoryConfig;
use relaynet::selection::SelectionPolicy;
use simcore::time::SimDuration;

use crate::algorithm::Algorithm;
use crate::harness::{CdfScenarioConfig, TraceScenarioConfig};

/// Figure 1 (upper panels): the cwnd-trace geometry with the bottleneck
/// at the given distance from the source (1 = Figure 1a, 3 = Figure 1b).
pub fn fig1_trace(distance: usize, algorithm: Algorithm) -> TraceScenarioConfig {
    TraceScenarioConfig {
        relays: 3,
        fast: Bandwidth::from_mbps(100),
        bottleneck: Bandwidth::from_mbps(20),
        bottleneck_link: distance,
        hop_delay: SimDuration::from_millis(5),
        file_bytes: 1 << 20, // 1 MiB
        algorithm,
        cc: CcConfig::default(),
        seed: 1,
    }
}

/// Figure 1 (lower panel): 50 concurrent circuits over a randomly
/// generated star of 30 relays; CircuitStart vs plain BackTap.
pub fn fig1_cdf() -> CdfScenarioConfig {
    CdfScenarioConfig {
        star: StarScenario {
            directory: DirectoryConfig {
                relays: 30,
                bandwidth_mbps: (20.0, 100.0),
                delay_ms: (3.0, 10.0),
            },
            circuits: 50,
            relays_per_circuit: 3,
            endpoint_rate: Bandwidth::from_mbps(200),
            endpoint_delay_ms: (3.0, 8.0),
            file_bytes: 1 << 20,
            start_jitter_ms: 50.0,
            ..Default::default()
        },
        // The paper's pairing is CircuitStart vs plain BackTap (Vegas
        // only — its cited weakness is precisely the missing startup
        // phase). The classic halving slow start rides along as a third
        // series (the A3 `compensation` ablation, DESIGN.md §5).
        algorithms: vec![
            Algorithm::CircuitStart,
            Algorithm::NoSlowStart,
            Algorithm::ClassicBacktap,
        ],
        cc: CcConfig::default(),
        seed: 1,
        repetitions: 3,
    }
}

/// The path-selection experiment: the Figure-1c star with the selection
/// policy as the experimental axis (CircuitStart only — selection, not
/// the controller, is what varies). Run once per policy over identical
/// seeds; see the A7 `policies` ablation (DESIGN.md §5).
pub fn policy_cdf(selection: SelectionPolicy) -> CdfScenarioConfig {
    let mut cfg = fig1_cdf();
    cfg.star.selection = selection;
    cfg.algorithms = vec![Algorithm::CircuitStart];
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_trace_geometry() {
        let a = fig1_trace(1, Algorithm::CircuitStart);
        let hops = a.hops();
        assert_eq!(hops.len(), 4, "3 relays → 4 links");
        assert_eq!(hops[1].rate, Bandwidth::from_mbps(20));
        assert_eq!(hops[0].rate, Bandwidth::from_mbps(100));
        let b = fig1_trace(3, Algorithm::ClassicBacktap);
        assert_eq!(b.hops()[3].rate, Bandwidth::from_mbps(20));
        assert_eq!(b.hops()[1].rate, Bandwidth::from_mbps(100));
    }

    #[test]
    fn fig1_trace_optimal_in_paper_axis_range() {
        // The paper's upper plots span 0–70 KB with the optimum well
        // inside; our preset must land there too.
        let m = fig1_trace(1, Algorithm::CircuitStart).model();
        let kib = m.optimal_source_cwnd_kib();
        assert!(
            (10.0..40.0).contains(&kib),
            "optimal window {kib} KiB should sit inside the paper's axis"
        );
    }

    #[test]
    fn fig1_cdf_matches_paper_workload() {
        let c = fig1_cdf();
        assert_eq!(c.star.circuits, 50);
        assert_eq!(c.star.relays_per_circuit, 3);
        assert_eq!(c.algorithms.len(), 3);
        assert_eq!(c.algorithms[1], Algorithm::NoSlowStart);
        assert_eq!(c.star.file_bytes, 1 << 20);
    }

    #[test]
    fn policy_cdf_varies_only_the_selection_axis() {
        let c = policy_cdf(std::sync::Arc::new(relaynet::selection::CongestionAware));
        assert_eq!(c.star.circuits, fig1_cdf().star.circuits);
        assert_eq!(
            c.algorithms,
            vec![Algorithm::CircuitStart],
            "one controller; selection is the axis"
        );
    }
}
