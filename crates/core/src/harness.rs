//! The experiment harness: runs the paper's scenarios end to end and
//! produces the exact series the figures plot.

use backtap::config::CcConfig;
use netsim::bandwidth::Bandwidth;
use netsim::link::LinkConfig;
use relaynet::builder::{PathScenario, StarScenario};
use relaynet::circuit::CircuitResult;
use relaynet::network::TorNetwork;
use simcore::sim::{RunLimits, Simulator, StopReason};
use simcore::time::SimDuration;
use simstats::cdf::Cdf;
use simstats::export::Table;
use simstats::timeseries::TimeSeries;
use torcell::cell::CELL_LEN;

use crate::algorithm::Algorithm;
use crate::optimal::PathModel;

/// Hard safety limits for experiment runs; a healthy scenario quiesces
/// long before hitting either.
const MAX_EVENTS: u64 = 2_000_000_000;
const MAX_SIM_TIME_S: u64 = 3_600;

/// Runs a built overlay simulation until natural quiescence.
///
/// # Panics
///
/// Panics if the simulation hits the safety limits — that means a
/// protocol deadlock or runaway loop, which must never be silently
/// reported as a result.
pub fn run_to_completion(sim: &mut Simulator<TorNetwork>) {
    let report = sim.run_with_limits(RunLimits {
        until: Some(simcore::time::SimTime::from_secs(MAX_SIM_TIME_S)),
        max_events: Some(MAX_EVENTS),
    });
    assert_eq!(
        report.reason,
        StopReason::QueueEmpty,
        "simulation did not quiesce: {report:?}"
    );
}

// ---------------------------------------------------------------------
// Figure 1 (upper): source cwnd traces
// ---------------------------------------------------------------------

/// Configuration of a single-circuit cwnd-trace run (Figure 1a/1b).
#[derive(Clone, Debug)]
pub struct TraceScenarioConfig {
    /// Number of relays on the circuit (paper: 3).
    pub relays: usize,
    /// Rate of all non-bottleneck links.
    pub fast: Bandwidth,
    /// Rate of the bottleneck link.
    pub bottleneck: Bandwidth,
    /// Which link is the bottleneck: `0` = the client's own access link,
    /// `1` = one hop away (Figure 1a), `relays` = the exit→server link
    /// (Figure 1b's "distance 3" for a 3-relay circuit).
    pub bottleneck_link: usize,
    /// One-way propagation delay of every link.
    pub hop_delay: SimDuration,
    /// Transfer size.
    pub file_bytes: u64,
    /// The sender algorithm under test.
    pub algorithm: Algorithm,
    /// Congestion-control parameters.
    pub cc: CcConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for TraceScenarioConfig {
    fn default() -> Self {
        TraceScenarioConfig {
            relays: 3,
            fast: Bandwidth::from_mbps(100),
            bottleneck: Bandwidth::from_mbps(20),
            bottleneck_link: 1,
            hop_delay: SimDuration::from_millis(5),
            file_bytes: 1 << 20,
            algorithm: Algorithm::CircuitStart,
            cc: CcConfig::default(),
            seed: 1,
        }
    }
}

impl TraceScenarioConfig {
    /// The per-hop link configurations this scenario implies.
    pub fn hops(&self) -> Vec<LinkConfig> {
        let n = self.relays + 1;
        assert!(
            self.bottleneck_link < n,
            "bottleneck link {} out of range ({} links)",
            self.bottleneck_link,
            n
        );
        (0..n)
            .map(|i| {
                let rate = if i == self.bottleneck_link {
                    self.bottleneck
                } else {
                    self.fast
                };
                LinkConfig::new(rate, self.hop_delay)
            })
            .collect()
    }

    /// The analytical model of this scenario's path.
    pub fn model(&self) -> PathModel {
        PathModel::from_hops(&self.hops())
    }
}

/// Outcome of a trace run: the source's window over time plus the model
/// optimum — one panel of the paper's Figure 1 (upper).
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Algorithm identifier.
    pub algorithm_key: String,
    /// Bottleneck link index ("distance").
    pub bottleneck_link: usize,
    /// `(time ms, cwnd cells)` — every change of the source window.
    pub cwnd_cells: Vec<(f64, u32)>,
    /// The model-optimal source window, cells.
    pub optimal_cells: f64,
    /// Transfer outcome.
    pub result: CircuitResult,
}

impl TraceReport {
    /// When data started flowing, ms: the origin of the paper's time axis
    /// (its traces begin there, not when the circuit build begins).
    fn transfer_start_ms(&self) -> f64 {
        self.result
            .first_data_at
            .expect("completed")
            .as_millis_f64()
    }

    /// The trace in the paper's units and on its axis: `(ms since
    /// transfer start, KiB)`; window changes during the build sit at 0.
    pub fn cwnd_kib_series(&self) -> Vec<(f64, f64)> {
        let t0 = self.transfer_start_ms();
        self.cwnd_cells
            .iter()
            .map(|&(t, c)| ((t - t0).max(0.0), f64::from(c) * CELL_LEN as f64 / 1024.0))
            .collect()
    }

    /// The model optimum in KiB.
    pub fn optimal_kib(&self) -> f64 {
        self.optimal_cells * CELL_LEN as f64 / 1024.0
    }

    /// Largest window reached (the overshoot peak), cells.
    pub fn peak_cwnd_cells(&self) -> u32 {
        self.cwnd_cells.iter().map(|&(_, c)| c).max().unwrap_or(0)
    }

    /// Time (ms since transfer start) after which the window stays within
    /// `±tolerance·optimal` of the model optimum, if it ever settles.
    pub fn settling_time_ms(&self, tolerance: f64) -> Option<f64> {
        let lo = self.optimal_cells * (1.0 - tolerance);
        let hi = self.optimal_cells * (1.0 + tolerance);
        let mut ts = TimeSeries::new();
        for &(ms, c) in &self.cwnd_cells {
            ts.push(ms / 1e3, f64::from(c));
        }
        ts.settling_time(lo, hi)
            .map(|s| s * 1e3 - self.transfer_start_ms())
    }

    /// The Figure 1 (upper) data file: `time_ms, cwnd_kib, optimal_kib`
    /// over [`TraceReport::cwnd_kib_series`] (gnuplot-ready).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec!["time_ms", "cwnd_kib", "optimal_kib"]);
        let opt = self.optimal_kib();
        for (ms, kib) in self.cwnd_kib_series() {
            t.push_row(&[ms, kib, opt]);
        }
        t
    }
}

/// Runs one cwnd-trace scenario (one curve of Figure 1a/1b).
pub fn run_trace(cfg: &TraceScenarioConfig) -> TraceReport {
    let hops = cfg.hops();
    let model = PathModel::from_hops(&hops);
    let scenario = PathScenario {
        hops,
        file_bytes: cfg.file_bytes,
        ..Default::default()
    };
    let (mut sim, handles) = scenario.build(cfg.algorithm.factory(cfg.cc), cfg.seed);
    run_to_completion(&mut sim);
    let world = sim.world();
    assert_eq!(
        world.stats().protocol_errors,
        0,
        "protocol errors during trace run"
    );
    let result = world.result_of(handles.circ);
    assert!(result.completed, "trace transfer did not complete");
    assert_eq!(result.payload_errors, 0);
    let trace = world
        .source_cwnd_trace(handles.circ)
        .expect("tracing enabled")
        .iter()
        .map(|&(t, c)| (t.as_millis_f64(), c))
        .collect();
    TraceReport {
        algorithm_key: cfg.algorithm.key(),
        bottleneck_link: cfg.bottleneck_link,
        cwnd_cells: trace,
        optimal_cells: model.optimal_source_cwnd_cells(),
        result,
    }
}

// ---------------------------------------------------------------------
// Figure 1 (lower): time-to-last-byte CDFs
// ---------------------------------------------------------------------

/// Configuration of the concurrent-circuits CDF experiment (Figure 1c).
#[derive(Clone, Debug)]
pub struct CdfScenarioConfig {
    /// The star network and workload.
    pub star: StarScenario,
    /// Algorithms to compare (run over identical seeds/topologies).
    pub algorithms: Vec<Algorithm>,
    /// Congestion-control parameters.
    pub cc: CcConfig,
    /// Master seed of the first repetition.
    pub seed: u64,
    /// Repetitions; TTLB samples aggregate across them.
    pub repetitions: u32,
}

/// One algorithm's aggregated TTLB distribution.
#[derive(Clone, Debug)]
pub struct CdfSeries {
    /// Algorithm identifier.
    pub algorithm_key: String,
    /// Transfer times, seconds, across all circuits and repetitions.
    pub cdf: Cdf,
    /// Circuits that failed to complete (must be 0).
    pub incomplete: u64,
}

/// Outcome of the CDF experiment.
#[derive(Clone, Debug)]
pub struct CdfReport {
    /// One series per algorithm, in the order configured.
    pub series: Vec<CdfSeries>,
}

impl CdfReport {
    /// The series of a given algorithm key.
    pub fn get(&self, key: &str) -> Option<&CdfSeries> {
        self.series.iter().find(|s| s.algorithm_key == key)
    }

    /// The Figure 1 (lower) data file of one series: `ttlb_s,
    /// cum_fraction` staircase points (gnuplot-ready).
    pub fn to_table(&self, series_index: usize) -> Table {
        let s = &self.series[series_index];
        Table::from_pairs("ttlb_s", "cum_fraction", &s.cdf.points())
    }
}

/// Runs the CDF experiment: every algorithm over the identical set of
/// topologies/workloads (paired seeds).
pub fn run_cdf(cfg: &CdfScenarioConfig) -> CdfReport {
    assert!(!cfg.algorithms.is_empty(), "need at least one algorithm");
    assert!(cfg.repetitions >= 1, "need at least one repetition");
    let mut series = Vec::with_capacity(cfg.algorithms.len());
    for algo in &cfg.algorithms {
        let mut samples: Vec<f64> = Vec::new();
        let mut incomplete = 0u64;
        for rep in 0..cfg.repetitions {
            let seed = cfg.seed.wrapping_add(u64::from(rep));
            let (mut sim, circuits) = cfg.star.build(algo.factory(cfg.cc), seed);
            run_to_completion(&mut sim);
            let world = sim.world();
            assert_eq!(
                world.stats().protocol_errors,
                0,
                "protocol errors in CDF run ({})",
                algo.key()
            );
            for c in circuits {
                let r = world.result_of(c);
                match (r.completed, r.transfer_time()) {
                    (true, Some(t)) => samples.push(t.as_secs_f64()),
                    _ => incomplete += 1,
                }
            }
        }
        series.push(CdfSeries {
            algorithm_key: algo.key(),
            cdf: Cdf::from_samples(samples).expect("at least one completed circuit"),
            incomplete,
        });
    }
    CdfReport { series }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast, assertion-friendly downscale of the Figure 1a geometry.
    fn small_trace(algorithm: Algorithm) -> TraceScenarioConfig {
        TraceScenarioConfig {
            file_bytes: 200_000,
            algorithm,
            ..Default::default()
        }
    }

    #[test]
    fn trace_starts_at_init_cwnd_and_completes() {
        let report = run_trace(&small_trace(Algorithm::CircuitStart));
        assert_eq!(report.cwnd_cells[0].1, 2, "initial window is 2 cells");
        assert!(report.result.completed);
        assert!(report.peak_cwnd_cells() >= 4, "some ramping must happen");
        assert!(report.optimal_cells > 10.0);
    }

    #[test]
    fn circuitstart_compensates_into_the_optimal_band() {
        let report = run_trace(&small_trace(Algorithm::CircuitStart));
        // The window must overshoot above the optimum during doubling …
        assert!(
            f64::from(report.peak_cwnd_cells()) > report.optimal_cells,
            "peak {} should exceed optimal {}",
            report.peak_cwnd_cells(),
            report.optimal_cells
        );
        // … and then settle within ±35% of the model optimum.
        let settle = report.settling_time_ms(0.35);
        assert!(
            settle.is_some(),
            "CircuitStart must settle near the optimum; trace: {:?}",
            report.cwnd_cells
        );
    }

    #[test]
    fn trace_units_are_consistent() {
        let report = run_trace(&small_trace(Algorithm::CircuitStart));
        let kib = report.cwnd_kib_series();
        assert_eq!(kib.len(), report.cwnd_cells.len());
        // 2 cells = 1 KiB; the build-time window sits at time 0.
        assert_eq!(kib[0], (0.0, 1.0));
        let table = report.to_table();
        assert_eq!(table.headers(), &["time_ms", "cwnd_kib", "optimal_kib"]);
        assert_eq!(table.row_count(), kib.len());
    }

    #[test]
    fn classic_baseline_also_completes() {
        let report = run_trace(&small_trace(Algorithm::ClassicBacktap));
        assert!(report.result.completed);
        assert_eq!(report.algorithm_key, "classic");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bottleneck_out_of_range_rejected() {
        let cfg = TraceScenarioConfig {
            bottleneck_link: 9,
            ..Default::default()
        };
        let _ = cfg.hops();
    }

    #[test]
    fn cdf_experiment_pairs_algorithms() {
        let cfg = CdfScenarioConfig {
            star: StarScenario {
                circuits: 6,
                file_bytes: 60_000,
                directory: relaynet::directory::DirectoryConfig {
                    relays: 8,
                    bandwidth_mbps: (20.0, 60.0),
                    delay_ms: (3.0, 8.0),
                },
                ..Default::default()
            },
            algorithms: vec![Algorithm::CircuitStart, Algorithm::ClassicBacktap],
            cc: CcConfig::default(),
            seed: 5,
            repetitions: 2,
        };
        let report = run_cdf(&cfg);
        assert_eq!(report.series.len(), 2);
        for s in &report.series {
            assert_eq!(s.cdf.len(), 12, "6 circuits × 2 reps");
            assert_eq!(s.incomplete, 0);
        }
        assert!(report.get("circuitstart").is_some());
        assert!(report.get("classic").is_some());
        assert!(report.get("nope").is_none());
        let t = report.to_table(0);
        assert_eq!(t.row_count(), 12);
    }
}
