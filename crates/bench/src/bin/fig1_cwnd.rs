//! Regenerates Figure 1 (upper panels): source congestion-window traces
//! with the bottleneck 1 and 3 hops from the source, for CircuitStart and
//! the "without CircuitStart" baselines, against the model-optimal dashed
//! line.
//!
//! ```text
//! cargo run --release -p cs-bench --bin fig1_cwnd
//! cargo run --release -p cs-bench --bin fig1_cwnd -- --distance 3 --seed 9
//! ```
//!
//! Prints the series the paper plots and writes
//! `target/figures/fig1_cwnd_d<k>_<algo>.dat` (columns: `time_ms
//! cwnd_kib optimal_kib`, time re-based to transfer start).

use circuitstart::prelude::*;
use cs_bench::{write_figure, Options};
use simstats::ascii::{plot_lines, PlotConfig};

fn main() {
    let opts = Options::from_env();
    let seed: u64 = opts.get("seed", 1);
    let only_distance: i64 = opts.get("distance", -1);
    let distances: Vec<usize> = if only_distance >= 0 {
        vec![only_distance as usize]
    } else {
        vec![1, 3]
    };

    for distance in distances {
        println!("━━━ Figure 1 (upper), bottleneck distance {distance} hop(s) ━━━");
        let mut series: Vec<(&str, Vec<(f64, f64)>)> = Vec::new();
        let mut optimal_kib = 0.0;
        let mut t_max: f64 = 0.0;

        for (label, algorithm) in [
            ("circuitstart", Algorithm::CircuitStart),
            ("classic slow start", Algorithm::ClassicBacktap),
        ] {
            let mut cfg = fig1_trace(distance, algorithm);
            cfg.seed = seed;
            let report = run_trace(&cfg);
            optimal_kib = report.optimal_kib();
            let kib = report.cwnd_kib_series();

            println!(
                "\n  {label}: peak {} cells, settle(±35%) {}, transfer {}",
                report.peak_cwnd_cells(),
                report
                    .settling_time_ms(0.35)
                    .map(|ms| format!("{ms:.0} ms"))
                    .unwrap_or_else(|| "never".to_string()),
                report.result.transfer_time().expect("completed"),
            );
            println!("    time_ms  cwnd_kib   (optimal {optimal_kib:.1} KiB)");
            for &(t, v) in &kib {
                println!("    {t:7.1}  {v:8.1}");
            }
            write_figure(
                &format!("fig1_cwnd_d{distance}_{}", report.algorithm_key),
                &report.to_table(),
            );

            // Step-resample for the terminal plot.
            let mut ts = simstats::timeseries::TimeSeries::new();
            for &(t, v) in &kib {
                ts.push(t, v);
            }
            let end = ts.end_time().unwrap_or(1.0).max(300.0);
            t_max = t_max.max(end);
            series.push((label, ts.resample(0.0, end, 150)));
        }

        let optimal_line: Vec<(f64, f64)> = (0..=150)
            .map(|i| (t_max * i as f64 / 150.0, optimal_kib))
            .collect();
        series.push(("optimal (model)", optimal_line));
        let plot = plot_lines(
            &series,
            &PlotConfig {
                width: 90,
                height: 22,
                title: format!(
                    "source cwnd [KiB] vs time since transfer start [ms] — distance {distance}"
                ),
                x_label: "time [ms]".into(),
                y_label: "cwnd [KiB]".into(),
            },
        );
        println!("\n{plot}");
    }
}
