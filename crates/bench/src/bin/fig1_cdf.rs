//! Regenerates Figure 1 (lower panel): the CDF of time-to-last-byte for
//! 50 concurrent circuits over a randomly generated star of Tor relays —
//! "with CircuitStart" vs "without CircuitStart" (plain BackTap), plus
//! the classic-slow-start extra baseline.
//!
//! ```text
//! cargo run --release -p cs-bench --bin fig1_cdf
//! cargo run --release -p cs-bench --bin fig1_cdf -- --reps 1 --circuits 25
//! ```
//!
//! Prints the staircase points the paper plots and writes
//! `target/figures/fig1_cdf_<algo>.dat` (columns: `ttlb_s cum_fraction`).

use circuitstart::prelude::*;
use cs_bench::{write_figure, Options};
use simstats::ascii::{plot_lines, PlotConfig};

fn main() {
    let opts = Options::from_env();
    let mut cfg = fig1_cdf();
    cfg.repetitions = opts.get("reps", cfg.repetitions);
    cfg.star.circuits = opts.get("circuits", cfg.star.circuits);
    cfg.seed = opts.get("seed", cfg.seed);

    println!(
        "━━━ Figure 1 (lower): {} circuits × {} repetition(s), {} relays, 1 MiB each ━━━",
        cfg.star.circuits, cfg.repetitions, cfg.star.directory.relays
    );
    let report = run_cdf(&cfg);

    let mut series: Vec<(&str, Vec<(f64, f64)>)> = Vec::new();
    for (i, s) in report.series.iter().enumerate() {
        println!(
            "\n  {:<14} median {:.3} s   p90 {:.3} s   range [{:.3}, {:.3}] s   (n={}, incomplete={})",
            s.algorithm_key,
            s.cdf.median(),
            s.cdf.quantile(0.9),
            s.cdf.min(),
            s.cdf.max(),
            s.cdf.len(),
            s.incomplete
        );
        write_figure(
            &format!("fig1_cdf_{}", s.algorithm_key),
            &report.to_table(i),
        );
    }

    let cs = report.get("circuitstart").expect("series");
    let backtap = report.get("no-slow-start").expect("series");
    println!(
        "\n  CircuitStart vs plain BackTap: median improvement {:.3} s, best-quantile improvement {:.3} s",
        backtap.cdf.median() - cs.cdf.median(),
        cs.cdf.max_quantile_improvement_over(&backtap.cdf)
    );
    println!("  (the paper reports an improvement of up to 0.5 s)");

    let label_of = |key: &str| -> &'static str {
        match key {
            "circuitstart" => "with circuitstart",
            "no-slow-start" => "without circuitstart (backtap)",
            _ => "classic slow start",
        }
    };
    for s in &report.series {
        series.push((label_of(&s.algorithm_key), s.cdf.points()));
    }
    let plot = plot_lines(
        &series,
        &PlotConfig {
            width: 90,
            height: 22,
            title: "cumulative distribution vs time to last byte [s]".into(),
            x_label: "time to last byte [s]".into(),
            y_label: "cumulative fraction".into(),
        },
    );
    println!("\n{plot}");
}
