//! # simstats — measurement and reporting toolkit
//!
//! Everything the CircuitStart evaluation harness uses to turn raw
//! simulation output into the artifacts the paper reports:
//!
//! * [`timeseries`] — step-function traces (cwnd over time, Figure 1 upper
//!   panels), resampling, settling-time metrics.
//! * [`cdf`] — empirical CDFs (time-to-last-byte, Figure 1 lower panel),
//!   quantiles, stochastic-dominance checks.
//! * [`sketch`] — fixed-size mergeable quantile sketches: the streaming,
//!   O(buckets)-memory counterpart of [`cdf`] for aggregation at scale.
//! * [`registry`] — named counters and gauges behind cheap handles, with
//!   order-independent merge.
//! * [`export`] — CSV, gnuplot, and Prometheus-text writers
//!   (dependency-free by design).
//! * [`ascii`] — terminal plots for the bench binaries.
//!
//! This crate is deliberately free of simulation dependencies: it consumes
//! plain `f64`s so it can be reused and tested in isolation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ascii;
pub mod cdf;
pub mod export;
pub mod registry;
pub mod sketch;
pub mod timeseries;

pub use ascii::{plot_lines, PlotConfig};
pub use cdf::Cdf;
pub use export::{prometheus_text, Table};
pub use registry::{MetricId, MetricKind, MetricsRegistry};
pub use sketch::QuantileSketch;
pub use timeseries::TimeSeries;
