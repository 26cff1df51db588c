//! # cs-bench — figure regeneration and performance benchmarks
//!
//! This crate holds everything that (re)produces the paper's numbers:
//!
//! * **Figure binaries** (`src/bin/`): each regenerates one artifact of
//!   the paper's evaluation, printing the same series the paper plots and
//!   writing gnuplot-ready `.dat` files under `target/figures/`.
//!   - `fig1_cwnd` — the upper panels (source cwnd traces, distances 1
//!     and 3, with the model-optimal dashed line);
//!   - `fig1_cdf` — the lower panel (time-to-last-byte CDFs for 50
//!     concurrent circuits, CircuitStart vs plain BackTap vs classic);
//!   - `ablations` — the A1–A7 sweeps from DESIGN.md §5 (γ/θ, initial
//!     window, compensation variants, bottleneck distance, load,
//!     mid-flow bandwidth change, path-selection policy).
//! * **`csbench`** (`src/bin/csbench/`): the benchmark every PR is
//!   judged with — five end-to-end workloads plus per-layer probes; see
//!   its README and the root `BENCHMARK.json`.
//!
//! Everything here is a thin driver over the `circuitstart` harness; the
//! shared code lives in this library so the binaries cannot drift apart.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::path::PathBuf;

use simstats::export::Table;

/// Output directory for figure data files: `target/figures/`.
pub fn figures_dir() -> PathBuf {
    // CARGO_TARGET_DIR is not set inside `cargo run`; derive from the
    // workspace layout instead (bench crate → workspace root → target).
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .join("target")
        .join("figures")
}

/// Writes a table as `<name>.dat` under [`figures_dir`], reporting the
/// path on stdout.
pub fn write_figure(name: &str, table: &Table) {
    let path = figures_dir().join(format!("{name}.dat"));
    table
        .write_gnuplot(&path)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("  wrote {}", path.display());
}

/// Parses `--key value`-style options from the command line, with
/// defaults. Deliberately tiny — the binaries take at most three options,
/// which does not justify an argument-parsing dependency.
pub struct Options {
    args: Vec<String>,
}

impl Options {
    /// Captures the process arguments.
    pub fn from_env() -> Options {
        Options {
            args: std::env::args().skip(1).collect(),
        }
    }

    /// The value following `--name`, parsed, or `default`.
    ///
    /// # Panics
    ///
    /// Panics with a readable message if the value does not parse.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        self.get_opt(name).unwrap_or(default)
    }

    /// The value following `--name`, parsed, or `None` when the flag is
    /// absent.
    ///
    /// # Panics
    ///
    /// Panics with a readable message if the value does not parse.
    pub fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: std::fmt::Display,
    {
        let flag = format!("--{name}");
        let mut it = self.args.iter();
        while let Some(a) = it.next() {
            if *a == flag {
                let v = it
                    .next()
                    .unwrap_or_else(|| panic!("missing value for {flag}"));
                return Some(
                    v.parse()
                        .unwrap_or_else(|e| panic!("bad value for {flag}: {e}")),
                );
            }
        }
        None
    }

    /// Positional (non `--`) arguments.
    pub fn positional(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut skip_next = false;
        for a in &self.args {
            if skip_next {
                skip_next = false;
                continue;
            }
            if a.starts_with("--") {
                skip_next = true;
            } else {
                out.push(a.as_str());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Options {
        Options {
            args: args.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn get_with_default() {
        let o = opts(&["--distance", "3", "--seed", "42"]);
        assert_eq!(o.get("distance", 1usize), 3);
        assert_eq!(o.get("seed", 1u64), 42);
        assert_eq!(o.get("other", 7u32), 7);
    }

    #[test]
    fn get_opt_is_optional() {
        let o = opts(&["--json", "/tmp/x.json"]);
        assert_eq!(o.get_opt::<String>("json").as_deref(), Some("/tmp/x.json"));
        assert_eq!(o.get_opt::<u64>("seed"), None);
    }

    #[test]
    fn positional_skips_option_values() {
        let o = opts(&["gamma", "--seed", "5", "load"]);
        assert_eq!(o.positional(), vec!["gamma", "load"]);
    }

    #[test]
    #[should_panic(expected = "bad value")]
    fn bad_value_panics() {
        let o = opts(&["--seed", "x"]);
        let _ = o.get("seed", 0u64);
    }

    #[test]
    fn figures_dir_is_under_target() {
        let d = figures_dir();
        assert!(d.ends_with("target/figures"));
    }
}
