//! `csbench` — calibrated end-to-end cells/s on five workloads, with a
//! per-layer cost stack measured from outside. See `README.md` beside
//! this file for the metric definitions and how to read the output.
//!
//! ```text
//! csbench --workload W --seed S --seconds N --trace 0|1 [--quick]   one workload, one process
//! csbench run   [--seed S] [--seconds N] [--quick] [--json OUT]     all workloads, end to end
//! csbench trace [--seed S] [--seconds N] [--quick] [--json OUT]     all workloads, per layer
//! csbench aa    [--seed S] [--seconds N] [--quick]                  two sets of one binary, compared
//! csbench compare A.json B.json                                     ratio per workload × metric
//! csbench catalogue                                                 every metric: unit, direction, bound / moves
//! ```

mod compare;
mod json;
mod metrics;
mod probes;
mod refkernel;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use run::Config;
use workloads::{Scale, Workload};

const USAGE: &str = "usage:
  csbench --workload <name> --seed <n> --seconds <n> --trace <0|1> [--quick]
  csbench run|trace|aa [--seed <n>] [--seconds <n>] [--quick] [--json <out>]
  csbench compare <A.json> <B.json>
  csbench catalogue
workloads: path3_bulk path3_short star50_churn star16_faults consensus7k_epochs";

/// Flags of the form `--name value`, plus the bare `--quick`.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    quick: bool,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            flags: Vec::new(),
            quick: false,
        };
        let mut raw = raw;
        while let Some(a) = raw.next() {
            if a == "--quick" {
                args.quick = true;
            } else if let Some(name) = a.strip_prefix("--") {
                let value = raw
                    .next()
                    .ok_or_else(|| format!("missing value for --{name}"))?;
                args.flags.push((name.to_string(), value));
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value `{v}` for --{name}")),
        }
    }
}

/// `--seconds`, defaulting to the standard 10 (1 under `--quick`).
fn seconds_of(args: &Args) -> Result<u32, String> {
    let seconds: u32 = args
        .get("seconds")?
        .unwrap_or(if args.quick { 1 } else { 10 });
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=60"));
    }
    Ok(seconds)
}

fn one_workload(args: &Args) -> Result<(), String> {
    let name: String = args.get("workload")?.ok_or("missing --workload")?;
    let workload =
        Workload::from_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let cfg = Config {
        workload,
        seed: args.get("seed")?.unwrap_or(1),
        seconds: seconds_of(args)?,
        scale: if args.quick {
            Scale::Quick
        } else {
            Scale::Full
        },
    };
    let trace: u8 = args.get("trace")?.unwrap_or(0);
    let report = match trace {
        0 => run::measure(&cfg)?,
        1 => trace::measure_layers(&cfg)?,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    print!("{}", report.human());
    println!("csbench-detail: {}", report.detail().render());
    println!("{}", report.result_line());
    Ok(())
}

fn set_spec(args: &Args, trace: bool) -> Result<compare::SetSpec, String> {
    Ok(compare::SetSpec {
        seed: args.get("seed")?.unwrap_or(1),
        seconds: seconds_of(args)?,
        quick: args.quick,
        trace,
    })
}

/// `run` / `trace`: every workload, each in its own process.
fn all_workloads(args: &Args, trace: bool) -> Result<(), String> {
    let set = compare::run_set(&set_spec(args, trace)?)?;
    if trace {
        compare::print_cost_stacks(&set);
    }
    if let Some(path) = args.get::<String>("json")? {
        std::fs::write(&path, set.render() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn read_set(path: &str) -> Result<json::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `compare A.json B.json`: fails when B is beyond a bound.
fn compare_files(args: &Args) -> Result<(), String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err(format!("compare takes two files\n{USAGE}"));
    };
    let outcome = compare::compare_sets(&read_set(a)?, &read_set(b)?)?;
    if outcome.regressions > 0 {
        return Err(format!(
            "{} metric(s) beyond their bound",
            outcome.regressions
        ));
    }
    Ok(())
}

/// `aa`: two full sets of runs of this binary with one seed, compared.
/// Passes when every end-to-end metric agrees within its bound and
/// everything that should be exact is identical.
fn self_check(args: &Args) -> Result<(), String> {
    let spec = set_spec(args, false)?;
    println!("== A/A set A");
    let a = compare::run_set(&spec)?;
    println!("== A/A set B");
    let b = compare::run_set(&spec)?;
    let outcome = compare::compare_sets(&a, &b)?;
    println!("observed A/A difference (largest over workloads):");
    for ((name, delta), m) in outcome.max_delta.iter().zip(&metrics::END_TO_END) {
        println!(
            "  {name:<18} {:>7.3}%  (bound {:.0}%)",
            100.0 * delta,
            100.0 * m.bound
        );
    }
    if outcome.regressions > 0 || outcome.exact_mismatches > 0 {
        return Err(format!(
            "A/A disagreement: {} metric(s) beyond their bound, {} exact value(s) differ",
            outcome.regressions, outcome.exact_mismatches
        ));
    }
    println!("A/A agreement: every metric within its bound, every exact value identical");
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("csbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.positional.first().map(String::as_str) {
        None => one_workload(&args),
        Some("run") => all_workloads(&args, false),
        Some("trace") => all_workloads(&args, true),
        Some("aa") => self_check(&args),
        Some("compare") => compare_files(&args),
        Some("catalogue") => {
            metrics::print_catalogue();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("csbench: {e}");
            ExitCode::from(1)
        }
    }
}
