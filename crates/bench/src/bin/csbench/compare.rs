//! `run`, `trace`, `aa` and `compare`: sets of per-workload runs (each
//! its own process, so `VmHWM` is per workload) and the comparison of
//! two such sets against the benchmark's bounds.

use std::process::Command;

use crate::json::{obj, parse, Json};
use crate::metrics::{Better, END_TO_END};
use crate::report::sig6;
use crate::workloads::ALL_WORKLOADS;

/// What a set of runs is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct SetSpec {
    pub seed: u64,
    pub seconds: u32,
    pub quick: bool,
    pub trace: bool,
}

/// Runs every workload in its own process (this executable, re-executed)
/// and gathers the detail objects. Children's tables pass through to
/// standard output.
pub fn run_set(spec: &SetSpec) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut details = Vec::new();
    for workload in ALL_WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name()])
            .args(["--seed", &spec.seed.to_string()])
            .args(["--seconds", &spec.seconds.to_string()])
            .args(["--trace", if spec.trace { "1" } else { "0" }]);
        if spec.quick {
            cmd.arg("--quick");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "{} run failed ({}): {}",
                workload.name(),
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let mut detail = None;
        for line in stdout.lines() {
            if let Some(d) = line.strip_prefix("csbench-detail: ") {
                detail = Some(parse(d)?);
            } else if !line.starts_with('{') {
                println!("{line}");
            }
        }
        details.push(detail.ok_or_else(|| format!("{}: no detail line", workload.name()))?);
    }
    Ok(obj([
        ("tool", Json::Str("csbench".to_string())),
        (
            "mode",
            Json::Str(if spec.trace { "trace" } else { "run" }.to_string()),
        ),
        ("seed", Json::Num(spec.seed as f64)),
        ("seconds", Json::Num(f64::from(spec.seconds))),
        ("quick", Json::Bool(spec.quick)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("workloads", Json::Arr(details)),
    ]))
}

/// The "where a cell's time goes" table of a traced set.
pub fn print_cost_stacks(set: &Json) {
    for w in set.get("workloads").and_then(Json::as_array).unwrap_or(&[]) {
        let name = w.get("workload").and_then(Json::as_str).unwrap_or("?");
        let value = |metric: &str| {
            w.get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        let Some(total) = value("simcore.ns_per_cell") else {
            continue;
        };
        println!("cost stack of {name}: {total:.0} calibrated ns per delivered cell");
        for layer in [
            "simcore",
            "netsim",
            "torcell",
            "backtap",
            "relaynet",
            "unattributed",
        ] {
            if let Some(ns) = value(&format!("stack.{layer}_ns_per_cell")) {
                println!("  {layer:<14} {ns:>9.0} ns  {:>5.1}%", 100.0 * ns / total);
            }
        }
    }
}

/// One side of a comparison: the median with its quartiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is worse than A by more than the bound.
    Regression,
    /// The difference is smaller than the wider of the two spreads:
    /// these two runs cannot tell the sides apart.
    Unresolved,
    /// Worse, resolved, and inside the bound.
    WithinBound,
    Improved,
    Identical,
}

/// Share of A's value by which B is worse (negative when better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    };
    if a == 0.0 {
        0.0
    } else {
        delta / a.abs()
    }
}

pub fn verdict(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    let worse = worse_by(a.value, b.value, better);
    if a.value == b.value {
        Verdict::Identical
    } else if worse > bound {
        Verdict::Regression
    } else if worse.abs() <= a.spread().max(b.spread()) {
        Verdict::Unresolved
    } else if worse > 0.0 {
        Verdict::WithinBound
    } else {
        Verdict::Improved
    }
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let m = workload.get("metrics")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
    })
}

/// What a comparison found.
#[derive(Debug, Default, PartialEq)]
pub struct Outcome {
    pub regressions: usize,
    /// Simulated statistics, digests, exact counts or failure counts
    /// that differ between two runs of one seed.
    pub exact_mismatches: usize,
    /// Largest `|b − a| / a` seen per end-to-end metric.
    pub max_delta: Vec<(&'static str, f64)>,
}

/// Prints, per workload × end-to-end metric, the ratio with its base and
/// both quartile ranges, and compares what must be exact.
pub fn compare_sets(a: &Json, b: &Json) -> Result<Outcome, String> {
    fn list(set: &Json) -> Result<&[Json], String> {
        set.get("workloads")
            .and_then(Json::as_array)
            .ok_or_else(|| "not a csbench run file: no `workloads`".to_string())
    }
    let (wa, wb) = (list(a)?, list(b)?);
    let same_seed = a.get("seed") == b.get("seed") && a.get("quick") == b.get("quick");
    let mut outcome = Outcome {
        max_delta: END_TO_END.iter().map(|m| (m.name, 0.0)).collect(),
        ..Outcome::default()
    };
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>8}  {:<31} {:<31} verdict",
        "workload", "metric", "A (base)", "B", "B/A", "A [q1, q3]", "B [q1, q3]"
    );
    for x in wa {
        let name = x.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(y) = wb
            .iter()
            .find(|y| y.get("workload").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<20} only in A");
            continue;
        };
        for (i, m) in END_TO_END.iter().enumerate() {
            let (Some(sa), Some(sb)) = (side(x, m.name), side(y, m.name)) else {
                continue; // a traced file has no end-to-end metrics
            };
            let v = verdict(sa, sb, m.better, m.bound);
            if v == Verdict::Regression {
                outcome.regressions += 1;
            }
            let delta = ((sb.value - sa.value) / sa.value).abs();
            outcome.max_delta[i].1 = outcome.max_delta[i].1.max(delta);
            println!(
                "{:<20} {:<18} {:>14} {:>14} {:>8.4}  [{:>13}, {:>13}] [{:>13}, {:>13}] {}",
                name,
                m.name,
                sig6(sa.value),
                sig6(sb.value),
                sb.value / sa.value,
                sig6(sa.q1),
                sig6(sa.q3),
                sig6(sb.q1),
                sig6(sb.q3),
                match v {
                    Verdict::Regression => format!("REGRESSION (bound {:.0}%)", 100.0 * m.bound),
                    Verdict::Unresolved => "unresolved (difference within spread)".to_string(),
                    Verdict::WithinBound => format!("within bound {:.0}%", 100.0 * m.bound),
                    Verdict::Improved => "improved".to_string(),
                    Verdict::Identical => "identical".to_string(),
                }
            );
        }
        let failed = |w: &Json| w.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed(y) > failed(x) {
            println!(
                "{name:<20} failed flows rose from {} to {}: REGRESSION (bound 0)",
                failed(x),
                failed(y)
            );
            outcome.regressions += 1;
        }
        if same_seed {
            for key in ["sim_digest", "exact", "failed", "attempted"] {
                if x.get(key) != y.get(key) {
                    println!(
                        "{name:<20} {key} DIFFERS for one seed: {} vs {}",
                        x.get(key).map_or("-".to_string(), Json::render),
                        y.get(key).map_or("-".to_string(), Json::render)
                    );
                    outcome.exact_mismatches += 1;
                }
            }
            // Simulated statistics and counts reported as metrics too.
            for (metric, mx) in x.get("metrics").and_then(Json::as_object).unwrap_or(&[]) {
                let exact = mx.get("exact") == Some(&Json::Bool(true));
                let my = y.get("metrics").and_then(|m| m.get(metric));
                if exact && Some(mx.get("value")) != my.map(|m| m.get("value")) {
                    println!("{name:<20} exact metric {metric} DIFFERS for one seed");
                    outcome.exact_mismatches += 1;
                }
            }
        }
    }
    if same_seed {
        println!(
            "same seed on both sides: simulated statistics, digests and exact counts {}",
            if outcome.exact_mismatches == 0 {
                "are identical".to_string()
            } else {
                format!("differ in {} places", outcome.exact_mismatches)
            }
        );
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, q1: f64, q3: f64) -> Side {
        Side { value, q1, q3 }
    }

    #[test]
    fn worsening_is_direction_aware() {
        assert!((worse_by(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn verdicts_separate_unresolved_from_unchanged() {
        let tight = |v| s(v, v * 0.995, v * 1.005); // 1% spread
        let wide = |v| s(v, v * 0.95, v * 1.05); // 10% spread
        let (hi, bound) = (Better::Higher, 0.10);
        assert_eq!(
            verdict(tight(100.0), tight(100.0), hi, bound),
            Verdict::Identical
        );
        // 5% slower with 1% spread: resolved, inside the bound.
        assert_eq!(
            verdict(tight(100.0), tight(95.0), hi, bound),
            Verdict::WithinBound
        );
        // The same 5% under a 10% spread cannot be told from noise.
        assert_eq!(
            verdict(wide(100.0), wide(95.0), hi, bound),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(tight(100.0), tight(105.0), hi, bound),
            Verdict::Improved
        );
        // Beyond the bound is a regression however wide the spread.
        assert_eq!(
            verdict(wide(100.0), wide(85.0), hi, bound),
            Verdict::Regression
        );
        assert_eq!(
            verdict(tight(10.0), tight(11.5), Better::Lower, bound),
            Verdict::Regression
        );
    }

    fn set(seed: f64, rate: f64, ttlb: f64, digest: &str) -> Json {
        let metric = |v: f64, spread: f64| {
            obj([
                ("value", Json::Num(v)),
                ("q1", Json::Num(v * (1.0 - spread))),
                ("q3", Json::Num(v * (1.0 + spread))),
                ("exact", Json::Bool(spread == 0.0)),
            ])
        };
        obj([
            ("seed", Json::Num(seed)),
            ("quick", Json::Bool(false)),
            (
                "workloads",
                Json::Arr(vec![obj([
                    ("workload", Json::Str("path3_bulk".to_string())),
                    ("failed", Json::Num(0.0)),
                    ("attempted", Json::Num(31.0)),
                    ("sim_digest", Json::Str(digest.to_string())),
                    ("exact", obj([("cells", Json::Num(5.0))])),
                    (
                        "metrics",
                        obj([
                            ("cells_per_s", metric(rate, 0.01)),
                            ("sim_ttlb_p50_ms", metric(ttlb, 0.0)),
                        ]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn comparing_sets_counts_regressions_and_exact_mismatches() {
        let base = set(1.0, 300e3, 2900.0, "aa");
        let same = compare_sets(&base, &set(1.0, 297e3, 2900.0, "aa")).expect("comparable");
        assert_eq!((same.regressions, same.exact_mismatches), (0, 0));
        assert!((same.max_delta[0].1 - 0.01).abs() < 1e-12);

        let slower = compare_sets(&base, &set(1.0, 200e3, 2900.0, "aa")).expect("comparable");
        assert_eq!((slower.regressions, slower.exact_mismatches), (1, 0));

        // Same seed, different simulated behaviour: digest and TTLB.
        let drifted = compare_sets(&base, &set(1.0, 300e3, 2910.0, "bb")).expect("comparable");
        assert_eq!((drifted.regressions, drifted.exact_mismatches), (0, 2));

        // Different seeds are different experiments: nothing must match.
        let other = compare_sets(&base, &set(2.0, 300e3, 2910.0, "bb")).expect("comparable");
        assert_eq!((other.regressions, other.exact_mismatches), (0, 0));

        assert!(compare_sets(&Json::Null, &base).is_err());
    }
}
