//! What one measured workload reports, and its three renderings: the
//! human table, the driver's one-line result, and the detail object
//! `run`/`trace`/`compare` exchange.

use crate::json::{obj, Json};
use crate::stats::Quartiles;

/// One reported number: the calibrated (or exact) median with its
/// quartiles, and for host-time metrics the raw series beside it.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub cal: Quartiles,
    pub raw: Option<Quartiles>,
    /// Batches, chunks or repetitions behind the quartiles.
    pub samples: usize,
    /// The calibrated and raw series themselves, in measurement order
    /// (empty for exact values) — kept so a noise study can try other
    /// estimators on recorded runs.
    pub series: Vec<(f64, f64)>,
    /// A count or simulated statistic: must repeat bit-for-bit for a seed.
    pub exact: bool,
}

impl Value {
    /// A count or a simulated statistic, exact for a seed.
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Value {
        Value {
            exact: true,
            ..Value::read_once(name, unit, value)
        }
    }

    /// A host-side reading taken once, or derived from host time: not
    /// exact.
    pub fn read_once(name: &'static str, unit: &'static str, value: f64) -> Value {
        Value::host_series(name, unit, &[value])
    }

    /// Host-side readings that calibration does not apply to (memory):
    /// their median and quartiles.
    pub fn host_series(name: &'static str, unit: &'static str, values: &[f64]) -> Value {
        Value {
            name,
            unit,
            cal: Quartiles::of(values),
            raw: None,
            samples: values.len(),
            series: Vec::new(),
            exact: false,
        }
    }
}

#[derive(Clone, Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    /// Flows created in the timed batches, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    pub sim_digest: u64,
    pub values: Vec<Value>,
    /// Counts that must repeat bit-for-bit for a seed.
    pub exact: Vec<(&'static str, u64)>,
    pub ref_pass_s: Quartiles,
}

/// `x` with six significant digits, never in exponent form — set-up
/// times are microseconds and rates are hundreds of thousands.
pub fn sig6(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = (5 - x.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{x:.decimals$}")
}

fn quartiles_json(q: &Quartiles) -> Json {
    obj([
        ("q1", Json::Num(q.q1)),
        ("median", Json::Num(q.median)),
        ("q3", Json::Num(q.q3)),
    ])
}

impl Report {
    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<&Value> {
        self.values.iter().find(|v| v.name == name)
    }

    /// The table printed above the result line.
    pub fn human(&self) -> String {
        let mut out = format!(
            "csbench {} seed {} seconds {} trace {}\n",
            self.workload, self.seed, self.seconds, self.trace as u8
        );
        for v in &self.values {
            out.push_str(&format!(
                "  {:<36} {:>14} {:<8}",
                v.name,
                sig6(v.cal.median),
                v.unit
            ));
            if v.samples > 1 {
                out.push_str(&format!(
                    " [q1 {} q3 {} spread {:.2}% n {}]",
                    sig6(v.cal.q1),
                    sig6(v.cal.q3),
                    100.0 * v.cal.spread(),
                    v.samples
                ));
            }
            if let Some(raw) = &v.raw {
                out.push_str(&format!(
                    " raw {} (spread {:.2}%)",
                    sig6(raw.median),
                    100.0 * raw.spread()
                ));
            }
            out.push('\n');
        }
        for (name, count) in &self.exact {
            out.push_str(&format!("  {name:<36} {count:>14} count    (exact)\n"));
        }
        out.push_str(&format!(
            "  flows attempted {} failed {} failed_share {}\n  sim_digest {:016x}\n  \
             reference pass median {:.3} ms (spread {:.2}%), nominal {:.1} ms\n",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.sim_digest,
            1e3 * self.ref_pass_s.median,
            100.0 * self.ref_pass_s.spread(),
            1e3 * crate::stats::REF_NOMINAL_S,
        ));
        out
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`. A run that reaches this point passed
    /// every validity check, so `correct` is true; an invalid run exits
    /// non-zero without a result line.
    pub fn result_line(&self) -> String {
        obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                obj(self.values.iter().map(|v| {
                    (
                        v.name,
                        obj([
                            ("value", Json::Num(v.cal.median)),
                            ("unit", Json::Str(v.unit.to_string())),
                        ]),
                    )
                })),
            ),
        ])
        .render()
    }

    /// Everything, for the `--json` files and `compare`.
    pub fn detail(&self) -> Json {
        obj([
            ("workload", Json::Str(self.workload.to_string())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(f64::from(self.seconds))),
            ("trace", Json::Bool(self.trace)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failed_share",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("sim_digest", Json::Str(format!("{:016x}", self.sim_digest))),
            ("ref_pass_s", quartiles_json(&self.ref_pass_s)),
            (
                "exact",
                obj(self
                    .exact
                    .iter()
                    .map(|&(name, count)| (name, Json::Num(count as f64)))),
            ),
            (
                "metrics",
                obj(self.values.iter().map(|v| {
                    let mut fields = vec![
                        ("value".to_string(), Json::Num(v.cal.median)),
                        ("unit".to_string(), Json::Str(v.unit.to_string())),
                        ("q1".to_string(), Json::Num(v.cal.q1)),
                        ("q3".to_string(), Json::Num(v.cal.q3)),
                        ("samples".to_string(), Json::Num(v.samples as f64)),
                        ("exact".to_string(), Json::Bool(v.exact)),
                    ];
                    if let Some(raw) = &v.raw {
                        fields.push(("raw".to_string(), quartiles_json(raw)));
                    }
                    if !v.series.is_empty() {
                        let column = |f: fn(&(f64, f64)) -> f64| {
                            Json::Arr(v.series.iter().map(|p| Json::Num(f(p))).collect())
                        };
                        fields.push(("series_cal".to_string(), column(|p| p.0)));
                        fields.push(("series_raw".to_string(), column(|p| p.1)));
                    }
                    (v.name, Json::Obj(fields))
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample() -> Report {
        Report {
            workload: "path3_bulk",
            seed: 3,
            seconds: 10,
            trace: false,
            attempted: 31,
            failed: 0,
            sim_digest: 0xdead_beef,
            values: vec![
                Value {
                    name: "cells_per_s",
                    unit: "1/s",
                    cal: Quartiles::of(&[290e3, 300e3, 310e3]),
                    raw: Some(Quartiles::of(&[250e3, 300e3, 350e3])),
                    samples: 3,
                    series: vec![(290e3, 250e3), (300e3, 300e3), (310e3, 350e3)],
                    exact: false,
                },
                Value::exact("sim_ttlb_p50_ms", "sim_ms", 2771.25),
            ],
            exact: vec![("cells", 12345)],
            ref_pass_s: Quartiles::of(&[0.028]),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = sample().result_line();
        assert!(!line.contains('\n'));
        let doc = parse(&line).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").and_then(|m| m.get("cells_per_s"));
        let fields: Vec<&str> = m
            .and_then(Json::as_object)
            .expect("metric object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(fields, ["value", "unit"]);
        assert_eq!(
            m.and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(300e3)
        );
    }

    #[test]
    fn six_significant_digits_at_any_magnitude() {
        assert_eq!(sig6(298123.4567), "298123");
        assert_eq!(sig6(2903.539922), "2903.54");
        assert_eq!(sig6(0.0000024567891), "0.00000245679");
        assert_eq!(sig6(-12.5), "-12.5000");
        assert_eq!(sig6(0.0), "0");
    }

    #[test]
    fn detail_carries_quartiles_raw_and_digest() {
        let doc = parse(&sample().detail().render()).expect("valid JSON");
        let rate = doc.get("metrics").and_then(|m| m.get("cells_per_s"));
        assert_eq!(
            rate.and_then(|m| m.get("q1")).and_then(Json::as_f64),
            Some(295e3)
        );
        assert!(rate.and_then(|m| m.get("raw")).is_some());
        assert_eq!(
            doc.get("sim_digest").and_then(Json::as_str),
            Some("00000000deadbeef")
        );
        assert!(sample().human().contains("sim_digest 00000000deadbeef"));
    }
}
