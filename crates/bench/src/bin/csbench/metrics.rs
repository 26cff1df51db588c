//! The metric catalogue: every name the benchmark reports, with its
//! unit, direction, regression bound (end to end) and the end-to-end
//! metric and workload it is expected to move (per layer). A unit test
//! holds `BENCHMARK.json` to this table.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Simulated time carries the unit `sim_ms`; host time is in calibrated
/// seconds (see `refkernel.rs`).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "cells_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_ttlb_p50_ms",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_ttlb_p99_ms",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric this should move, on which workload.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const CPS_PATH: &str = "cells_per_s on path3_bulk and path3_short";
const CPS_PATH_STAR: &str = "cells_per_s on path3_bulk, path3_short and star50_churn";
const CPS_BULK: &str = "cells_per_s on path3_bulk";
const CPS_CHURN: &str = "cells_per_s on star50_churn and star16_faults";
const CPS_FAULTS: &str = "cells_per_s and failed flows on star16_faults";
const CONSENSUS: &str = "setup_s and cells_per_s on consensus7k_epochs only";
const TTLB: &str = "sim_ttlb_p50_ms and sim_ttlb_p99_ms on every workload";
const TTLB_STAR: &str = "sim_ttlb_p99_ms on star50_churn";
const NONE: &str = "no end-to-end metric today (informational)";
const COLLECT: &str = "world.collect_share_pct only; no cells_per_s";
const WORLD: &str = "cells_per_s on path3_short and consensus7k_epochs (per-world overhead)";
const EVENTS: &str = "cells_per_s on the traced workload, through its event kind's share";
const STACK: &str = "cells_per_s on the traced workload; rows sum to simcore.ns_per_cell";

pub const PER_LAYER: [PerLayer; 72] = [
    // simcore
    pl("simcore.events_per_cell", "count", Lower, CPS_PATH_STAR),
    pl("simcore.ns_per_event", "ns", Lower, CPS_PATH_STAR),
    pl("simcore.ns_per_cell", "ns", Lower, CPS_PATH_STAR),
    pl("simcore.queue_hold_ns", "ns", Lower, CPS_PATH_STAR),
    pl("simcore.loop_dispatch_ns", "ns", Lower, CPS_PATH_STAR),
    pl("simcore.rng_draw_ns", "ns", Lower, CONSENSUS),
    pl("simcore.exec_sweep8_speedup", "ratio", Higher, NONE),
    // netsim
    pl("netsim.frames_per_cell", "count", Lower, CPS_BULK),
    pl("netsim.wire_bytes_per_cell", "B", Lower, CPS_BULK),
    pl("netsim.frames_dropped", "count", Lower, TTLB_STAR),
    pl("netsim.queue_hwm_frames", "count", Lower, TTLB_STAR),
    pl("netsim.queue_wait_mean_us", "sim_us", Lower, TTLB_STAR),
    pl("netsim.hop_ns_per_frame", "ns", Lower, CPS_BULK),
    // torcell
    pl("torcell.wrap3_ns", "ns", Lower, CPS_BULK),
    pl("torcell.strip_ns", "ns", Lower, CPS_BULK),
    pl("torcell.digest_ns", "ns", Lower, CPS_BULK),
    pl("torcell.encode_ns", "ns", Lower, NONE),
    pl("torcell.decode_ns", "ns", Lower, NONE),
    pl("torcell.feedback_codec_ns", "ns", Lower, NONE),
    // backtap / circuitstart
    pl("backtap.send_feedback_ns", "ns", Lower, CPS_PATH),
    pl("backtap.ramp_ns", "ns", Lower, "cells_per_s on path3_short"),
    pl("backtap.src_cwnd_final", "cells", Higher, TTLB),
    pl("backtap.bad_feedback", "count", Lower, TTLB),
    pl("core.cwnd_err_vs_model_pct", "%", Lower, TTLB),
    pl("core.ttlb_gain_vs_classic_pct", "%", Higher, TTLB),
    // relaynet
    pl("relaynet.feedback_per_cell", "count", Lower, CPS_PATH),
    pl("relaynet.pool_allocs_per_kcell", "count", Lower, CPS_PATH),
    pl("relaynet.pool_reuse_ratio", "ratio", Higher, CPS_PATH),
    pl("relaynet.sched_backlog_hwm", "count", Lower, TTLB_STAR),
    pl(
        "relaynet.cells_drained_per_kcell",
        "count",
        Lower,
        CPS_CHURN,
    ),
    pl("relaynet.destroys_per_world", "count", Lower, CPS_CHURN),
    pl("relaynet.rebuilds_per_world", "count", Lower, CPS_CHURN),
    pl(
        "relaynet.slots_reclaimed_per_world",
        "count",
        Higher,
        CPS_CHURN,
    ),
    pl(
        "relaynet.epoch_teardowns_per_world",
        "count",
        Lower,
        CONSENSUS,
    ),
    pl("relaynet.timeouts_per_world", "count", Lower, CPS_FAULTS),
    pl("relaynet.retries_per_world", "count", Lower, CPS_FAULTS),
    pl("relaynet.flows_parked", "count", Lower, CPS_FAULTS),
    pl("relaynet.stale_frames_dropped", "count", Lower, CPS_FAULTS),
    pl("relaynet.crash_frames_dropped", "count", Lower, CPS_FAULTS),
    pl("relaynet.sched_ns_1circ", "ns", Lower, CPS_PATH),
    pl(
        "relaynet.sched_ns_50circ",
        "ns",
        Lower,
        "cells_per_s on star50_churn",
    ),
    pl("relaynet.pool_ns", "ns", Lower, CPS_PATH),
    pl("relaynet.fill_verify_ns", "ns", Lower, CPS_PATH),
    pl("relaynet.fingerprint_ns_per_world", "ns", Lower, COLLECT),
    pl("relaynet.select3_ns_7k", "ns", Lower, CONSENSUS),
    pl(
        "relaynet.directory_gen_ns_per_relay",
        "ns",
        Lower,
        CONSENSUS,
    ),
    // simstats
    pl("simstats.sketch_record_ns", "ns", Lower, COLLECT),
    pl("simstats.sketch_merge16_ns", "ns", Lower, COLLECT),
    pl("simstats.cdf_build_ns_per_sample", "ns", Lower, COLLECT),
    pl("simstats.prom_export_ns", "ns", Lower, COLLECT),
    pl("simstats.sketch_p99_err_pct", "%", Lower, NONE),
    // per-world spans (benchmark-side)
    pl("world.build_share_pct", "%", Lower, WORLD),
    pl("world.run_share_pct", "%", Higher, WORLD),
    pl("world.collect_share_pct", "%", Lower, WORLD),
    pl("world.drop_share_pct", "%", Lower, WORLD),
    // host time and count per event kind, from the set_probe closure
    pl("relaynet.ev_txc_fwd_ns", "ns", Lower, EVENTS),
    pl("relaynet.ev_txc_rev_ns", "ns", Lower, EVENTS),
    pl("relaynet.ev_dlv_fwd_ns", "ns", Lower, EVENTS),
    pl("relaynet.ev_dlv_rev_ns", "ns", Lower, EVENTS),
    pl("relaynet.ev_ctrl_ns", "ns", Lower, EVENTS),
    pl("relaynet.ev_txc_fwd_per_cell", "count", Lower, EVENTS),
    pl("relaynet.ev_txc_rev_per_cell", "count", Lower, EVENTS),
    pl("relaynet.ev_dlv_fwd_per_cell", "count", Lower, EVENTS),
    pl("relaynet.ev_dlv_rev_per_cell", "count", Lower, EVENTS),
    pl("relaynet.ev_ctrl_per_cell", "count", Lower, EVENTS),
    pl("trace.overhead_pct", "%", Lower, NONE),
    // the cost stack: probe × in-situ count, per delivered cell
    pl("stack.simcore_ns_per_cell", "ns", Lower, STACK),
    pl("stack.netsim_ns_per_cell", "ns", Lower, STACK),
    pl("stack.torcell_ns_per_cell", "ns", Lower, STACK),
    pl("stack.backtap_ns_per_cell", "ns", Lower, STACK),
    pl("stack.relaynet_ns_per_cell", "ns", Lower, STACK),
    pl("stack.unattributed_ns_per_cell", "ns", Lower, STACK),
];

/// Prints the catalogue: what each metric is measured in, which way is
/// better, and what it is bounded by or expected to move.
pub fn print_catalogue() {
    println!("end-to-end metrics (bound: share of the parent's median it may worsen by)");
    for m in &END_TO_END {
        println!(
            "  {:<36} {:<7} {:<7} bound {:.2}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    println!("per-layer metrics (moves: the end-to-end metric and workload it should move)");
    for m in &PER_LAYER {
        println!(
            "  {:<36} {:<7} {:<7} moves {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

/// The name rule of `BENCHMARK.json`: starts with a letter or digit,
/// then letters, digits, `_`, `.`, `-`; at most 64 characters.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::workloads::ALL_WORKLOADS;

    fn benchmark_json() -> Json {
        // `CARGO_MANIFEST_DIR` is `crates/bench` when built as a
        // `cs-bench` binary and this directory when built standalone.
        let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let path = here
            .ancestors()
            .map(|a| a.join("BENCHMARK.json"))
            .find(|p| p.is_file())
            .expect("BENCHMARK.json above the manifest");
        parse(&std::fs::read_to_string(path).expect("readable")).expect("valid JSON")
    }

    fn str_field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("missing string `{key}` in {entry:?}"))
    }

    fn keys(entry: &Json) -> Vec<&str> {
        entry
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(ALL_WORKLOADS.iter().map(|w| w.name()))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
        for m in &PER_LAYER {
            assert!(!m.moves.is_empty(), "{} has no `moves` entry", m.name);
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = benchmark_json();
        assert_eq!(
            keys(&doc),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let workloads = doc.get("workloads").and_then(Json::as_array).expect("list");
        let names: Vec<&str> = workloads.iter().map(|w| str_field(w, "name")).collect();
        let expected: Vec<&str> = ALL_WORKLOADS.iter().map(|w| w.name()).collect();
        assert_eq!(names, expected);
        for w in workloads {
            assert_eq!(keys(w), ["name", "why"]);
            let why = str_field(w, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }

        let e2e = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("list");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
            assert_eq!(str_field(entry, "name"), m.name);
            assert_eq!(str_field(entry, "unit"), m.unit);
            assert_eq!(str_field(entry, "better"), m.better.as_str());
            let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
            assert_eq!(bound, m.bound);
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));

        let layers = doc.get("per_layer").and_then(Json::as_array).expect("list");
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (entry, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(keys(entry), ["name", "unit", "better"]);
            assert_eq!(str_field(entry, "name"), m.name);
            assert_eq!(str_field(entry, "unit"), m.unit);
            assert_eq!(str_field(entry, "better"), m.better.as_str());
        }

        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("number");
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        let paths = doc.get("paths").and_then(Json::as_array).expect("list");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("crates/bench/src/bin/csbench"));
    }
}
