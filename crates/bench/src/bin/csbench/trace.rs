//! The traced run (`--trace 1`): every per-layer metric.
//!
//! Spans are recorded from the benchmark's side of each call into the
//! program — the four phases of a world, and inside `run` a
//! `Simulator::set_probe` closure that timestamps every event and
//! charges the interval since the previous event to that previous
//! event's kind. Everything is kept in memory and reported at exit.
//! Batches alternate untraced and traced over the same worlds, so the
//! difference between the two is the tracing overhead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use circuitstart::{Algorithm, PathModel};
use netsim::bandwidth::Bandwidth;
use netsim::link::{LinkConfig, LinkId};
use netsim::net::NetEvent;
use relaynet::{CircId, PathScenario, TorEvent, WorldStats};
use simcore::sim::{RunLimits, StopReason};
use simcore::time::SimDuration;
use simstats::QuantileSketch;

use crate::metrics::PER_LAYER;
use crate::probes;
use crate::report::{Report, Value};
use crate::run::{determinism_digest, Config, Series, Totals};
use crate::stats::{percentile_nearest_rank, Quartiles};
use crate::workloads::{run_world, world_seed, Built, Scenario};

/// Event kinds the probe tells apart. On a path world "forward" links
/// carry client → server; on a star "forward" is a leaf's uplink
/// (leaf → hub) and "reverse" its downlink (hub → leaf).
const KINDS: usize = 5;
const TXC_FWD: usize = 0;
const TXC_REV: usize = 1;
const DLV_FWD: usize = 2;
const DLV_REV: usize = 3;
const CTRL: usize = 4;
const KIND_NAMES: [(&str, &str); KINDS] = [
    ("relaynet.ev_txc_fwd_ns", "relaynet.ev_txc_fwd_per_cell"),
    ("relaynet.ev_txc_rev_ns", "relaynet.ev_txc_rev_per_cell"),
    ("relaynet.ev_dlv_fwd_ns", "relaynet.ev_dlv_fwd_per_cell"),
    ("relaynet.ev_dlv_rev_ns", "relaynet.ev_dlv_rev_per_cell"),
    ("relaynet.ev_ctrl_ns", "relaynet.ev_ctrl_per_cell"),
];

/// Onion layers a DATA cell is wrapped in and stripped of: three relays
/// plus the server's own layer, on every workload.
const LAYERS: f64 = 4.0;

#[derive(Clone, Copy)]
enum Slot {
    Txc(usize),
    Dlv(usize),
    Ctrl,
}

/// Per-link accumulators filled by the probe; links are classified
/// after the run, when the world can be asked where each one leads.
#[derive(Default)]
struct Tracer {
    last: Option<(Instant, Slot)>,
    links: Vec<Option<LinkId>>,
    txc: Vec<(u64, u64)>, // (nanoseconds, events) per link index
    dlv: Vec<(u64, u64)>,
    ctrl: (u64, u64),
}

impl Tracer {
    fn charge(&mut self, now: Instant) {
        if let Some((since, slot)) = self.last.take() {
            let ns = (now - since).as_nanos() as u64;
            let cell = match slot {
                Slot::Txc(i) => &mut self.txc[i],
                Slot::Dlv(i) => &mut self.dlv[i],
                Slot::Ctrl => &mut self.ctrl,
            };
            cell.0 += ns;
            cell.1 += 1;
        }
    }

    fn see(&mut self, link: LinkId) -> usize {
        let i = link.index();
        if i >= self.links.len() {
            self.links.resize(i + 1, None);
            self.txc.resize(i + 1, (0, 0));
            self.dlv.resize(i + 1, (0, 0));
        }
        self.links[i] = Some(link);
        i
    }
}

fn install_probe(built: &mut Built) -> Rc<RefCell<Tracer>> {
    let tracer = Rc::new(RefCell::new(Tracer::default()));
    let shared = Rc::clone(&tracer);
    built.sim.set_probe(Box::new(move |_, event: &TorEvent| {
        let now = Instant::now();
        let mut t = shared.borrow_mut();
        t.charge(now);
        let slot = match *event {
            TorEvent::Net(NetEvent::TxComplete { link }) => Slot::Txc(t.see(link)),
            TorEvent::Net(NetEvent::Deliver { link }) => Slot::Dlv(t.see(link)),
            _ => Slot::Ctrl,
        };
        t.last = Some((now, slot));
    }));
    tracer
}

/// In-situ counts over traced worlds (all exact for a seed), plus the
/// host nanoseconds the probe charged to each event kind.
#[derive(Default)]
struct Counts {
    kind_ns: [u64; KINDS],
    kind_events: [u64; KINDS],
    frames_sent: u64,
    bytes_sent: u64,
    frames_dropped: u64,
    queue_hwm_frames: usize,
    queue_wait_ns: u64,
    sched_backlog_hwm: usize,
    pool_allocated: u64,
    pool_reused: u64,
    src_cwnd_sum: u64,
    src_transports: u64,
    bad_feedback: u64,
    sketch: QuantileSketch,
}

impl Counts {
    /// Folds a quiesced traced world in: closes the last interval,
    /// classifies each link the probe saw, reads the link and pool
    /// telemetry through the world's public accessors.
    fn absorb_world(&mut self, built: &Built, tracer: &Rc<RefCell<Tracer>>, run_ended: Instant) {
        let mut t = tracer.borrow_mut();
        t.charge(run_ended);
        let world = built.sim.world();
        let net = world.net();
        for (i, link) in t.links.iter().enumerate() {
            let Some(link) = *link else { continue };
            let forward = match &built.path {
                Some(h) => h.fwd_links.contains(&link),
                None => net.node_name(net.link_dst(link)) == "hub",
            };
            let (txc, dlv) = if forward {
                (TXC_FWD, DLV_FWD)
            } else {
                (TXC_REV, DLV_REV)
            };
            self.kind_ns[txc] += t.txc[i].0;
            self.kind_events[txc] += t.txc[i].1;
            self.kind_ns[dlv] += t.dlv[i].0;
            self.kind_events[dlv] += t.dlv[i].1;
            let s = net.stats(link);
            self.frames_sent += s.frames_sent;
            self.bytes_sent += s.bytes_sent;
            self.frames_dropped += s.frames_dropped;
            self.queue_hwm_frames = self.queue_hwm_frames.max(s.queue_hwm_frames);
            self.queue_wait_ns += s.queue_wait_total.as_nanos();
            self.sched_backlog_hwm = self.sched_backlog_hwm.max(world.sched_backlog_hwm(link));
        }
        self.kind_ns[CTRL] += t.ctrl.0;
        self.kind_events[CTRL] += t.ctrl.1;
        let (allocated, reused) = world.payload_pool().stats();
        self.pool_allocated += allocated;
        self.pool_reused += reused;
        for c in 0..world.circuit_count() {
            if let Some(hop) = world.client_transport(CircId(c as u32)) {
                self.src_cwnd_sum += u64::from(hop.cwnd());
                self.src_transports += 1;
                self.bad_feedback += hop.stats().bad_feedback;
            }
        }
        self.sketch.merge(world.flow_completion_sketch());
    }
}

/// Mean pending-event population of world 1, sampled every 1024 events
/// through `run_with_limits`; returns the quiesced world and its event
/// count too.
fn pending_population(cfg: &Config) -> Result<(usize, Built, u64), String> {
    let seed = world_seed(cfg.seed, 1);
    let mut built = cfg.scenario(seed).build(seed);
    let (mut sum, mut samples) = (0usize, 0usize);
    loop {
        let report = built.sim.run_with_limits(RunLimits {
            until: None,
            max_events: Some(1024),
        });
        match report.reason {
            StopReason::EventLimit => {
                sum += built.sim.pending_events();
                samples += 1;
            }
            StopReason::QueueEmpty => break,
            other => return Err(format!("population world stopped with {other:?}")),
        }
    }
    let events = built.sim.events_processed();
    Ok((sum / samples.max(1), built, events))
}

/// Final source window against the paper's analytical optimum, on the
/// nominal path geometry (4 × 100 Mbit/s, 2 ms) with a 4 MiB transfer.
fn cwnd_error_vs_model_pct(seed: u64) -> Result<f64, String> {
    let hops = vec![LinkConfig::new(Bandwidth::from_mbps(100), SimDuration::from_millis(2)); 4];
    let optimal = PathModel::from_hops(&hops).optimal_source_cwnd_cells();
    let scenario = Scenario::Path(PathScenario {
        hops,
        file_bytes: 4 << 20,
        ..Default::default()
    });
    let mut built = scenario.build(seed);
    built.sim.run();
    let cwnd = built
        .sim
        .world()
        .client_transport(built.circuits[0])
        .ok_or("model world has no client transport")?
        .cwnd();
    Ok(100.0 * (f64::from(cwnd) - optimal).abs() / optimal)
}

/// Median simulated TTLB of world 1 under `algorithm`, milliseconds.
fn median_ttlb_ms(cfg: &Config, algorithm: Algorithm) -> Result<f64, String> {
    let seed = world_seed(cfg.seed, 1);
    let mut built = cfg.scenario(seed).build_with(algorithm, seed);
    built.sim.run();
    let mut ttlb: Vec<u64> = built
        .sim
        .world()
        .flows()
        .iter()
        .filter_map(|f| f.completion_time())
        .map(|d| d.as_nanos())
        .collect();
    if ttlb.is_empty() {
        return Err(format!("no flow completed under {algorithm:?}"));
    }
    Ok(percentile_nearest_rank(&mut ttlb, 50.0) as f64 / 1e6)
}

/// The `--trace 1` measurement: every per-layer metric.
pub fn measure_layers(cfg: &Config) -> Result<Report, String> {
    let sim_digest = determinism_digest(cfg)?;
    let (pending, population_world, population_events) = pending_population(cfg)?;
    let cwnd_err = cwnd_error_vs_model_pct(world_seed(cfg.seed, 1))?;
    let ttlb_classic = median_ttlb_ms(cfg, Algorithm::ClassicBacktap)?;
    let ttlb_circuitstart = median_ttlb_ms(cfg, Algorithm::CircuitStart)?;
    let mut cal = cfg.calibrator();

    let batches = (cfg.batches() / 3).max(1);
    let mut plain_cell = Series::default(); // host ns per cell, untraced
    let mut plain_event = Series::default();
    let mut traced_cell = Series::default();
    let mut kind_series: [Series; KINDS] = Default::default();
    let mut phase_s = [0.0f64; 4]; // build, run, collect, drop
    let mut totals = Totals::default();
    let mut stats = WorldStats::default();
    let mut counts = Counts::default();
    let mut warmup_counts = Counts::default();

    for batch in 0..=batches {
        // Untraced pass over the batch's worlds, phases timed.
        let ((outcomes, batch_phase_s), plain) = cal.try_bracket(|| {
            let mut outcomes = Vec::new();
            let mut phase_s = [0.0f64; 4];
            for seed in cfg.batch_worlds(batch) {
                let (outcome, p) = run_world(
                    cfg.workload,
                    &cfg.scenario(seed),
                    seed,
                    |_| (),
                    |_, (), _| (),
                )?;
                for (total, phase) in phase_s.iter_mut().zip([p.build, p.run, p.collect, p.drop]) {
                    *total += phase;
                }
                outcomes.push(outcome);
            }
            Ok(((outcomes, phase_s), phase_s[1]))
        })?;
        // Traced pass over the same worlds; the warm-up's counts are
        // kept apart and never read.
        let sink = if batch == 0 {
            &mut warmup_counts
        } else {
            &mut counts
        };
        let (ns_before, events_before) = (sink.kind_ns, sink.kind_events);
        let ((), traced) = cal.try_bracket(|| {
            let mut in_run = 0.0;
            for seed in cfg.batch_worlds(batch) {
                let (_, p) = run_world(
                    cfg.workload,
                    &cfg.scenario(seed),
                    seed,
                    install_probe,
                    |built, tracer, run_ended| sink.absorb_world(built, &tracer, run_ended),
                )?;
                in_run += p.run;
            }
            Ok(((), in_run))
        })?;
        if batch == 0 {
            continue; // warm-up
        }
        let cells: u64 = outcomes.iter().map(|o| o.cells).sum();
        let events: u64 = outcomes.iter().map(|o| o.events).sum();
        plain_cell.push(plain, |s| 1e9 * s / cells as f64);
        plain_event.push(plain, |s| 1e9 * s / events as f64);
        traced_cell.push(traced, |s| 1e9 * s / cells as f64);
        let to_calibrated = traced.cal_s / traced.raw_s;
        for (k, series) in kind_series.iter_mut().enumerate() {
            let events = counts.kind_events[k] - events_before[k];
            if events > 0 {
                let raw = (counts.kind_ns[k] - ns_before[k]) as f64 / events as f64;
                series.cal.push(raw * to_calibrated);
                series.raw.push(raw);
            }
        }
        for (total, phase) in phase_s.iter_mut().zip(batch_phase_s) {
            *total += phase;
        }
        for o in outcomes {
            stats.merge(&o.stats);
            totals.add(o);
        }
    }

    let probe_values = probes::run_all(
        &mut cal,
        cfg.scale,
        pending,
        population_world.sim.world(),
        population_events,
    );
    let single_circuit = population_world.circuits.len() == 1;
    drop(population_world);

    let cells = totals.cells as f64;
    let worlds = totals.worlds as f64;
    let mut reported: BTreeMap<&'static str, Value> = BTreeMap::new();
    let mut put = |v: Value| {
        reported.insert(v.name, v);
    };
    for v in probe_values {
        put(v);
    }
    let count = |name, unit, value: f64| Value::exact(name, unit, value);
    // Derived from host time: one number per run, but not exact.
    let derived = |name, unit, value: f64| Value::read_once(name, unit, value);

    // simcore
    put(count(
        "simcore.events_per_cell",
        "count",
        totals.events as f64 / cells,
    ));
    put(plain_event.value("simcore.ns_per_event", "ns"));
    put(plain_cell.value("simcore.ns_per_cell", "ns"));
    // netsim
    let frames_per_cell = counts.frames_sent as f64 / cells;
    put(count("netsim.frames_per_cell", "count", frames_per_cell));
    put(count(
        "netsim.wire_bytes_per_cell",
        "B",
        counts.bytes_sent as f64 / cells,
    ));
    put(count(
        "netsim.frames_dropped",
        "count",
        counts.frames_dropped as f64,
    ));
    put(count(
        "netsim.queue_hwm_frames",
        "count",
        counts.queue_hwm_frames as f64,
    ));
    put(count(
        "netsim.queue_wait_mean_us",
        "sim_us",
        counts.queue_wait_ns as f64 / 1e3 / counts.frames_sent.max(1) as f64,
    ));
    // backtap / circuitstart
    put(count(
        "backtap.src_cwnd_final",
        "cells",
        counts.src_cwnd_sum as f64 / counts.src_transports.max(1) as f64,
    ));
    put(count(
        "backtap.bad_feedback",
        "count",
        counts.bad_feedback as f64,
    ));
    put(count("core.cwnd_err_vs_model_pct", "%", cwnd_err));
    put(count(
        "core.ttlb_gain_vs_classic_pct",
        "%",
        100.0 * (ttlb_classic - ttlb_circuitstart) / ttlb_classic,
    ));
    // relaynet
    let feedback_per_cell = stats.feedback_sent as f64 / cells;
    put(count(
        "relaynet.feedback_per_cell",
        "count",
        feedback_per_cell,
    ));
    put(count(
        "relaynet.pool_allocs_per_kcell",
        "count",
        1e3 * counts.pool_allocated as f64 / cells,
    ));
    put(count(
        "relaynet.pool_reuse_ratio",
        "ratio",
        counts.pool_reused as f64 / (counts.pool_allocated + counts.pool_reused).max(1) as f64,
    ));
    put(count(
        "relaynet.sched_backlog_hwm",
        "count",
        counts.sched_backlog_hwm as f64,
    ));
    put(count(
        "relaynet.cells_drained_per_kcell",
        "count",
        1e3 * stats.cells_drained as f64 / cells,
    ));
    for (name, total) in [
        ("relaynet.destroys_per_world", stats.destroys_sent),
        ("relaynet.rebuilds_per_world", stats.rebuilds),
        ("relaynet.slots_reclaimed_per_world", stats.slots_reclaimed),
        ("relaynet.epoch_teardowns_per_world", stats.epoch_teardowns),
        ("relaynet.timeouts_per_world", stats.timeouts_fired),
        ("relaynet.retries_per_world", stats.retries),
    ] {
        put(count(name, "count", total as f64 / worlds));
    }
    for (name, total) in [
        ("relaynet.flows_parked", stats.flows_parked),
        ("relaynet.stale_frames_dropped", stats.stale_frames_dropped),
        ("relaynet.crash_frames_dropped", stats.crash_frames_dropped),
    ] {
        put(count(name, "count", total as f64));
    }
    // simstats: the merged world sketches against the exact samples.
    let exact_p99_s = percentile_nearest_rank(&mut totals.ttlb_ns, 99.0) as f64 / 1e9;
    put(count(
        "simstats.sketch_p99_err_pct",
        "%",
        100.0 * (counts.sketch.p99() - exact_p99_s).abs() / exact_p99_s,
    ));
    // per-world spans
    let all_phases: f64 = phase_s.iter().sum();
    for (name, phase) in [
        "world.build_share_pct",
        "world.run_share_pct",
        "world.collect_share_pct",
        "world.drop_share_pct",
    ]
    .into_iter()
    .zip(phase_s)
    {
        put(derived(name, "%", 100.0 * phase / all_phases));
    }
    // event kinds
    for (k, (ns_name, per_cell_name)) in KIND_NAMES.into_iter().enumerate() {
        put(if kind_series[k].cal.is_empty() {
            count(ns_name, "ns", 0.0)
        } else {
            kind_series[k].value(ns_name, "ns")
        });
        put(count(
            per_cell_name,
            "count",
            counts.kind_events[k] as f64 / cells,
        ));
    }
    let ns_per_cell = Quartiles::of(&plain_cell.cal).median;
    put(derived(
        "trace.overhead_pct",
        "%",
        100.0 * (Quartiles::of(&traced_cell.cal).median - ns_per_cell) / ns_per_cell,
    ));

    // The cost stack: each layer's probe times how often a delivered
    // cell makes the program perform that operation in situ. The rows
    // and the unattributed remainder sum to `simcore.ns_per_cell`.
    let ns = |name: &str| reported[name].cal.median;
    let sched_ns = if single_circuit {
        ns("relaynet.sched_ns_1circ")
    } else {
        ns("relaynet.sched_ns_50circ")
    };
    let rows = [
        (
            "stack.simcore_ns_per_cell",
            ns("simcore.events_per_cell") * ns("simcore.loop_dispatch_ns"),
        ),
        (
            "stack.netsim_ns_per_cell",
            frames_per_cell * ns("netsim.hop_ns_per_frame"),
        ),
        (
            "stack.torcell_ns_per_cell",
            LAYERS * (ns("torcell.wrap3_ns") / 3.0 + ns("torcell.strip_ns"))
                + ns("torcell.digest_ns"),
        ),
        (
            "stack.backtap_ns_per_cell",
            feedback_per_cell * ns("backtap.send_feedback_ns"),
        ),
        (
            "stack.relaynet_ns_per_cell",
            frames_per_cell * sched_ns + ns("relaynet.pool_ns") + ns("relaynet.fill_verify_ns"),
        ),
    ];
    let attributed: f64 = rows.iter().map(|r| r.1).sum();
    for (name, value) in rows
        .into_iter()
        .chain([("stack.unattributed_ns_per_cell", ns_per_cell - attributed)])
    {
        reported.insert(name, derived(name, "ns", value));
    }

    let values = PER_LAYER
        .iter()
        .map(|m| {
            let v = reported
                .remove(m.name)
                .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))?;
            if v.unit != m.unit {
                return Err(format!("{}: unit {} is not {}", m.name, v.unit, m.unit));
            }
            Ok(v)
        })
        .collect::<Result<Vec<Value>, String>>()?;
    if let Some(extra) = reported.keys().next() {
        return Err(format!("{extra} was measured but is not in the catalogue"));
    }
    Ok(Report {
        workload: cfg.workload.name(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        trace: true,
        attempted: totals.flows,
        failed: totals.failed,
        sim_digest,
        values,
        exact: vec![
            ("worlds", totals.worlds),
            ("flows", totals.flows),
            ("cells", totals.cells),
            ("events", totals.events),
            ("pending_events_mean", pending as u64),
        ],
        ref_pass_s: Quartiles::of(&cal.ref_passes_s),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Scale, Workload};

    /// A traced pass reports every catalogue metric, its counts repeat
    /// exactly, and the stack's rows plus the remainder give back the
    /// measured cost per cell.
    #[test]
    fn traced_run_reports_the_whole_catalogue() {
        for workload in [Workload::Path3Short, Workload::Star16Faults] {
            let cfg = Config {
                workload,
                seed: 11,
                seconds: 1,
                scale: Scale::Test,
            };
            let a = measure_layers(&cfg).expect("valid traced run");
            let b = measure_layers(&cfg).expect("valid traced run");
            let names: Vec<&str> = a.values.iter().map(|v| v.name).collect();
            let catalogue: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, catalogue);
            assert_eq!(a.exact, b.exact);
            assert_eq!(a.sim_digest, b.sim_digest);
            for name in [
                "simcore.events_per_cell",
                "netsim.frames_per_cell",
                "netsim.wire_bytes_per_cell",
                "relaynet.feedback_per_cell",
                "relaynet.ev_txc_fwd_per_cell",
                "relaynet.ev_ctrl_per_cell",
                "backtap.src_cwnd_final",
                "core.cwnd_err_vs_model_pct",
                "core.ttlb_gain_vs_classic_pct",
            ] {
                assert_eq!(a.value(name), b.value(name), "{name}");
            }
            // Every event is charged to exactly one kind.
            let per_cell: f64 = KIND_NAMES
                .iter()
                .map(|(_, n)| a.value(n).expect("present").cal.median)
                .sum();
            let events = a.value("simcore.events_per_cell").expect("present");
            assert!((per_cell - events.cal.median).abs() < 1e-9);
            let stack: f64 = a
                .values
                .iter()
                .filter(|v| v.name.starts_with("stack."))
                .map(|v| v.cal.median)
                .sum();
            let measured = a.value("simcore.ns_per_cell").expect("present").cal.median;
            assert!(
                (stack - measured).abs() <= 1e-6 * measured,
                "stack {stack} vs measured {measured}"
            );
        }
    }
}
