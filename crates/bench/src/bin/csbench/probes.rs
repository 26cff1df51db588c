//! Isolated per-layer probes: each layer's hot operation driven through
//! its public API alone, in nanoseconds per operation. The traced run
//! multiplies these by the in-situ counts to build the cost stack.
//!
//! Every probe runs `REPS` repetitions inside one calibration bracket
//! and reports the median repetition.

use std::sync::Arc;
use std::time::Instant;

use backtap::cc::Phase;
use backtap::config::CcConfig;
use backtap::hop::HopTransport;
use circuitstart::Algorithm;
use netsim::bandwidth::Bandwidth;
use netsim::frame::RawFrame;
use netsim::link::{LinkConfig, LinkId};
use netsim::net::{Net, NetEvent};
use relaynet::directory::Directory;
use relaynet::runtime::{fingerprint, FactoryMaker, ShardedStar, StatsKind};
use relaynet::sampler::SamplerKind;
use relaynet::selection::{CongestionAware, DirectoryView, SelectionEngine};
use relaynet::workload::{ArrivalSpec, ChurnSpec, WorkloadSpec};
use relaynet::{
    fill_pattern_into, verify_fill_pattern, CircId, DirectoryConfig, FramePayload, LinkScheduler,
    PayloadPool, StarScenario, TorNetwork, WireFrame, WorldStats,
};
use simcore::event::{EventQueue, QueueKind};
use simcore::exec::{DeterministicExecutor, Executor, ThreadedExecutor};
use simcore::rng::SimRng;
use simcore::sim::{Context, Simulator, World};
use simcore::time::{SimDuration, SimTime};
use simstats::{prometheus_text, Cdf, MetricsRegistry, QuantileSketch};
use torcell::prelude::*;

use crate::refkernel::Calibrator;
use crate::report::Value;
use crate::stats::Quartiles;
use crate::workloads::Scale;

const REPS: usize = 9;

/// Operations per repetition at `scale`: the full count when measuring,
/// a sliver under `Scale::Test` so an unoptimised build finishes.
fn sized(scale: Scale, ops: u64) -> u64 {
    match scale {
        Scale::Test => (ops / 500).max(1),
        _ => ops,
    }
}

/// Runs `rep` `REPS` times in one bracket (after one discarded call that
/// warms caches and lazy state). Each call performs `ops` operations
/// and returns the seconds to charge for them. Reports calibrated
/// nanoseconds per operation.
fn probe_timed(
    cal: &mut Calibrator,
    name: &'static str,
    ops: u64,
    mut rep: impl FnMut() -> f64,
) -> Value {
    let mut reps = [0.0f64; REPS];
    rep();
    let timed = cal.bracket(|| {
        let t0 = Instant::now();
        for r in &mut reps {
            *r = rep();
        }
        t0.elapsed().as_secs_f64()
    });
    let raw_ns: Vec<f64> = reps.iter().map(|r| r * 1e9 / ops as f64).collect();
    let cal_ns: Vec<f64> = raw_ns
        .iter()
        .map(|ns| ns * timed.cal_s / timed.raw_s)
        .collect();
    Value {
        name,
        unit: "ns",
        cal: Quartiles::of(&cal_ns),
        raw: Some(Quartiles::of(&raw_ns)),
        samples: REPS,
        series: Vec::new(),
        exact: false,
    }
}

/// [`probe_timed`] for a body that is timed as a whole.
fn probe(cal: &mut Calibrator, name: &'static str, ops: u64, mut body: impl FnMut()) -> Value {
    probe_timed(cal, name, ops, || {
        let t0 = Instant::now();
        body();
        t0.elapsed().as_secs_f64()
    })
}

/// Delays between an event and the one it schedules, cycled: a feedback
/// frame's and a cell's serialisation at 100 Mbit/s, and two 2 ms
/// propagation delays — the mix a path world keeps pending.
const INCREMENTS_NS: [u64; 4] = [1_600, 40_960, 2_000_000, 2_000_000];

/// A world whose every event schedules one successor.
struct Chains {
    remaining: u64,
}

impl World for Chains {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Context<'_, u32>, chain: u32) {
        if self.remaining > 0 {
            self.remaining -= 1;
            let inc = INCREMENTS_NS[(chain % 4) as usize];
            ctx.schedule_in(SimDuration::from_nanos(inc), chain.wrapping_add(1));
        }
    }
}

fn simcore_probes(cal: &mut Calibrator, scale: Scale, pending: usize, out: &mut Vec<Value>) {
    let ops = sized(scale, 200_000);
    let pending = pending.max(1);

    // Bare calendar push+pop at the in-situ pending population.
    out.push(probe(cal, "simcore.queue_hold_ns", ops, || {
        let mut q: EventQueue<u32> = EventQueue::with_kind(QueueKind::default());
        for i in 0..pending {
            q.push(
                SimTime::from_nanos(INCREMENTS_NS[i % 4] * (1 + i as u64 / 4)),
                i as u32,
            );
        }
        for _ in 0..ops {
            let (t, _, ev) = q.pop().expect("population stays constant");
            let inc = INCREMENTS_NS[(ev % 4) as usize];
            q.push(t + SimDuration::from_nanos(inc), ev.wrapping_add(1));
        }
        std::hint::black_box(q.len());
    }));

    // The same hold driven through `Simulator::run` and a trivial
    // `World`: queue op plus dispatch.
    out.push(probe(cal, "simcore.loop_dispatch_ns", ops, || {
        let mut sim = Simulator::new(Chains { remaining: ops });
        for i in 0..pending {
            sim.schedule_at(
                SimTime::from_nanos(INCREMENTS_NS[i % 4] * (1 + i as u64 / 4)),
                i as u32,
            );
        }
        sim.run_with_limits(simcore::sim::RunLimits {
            until: None,
            max_events: Some(ops),
        });
        std::hint::black_box(sim.events_processed());
    }));

    // cs-lint: allow(rng-discipline, reason = "probe-local stream: its draws are timed and discarded, never reaching a world")
    let mut rng = SimRng::seed_from(7);
    out.push(probe(cal, "simcore.rng_draw_ns", ops, || {
        let mut acc = 0u64;
        for _ in 0..ops {
            acc = acc.wrapping_add(rng.u64());
        }
        std::hint::black_box(acc);
    }));
}

/// `ThreadedExecutor(min(nproc, 2))` over the deterministic executor on
/// an 8-shard star: the only threaded measurement, informational.
fn exec_speedup(scale: Scale) -> Value {
    let exp = ShardedStar {
        scenario: StarScenario {
            circuits: 4,
            file_bytes: sized(scale, 256 * 1024).max(32 * 1024),
            directory: DirectoryConfig {
                relays: 8,
                bandwidth_mbps: (30.0, 90.0),
                delay_ms: (2.0, 6.0),
            },
            workload: WorkloadSpec {
                streams_per_circuit: 3,
                arrival: ArrivalSpec::OnOff {
                    burst: 2,
                    gap_ms: (10.0, 50.0),
                },
                churn: Some(ChurnSpec {
                    teardown_after_ms: (40.0, 100.0),
                    rebuild_delay_ms: 10.0,
                    cycles: 2,
                }),
            },
            ..Default::default()
        },
        shards: 8,
        seed: 1,
        queue: QueueKind::default(),
        stats: StatsKind::default(),
    };
    let maker: FactoryMaker = Arc::new(|| Algorithm::CircuitStart.factory(CcConfig::default()));
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let threaded = ThreadedExecutor::new(workers);
    let sweep = |exec: &dyn Executor| {
        let t0 = Instant::now();
        std::hint::black_box(exp.run(exec, maker.clone()).cells_delivered);
        t0.elapsed().as_secs_f64()
    };
    // A ratio of two back-to-back sweeps needs no calibration.
    let ratios: Vec<f64> = (0..REPS)
        .map(|_| sweep(&DeterministicExecutor) / sweep(&threaded))
        .collect();
    Value {
        name: "simcore.exec_sweep8_speedup",
        unit: "ratio",
        cal: Quartiles::of(&ratios),
        raw: None,
        samples: REPS,
        series: Vec::new(),
        exact: false,
    }
}

const HOP_LINKS: usize = 8;

enum HopEv {
    Net(NetEvent),
    Send(usize),
}

impl From<NetEvent> for HopEv {
    fn from(e: NetEvent) -> Self {
        HopEv::Net(e)
    }
}

/// One frame circulating on each of `HOP_LINKS` links through
/// `send → TxComplete → Deliver → take_delivered`.
struct HopWorld {
    net: Net<RawFrame>,
    links: Vec<LinkId>,
    remaining: u64,
}

impl World for HopWorld {
    type Event = HopEv;
    fn handle(&mut self, ctx: &mut Context<'_, HopEv>, ev: HopEv) {
        let link = match ev {
            HopEv::Send(i) => self.links[i],
            HopEv::Net(NetEvent::TxComplete { link }) => {
                self.net.on_tx_complete(ctx, link);
                return;
            }
            HopEv::Net(NetEvent::Deliver { link }) => {
                std::hint::black_box(self.net.take_delivered(link));
                link
            }
        };
        if self.remaining > 0 {
            self.remaining -= 1;
            self.net.send(ctx, link, RawFrame { bytes: 512, tag: 0 });
        }
    }
}

/// The same two events per frame at the same delays, with no `Net`.
struct HopTwin {
    remaining: u64,
}

impl World for HopTwin {
    type Event = bool;
    fn handle(&mut self, ctx: &mut Context<'_, bool>, delivered: bool) {
        if !delivered {
            ctx.schedule_in(SimDuration::from_millis(2), true);
        } else if self.remaining > 0 {
            self.remaining -= 1;
            ctx.schedule_in(SimDuration::from_nanos(40_960), false);
        }
    }
}

fn hop_world_s(frames: u64) -> f64 {
    let mut net: Net<RawFrame> = Net::new();
    let links = (0..HOP_LINKS)
        .map(|i| {
            let a = net.add_node(&format!("a{i}"));
            let b = net.add_node(&format!("b{i}"));
            let cfg = LinkConfig::new(Bandwidth::from_mbps(100), SimDuration::from_millis(2));
            net.add_link(a, b, cfg)
        })
        .collect();
    let mut sim = Simulator::new(HopWorld {
        net,
        links,
        remaining: frames,
    });
    for i in 0..HOP_LINKS {
        sim.schedule_at(SimTime::ZERO, HopEv::Send(i));
    }
    let t0 = Instant::now();
    sim.run();
    std::hint::black_box(sim.events_processed());
    t0.elapsed().as_secs_f64()
}

fn hop_twin_s(frames: u64) -> f64 {
    let mut sim = Simulator::new(HopTwin { remaining: frames });
    for _ in 0..HOP_LINKS {
        sim.schedule_at(SimTime::ZERO, true);
    }
    let t0 = Instant::now();
    sim.run();
    std::hint::black_box(sim.events_processed());
    t0.elapsed().as_secs_f64()
}

/// Link-model cost per frame, net of the two kernel events that carry
/// it: each repetition runs the `Net` world and its twin back to back
/// and keeps the difference.
fn netsim_probe(cal: &mut Calibrator, scale: Scale) -> Value {
    let frames = sized(scale, 100_000);
    probe_timed(cal, "netsim.hop_ns_per_frame", frames, || {
        (hop_world_s(frames) - hop_twin_s(frames)).max(0.0)
    })
}

fn torcell_probes(cal: &mut Calibrator, scale: Scale, out: &mut Vec<Value>) {
    let ops = sized(scale, 20_000);
    let keys = [LayerKey(11), LayerKey(22), LayerKey(33)];

    // Keystreaming leaves the payload garbage after the first call; the
    // cost per byte does not depend on its content.
    let mut route = OnionRoute::new();
    for k in keys {
        route.push_layer(k);
    }
    let mut cell = RelayCell::data(StreamId(1), vec![0x5A; RELAY_DATA_MAX]);
    out.push(probe(cal, "torcell.wrap3_ns", ops, || {
        for _ in 0..ops {
            route.wrap_for_hop(2, std::hint::black_box(&mut cell));
        }
    }));

    let mut relay = RelayCrypt::new(keys[0]);
    out.push(probe(cal, "torcell.strip_ns", ops, || {
        for _ in 0..ops {
            std::hint::black_box(relay.strip_forward(std::hint::black_box(&mut cell)));
        }
    }));

    let payload = vec![0xA5u8; RELAY_DATA_MAX];
    out.push(probe(cal, "torcell.digest_ns", ops, || {
        for _ in 0..ops {
            std::hint::black_box(payload_digest(std::hint::black_box(&payload)));
        }
    }));

    let data_cell = Cell::relay_data(CircuitId(7), StreamId(1), vec![0xAB; RELAY_DATA_MAX]);
    let wire = encode_cell(&data_cell);
    out.push(probe(cal, "torcell.encode_ns", ops, || {
        for _ in 0..ops {
            std::hint::black_box(encode_cell(std::hint::black_box(&data_cell)));
        }
    }));
    out.push(probe(cal, "torcell.decode_ns", ops, || {
        for _ in 0..ops {
            std::hint::black_box(decode_cell(std::hint::black_box(&wire)).expect("valid cell"));
        }
    }));

    let fb = Feedback {
        circ: CircuitId(9),
        seq: 123_456,
    };
    out.push(probe(cal, "torcell.feedback_codec_ns", ops, || {
        for _ in 0..ops {
            let wire = encode_feedback(std::hint::black_box(&fb));
            std::hint::black_box(decode_feedback(&wire).expect("valid feedback"));
        }
    }));
}

/// Drives a fresh CircuitStart transport through its ramp against a
/// virtual pipe that holds 64 cells per 10 ms base RTT: a round's cells
/// are sent back to back, the first 64 are fed back after the base RTT
/// and each one beyond queues behind its predecessors. Returns once the
/// controller has left slow start.
fn ramp_to_exit() -> (HopTransport, SimTime) {
    const PIPE_CELLS: u64 = 64;
    let base = SimDuration::from_millis(10);
    let per_cell = base / PIPE_CELLS;
    let mut hop = HopTransport::new(Algorithm::CircuitStart.make_controller(CcConfig::default()));
    let mut now = SimTime::ZERO;
    while hop.phase() == Phase::SlowStart && hop.cwnd() < 4096 {
        let first = hop.next_seq();
        while hop.can_send() {
            hop.register_send(now);
        }
        let sent = hop.next_seq() - first;
        let round_start = now;
        for i in 0..sent {
            now = round_start + base + per_cell * i.saturating_sub(PIPE_CELLS - 1);
            hop.on_feedback(first + i, now)
                .expect("sequence is outstanding");
        }
    }
    (hop, now)
}

fn backtap_probes(cal: &mut Calibrator, scale: Scale, out: &mut Vec<Value>) {
    let ops = sized(scale, 100_000);
    // Steady state: window full, one feedback admits one send.
    let (mut hop, mut now) = ramp_to_exit();
    while hop.can_send() {
        hop.register_send(now);
    }
    out.push(probe(cal, "backtap.send_feedback_ns", ops, || {
        for _ in 0..ops {
            now += SimDuration::from_micros(41);
            let oldest = hop.next_seq() - u64::from(hop.outstanding());
            hop.on_feedback(oldest, now).expect("oldest is outstanding");
            if hop.can_send() {
                hop.register_send(now);
            }
        }
        std::hint::black_box(hop.cwnd());
    }));

    out.push(probe(cal, "backtap.ramp_ns", 1, || {
        std::hint::black_box(ramp_to_exit().0.cwnd());
    }));
}

fn cell_frame(net: &mut Net<WireFrame>, circ: u32) -> WireFrame {
    let (src, dst) = (net.add_node("a"), net.add_node("b"));
    WireFrame {
        src,
        dst,
        payload: FramePayload::Cell {
            cell: Cell::relay_data(CircuitId(circ), StreamId(1), vec![0; RELAY_DATA_MAX]),
            hop_seq: 0,
        },
        confirm: None,
    }
}

/// `LinkScheduler` push+pop with `circuits` backlogged circuits of two
/// cells each; round-robin order makes the `k`-th pop circuit `k mod n`.
fn sched_probe(cal: &mut Calibrator, scale: Scale, name: &'static str, circuits: u32) -> Value {
    let ops = sized(scale, 100_000);
    let mut net: Net<WireFrame> = Net::new();
    let mut sched = LinkScheduler::new();
    for _ in 0..2 {
        for c in 0..circuits {
            sched.push_cell(CircId(c), cell_frame(&mut net, c));
        }
    }
    probe(cal, name, ops, || {
        for k in 0..ops {
            let frame = sched.pop().expect("backlog stays constant");
            sched.push_cell(CircId((k % u64::from(circuits)) as u32), frame);
        }
    })
}

fn relaynet_probes(
    cal: &mut Calibrator,
    scale: Scale,
    world: &TorNetwork,
    events: u64,
    out: &mut Vec<Value>,
) {
    let ops = sized(scale, 100_000);
    out.push(sched_probe(cal, scale, "relaynet.sched_ns_1circ", 1));
    out.push(sched_probe(cal, scale, "relaynet.sched_ns_50circ", 50));

    let mut pool = PayloadPool::new();
    out.push(probe(cal, "relaynet.pool_ns", ops, || {
        for _ in 0..ops {
            let buf = pool.acquire();
            pool.reclaim(std::hint::black_box(buf));
        }
    }));

    let mut buf = vec![0u8; RELAY_DATA_MAX];
    out.push(probe(cal, "relaynet.fill_verify_ns", ops, || {
        for idx in 0..ops {
            fill_pattern_into(CircId(3), idx, &mut buf);
            assert!(verify_fill_pattern(
                CircId(3),
                idx,
                std::hint::black_box(&buf)
            ));
        }
    }));

    out.push(probe(cal, "relaynet.fingerprint_ns_per_world", 1, || {
        std::hint::black_box(fingerprint(world, events));
    }));

    // A full placement round trip at consensus scale, as the network
    // performs it: a 3-relay weighted draw, three load increments, and
    // the retirement of the oldest of 64 live circuits.
    let relays = sized(scale, 7000).max(64) as usize;
    let cfg = DirectoryConfig {
        relays,
        ..DirectoryConfig::default()
    };
    // cs-lint: allow(rng-discipline, reason = "probe-local directory and pick streams: timed and discarded, never reaching a world")
    let (dir_rng, mut pick_rng) = (SimRng::seed_from(9), SimRng::seed_from(4242));
    let dir = Directory::generate(&cfg, &dir_rng);
    let policy = CongestionAware;
    let mut load = vec![0u32; relays];
    let mut engine = SelectionEngine::new(
        &policy,
        &DirectoryView::new(&dir, &load),
        SamplerKind::Fenwick,
    );
    let mut live: std::collections::VecDeque<[usize; 3]> = std::collections::VecDeque::new();
    let selects = sized(scale, 2_000);
    out.push(probe(cal, "relaynet.select3_ns_7k", selects, || {
        for _ in 0..selects {
            let mut picks = [0usize; 3];
            picks.copy_from_slice(engine.select(
                &policy,
                &DirectoryView::new(&dir, &load),
                &mut pick_rng,
                3,
            ));
            for &r in &picks {
                load[r] += 1;
                engine.load_changed(&policy, &DirectoryView::new(&dir, &load), r);
            }
            live.push_back(picks);
            if live.len() > 64 {
                for r in live.pop_front().expect("non-empty") {
                    load[r] -= 1;
                    engine.load_changed(&policy, &DirectoryView::new(&dir, &load), r);
                }
            }
        }
    }));

    out.push(probe(
        cal,
        "relaynet.directory_gen_ns_per_relay",
        relays as u64,
        || {
            std::hint::black_box(Directory::generate(&cfg, &dir_rng).len());
        },
    ));
}

fn simstats_probes(cal: &mut Calibrator, scale: Scale, stats: &WorldStats, out: &mut Vec<Value>) {
    let count = sized(scale, 50_000).max(16) as usize;
    // Skewed "completion times" spanning three decades, like a real tail.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let samples: Vec<f64> = (0..count)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            0.01 + 10.0 * u * u * u
        })
        .collect();

    out.push(probe(
        cal,
        "simstats.sketch_record_ns",
        count as u64,
        || {
            let mut sk = QuantileSketch::default();
            for &v in &samples {
                sk.record(v);
            }
            std::hint::black_box(sk.len());
        },
    ));

    let shards: Vec<QuantileSketch> = samples
        .chunks(count / 16)
        .map(|chunk| {
            let mut sk = QuantileSketch::default();
            for &v in chunk {
                sk.record(v);
            }
            sk
        })
        .collect();
    out.push(probe(cal, "simstats.sketch_merge16_ns", 1, || {
        let mut merged = QuantileSketch::default();
        for sk in &shards {
            merged.merge(sk);
        }
        std::hint::black_box(merged.p99());
    }));

    // `from_samples` consumes its input: the copies are made before the
    // bracket opens, one per repetition plus the warm-up.
    let mut copies: Vec<Vec<f64>> = (0..=REPS).map(|_| samples.clone()).collect();
    out.push(probe(
        cal,
        "simstats.cdf_build_ns_per_sample",
        count as u64,
        || {
            let cdf = Cdf::from_samples(copies.pop().expect("one copy per call"));
            std::hint::black_box(cdf.map(|c| c.p99()));
        },
    ));

    out.push(probe(cal, "simstats.prom_export_ns", 1, || {
        let mut registry = MetricsRegistry::new();
        stats.export_into(&mut registry);
        std::hint::black_box(prometheus_text(&registry, &[]).len());
    }));
}

/// Every isolated probe. `pending` is the in-situ mean pending-event
/// population; `world` is a quiesced world of the traced workload
/// (`events` processed) for the fingerprint and export probes.
pub fn run_all(
    cal: &mut Calibrator,
    scale: Scale,
    pending: usize,
    world: &TorNetwork,
    events: u64,
) -> Vec<Value> {
    let mut out = Vec::new();
    simcore_probes(cal, scale, pending, &mut out);
    out.push(exec_speedup(scale));
    out.push(netsim_probe(cal, scale));
    torcell_probes(cal, scale, &mut out);
    backtap_probes(cal, scale, &mut out);
    relaynet_probes(cal, scale, world, events, &mut out);
    simstats_probes(cal, scale, world.stats(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_probe_leaves_slow_start_near_the_pipe() {
        let (hop, _) = ramp_to_exit();
        assert_ne!(hop.phase(), Phase::SlowStart);
        // The exit fires once a round has been outstanding for two base
        // RTTs (theta = 1), by when the 64-cell pipe has confirmed about
        // 128 cells: the exit window is of the pipe's order, nowhere
        // near the 4096 cap the loop would otherwise stop at.
        assert!((64..=256).contains(&hop.cwnd()), "cwnd {}", hop.cwnd());
        assert_eq!(hop.stats().bad_feedback, 0);
    }

    #[test]
    fn twin_world_processes_the_hop_worlds_events() {
        const FRAMES: u64 = 100;
        let mut twin = Simulator::new(HopTwin { remaining: FRAMES });
        for _ in 0..HOP_LINKS {
            twin.schedule_at(SimTime::ZERO, true);
        }
        twin.run();
        // Each frame is a TxComplete and a Deliver; the eight seeds are
        // the hop world's initial `Send`s.
        assert_eq!(twin.events_processed(), 2 * FRAMES + HOP_LINKS as u64);
    }
}
