//! The async relay runtime: the same protocol code on one thread or
//! across cores, with the deterministic `World` as the oracle.
//!
//! # Why and what (DESIGN.md §10)
//!
//! The paper's claims are about emergent multi-hop dynamics, which only
//! show up at experiment scale — millions of circuits, many seeds, many
//! policies. One deterministic event loop cannot provide that
//! throughput, but it *is* the correctness story: every observable of a
//! run must stay bit-for-bit reproducible. This module squares the two:
//!
//! * **Sharding.** A large experiment is decomposed into independent
//!   **shards** — each a complete [`StarScenario`] world (its relays,
//!   clients, servers, circuits, placement state and randomness streams
//!   are derived from the shard index), executed by the unmodified
//!   single-threaded [`simcore::sim::Simulator`]. Per-relay state is
//!   owned by whichever task runs the shard; nothing is shared.
//! * **The runtime seam.** [`ShardedStar::run`] hands the shard jobs to
//!   any [`Executor`]: [`DeterministicExecutor`]
//!   runs them in order on the calling thread (the oracle),
//!   [`ThreadedExecutor`] spreads them over scoped worker threads
//!   that claim shards from one cursor. Outputs are placed by shard
//!   index, so **the executor choice is unobservable**:
//!   `tests/async_runtime.rs` asserts the threaded runtime reproduces
//!   the deterministic fingerprints — flows, slabs, pool, counters —
//!   bit for bit, across seeds and policies.
//! * **Mergeable aggregation.** Shard outcomes fold into experiment
//!   totals: [`WorldStats::merge`] for counters, and the completion-time
//!   distribution under a [`StatsKind`] seam — exact mode concatenates
//!   and sorts every raw sample (O(flows) memory, the fingerprint
//!   currency), sketch mode merges fixed-size
//!   [`QuantileSketch`](simstats::sketch::QuantileSketch)es bucket-wise
//!   (O(buckets), order-independent by construction; DESIGN.md §13).

use std::sync::Arc;

use simcore::event::QueueKind;
use simcore::exec::{execute_typed, Executor};
use simcore::rng::SimRng;
use simcore::sim::{RunLimits, StopReason};
use simcore::time::{SimDuration, SimTime};
use simstats::sketch::QuantileSketch;

use crate::builder::StarScenario;
use crate::network::{TorNetwork, WorldStats};
use crate::node::CcFactory;

/// Safety horizon for shard runs: a healthy shard quiesces long before
/// this; hitting it means a protocol deadlock, which must fail loudly.
const MAX_SHARD_SIM_TIME_S: u64 = 3_600;
/// Safety cap on events per shard (same rationale).
const MAX_SHARD_EVENTS: u64 = 2_000_000_000;

/// Constructs the congestion-control factory inside each shard task.
/// [`CcFactory`] itself is a `Box<dyn Fn>` and neither `Clone` nor
/// `Send`, so shards share the *maker* and build their own.
pub type FactoryMaker = Arc<dyn Fn() -> CcFactory + Send + Sync>;

/// Everything observable about one finished world, in exact (integer /
/// fixed-point) form: per-flow outcomes, per-node slab telemetry,
/// route-table and pool state, protocol counters, event count, and the
/// placement load view. Two runs are "the same run" iff their
/// fingerprints are equal — this is the currency of every differential
/// suite (queue × queue, runtime × runtime).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorldFingerprint {
    /// Per flow: (requested, delivered, cells, completion time).
    pub flows: Vec<(u64, u64, u64, Option<SimDuration>)>,
    /// Circuit records registered (every incarnation counts).
    pub incarnations: usize,
    /// Per overlay node: (slab capacity, reclaimed free slots).
    pub node_slabs: Vec<(usize, usize)>,
    /// Link-route table size (slots, live or free).
    pub link_route_slots: usize,
    /// Reclaimed link-local ids awaiting reuse.
    pub free_link_routes: usize,
    /// Payload pool: (allocated, reused, returned, idle, idle high-water).
    pub pool: (u64, u64, u64, usize, usize),
    /// Global protocol counters.
    pub stats: WorldStats,
    /// Events the simulator processed.
    pub events_processed: u64,
    /// Live per-relay circuit loads (placement seam), empty without one.
    pub relay_loads: Vec<u32>,
    /// Per-relay load high-water marks, empty without a placement seam.
    pub relay_load_hwms: Vec<u32>,
    /// Per-relay liveness at run end (epoch churn), empty without a
    /// placement seam.
    pub relay_live: Vec<bool>,
}

/// Captures the full fingerprint of a finished world.
pub fn fingerprint(world: &TorNetwork, events_processed: u64) -> WorldFingerprint {
    let pool = world.payload_pool();
    let (allocated, reused) = pool.stats();
    WorldFingerprint {
        flows: world
            .flows()
            .iter()
            .map(|f| {
                (
                    f.requested,
                    f.delivered,
                    f.cells_delivered,
                    f.completion_time(),
                )
            })
            .collect(),
        incarnations: world.circuit_count(),
        node_slabs: (0..world.node_count())
            .map(|i| {
                let n = world.node(crate::ids::OverlayId(i as u32));
                (n.slab_len(), n.free_slot_count())
            })
            .collect(),
        link_route_slots: world.link_route_slots(),
        free_link_routes: world.free_link_routes(),
        pool: (
            allocated,
            reused,
            pool.returned(),
            pool.idle(),
            pool.idle_hwm(),
        ),
        stats: *world.stats(),
        events_processed,
        relay_loads: world.relay_loads().map(<[_]>::to_vec).unwrap_or_default(),
        relay_load_hwms: world
            .relay_load_hwms()
            .map(<[_]>::to_vec)
            .unwrap_or_default(),
        relay_live: world.relay_live().map(<[_]>::to_vec).unwrap_or_default(),
    }
}

/// How a sharded experiment aggregates its completion-time
/// distribution — the telemetry seam, mirroring the
/// [`QueueKind`]/[`SamplerKind`](crate::sampler::SamplerKind) pattern:
/// the default keeps every observable bit-exact, the alternative trades
/// a documented relative error for fixed memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StatsKind {
    /// Retain every raw completion sample per shard (O(flows) memory).
    /// The fingerprint suites and the exact CDF harness run here.
    #[default]
    Exact,
    /// Retain only the fixed-size quantile sketch per shard
    /// (O(buckets) memory); [`SweepReport::completion_samples`] is
    /// unavailable and panics. The scale path.
    Sketch,
}

/// The outcome of one shard: its fingerprint plus the aggregates the
/// experiment level consumes.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardReport {
    /// Shard index within the experiment.
    pub shard: usize,
    /// The seed the shard's world was built from.
    pub seed: u64,
    /// The full observable state of the finished world.
    pub fingerprint: WorldFingerprint,
    /// DATA cells delivered across the shard's flows.
    pub cells_delivered: u64,
    /// Payload bytes delivered across the shard's flows.
    pub bytes_delivered: u64,
    /// Request-to-last-byte completion times of the completed flows.
    /// Empty under [`StatsKind::Sketch`] — the sketch is the record.
    pub flow_completions: Vec<SimDuration>,
    /// The shard world's streaming completion sketch (always populated;
    /// recording is deterministic, so it costs no fingerprint).
    pub completion_sketch: QuantileSketch,
}

/// Experiment-level aggregation of every shard (see [`ShardedStar::run`]).
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Per-shard outcomes, in shard order regardless of which worker
    /// finished first.
    pub shards: Vec<ShardReport>,
    /// Merged protocol counters ([`WorldStats::merge`]).
    pub stats: WorldStats,
    /// Total DATA cells delivered.
    pub cells_delivered: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
    /// The aggregation mode the experiment ran under.
    pub stats_kind: StatsKind,
    /// Bucket-wise merge of every shard's completion sketch.
    pub completion_sketch: QuantileSketch,
}

impl SweepReport {
    /// All shards' flow completion times, sorted — the experiment-level
    /// CDF samples (sorting makes the merge order-independent).
    ///
    /// # Panics
    ///
    /// Panics under [`StatsKind::Sketch`]: the raw samples were never
    /// retained, and silently returning an empty set would read as "no
    /// flow completed".
    pub fn completion_samples(&self) -> Vec<SimDuration> {
        assert_eq!(
            self.stats_kind,
            StatsKind::Exact,
            "completion_samples needs StatsKind::Exact; sketch mode drops raw samples"
        );
        let mut all: Vec<SimDuration> = self
            .shards
            .iter()
            .flat_map(|s| s.flow_completions.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    /// The merged flow-completion CDF, if any flow completed.
    ///
    /// # Panics
    ///
    /// Panics under [`StatsKind::Sketch`] (see
    /// [`completion_samples`](Self::completion_samples)); use
    /// [`completion_sketch`](Self::completion_sketch) there.
    pub fn completion_cdf(&self) -> Option<simstats::cdf::Cdf> {
        simstats::cdf::Cdf::from_samples(
            self.completion_samples()
                .iter()
                .map(|d| d.as_secs_f64())
                .collect(),
        )
    }

    /// The merged completion-time sketch (seconds) — available in both
    /// modes, within its configured relative error of the exact CDF.
    pub fn completion_sketch(&self) -> &QuantileSketch {
        &self.completion_sketch
    }
}

/// A star experiment decomposed into independent shards — the unit of
/// parallelism of the async runtime. Shard `i` runs `scenario` under a
/// seed derived from `(seed, i)`, so the decomposition itself is part
/// of the experiment definition: the same spec run on any executor, or
/// shard by shard by hand, produces the same worlds.
#[derive(Clone)]
pub struct ShardedStar {
    /// The per-shard world template.
    pub scenario: StarScenario,
    /// Number of independent worlds.
    pub shards: usize,
    /// Master seed; shard seeds derive from it.
    pub seed: u64,
    /// Event-queue implementation every shard runs on.
    pub queue: QueueKind,
    /// Completion-distribution aggregation mode (the telemetry seam).
    pub stats: StatsKind,
}

impl ShardedStar {
    /// The derived seed of shard `shard`.
    pub fn shard_seed(&self, shard: usize) -> u64 {
        SimRng::seed_from(self.seed)
            .derive_indexed("shard", shard as u64)
            .u64()
    }

    /// Runs one shard to quiescence on the calling thread — the
    /// single-threaded oracle. The executor path runs exactly this.
    ///
    /// # Panics
    ///
    /// Panics if the shard fails to quiesce within the safety limits or
    /// records a protocol error.
    pub fn run_shard(&self, shard: usize, factory: CcFactory) -> ShardReport {
        assert!(shard < self.shards, "shard index out of range");
        let seed = self.shard_seed(shard);
        let (mut sim, _circuits) = self.scenario.build_with_queue(factory, seed, self.queue);
        let report = sim.run_with_limits(RunLimits {
            until: Some(SimTime::from_secs(MAX_SHARD_SIM_TIME_S)),
            max_events: Some(MAX_SHARD_EVENTS),
        });
        assert_eq!(
            report.reason,
            StopReason::QueueEmpty,
            "shard {shard} (seed {seed}) did not quiesce: {report:?}"
        );
        let events = sim.events_processed();
        let world = sim.world();
        assert_eq!(
            world.stats().protocol_errors,
            0,
            "shard {shard} (seed {seed}) recorded protocol errors"
        );
        let fingerprint = fingerprint(world, events);
        let cells_delivered = world.flows().iter().map(|f| f.cells_delivered).sum();
        let bytes_delivered = world.flows().iter().map(|f| f.delivered).sum();
        // Sketch mode is where the O(flows) concatenation is the
        // problem, so that mode ships only the fixed-size record.
        let flow_completions = match self.stats {
            StatsKind::Exact => world
                .flows()
                .iter()
                .filter_map(|f| f.completion_time())
                .collect(),
            StatsKind::Sketch => Vec::new(),
        };
        ShardReport {
            shard,
            seed,
            fingerprint,
            cells_delivered,
            bytes_delivered,
            flow_completions,
            completion_sketch: world.flow_completion_sketch().clone(),
        }
    }

    /// Runs every shard on `exec` and merges the outcomes. Shard
    /// reports come back in shard order and each shard's world is
    /// driven by the deterministic event loop, so the result is
    /// bit-identical across executors and worker counts — the property
    /// the differential suite pins.
    pub fn run(&self, exec: &dyn Executor, make_factory: FactoryMaker) -> SweepReport {
        let jobs: Vec<Box<dyn FnOnce() -> ShardReport + Send>> = (0..self.shards)
            .map(|shard| {
                let spec = self.clone();
                let make = make_factory.clone();
                Box::new(move || spec.run_shard(shard, make()))
                    as Box<dyn FnOnce() -> ShardReport + Send>
            })
            .collect();
        let shards = execute_typed(exec, jobs);
        let mut stats = WorldStats::default();
        let mut total_cells = 0;
        let mut total_bytes = 0;
        let mut sketch = QuantileSketch::default();
        for s in &shards {
            // Exhaustive destructure (no `..`), the WorldStats::merge
            // contract extended to the shard level: a new ShardReport
            // field is a compile error here until its aggregation is
            // decided, never a silently-dropped experiment observable.
            let ShardReport {
                shard: _,
                seed: _,
                fingerprint,
                cells_delivered,
                bytes_delivered,
                flow_completions: _, // queried via completion_samples()
                completion_sketch,
            } = s;
            stats.merge(&fingerprint.stats);
            total_cells += cells_delivered;
            total_bytes += bytes_delivered;
            sketch.merge(completion_sketch);
        }
        SweepReport {
            shards,
            stats,
            cells_delivered: total_cells,
            bytes_delivered: total_bytes,
            stats_kind: self.stats,
            completion_sketch: sketch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::fixed_window_factory;
    use crate::directory::DirectoryConfig;
    use crate::workload::{ArrivalSpec, ChurnSpec, WorkloadSpec};
    use simcore::exec::{DeterministicExecutor, ThreadedExecutor};

    fn small_sharded() -> ShardedStar {
        ShardedStar {
            scenario: StarScenario {
                circuits: 2,
                file_bytes: 20_000,
                directory: DirectoryConfig {
                    relays: 6,
                    bandwidth_mbps: (20.0, 60.0),
                    delay_ms: (2.0, 6.0),
                },
                workload: WorkloadSpec {
                    streams_per_circuit: 2,
                    arrival: ArrivalSpec::Immediate,
                    churn: Some(ChurnSpec {
                        teardown_after_ms: (30.0, 60.0),
                        rebuild_delay_ms: 5.0,
                        cycles: 1,
                    }),
                },
                ..Default::default()
            },
            shards: 3,
            seed: 77,
            queue: QueueKind::default(),
            stats: StatsKind::default(),
        }
    }

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        let e = small_sharded();
        let seeds: Vec<u64> = (0..e.shards).map(|i| e.shard_seed(i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "shard seeds collided: {seeds:?}");
        assert_eq!(
            seeds,
            (0..e.shards).map(|i| e.shard_seed(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn executor_choice_is_unobservable() {
        let e = small_sharded();
        let make: FactoryMaker = Arc::new(|| fixed_window_factory(8));
        let oracle = e.run(&DeterministicExecutor, make.clone());
        let threaded = e.run(&ThreadedExecutor::new(4), make);
        assert_eq!(oracle.shards, threaded.shards, "threaded run diverged");
        assert_eq!(oracle.stats, threaded.stats);
        assert_eq!(oracle.cells_delivered, threaded.cells_delivered);
    }

    #[test]
    fn executor_path_runs_the_oracle_code() {
        let e = small_sharded();
        let make: FactoryMaker = Arc::new(|| fixed_window_factory(8));
        let sweep = e.run(&DeterministicExecutor, make);
        for (i, s) in sweep.shards.iter().enumerate() {
            let direct = e.run_shard(i, fixed_window_factory(8));
            assert_eq!(*s, direct, "shard {i} diverged from a direct run");
        }
        // Merged counters equal the per-shard sums.
        let mut stats = WorldStats::default();
        for s in &sweep.shards {
            stats.merge(&s.fingerprint.stats);
        }
        assert_eq!(stats, sweep.stats);
        assert!(sweep.completion_cdf().is_some());
        assert!(sweep.bytes_delivered > 0);
    }

    #[test]
    fn sketch_mode_drops_samples_but_keeps_the_distribution() {
        let exact = small_sharded();
        let sketchy = ShardedStar {
            stats: StatsKind::Sketch,
            ..exact.clone()
        };
        let make: FactoryMaker = Arc::new(|| fixed_window_factory(8));
        let e = exact.run(&DeterministicExecutor, make.clone());
        let s = sketchy.run(&DeterministicExecutor, make);
        // The seam changes retention, never the simulation: fingerprints
        // and the merged sketch are identical across modes.
        for (a, b) in e.shards.iter().zip(&s.shards) {
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_eq!(a.completion_sketch, b.completion_sketch);
            assert!(b.flow_completions.is_empty(), "sketch mode retains samples");
        }
        assert_eq!(e.completion_sketch, s.completion_sketch);
        assert_eq!(
            e.completion_samples().len() as u64,
            s.completion_sketch().len()
        );
    }

    #[test]
    #[should_panic(expected = "StatsKind::Exact")]
    fn sketch_mode_refuses_raw_sample_queries() {
        let e = ShardedStar {
            stats: StatsKind::Sketch,
            ..small_sharded()
        };
        let make: FactoryMaker = Arc::new(|| fixed_window_factory(8));
        let sweep = e.run(&DeterministicExecutor, make);
        let _ = sweep.completion_samples();
    }
}
