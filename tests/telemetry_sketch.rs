//! The telemetry differential suite: the streaming quantile sketch must
//! track the exact sorted-sample CDF within its configured relative
//! error, everywhere the harness can produce both — across seeds,
//! selection policies, and shard counts — and its merge must be
//! genuinely order-independent.
//!
//! Three contracts (DESIGN.md §13):
//!
//! 1. **Error bound.** For every probed quantile `q`, the sketch answer
//!    is within `alpha · exact` of the exact CDF built from the same
//!    completions — 3 seeds × 4 policies × {1, 8} shards.
//! 2. **Merge associativity.** `merge(a, merge(b, c))` equals
//!    `merge(merge(a, b), c)` bucket for bucket, not just quantile for
//!    quantile.
//! 3. **Shuffle invariance.** Folding shard reports in any seeded
//!    shuffle of the shard order produces the identical experiment
//!    aggregate — the property the exhaustive-destructure merge in
//!    `ShardedStar::run` preserves.
//!
//! At consensus scale, one 7000-relay world is reported entirely through
//! the telemetry layer and its Prometheus exposition is pinned byte for
//! byte to `tests/golden/telemetry_scale.prom` (`CS_BLESS=1` re-blesses
//! it after an intentional change).

use std::path::Path;
use std::sync::Arc;

use backtap::config::CcConfig;
use circuitstart::{run_to_completion, Algorithm};
use relaynet::builder::StarScenario;
use relaynet::network::WorldStats;
use relaynet::runtime::{FactoryMaker, ShardedStar, StatsKind, SweepReport};
use relaynet::selection::{all_policies, CongestionAware, SelectionPolicy};
use relaynet::workload::{ArrivalSpec, ChurnSpec, EpochSpec, WorkloadSpec};
use relaynet::DirectoryConfig;
use simcore::event::QueueKind;
use simcore::exec::DeterministicExecutor;
use simcore::rng::SimRng;
use simstats::cdf::Cdf;
use simstats::export::prometheus_text;
use simstats::registry::MetricsRegistry;
use simstats::sketch::QuantileSketch;

/// The async-runtime suite's churning star, kept small: the sketch
/// contract is per-sample, so modest worlds probe it as well as large
/// ones.
fn churning_star(policy: SelectionPolicy) -> StarScenario {
    StarScenario {
        circuits: 3,
        file_bytes: 50_000,
        directory: DirectoryConfig {
            relays: 7,
            bandwidth_mbps: (15.0, 60.0),
            delay_ms: (2.0, 8.0),
        },
        workload: WorkloadSpec {
            streams_per_circuit: 3,
            arrival: ArrivalSpec::OnOff {
                burst: 2,
                gap_ms: (10.0, 40.0),
            },
            churn: Some(ChurnSpec {
                teardown_after_ms: (35.0, 90.0),
                rebuild_delay_ms: 4.0,
                cycles: 1,
            }),
        },
        selection: policy,
        ..Default::default()
    }
}

fn maker() -> FactoryMaker {
    Arc::new(|| Algorithm::CircuitStart.factory(CcConfig::default()))
}

fn run_sweep(policy: SelectionPolicy, seed: u64, shards: usize) -> SweepReport {
    let exp = ShardedStar {
        scenario: churning_star(policy),
        shards,
        seed,
        queue: QueueKind::default(),
        stats: StatsKind::Exact, // exact mode retains both records
    };
    exp.run(&DeterministicExecutor, maker())
}

/// Contract 1: the differential matrix. Every quantile the experiments
/// report, from every sweep in the matrix, within the sketch's alpha of
/// the exact sorted-sample answer.
#[test]
fn sketch_tracks_exact_cdf_across_seeds_policies_and_shards() {
    for policy in all_policies() {
        for seed in [5u64, 41, 83] {
            for shards in [1usize, 8] {
                let sweep = run_sweep(policy.clone(), seed, shards);
                let exact = sweep.completion_cdf().expect("flows completed");
                let sketch = sweep.completion_sketch();
                assert_eq!(
                    sketch.len(),
                    exact.len() as u64,
                    "{} seed {seed} {shards}sh: sketch missed samples",
                    policy.name()
                );
                let alpha = sketch.alpha();
                for q in [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
                    let e = exact.quantile(q);
                    let s = sketch.quantile(q);
                    assert!(
                        (s - e).abs() <= alpha * e + f64::EPSILON,
                        "{} seed {seed} {shards}sh q={q}: sketch {s} strayed \
                         more than alpha={alpha} from exact {e}",
                        policy.name()
                    );
                }
                // The exact side channels are exact, not approximate.
                assert_eq!(sketch.min(), exact.min());
                assert_eq!(sketch.max(), exact.max());
                assert!((sketch.mean() - exact.mean()).abs() < 1e-9);
            }
        }
    }
}

/// Contract 2: merge associativity, bucket for bucket. Shard sketches
/// are the natural inputs — real distributions, not synthetic ones.
#[test]
fn sketch_merge_is_associative_bucket_for_bucket() {
    let sweep = run_sweep(all_policies()[3].clone(), 41, 8);
    let parts: Vec<&QuantileSketch> = sweep.shards.iter().map(|s| &s.completion_sketch).collect();
    assert!(parts.len() >= 3);
    let (a, b, c) = (parts[0], parts[1], parts[2]);
    // merge(a, merge(b, c))
    let mut bc = b.clone();
    bc.merge(c);
    let mut right = a.clone();
    right.merge(&bc);
    // merge(merge(a, b), c)
    let mut ab = a.clone();
    ab.merge(b);
    let mut left = ab;
    left.merge(c);
    assert!(
        left.bucket_counts().eq(right.bucket_counts()),
        "associativity must hold on the raw buckets, not just queries"
    );
    assert_eq!(left, right);

    // Fixed memory: folding all eight shards leaves the sketch exactly
    // as large as an empty one, with every sample accounted for.
    let merged = sweep.completion_sketch();
    let empty = QuantileSketch::default();
    assert_eq!(merged.memory_bytes(), empty.memory_bytes());
    assert_eq!(merged.bucket_len(), empty.bucket_len());
    assert_eq!(merged.len(), parts.iter().map(|p| p.len()).sum::<u64>());
    assert!(!merged.is_empty());
}

/// Contract 3 (the PR's shuffle-merge regression): folding the shard
/// reports in any seeded shuffle of shard order reproduces the
/// aggregate `ShardedStar::run` computed in shard order — counters,
/// totals, and sketch buckets alike.
#[test]
fn shard_merge_is_order_independent_under_seeded_shuffles() {
    let sweep = run_sweep(all_policies()[2].clone(), 83, 8);

    let fold = |order: &[usize]| {
        let mut stats = WorldStats::default();
        let mut cells = 0u64;
        let mut bytes = 0u64;
        let mut sketch = QuantileSketch::default();
        let mut samples = Vec::new();
        for &i in order {
            let s = &sweep.shards[i];
            stats.merge(&s.fingerprint.stats);
            cells += s.cells_delivered;
            bytes += s.bytes_delivered;
            sketch.merge(&s.completion_sketch);
            samples.extend(s.flow_completions.iter().copied());
        }
        samples.sort_unstable();
        (stats, cells, bytes, sketch, samples)
    };

    let in_order: Vec<usize> = (0..sweep.shards.len()).collect();
    let baseline = fold(&in_order);
    assert_eq!(baseline.0, sweep.stats);
    assert_eq!(baseline.1, sweep.cells_delivered);
    assert_eq!(baseline.2, sweep.bytes_delivered);
    assert_eq!(&baseline.3, sweep.completion_sketch());
    assert_eq!(baseline.4, sweep.completion_samples());

    // Seeded Fisher-Yates shuffles of the fold order.
    let mut rng = SimRng::seed_from(0xC0FFEE).derive("shuffle-merge");
    for round in 0..8 {
        let mut order = in_order.clone();
        for i in (1..order.len()).rev() {
            let j = rng.range_u64(0, i as u64 + 1) as usize;
            order.swap(i, j);
        }
        let shuffled = fold(&order);
        assert_eq!(shuffled.0, baseline.0, "round {round}: counters diverged");
        assert_eq!(
            shuffled.1, baseline.1,
            "round {round}: cell totals diverged"
        );
        assert_eq!(
            shuffled.2, baseline.2,
            "round {round}: byte totals diverged"
        );
        assert!(
            shuffled.3.bucket_counts().eq(baseline.3.bucket_counts()),
            "round {round}: sketch buckets diverged under shuffle"
        );
        assert_eq!(shuffled.3, baseline.3, "round {round}: sketches diverged");
        assert_eq!(
            shuffled.4, baseline.4,
            "round {round}: sorted samples diverged"
        );
    }
}

/// The regression the latent-bug sweep fixed, observed end to end: a
/// quantile exactly on a rank boundary must pick the boundary sample.
/// With n completions, q = k/n must return the k-th order statistic
/// even when `q * n` rounds a hair above k in floating point.
#[test]
fn exact_cdf_rank_boundaries_hold_on_experiment_output() {
    let sweep = run_sweep(all_policies()[0].clone(), 5, 8);
    let exact: Cdf = sweep.completion_cdf().expect("flows completed");
    let sorted = exact.sorted_samples().to_vec();
    let n = sorted.len();
    for k in 1..=n {
        let q = k as f64 / n as f64;
        assert_eq!(
            exact.quantile(q),
            sorted[k - 1],
            "q={k}/{n} must select the rank-{k} sample"
        );
    }
}

/// Consensus scale, end to end: a 7000-relay star with four epochs of 1%
/// churn under congestion-aware selection, reported only through the
/// telemetry layer. The sketch answers p50/p99/p999 within alpha of the
/// exact CDF, and the exposition (every `WorldStats` counter plus the
/// sketch's quantile gauges) is a pure function of the run, so it must
/// match the golden file byte for byte.
#[test]
fn consensus_scale_exposition_matches_golden_file() {
    let relays = 7000;
    let scenario = StarScenario {
        circuits: 32,
        relays_per_circuit: 3,
        file_bytes: 60_000,
        directory: DirectoryConfig {
            relays,
            bandwidth_mbps: (15.0, 100.0),
            delay_ms: (2.0, 12.0),
        },
        workload: WorkloadSpec {
            streams_per_circuit: 2,
            arrival: ArrivalSpec::UniformJitter { max_ms: 30.0 },
            churn: None,
        },
        epochs: Some(EpochSpec {
            interval_ms: 80.0,
            epochs: 4,
            churn: relays / 100,
            standby_fraction: 0.1,
        }),
        selection: Arc::new(CongestionAware),
        ..Default::default()
    };
    let (mut sim, _) = scenario.build(Algorithm::CircuitStart.factory(CcConfig::default()), 4242);
    run_to_completion(&mut sim);
    let world = sim.world();
    assert_eq!(world.stats().protocol_errors, 0);
    assert!(
        world.flows().iter().all(|f| f.complete()),
        "a flow was stranded"
    );

    let cdf = world.flow_completion_cdf().expect("completed flows");
    let sketch = world.flow_completion_sketch();
    assert_eq!(sketch.len(), cdf.len() as u64, "sketch missed completions");
    for q in [0.5, 0.99, 0.999] {
        let (exact, approx) = (cdf.quantile(q), sketch.quantile(q));
        assert!(
            (approx - exact).abs() / exact <= sketch.alpha(),
            "q={q}: sketch {approx} strayed more than alpha from exact {exact}"
        );
    }

    let mut registry = MetricsRegistry::new();
    world.stats().export_into(&mut registry);
    let text = prometheus_text(
        &registry,
        &[
            (
                "cs_completion_p50_seconds",
                "median flow completion time (sketch)",
                sketch.quantile(0.5),
            ),
            (
                "cs_completion_p99_seconds",
                "p99 flow completion time (sketch)",
                sketch.p99(),
            ),
            (
                "cs_completion_p999_seconds",
                "p999 flow completion time (sketch)",
                sketch.p999(),
            ),
            (
                "cs_completion_flows",
                "flows folded into the completion sketch",
                sketch.len() as f64,
            ),
        ],
    );
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/telemetry_scale.prom");
    if std::env::var_os("CS_BLESS").is_some() {
        std::fs::write(&golden, &text).expect("write golden file");
    } else {
        let want = std::fs::read_to_string(&golden).expect("golden file present");
        assert_eq!(
            text, want,
            "Prometheus exposition diverged from the golden file \
             (intentional? re-bless with CS_BLESS=1)"
        );
    }
}
