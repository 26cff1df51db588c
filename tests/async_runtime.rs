//! The async-runtime differential suite: the threaded runtime must
//! reproduce the single-threaded oracle's fingerprints **bit for bit**.
//!
//! The contract under test (DESIGN.md §10): a sharded experiment's
//! observables — per-flow outcomes, slab/pool/route telemetry, protocol
//! counters, event counts, placement loads — are a pure function of the
//! experiment spec. Which executor runs the shards, and with how many
//! workers, must be unobservable. The suite drives churning
//! multi-policy star worlds (teardown waves, slot reclamation, pooled
//! payload recycling, load-fed re-selection — every reclaim path the
//! protocol has) across seeds × policies × worker counts and compares
//! [`relaynet::runtime::WorldFingerprint`]s exactly.

use std::sync::Arc;

use backtap::config::CcConfig;
use circuitstart::Algorithm;
use relaynet::builder::StarScenario;
use relaynet::runtime::{FactoryMaker, ShardedStar, StatsKind};
use relaynet::selection::{all_policies, SelectionPolicy};
use relaynet::workload::{ArrivalSpec, ChurnSpec, WorkloadSpec};
use relaynet::DirectoryConfig;
use simcore::event::QueueKind;
use simcore::exec::{DeterministicExecutor, ThreadedExecutor};

/// A churning multi-stream star under `policy`: small enough for a
/// debug-build matrix, rich enough to cross every reclaim path.
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
                cycles: 2,
            }),
        },
        selection: policy,
        ..Default::default()
    }
}

fn circuitstart_maker() -> FactoryMaker {
    Arc::new(|| Algorithm::CircuitStart.factory(CcConfig::default()))
}

/// The acceptance matrix: 3 seeds × 4 policies, oracle vs 4 workers.
/// Every per-shard fingerprint — flows, slabs, pool, counters, loads —
/// and the merged aggregates must match exactly.
#[test]
fn threaded_runtime_reproduces_oracle_across_seeds_and_policies() {
    for policy in all_policies() {
        for seed in [5u64, 41, 83] {
            let exp = ShardedStar {
                scenario: churning_star(policy.clone()),
                shards: 2,
                seed,
                queue: QueueKind::default(),
                stats: StatsKind::default(),
            };
            let oracle = exp.run(&DeterministicExecutor, circuitstart_maker());
            let threaded = exp.run(&ThreadedExecutor::new(4), circuitstart_maker());
            let circuits = exp.scenario.circuits;
            for s in &oracle.shards {
                assert!(
                    s.fingerprint.stats.rebuilds >= 1,
                    "{} seed {seed} shard {}: churn must actually rebuild",
                    policy.name(),
                    s.shard
                );
                // Pool flatness: fresh allocations are bounded by the
                // peak in-flight payload population (256 cells a circuit,
                // a bound its windows never reach), never by the cells
                // transferred. Idle buffers are at most the allocated ones.
                let (allocated, reused, _returned, _idle, _idle_hwm) = s.fingerprint.pool;
                assert!(allocated as usize <= circuits * 256);
                assert!(reused > 0, "shard {}: the pool was never reused", s.shard);
            }
            assert_eq!(
                oracle.shards,
                threaded.shards,
                "{} seed {seed}: threaded runtime diverged from the oracle",
                policy.name()
            );
            assert_eq!(oracle.stats, threaded.stats);
            assert_eq!(oracle.cells_delivered, threaded.cells_delivered);
            assert_eq!(oracle.bytes_delivered, threaded.bytes_delivered);
            assert_eq!(oracle.completion_samples(), threaded.completion_samples());
        }
    }
}

/// Worker count is equally unobservable — including pools smaller than
/// the shard count (jobs queue on the cursor) and larger (the surplus
/// is never spawned).
#[test]
fn worker_count_is_unobservable() {
    let exp = ShardedStar {
        scenario: churning_star(all_policies()[3].clone()), // congestion-aware
        shards: 4,
        seed: 29,
        queue: QueueKind::default(),
        stats: StatsKind::default(),
    };
    let oracle = exp.run(&DeterministicExecutor, circuitstart_maker());
    for workers in [1usize, 2, 4, 8] {
        let threaded = exp.run(&ThreadedExecutor::new(workers), circuitstart_maker());
        assert_eq!(
            oracle.shards, threaded.shards,
            "{workers} workers diverged from the oracle"
        );
        assert_eq!(oracle.stats, threaded.stats);
    }
}

/// The queue seam composes with the runtime seam: Calendar × Heap ×
/// deterministic × threaded all produce the same experiment.
#[test]
fn queue_and_runtime_seams_compose() {
    let run = |queue, threaded: bool| {
        let exp = ShardedStar {
            scenario: churning_star(all_policies()[1].clone()), // bandwidth
            shards: 2,
            seed: 13,
            queue,
            stats: StatsKind::default(),
        };
        if threaded {
            exp.run(&ThreadedExecutor::new(4), circuitstart_maker())
        } else {
            exp.run(&DeterministicExecutor, circuitstart_maker())
        }
    };
    let base = run(QueueKind::Calendar, false);
    for (queue, threaded) in [
        (QueueKind::Calendar, true),
        (QueueKind::BinaryHeap, false),
        (QueueKind::BinaryHeap, true),
    ] {
        let other = run(queue, threaded);
        assert_eq!(
            base.shards, other.shards,
            "{queue:?} threaded={threaded} diverged"
        );
        assert_eq!(base.stats, other.stats);
    }
}
