//! The runtime seam: deterministic or threaded execution of simulation
//! jobs.
//!
//! The event loop itself ([`crate::sim::Simulator`]) stays strictly
//! single-threaded — that is what makes a `World` bit-for-bit
//! reproducible and lets it serve as a correctness oracle. Scale comes
//! from *above* the loop: production-size experiments are decomposed
//! into independent deterministic worlds (shards), and an [`Executor`]
//! decides whether those run one after another on the calling thread or
//! spread across OS threads. The seam mirrors the other oracle pairs of
//! the stack (`QueueKind`, `SamplerKind`): callers program against one
//! interface, differential tests drive both implementations and assert
//! bit-identical outputs.
//!
//! A job is an index: [`Executor::run`] calls one shared closure once
//! for every index, so jobs borrow whatever the caller holds, and
//! [`map`] places each job's output at its index.
//!
//! * [`DeterministicExecutor`] — runs the indices in order on the
//!   calling thread. The oracle: zero concurrency, zero ambiguity.
//! * [`ThreadedExecutor`] — scoped worker threads that each claim the
//!   next unclaimed index from one shared cursor, so a long job never
//!   strands work behind it. Since [`map`] places outputs by index, the
//!   caller observes exactly the deterministic executor's output
//!   sequence — scheduling interleaving can never leak into results.
//!
//! Jobs must be independent: a job that blocks on another job's progress
//! deadlocks the deterministic executor by construction.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Where simulation jobs run — see the [module docs](self).
pub trait Executor: Sync {
    /// Stable identifier for logs and bench keys.
    fn name(&self) -> &'static str;

    /// Number of OS threads that can make progress concurrently (1 for
    /// the deterministic executor).
    fn workers(&self) -> usize;

    /// Calls `job(i)` exactly once for every `i` in `0..jobs`, in any
    /// order and on any worker, and returns when every call has.
    fn run(&self, jobs: usize, job: &(dyn Fn(usize) + Sync));
}

/// Runs `f(0..n)` on `exec` and returns the outputs **in index order**
/// regardless of completion order.
pub fn map<T: Send + Sync>(exec: &dyn Executor, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    exec.run(n, &|i| {
        assert!(
            slots[i].set(f(i)).is_ok(),
            "the executor ran index {i} twice"
        );
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("the executor ran every index"))
        .collect()
}

/// Runs the indices in order on the calling thread — the oracle every
/// threaded run is differentially tested against.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeterministicExecutor;

impl Executor for DeterministicExecutor {
    fn name(&self) -> &'static str {
        "deterministic"
    }

    fn workers(&self) -> usize {
        1
    }

    fn run(&self, jobs: usize, job: &(dyn Fn(usize) + Sync)) {
        for i in 0..jobs {
            job(i);
        }
    }
}

/// Scoped worker threads over one shared index cursor (see the
/// [module docs](self)).
///
/// Threads are scoped to one [`Executor::run`] call: the pool holds no
/// global state between calls and cannot leak threads.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedExecutor {
    workers: usize,
}

impl ThreadedExecutor {
    /// Creates a pool of `workers` threads (at least 1).
    pub fn new(workers: usize) -> ThreadedExecutor {
        ThreadedExecutor {
            workers: workers.max(1),
        }
    }
}

impl Executor for ThreadedExecutor {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn workers(&self) -> usize {
        self.workers
    }

    /// # Panics
    ///
    /// Re-raises a panicking job's payload on the calling thread once
    /// every worker has stopped.
    fn run(&self, jobs: usize, job: &(dyn Fn(usize) + Sync)) {
        // The cursor hands out each index once; `run`'s return, which
        // joins every worker, is what publishes the jobs' effects.
        let cursor = AtomicUsize::new(0);
        let work = || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                return;
            }
            job(i);
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers.min(jobs))
                .map(|_| scope.spawn(work))
                .collect();
            for handle in handles {
                // The scope joins the remaining workers before the
                // re-raised panic leaves it.
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_runs_in_order() {
        let order = std::sync::Mutex::new(Vec::new());
        let out = map(&DeterministicExecutor, 8, |i| {
            order.lock().unwrap().push(i);
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(order.into_inner().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let execs: [&dyn Executor; 5] = [
            &DeterministicExecutor,
            &ThreadedExecutor::new(1),
            &ThreadedExecutor::new(2),
            &ThreadedExecutor::new(4),
            &ThreadedExecutor::new(8),
        ];
        for exec in execs {
            for n in [0, 1, 3, 50] {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                exec.run(n, &|i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                });
                let runs: Vec<usize> = runs.into_iter().map(AtomicUsize::into_inner).collect();
                assert_eq!(
                    runs,
                    vec![1; n],
                    "{} x{}, n = {n}",
                    exec.name(),
                    exec.workers()
                );
            }
        }
    }

    #[test]
    fn threaded_preserves_job_order_in_outputs() {
        for workers in [1, 2, 4, 8] {
            let exec = ThreadedExecutor::new(workers);
            assert_eq!(exec.workers(), workers);
            let out = map(&exec, 50, |i| i * i);
            assert_eq!(
                out,
                (0..50).map(|i| i * i).collect::<Vec<_>>(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn jobs_borrow_the_callers_data() {
        // A caller-local value read by reference from every worker: no
        // clone per job, no `'static` bound.
        let inputs: Vec<String> = (0..20).map(|i| format!("shard-{i}")).collect();
        let oracle = map(&DeterministicExecutor, inputs.len(), |i| inputs[i].len());
        for workers in [2, 4, 8] {
            let threaded = map(&ThreadedExecutor::new(workers), inputs.len(), |i| {
                inputs[i].len()
            });
            assert_eq!(oracle, threaded, "{workers} workers");
        }
        assert_eq!(oracle[0], "shard-0".len());
        assert_eq!(oracle[19], "shard-19".len());
    }

    #[test]
    fn threaded_matches_deterministic_bit_for_bit() {
        // The seam's core promise: for independent deterministic jobs the
        // executor choice is unobservable in the outputs.
        let job = |i: usize| {
            // A deterministic per-job computation with state.
            let mut acc = Vec::new();
            let mut x = i as u64 + 1;
            for _ in 0..100 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                acc.push(x);
            }
            acc
        };
        let oracle = map(&DeterministicExecutor, 16, job);
        for workers in [2, 4, 8] {
            let threaded = map(&ThreadedExecutor::new(workers), 16, job);
            assert_eq!(oracle, threaded, "{workers} workers diverged from oracle");
        }
    }

    #[test]
    fn uneven_jobs_finish_with_every_worker_used() {
        // The first four jobs rendezvous, so they can only finish on four
        // distinct threads; job 0 then runs long while the cursor hands
        // the 36 short jobs to whoever is free.
        let rendezvous = std::sync::Barrier::new(4);
        let out = map(&ThreadedExecutor::new(4), 40, |i| {
            if i < 4 {
                rendezvous.wait();
            }
            let spins = if i == 0 { 2_000_000 } else { 1_000 };
            let mut x = i as u64;
            for _ in 0..spins {
                x = x.wrapping_mul(31).wrapping_add(7);
            }
            std::hint::black_box(x);
            (i, std::thread::current().id())
        });
        assert!(out.iter().map(|o| o.0).eq(0..40));
        let mut threads = Vec::new();
        for (_, thread) in &out {
            if !threads.contains(thread) {
                threads.push(*thread);
            }
        }
        assert_eq!(threads.len(), 4, "every worker ran at least one job");
    }

    #[test]
    fn a_panicking_job_reaches_the_caller_without_hanging() {
        // Watchdog: the executor runs on a helper thread so a regression
        // that hangs fails this test instead of wedging the suite. The
        // helper dying drops `done_tx`, which is what wakes the receiver.
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (done_tx, done_rx) = channel();
        let helper = std::thread::spawn(move || {
            let out = map(&ThreadedExecutor::new(4), 40, |i| {
                assert_ne!(i, 7, "job seven exploded");
                i
            });
            let _ = done_tx.send(out);
        });
        match done_rx.recv_timeout(std::time::Duration::from_secs(30)) {
            Err(RecvTimeoutError::Disconnected) => {}
            Err(RecvTimeoutError::Timeout) => panic!("executor hung after a job panicked"),
            Ok(out) => panic!("the job's panic was swallowed: {out:?}"),
        }
        let payload = helper
            .join()
            .expect_err("the helper died of the job's panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("assert_ne! panics with a String");
        assert!(msg.contains("job seven exploded"), "payload lost: {msg}");
    }

    #[test]
    fn more_workers_than_jobs() {
        assert_eq!(map(&ThreadedExecutor::new(8), 2, |i| i * i), vec![0, 1]);
    }

    #[test]
    fn zero_worker_request_clamps_to_one() {
        let exec = ThreadedExecutor::new(0);
        assert_eq!(exec.workers(), 1);
        assert_eq!(map(&exec, 3, |i| i * i), vec![0, 1, 4]);
    }
}
