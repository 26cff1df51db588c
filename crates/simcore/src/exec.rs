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
//! the stack (`QueueKind`, `SamplerKind`, `StatsKind`): callers
//! program against one interface, differential tests drive both
//! implementations and assert bit-identical outputs.
//!
//! * [`DeterministicExecutor`] — runs jobs in submission order on the
//!   calling thread. The oracle: zero concurrency, zero ambiguity.
//! * [`ThreadedExecutor`] — scoped worker threads that each claim the
//!   next unclaimed job index from one shared cursor, so a long job
//!   never strands work behind it. Every worker hands its
//!   `(index, output)` pairs back through its join handle and the caller
//!   places them by index, so it observes exactly the deterministic
//!   executor's output sequence — scheduling interleaving can never
//!   leak into results.
//!
//! Jobs must be independent: a job that blocks on another job's progress
//! deadlocks the deterministic executor by construction.

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A type-erased job output (see [`execute_typed`] for the typed view).
pub type JobOutput = Box<dyn Any + Send>;

/// A type-erased job: runs once on some worker, produces an output.
pub type Job = Box<dyn FnOnce() -> JobOutput + Send>;

/// Where simulation jobs run — see the [module docs](self).
pub trait Executor: Sync {
    /// Stable identifier for logs and bench keys.
    fn name(&self) -> &'static str;

    /// Number of OS threads that can make progress concurrently (1 for
    /// the deterministic executor).
    fn workers(&self) -> usize;

    /// Runs every job, returning outputs **in job order** regardless of
    /// completion order.
    fn execute(&self, jobs: Vec<Job>) -> Vec<JobOutput>;
}

/// Typed front-end over [`Executor::execute`]: boxes the closures up,
/// downcasts the outputs back.
///
/// # Panics
///
/// Panics if the executor returns a wrong-typed or missing output —
/// both indicate a broken `Executor` implementation, not a caller error.
pub fn execute_typed<T: Send + 'static>(
    exec: &dyn Executor,
    jobs: Vec<Box<dyn FnOnce() -> T + Send>>,
) -> Vec<T> {
    let boxed: Vec<Job> = jobs
        .into_iter()
        .map(|job| -> Job { Box::new(move || Box::new(job()) as JobOutput) })
        .collect();
    exec.execute(boxed)
        .into_iter()
        .map(|out| *out.downcast::<T>().expect("executor preserved job types"))
        .collect()
}

/// Runs jobs in submission order on the calling thread — the oracle
/// every threaded run is differentially tested against.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeterministicExecutor;

impl Executor for DeterministicExecutor {
    fn name(&self) -> &'static str {
        "deterministic"
    }

    fn workers(&self) -> usize {
        1
    }

    fn execute(&self, jobs: Vec<Job>) -> Vec<JobOutput> {
        jobs.into_iter().map(|job| job()).collect()
    }
}

/// Scoped worker threads over one shared job cursor (see the
/// [module docs](self)).
///
/// Threads are scoped to one [`Executor::execute`] call: the pool holds
/// no global state between calls and cannot leak threads.
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
    fn execute(&self, jobs: Vec<Job>) -> Vec<JobOutput> {
        let total = jobs.len();
        // Each slot is taken exactly once, by whichever worker draws its
        // index from the cursor.
        let slots: Vec<Mutex<Option<Job>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let cursor = AtomicUsize::new(0);
        let work = || {
            let mut done: Vec<(usize, JobOutput)> = Vec::new();
            loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= total {
                    return done;
                }
                let job = slots[idx]
                    .lock()
                    .expect("a job slot is locked once, by its claimant, outside the job")
                    .take()
                    .expect("the cursor hands out each index once");
                done.push((idx, job()));
            }
        };

        let mut outputs: Vec<Option<JobOutput>> = (0..total).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers.min(total))
                .map(|_| scope.spawn(work))
                .collect();
            for handle in handles {
                // The scope joins the remaining workers before the
                // re-raised panic leaves it.
                let done = handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                for (idx, out) in done {
                    outputs[idx] = Some(out);
                }
            }
        });
        outputs
            .into_iter()
            .map(|o| o.expect("every job index was claimed and returned once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares_job(i: u64) -> Box<dyn FnOnce() -> u64 + Send> {
        Box::new(move || i * i)
    }

    #[test]
    fn deterministic_runs_in_order() {
        let order = std::sync::Arc::new(Mutex::new(Vec::new()));
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                let order = order.clone();
                Box::new(move || {
                    order.lock().unwrap().push(i);
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let out = execute_typed(&DeterministicExecutor, jobs);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn threaded_preserves_job_order_in_outputs() {
        for workers in [1, 2, 4, 8] {
            let exec = ThreadedExecutor::new(workers);
            assert_eq!(exec.workers(), workers);
            let jobs: Vec<_> = (0..50u64).map(squares_job).collect();
            let out = execute_typed(&exec, jobs);
            assert_eq!(
                out,
                (0..50u64).map(|i| i * i).collect::<Vec<_>>(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn threaded_matches_deterministic_bit_for_bit() {
        // The seam's core promise: for independent deterministic jobs the
        // executor choice is unobservable in the outputs.
        let make_jobs = || -> Vec<Box<dyn FnOnce() -> Vec<u64> + Send>> {
            (0..16u64)
                .map(|i| {
                    Box::new(move || {
                        // A deterministic per-job computation with state.
                        let mut acc = Vec::new();
                        let mut x = i + 1;
                        for _ in 0..100 {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            acc.push(x);
                        }
                        acc
                    }) as Box<dyn FnOnce() -> Vec<u64> + Send>
                })
                .collect()
        };
        let oracle = execute_typed(&DeterministicExecutor, make_jobs());
        for workers in [2, 4, 8] {
            let threaded = execute_typed(&ThreadedExecutor::new(workers), make_jobs());
            assert_eq!(oracle, threaded, "{workers} workers diverged from oracle");
        }
    }

    #[test]
    fn uneven_jobs_finish_with_every_worker_used() {
        // The first four jobs rendezvous, so they can only finish on four
        // distinct threads; job 0 then runs long while the cursor hands
        // the 36 short jobs to whoever is free.
        let exec = ThreadedExecutor::new(4);
        let rendezvous = std::sync::Arc::new(std::sync::Barrier::new(4));
        type Out = (u64, std::thread::ThreadId);
        let jobs: Vec<Box<dyn FnOnce() -> Out + Send>> = (0..40u64)
            .map(|i| {
                let rendezvous = rendezvous.clone();
                Box::new(move || {
                    if i < 4 {
                        rendezvous.wait();
                    }
                    let spins = if i == 0 { 2_000_000 } else { 1_000 };
                    let mut x = i;
                    for _ in 0..spins {
                        x = x.wrapping_mul(31).wrapping_add(7);
                    }
                    std::hint::black_box(x);
                    (i, std::thread::current().id())
                }) as Box<dyn FnOnce() -> Out + Send>
            })
            .collect();
        let out = execute_typed(&exec, jobs);
        assert!(out.iter().map(|o| o.0).eq(0..40u64));
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
            let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..40u64)
                .map(|i| {
                    Box::new(move || {
                        assert_ne!(i, 7, "job seven exploded");
                        i
                    }) as Box<dyn FnOnce() -> u64 + Send>
                })
                .collect();
            let _ = done_tx.send(execute_typed(&ThreadedExecutor::new(4), jobs));
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
    fn empty_job_list() {
        assert!(ThreadedExecutor::new(4).execute(Vec::new()).is_empty());
        assert!(DeterministicExecutor.execute(Vec::new()).is_empty());
    }

    #[test]
    fn more_workers_than_jobs() {
        let out = execute_typed(
            &ThreadedExecutor::new(8),
            (0..2u64).map(squares_job).collect(),
        );
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn zero_worker_request_clamps_to_one() {
        let exec = ThreadedExecutor::new(0);
        assert_eq!(exec.workers(), 1);
        let out = execute_typed(&exec, (0..3u64).map(squares_job).collect());
        assert_eq!(out, vec![0, 1, 4]);
    }
}
