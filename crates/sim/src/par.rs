//! Deterministic parallel execution of independent seeded jobs.
//!
//! The Y-chart `map → evaluate` loop (§2, Fig. 2) and every experiment
//! E1–E11 repeat *independent, seeded* evaluations: replications of a
//! simulation, points of a parameter sweep, candidate mappings. Those
//! jobs share no state — all randomness flows through per-job
//! [`crate::SimRng`] streams — so they are embarrassingly parallel.
//!
//! [`ParRunner`] fans such jobs across scoped worker threads while
//! keeping the *output* bit-identical to a sequential run:
//!
//! * jobs are claimed from a shared atomic index (work stealing), so
//!   scheduling order is nondeterministic, **but**
//! * each result is stored in a slot indexed by its job id and the
//!   merged `Vec` is returned in job order, so the caller observes the
//!   exact sequence a `for` loop would have produced.
//!
//! The `DMS_THREADS` environment variable caps the worker count
//! (`DMS_THREADS=1` forces fully sequential in-thread execution — the
//! escape hatch for debugging and for byte-identical-output checks).
//!
//! # Examples
//!
//! ```
//! use dms_sim::par::ParRunner;
//!
//! let squares = ParRunner::new().run(8, |job| job * job);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Fans independent jobs across worker threads and merges results in
/// job order. See the [module docs](self) for the determinism argument.
#[derive(Debug, Clone)]
pub struct ParRunner {
    max_threads: usize,
}

impl Default for ParRunner {
    fn default() -> Self {
        Self::new()
    }
}

/// Reads the `DMS_THREADS` override: `Some(n)` for a parseable positive
/// value, `None` otherwise.
fn env_thread_cap() -> Option<usize> {
    std::env::var("DMS_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

impl ParRunner {
    /// Creates a runner using all available hardware parallelism,
    /// capped by the `DMS_THREADS` environment variable when set.
    #[must_use]
    pub fn new() -> Self {
        let hw = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        ParRunner {
            max_threads: env_thread_cap().unwrap_or(hw).max(1),
        }
    }

    /// Creates a runner with an explicit thread cap (`0` is treated as
    /// `1`). `DMS_THREADS` still applies as a further cap, so a user can
    /// always force sequential runs.
    ///
    /// Test access: `par_runner_output_is_thread_count_invariant` pins
    /// the thread count through it.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        let cap = env_thread_cap().unwrap_or(usize::MAX);
        ParRunner {
            max_threads: threads.max(1).min(cap),
        }
    }

    /// Runs `jobs` invocations of `f(job_id)` and returns the results
    /// in job-id order, regardless of thread count or scheduling.
    ///
    /// `f` must be safe to call from multiple threads at once; each
    /// job id is passed to exactly one invocation. A panic in any job
    /// propagates to the caller after the scope joins.
    pub fn run<T, F>(&self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.max_threads.min(jobs);
        if workers <= 1 {
            return (0..jobs).map(f).collect();
        }
        // Result slots indexed by job id. Workers steal job ids from the
        // shared counter, so *completion* order is nondeterministic; the
        // slot write-back makes the merged output independent of it.
        let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| loop {
                        let job = next.fetch_add(1, Ordering::Relaxed);
                        if job >= jobs {
                            break;
                        }
                        let result = f(job);
                        *slots[job].lock().expect("result slot poisoned") = Some(result);
                    })
                })
                .collect();
            // Join explicitly so a worker panic re-raises with its
            // original payload instead of the scope's generic message.
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every job id below `jobs` was claimed exactly once")
            })
            .collect()
    }

    /// Maps `f` over `items` in parallel, preserving item order in the
    /// returned `Vec` — the sweep-point / replication convenience
    /// wrapper around [`ParRunner::run`].
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        self.run(items.len(), |job| f(&items[job]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_job_order() {
        let runner = ParRunner::with_threads(4);
        // Stagger job durations so completion order differs from job order.
        let out = runner.run(32, |job| {
            if job % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            job * 10
        });
        assert_eq!(out, (0..32).map(|j| j * 10).collect::<Vec<_>>());
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        // A job whose value depends on its id through a seeded RNG, as
        // real replications do.
        let job = |id: usize| {
            let mut rng = crate::SimRng::new(1234).substream("par-test", id as u64);
            (0..100).map(|_| rng.uniform()).sum::<f64>()
        };
        let seq = ParRunner::with_threads(1).run(17, job);
        let par2 = ParRunner::with_threads(2).run(17, job);
        let par8 = ParRunner::with_threads(8).run(17, job);
        assert_eq!(seq, par2);
        assert_eq!(seq, par8);
    }

    #[test]
    fn zero_jobs_is_empty() {
        assert!(ParRunner::new().run(0, |j| j).is_empty());
    }

    #[test]
    fn single_job_runs_inline() {
        assert_eq!(ParRunner::new().run(1, |j| j + 41), vec![41]);
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<u64> = (0..50).collect();
        let out = ParRunner::with_threads(4).map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn with_threads_clamps_zero() {
        // Zero workers would run nothing; the clamp to one runs every job.
        assert_eq!(ParRunner::with_threads(0).run(3, |job| job), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "job 3 exploded")]
    fn worker_panics_propagate() {
        ParRunner::with_threads(4).run(8, |job| {
            if job == 3 {
                panic!("job 3 exploded");
            }
            job
        });
    }
}
