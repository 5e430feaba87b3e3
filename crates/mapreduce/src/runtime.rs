//! The parallel task runtime: executes map/reduce task waves on OS threads.
//!
//! A MapReduce job runs as a sequence of *task waves*: one map task per
//! compute node, then (for jobs with a reduce phase) one reduce task per
//! node. The simulator historically evaluated every "node" sequentially on
//! the driver thread; this module supplies a real runtime so that a wave's
//! per-node tasks execute concurrently on a scoped pool of OS threads
//! ([`std::thread::scope`] — no dependencies, no `unsafe`).
//!
//! Design constraints, in order:
//!
//! 1. **Determinism** — wave results are returned in task-submission order
//!    and every task is a pure function of its inputs, so a wave produces
//!    bit-identical output at any thread count (including `1`).
//! 2. **Balance** — tasks are picked up dynamically (a shared atomic cursor
//!    over the task list), so a skewed node does not stall the whole wave
//!    behind a static assignment.
//!
//! Two wave calls remain, one per lifetime class of task: [`Runtime::run_wave`]
//! takes tasks that borrow (the loader, the store build, statistics, the
//! reference evaluator) and runs them on scoped threads, and
//! [`Runtime::run_job_wave`] takes `'static` tasks (the executor) and runs
//! them on the persistent pool when there is one. Every crate is
//! `#![forbid(unsafe_code)]` and a persistent pool can only be handed
//! `'static` closures in safe Rust, while the borrowing callers' signatures
//! (`BulkLoader::load_ntriples(&str, …)`, `PartitionedStore::build_with(&Graph, …)`,
//! `compute_statistics(&Graph, …)`) are ones `benchmark/` calls.

use crate::scheduler::{JobId, Scheduler};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

/// Partitions per busy thread: how many files each replica of the store is
/// split into, and so how many tasks every scan, join, shuffle and reduce
/// wave fans out to, for each thread that will drain them. Measured in
/// EXPERIMENTS.md, "Partition execution by worker" (the partition sweep and
/// the ×1 / ×2 pairs, 2 cores): fewer, larger parts win until the count is
/// below, or not a multiple of, the busy threads; ×1 and ×2 tie on pass
/// time (each ahead on one workload, neither in 9 of 10 pairs) and ×1 costs
/// `sp2b_heavy` 6 % more peak memory, so ×2.
const PARTITIONS_PER_THREAD: usize = 2;

/// The partition count a deployment draining waves on `threads` threads
/// lays its data out in: always a positive multiple of the thread count
/// (`0` is taken as one thread), so a wave's tasks divide evenly over the
/// threads. The one source of [`crate::ClusterConfig::default`]'s and
/// [`crate::LoadOptions::default`]'s `nodes`.
pub fn partitions_for(threads: usize) -> usize {
    PARTITIONS_PER_THREAD * threads.max(1)
}

/// A task-wave executor with a fixed degree of parallelism.
///
/// `threads == 1` is the *sequential* runtime: every task runs inline on the
/// caller's thread, which keeps the default execution path deterministic,
/// allocation-light and easy to debug. Any larger count spawns that many
/// scoped OS threads per wave — unless the runtime is *serving*-backed
/// ([`Runtime::serving`]), in which case `'static` waves run on the
/// persistent multi-job [`Scheduler`] shared by every clone of the runtime,
/// interleaved with the waves of concurrently running queries.
#[derive(Debug, Clone)]
pub struct Runtime {
    threads: usize,
    scheduler: Option<Arc<Scheduler>>,
}

impl PartialEq for Runtime {
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads
            && match (&self.scheduler, &other.scheduler) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

impl Eq for Runtime {}

impl Default for Runtime {
    fn default() -> Self {
        Self::sequential()
    }
}

impl Runtime {
    /// The sequential runtime: tasks run inline on the caller's thread.
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            scheduler: None,
        }
    }

    /// A runtime with the given degree of parallelism (`0` is clamped to 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            scheduler: None,
        }
    }

    /// A runtime backed by a persistent multi-job [`Scheduler`] with
    /// `threads` workers. Clones share the scheduler, so queries executed on
    /// the clones interleave their task waves on the one worker pool. Use
    /// [`Runtime::begin_job`] + [`Runtime::run_job_wave`] to submit work.
    pub fn serving(threads: usize) -> Self {
        let threads = threads.max(1);
        Self {
            threads,
            scheduler: Some(Arc::new(Scheduler::new(threads))),
        }
    }

    /// A runtime sized by the machine's available parallelism.
    pub fn available() -> Self {
        Self::with_threads(
            thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1),
        )
    }

    /// Parses a user-supplied thread-count option (a `--threads` flag):
    /// `"auto"` selects the available parallelism and a positive number
    /// selects that many threads. `"0"` and anything unparseable are
    /// rejected with a message naming the offending value.
    pub fn try_from_option(value: &str) -> Result<Self, String> {
        let value = value.trim();
        if value.eq_ignore_ascii_case("auto") {
            return Ok(Self::available());
        }
        match value.parse::<usize>() {
            Ok(0) => Err(format!(
                "thread count must be at least 1 (got \"{value}\"; use \"auto\" for all cores)"
            )),
            Ok(n) => Ok(Self::with_threads(n)),
            Err(_) => Err(format!(
                "thread count must be a positive integer or \"auto\" (got \"{value}\")"
            )),
        }
    }

    /// The configured degree of parallelism (always at least 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Returns `true` when waves run on more than one OS thread.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// The persistent scheduler behind a [`Runtime::serving`] runtime.
    pub fn scheduler(&self) -> Option<&Arc<Scheduler>> {
        self.scheduler.as_ref()
    }

    /// Registers a new job with the persistent scheduler. On non-serving
    /// runtimes every wave belongs to the single implicit [`JobId::SOLO`]
    /// job.
    pub fn begin_job(&self) -> JobId {
        match &self.scheduler {
            Some(scheduler) => scheduler.begin_job(),
            None => JobId::SOLO,
        }
    }

    /// Runs one wave of `'static` tasks under `job` and returns the results
    /// in submission order. On a serving runtime the wave is drained by the
    /// shared worker pool, interleaved with other jobs' waves; otherwise it
    /// falls back to [`Runtime::run_wave`]. Results are bit-identical either
    /// way: waves are keyed by task index, and every task is a pure function
    /// of its inputs.
    pub fn run_job_wave<T, F>(&self, job: JobId, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        match &self.scheduler {
            Some(scheduler) => scheduler.run_wave(job, tasks),
            None => self.run_wave(tasks),
        }
    }

    /// Runs one wave of tasks and returns their results in task order.
    ///
    /// On the sequential runtime (or for waves of at most one task) the
    /// tasks run inline. Otherwise the caller's thread plus
    /// `min(threads, tasks) - 1` scoped OS threads drain the task list
    /// through a shared atomic cursor (the caller working too keeps the
    /// per-wave spawn cost at `workers - 1` threads). A panicking task
    /// panics the wave (the payload is resumed on the caller's thread).
    pub fn run_wave<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let count = tasks.len();
        if !self.is_parallel() || count <= 1 {
            return tasks.into_iter().map(|task| task()).collect();
        }
        let workers = self.threads.min(count);
        // Each slot is taken exactly once; the Mutex makes hand-off between
        // the submitting thread and the picking worker safe without unsafe.
        let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let cursor = AtomicUsize::new(0);
        let drain = |produced: &mut Vec<(usize, T)>| loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= count {
                break;
            }
            let task = slots[index]
                .lock()
                .expect("task slot poisoned")
                .take()
                .expect("task picked twice");
            produced.push((index, task()));
        };
        let mut results: Vec<Option<T>> = std::iter::repeat_with(|| None).take(count).collect();
        thread::scope(|scope| {
            let handles: Vec<_> = (1..workers)
                .map(|_| {
                    let drain = &drain;
                    scope.spawn(move || {
                        let mut produced = Vec::new();
                        drain(&mut produced);
                        produced
                    })
                })
                .collect();
            let mut own = Vec::new();
            drain(&mut own);
            for (index, value) in own {
                results[index] = Some(value);
            }
            for handle in handles {
                match handle.join() {
                    Ok(produced) => {
                        for (index, value) in produced {
                            results[index] = Some(value);
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        results
            .into_iter()
            .map(|slot| slot.expect("every task ran"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_wave_runs_inline_in_order() {
        let runtime = Runtime::sequential();
        assert_eq!(runtime.threads(), 1);
        assert!(!runtime.is_parallel());
        let order = Mutex::new(Vec::new());
        let tasks: Vec<_> = (0..5)
            .map(|i| {
                let order = &order;
                move || {
                    order.lock().unwrap().push(i);
                    i * 10
                }
            })
            .collect();
        let results = runtime.run_wave(tasks);
        assert_eq!(results, vec![0, 10, 20, 30, 40]);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn parallel_wave_preserves_task_order_of_results() {
        let runtime = Runtime::with_threads(4);
        assert!(runtime.is_parallel());
        let tasks: Vec<_> = (0..64usize).map(|i| move || i * i).collect();
        let results = runtime.run_wave(tasks);
        assert_eq!(results, (0..64usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_and_sequential_waves_agree() {
        let work =
            |i: usize| (0..100).fold(i as u64, |acc, k| acc.wrapping_mul(31).wrapping_add(k));
        for threads in [1, 2, 8] {
            let runtime = Runtime::with_threads(threads);
            let tasks: Vec<_> = (0..17usize).map(|i| move || work(i)).collect();
            let expected: Vec<u64> = (0..17usize).map(work).collect();
            assert_eq!(runtime.run_wave(tasks), expected, "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_clamps_to_sequential() {
        // The *programmatic* constructor clamps; the user-facing parsers
        // reject (see below).
        assert_eq!(Runtime::with_threads(0).threads(), 1);
    }

    #[test]
    fn partition_counts_are_positive_multiples_of_the_thread_count() {
        assert!(partitions_for(0) >= 1, "no threads is taken as one");
        assert_eq!(partitions_for(0), partitions_for(1));
        for threads in 1..=64 {
            let partitions = partitions_for(threads);
            assert!(partitions >= threads);
            assert_eq!(partitions % threads, 0, "threads={threads}");
        }
    }

    #[test]
    fn option_parsing_accepts_positive_counts_and_auto() {
        let threads = |value| Runtime::try_from_option(value).unwrap().threads();
        assert_eq!(threads("3"), 3);
        assert_eq!(threads(" 5 "), 5);
        assert!(threads("auto") >= 1);
        assert!(threads("AUTO") >= 1);
    }

    /// Regression test: `0` and garbage used to silently select "auto" and
    /// "sequential" respectively; both must now be rejected with an error
    /// naming the offending value.
    #[test]
    fn option_parsing_rejects_zero_and_garbage() {
        let zero = Runtime::try_from_option("0").unwrap_err();
        assert!(zero.contains("at least 1"), "unhelpful error: {zero}");
        assert!(zero.contains('0'), "error must name the value: {zero}");
        let garbage = Runtime::try_from_option("bogus").unwrap_err();
        assert!(
            garbage.contains("bogus"),
            "error must name the value: {garbage}"
        );
        assert!(Runtime::try_from_option("-2").is_err());
        assert!(Runtime::try_from_option("").is_err());
        assert!(Runtime::try_from_option("2.5").is_err());
    }

    #[test]
    fn serving_runtime_runs_job_waves_on_the_shared_scheduler() {
        let runtime = Runtime::serving(2);
        assert!(runtime.scheduler().is_some());
        let clone = runtime.clone();
        assert_eq!(runtime, clone, "clones share the scheduler");
        let job = clone.begin_job();
        let results =
            clone.run_job_wave(job, (0..9usize).map(|i| move || i * 3).collect::<Vec<_>>());
        assert_eq!(results, (0..9usize).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(runtime.scheduler().unwrap().stats().waves, 1);
    }

    #[test]
    fn job_waves_fall_back_to_scoped_waves_without_a_scheduler() {
        let runtime = Runtime::with_threads(4);
        assert!(runtime.scheduler().is_none());
        let job = runtime.begin_job();
        let results =
            runtime.run_job_wave(job, (0..5usize).map(|i| move || i + 1).collect::<Vec<_>>());
        assert_eq!(results, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_wave_is_fine() {
        let runtime = Runtime::with_threads(4);
        let results: Vec<u32> = runtime.run_wave(Vec::<fn() -> u32>::new());
        assert!(results.is_empty());
    }

    #[test]
    fn panicking_task_panics_the_wave() {
        let runtime = Runtime::with_threads(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> =
                vec![Box::new(|| 1), Box::new(|| panic!("boom")), Box::new(|| 3)];
            runtime.run_wave(tasks)
        }));
        assert!(result.is_err());
    }
}
