//! The persistent multi-job task scheduler behind concurrent query serving.
//!
//! The scoped-thread runtime ([`crate::runtime::Runtime::run_wave`]) spawns
//! a fresh set of OS threads for every wave and — more importantly — serves
//! exactly one job at a time: while one query's wave is running, a second
//! query's tasks cannot make progress. This module supplies the serving-side
//! alternative: a fixed pool of worker threads that outlives any single
//! query and drains task waves from **multiple concurrent jobs**, taking
//! tasks round-robin across the jobs' queues so a cheap query interleaves
//! with (instead of queueing behind) an expensive one.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism** — a wave's results are keyed by task index and
//!    returned in submission order, so a job's output is a pure function of
//!    its inputs: bit-identical at any worker count and any number of
//!    concurrently running jobs.
//! 2. **Fairness** — each job has its own FIFO queue and workers rotate
//!    over the queues (one task per visit), so the scheduler interleaves
//!    jobs at task granularity: the work-stealing that keeps a 2-pattern
//!    query's latency flat while an 8-pattern query is in flight.
//! 3. **Containment** — a panicking task never takes a worker down: the
//!    panic is caught on the worker, the wave's remaining tasks are
//!    cancelled, and the payload is re-raised on the *submitting* thread,
//!    where the serving layer turns it into an error response.
//!
//! The submitting thread does not idle while its wave runs: it helps drain
//! its own job's queue first, then blocks on the wave's condvar. Workers
//! park on a shared condvar when every queue is empty, so an idle scheduler
//! costs nothing but memory.

use cliquesquare_obs::{Counter, Gauge, Histogram, LATENCY_SECONDS_BUCKETS};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Identifies one job (one query execution) to the scheduler. Obtained from
/// [`Scheduler::begin_job`]; waves submitted under the same id share a queue
/// and are drained FIFO relative to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(u64);

impl JobId {
    /// The job id used by contexts that never run concurrently (the
    /// plain wave API without a scheduler).
    pub const SOLO: JobId = JobId(0);
}

/// A queued, type-erased task: runs the user closure and records the result
/// into its wave.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// A queued task stamped with its enqueue instant, so dequeuing can
/// observe how long it waited.
type Queued = (Instant, Task);

/// Registry handles for the scheduler's live metrics, the `csq_scheduler_*`
/// series a `/metrics` scrape reads. All schedulers in a process share the
/// global series (registration is idempotent); one scheduler's own counts
/// are [`Scheduler::stats`].
struct SchedMetrics {
    /// Tasks currently queued (across all jobs).
    queue_depth: Arc<Gauge>,
    /// High-water mark of `queue_depth`.
    queue_depth_peak: Arc<Gauge>,
    /// Enqueue → dequeue wait per task.
    task_wait: Arc<Histogram>,
    jobs_total: Arc<Counter>,
    waves_total: Arc<Counter>,
    tasks_total: Arc<Counter>,
}

impl SchedMetrics {
    fn register() -> Self {
        let registry = cliquesquare_obs::global();
        Self {
            queue_depth: registry.gauge(
                "csq_scheduler_queue_depth",
                "Tasks currently queued across all jobs",
                &[],
            ),
            queue_depth_peak: registry.gauge(
                "csq_scheduler_queue_depth_peak",
                "High-water mark of the scheduler queue depth",
                &[],
            ),
            task_wait: registry.histogram(
                "csq_scheduler_task_wait_seconds",
                "Seconds a task waited between enqueue and dequeue",
                &[],
                LATENCY_SECONDS_BUCKETS,
            ),
            jobs_total: registry.counter(
                "csq_scheduler_jobs_total",
                "Jobs registered with the scheduler",
                &[],
            ),
            waves_total: registry.counter(
                "csq_scheduler_waves_total",
                "Task waves submitted to the scheduler",
                &[],
            ),
            tasks_total: registry.counter(
                "csq_scheduler_tasks_total",
                "Individual tasks submitted to the scheduler",
                &[],
            ),
        }
    }

    /// Records one dequeue: the task is off the queue and about to run.
    fn note_dequeue(&self, enqueued: Instant) {
        self.queue_depth.sub(1);
        self.task_wait.observe(enqueued.elapsed().as_secs_f64());
    }
}

/// Aggregate counters over the scheduler's lifetime (monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Jobs registered via [`Scheduler::begin_job`].
    pub jobs_started: u64,
    /// Task waves submitted.
    pub waves: u64,
    /// Individual tasks executed (including cancelled no-ops).
    pub tasks: u64,
}

struct SchedState {
    /// One FIFO task queue per job with work outstanding. Queues are
    /// created on first submission and dropped once drained, so the vector
    /// only ever holds jobs that actually have queued tasks.
    queues: Vec<(JobId, VecDeque<Queued>)>,
    /// Round-robin cursor over `queues` (by position, wrapping).
    next: usize,
    shutdown: bool,
}

impl SchedState {
    /// Pops the next task, rotating across job queues: one task per queue
    /// visit, so concurrent jobs interleave at task granularity.
    fn pop_any(&mut self) -> Option<Queued> {
        while !self.queues.is_empty() {
            let index = self.next % self.queues.len();
            let (_, queue) = &mut self.queues[index];
            if let Some(task) = queue.pop_front() {
                self.next = index + 1;
                return Some(task);
            }
            // Drained queue: drop it and retry from the same position.
            self.queues.remove(index);
        }
        None
    }

    /// Pops the next task of one specific job (the submitter helping its
    /// own wave).
    fn pop_job(&mut self, job: JobId) -> Option<Queued> {
        let index = self.queues.iter().position(|(id, _)| *id == job)?;
        let task = self.queues[index].1.pop_front();
        if self.queues[index].1.is_empty() {
            self.queues.remove(index);
        }
        task
    }

    fn enqueue(&mut self, job: JobId, tasks: impl Iterator<Item = Queued>) {
        match self.queues.iter_mut().find(|(id, _)| *id == job) {
            Some((_, queue)) => queue.extend(tasks),
            None => self.queues.push((job, tasks.collect())),
        }
    }
}

struct Inner {
    state: Mutex<SchedState>,
    /// Signalled when tasks are enqueued (or on shutdown); workers park here.
    work_ready: Condvar,
    /// Live queue gauges and wait histogram (global registry handles).
    metrics: SchedMetrics,
}

/// Everything one in-flight wave shares between its tasks and its submitter.
struct WaveState<T> {
    slots: Mutex<WaveSlots<T>>,
    /// Signalled when the wave's last task completes.
    done: Condvar,
}

struct WaveSlots<T> {
    /// One result slot per task, filled by task index: submission order is
    /// restored regardless of which worker ran what when.
    results: Vec<Option<T>>,
    /// Tasks not yet finished (completed, panicked or cancelled).
    remaining: usize,
    /// The first panic payload, re-raised on the submitting thread.
    panic: Option<Box<dyn Any + Send>>,
    /// Set on the first panic: queued siblings skip their work and count
    /// straight down, cancelling the wave cleanly.
    cancelled: bool,
}

/// A persistent pool of worker threads draining task waves from multiple
/// concurrent jobs. See the module docs for the scheduling discipline.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    next_job: AtomicU64,
    jobs_started: AtomicU64,
    waves: AtomicU64,
    tasks: AtomicU64,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl Scheduler {
    /// Starts a scheduler with `threads` worker threads (`0` is clamped
    /// to 1). The workers live until the scheduler is dropped.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(SchedState {
                queues: Vec::new(),
                next: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            metrics: SchedMetrics::register(),
        });
        let workers = (0..threads)
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("csq-worker-{index}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Self {
            inner,
            workers,
            threads,
            // Job 0 is JobId::SOLO; real jobs start at 1.
            next_job: AtomicU64::new(1),
            jobs_started: AtomicU64::new(0),
            waves: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
        }
    }

    /// The number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Registers a new job and returns its id. Cheap (one atomic add): jobs
    /// hold no scheduler resources until they submit a wave.
    pub fn begin_job(&self) -> JobId {
        self.jobs_started.fetch_add(1, Ordering::Relaxed);
        self.inner.metrics.jobs_total.inc();
        JobId(self.next_job.fetch_add(1, Ordering::Relaxed))
    }

    /// Lifetime counters (jobs, waves, tasks).
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            jobs_started: self.jobs_started.load(Ordering::Relaxed),
            waves: self.waves.load(Ordering::Relaxed),
            tasks: self.tasks.load(Ordering::Relaxed),
        }
    }

    /// Runs one wave of tasks under `job` and returns the results in
    /// submission order. Blocks until the wave completes; while blocked, the
    /// submitting thread helps drain its own job's queue. If any task
    /// panics, the remaining queued tasks of the wave are cancelled and the
    /// first panic payload is re-raised **here**, on the submitting thread —
    /// the workers survive and keep serving other jobs.
    pub fn run_wave<T, F>(&self, job: JobId, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let count = tasks.len();
        self.waves.fetch_add(1, Ordering::Relaxed);
        self.tasks.fetch_add(count as u64, Ordering::Relaxed);
        self.inner.metrics.waves_total.inc();
        self.inner.metrics.tasks_total.add(count as u64);
        if count == 0 {
            return Vec::new();
        }
        let wave = Arc::new(WaveState {
            slots: Mutex::new(WaveSlots {
                results: std::iter::repeat_with(|| None).take(count).collect(),
                remaining: count,
                panic: None,
                cancelled: false,
            }),
            done: Condvar::new(),
        });
        {
            let enqueued_at = Instant::now();
            let mut state = self.inner.state.lock().expect("scheduler state");
            let wrapped = tasks.into_iter().enumerate().map(|(index, task)| {
                let wave = Arc::clone(&wave);
                (
                    enqueued_at,
                    Box::new(move || run_task(&wave, index, task)) as Task,
                )
            });
            state.enqueue(job, wrapped);
        }
        let metrics = &self.inner.metrics;
        metrics.queue_depth.add(count as i64);
        metrics
            .queue_depth_peak
            .record_max(metrics.queue_depth.get());
        self.inner.work_ready.notify_all();

        // Help: drain this job's own queue on the submitting thread, so a
        // wave makes progress even when every worker is busy elsewhere.
        loop {
            let task = {
                let mut state = self.inner.state.lock().expect("scheduler state");
                state.pop_job(job)
            };
            match task {
                Some((enqueued, task)) => {
                    self.inner.metrics.note_dequeue(enqueued);
                    task()
                }
                None => break,
            }
        }

        let mut slots = wave.slots.lock().expect("wave slots");
        while slots.remaining > 0 {
            slots = wave.done.wait(slots).expect("wave slots");
        }
        if let Some(payload) = slots.panic.take() {
            drop(slots);
            resume_unwind(payload);
        }
        slots
            .results
            .iter_mut()
            .map(|slot| slot.take().expect("every task filled its slot"))
            .collect()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock().expect("scheduler state");
            state.shutdown = true;
        }
        self.inner.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            // Worker closures catch task panics, so join only fails if the
            // scheduler itself is broken — propagate that loudly.
            worker.join().expect("scheduler worker panicked");
        }
    }
}

/// Runs one wrapped task: executes the user closure under `catch_unwind`,
/// records the outcome, and wakes the submitter when the wave completes.
/// Tasks of a cancelled wave skip the closure and count straight down.
fn run_task<T>(wave: &WaveState<T>, index: usize, task: impl FnOnce() -> T) {
    let cancelled = wave.slots.lock().expect("wave slots").cancelled;
    let outcome = if cancelled {
        None
    } else {
        Some(catch_unwind(AssertUnwindSafe(task)))
    };
    let mut slots = wave.slots.lock().expect("wave slots");
    match outcome {
        Some(Ok(value)) => slots.results[index] = Some(value),
        Some(Err(payload)) => {
            slots.cancelled = true;
            if slots.panic.is_none() {
                slots.panic = Some(payload);
            }
        }
        None => {}
    }
    slots.remaining -= 1;
    if slots.remaining == 0 {
        wave.done.notify_all();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let (enqueued, task) = {
            let mut state = inner.state.lock().expect("scheduler state");
            loop {
                if let Some(task) = state.pop_any() {
                    break task;
                }
                if state.shutdown {
                    return;
                }
                state = inner.work_ready.wait(state).expect("scheduler state");
            }
        };
        inner.metrics.note_dequeue(enqueued);
        // The wrapper contains its own catch_unwind; a worker never dies.
        task();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_job_wave_returns_results_in_submission_order() {
        let scheduler = Scheduler::new(4);
        let job = scheduler.begin_job();
        let tasks: Vec<_> = (0..64usize).map(|i| move || i * i).collect();
        let results = scheduler.run_wave(job, tasks);
        assert_eq!(results, (0..64usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_wave_completes_immediately() {
        let scheduler = Scheduler::new(2);
        let job = scheduler.begin_job();
        let results: Vec<u32> = scheduler.run_wave(job, Vec::<fn() -> u32>::new());
        assert!(results.is_empty());
    }

    #[test]
    fn concurrent_jobs_from_many_threads_all_complete_correctly() {
        let scheduler = Arc::new(Scheduler::new(3));
        std::thread::scope(|scope| {
            for client in 0..6u64 {
                let scheduler = Arc::clone(&scheduler);
                scope.spawn(move || {
                    for round in 0..4u64 {
                        let job = scheduler.begin_job();
                        let tasks: Vec<_> = (0..8u64)
                            .map(|i| move || client * 1000 + round * 10 + i)
                            .collect();
                        let results = scheduler.run_wave(job, tasks);
                        let expected: Vec<u64> =
                            (0..8u64).map(|i| client * 1000 + round * 10 + i).collect();
                        assert_eq!(results, expected);
                    }
                });
            }
        });
        let stats = scheduler.stats();
        assert_eq!(stats.jobs_started, 24);
        assert_eq!(stats.waves, 24);
        assert_eq!(stats.tasks, 24 * 8);
    }

    #[test]
    fn panicking_task_cancels_the_wave_and_spares_the_workers() {
        let scheduler = Scheduler::new(2);
        let job = scheduler.begin_job();
        let ran = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16usize)
            .map(|i| {
                let ran = Arc::clone(&ran);
                Box::new(move || {
                    if i == 3 {
                        panic!("task boom");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| scheduler.run_wave(job, tasks)));
        assert!(outcome.is_err(), "the panic reaches the submitter");

        // The pool survives: the next job runs to completion.
        let job = scheduler.begin_job();
        let results = scheduler.run_wave(job, (0..4usize).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(results, vec![0, 1, 2, 3]);
    }

    #[test]
    fn a_cheap_job_completes_while_an_expensive_job_is_in_flight() {
        use std::time::{Duration, Instant};
        // One worker serves both queues: round-robin draining interleaves
        // the cheap job's single task between the expensive job's tasks
        // instead of running the expensive wave to completion first.
        let scheduler = Arc::new(Scheduler::new(1));
        let gate = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            let expensive = {
                let scheduler = Arc::clone(&scheduler);
                let gate = Arc::clone(&gate);
                scope.spawn(move || {
                    let job = scheduler.begin_job();
                    let tasks: Vec<_> = (0..20usize)
                        .map(|i| {
                            let gate = Arc::clone(&gate);
                            move || {
                                gate.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_millis(5));
                                i
                            }
                        })
                        .collect();
                    scheduler.run_wave(job, tasks).len()
                })
            };
            // Wait until the expensive job is actually running.
            while gate.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            let started = Instant::now();
            let job = scheduler.begin_job();
            let results = scheduler.run_wave(job, vec![|| 42usize]);
            let cheap_latency = started.elapsed();
            assert_eq!(results, vec![42]);
            // Strictly less than the expensive wave's full 20 * 5ms span:
            // generous slack, but failing requires the cheap task to have
            // queued behind (nearly) the whole expensive wave.
            assert!(
                cheap_latency < Duration::from_millis(80),
                "cheap job waited {cheap_latency:?} behind the expensive wave"
            );
            assert_eq!(expensive.join().unwrap(), 20);
        });
    }

    #[test]
    fn results_are_identical_at_any_worker_count() {
        let work = |i: usize| (0..50).fold(i as u64, |acc, k| acc.wrapping_mul(31).wrapping_add(k));
        let expected: Vec<u64> = (0..23usize).map(work).collect();
        for threads in [1, 2, 8] {
            let scheduler = Scheduler::new(threads);
            let job = scheduler.begin_job();
            let tasks: Vec<_> = (0..23usize).map(|i| move || work(i)).collect();
            assert_eq!(
                scheduler.run_wave(job, tasks),
                expected,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn drop_joins_the_workers() {
        let scheduler = Scheduler::new(4);
        let job = scheduler.begin_job();
        let _ = scheduler.run_wave(job, (0..8usize).map(|i| move || i).collect::<Vec<_>>());
        drop(scheduler); // must not hang or panic
    }
}
