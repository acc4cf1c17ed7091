//! The parallel experiment runner: expands an experiment grid into
//! independent jobs and executes them on a scoped worker pool.
//!
//! Every experiment driver walks a (workload × scheme × machine × layout)
//! grid whose cells are independent simulations, so the drivers hand the
//! expanded grid to [`Runner::run`] and fold the results afterwards. Three
//! properties make this safe and reproducible:
//!
//! * **Determinism** — results come back indexed by job position, so the
//!   fold sees *exactly* the order a serial loop would have produced, and a
//!   single simulation is a pure function of its (machine, scheme, trace)
//!   inputs. Serial and parallel runs are bit-identical.
//! * **Zero-copy inputs** — jobs borrow the shared [`Lab`](crate::experiments::Lab)
//!   and its `Arc<[DynInst]>` trace cache; nothing is cloned per job beyond
//!   a refcount bump.
//! * **No dependencies** — the pool is `std::thread::scope` + an atomic
//!   work-stealing index; builds stay hermetic.
//!
//! The pool width defaults to [`std::thread::available_parallelism`] and can
//! be overridden with the `FETCHMECH_THREADS` environment variable (or
//! explicitly via [`Runner::new`]; `FETCHMECH_THREADS=1` forces serial
//! execution, which is also the automatic fallback for tiny grids).

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Environment variable overriding the worker-pool width.
pub(crate) const THREADS_ENV: &str = "FETCHMECH_THREADS";

/// A fixed-width worker pool for embarrassingly parallel experiment grids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runner {
    threads: usize,
}

impl Runner {
    /// A runner with an explicit worker count (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A runner sized from the environment: `FETCHMECH_THREADS` if set to a
    /// positive integer, otherwise [`std::thread::available_parallelism`].
    ///
    /// A value that is set but unusable — `0`, empty, or unparseable — falls
    /// back to the hardware width *with a one-line warning on stderr*, so a
    /// typo in a job script degrades loudly instead of silently.
    #[must_use]
    pub(crate) fn from_env() -> Self {
        Self::from_flag_or_env(None)
    }

    /// A runner sized from an explicit `--threads`-style flag, falling back
    /// to `FETCHMECH_THREADS` when the flag is absent.
    ///
    /// The flag wins over `FETCHMECH_THREADS`; when both are set and
    /// disagree, a single warning on stderr names the conflict; a flag of
    /// `0` is unusable and also warns. CLIs plumb their
    /// `--threads N` option through here so flag and env behave identically
    /// everywhere.
    #[must_use]
    pub fn from_flag_or_env(flag: Option<usize>) -> Self {
        let var = std::env::var(THREADS_ENV).ok();
        let (threads, warning) = resolve_threads_flag(flag, var.as_deref(), default_parallelism());
        if let Some(msg) = warning {
            eprintln!("warning: {msg}");
        }
        Self::new(threads)
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` over every job and returns the results **in job order**,
    /// regardless of which worker finished which job when.
    ///
    /// Jobs are distributed dynamically (an atomic next-job index), so a grid
    /// with wildly uneven cell costs — a P112 collapsing-buffer simulation
    /// next to a static layout measurement — still load-balances. With one
    /// worker, or fewer than two jobs, no threads are spawned at all and the
    /// jobs run on the caller's stack.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job (the scope unwinds after all workers
    /// stop picking up new work).
    pub fn run<J, R, F>(&self, jobs: &[J], f: F) -> Vec<R>
    where
        J: Sync,
        R: Send,
        F: Fn(&J) -> R + Sync,
    {
        let workers = self.threads.min(jobs.len());
        if workers <= 1 {
            return jobs.iter().map(f).collect();
        }

        // One slot per job; each slot is written exactly once, by whichever
        // worker claimed that index.
        let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let result = f(job);
                        *slots[i].lock().expect("result slot poisoned") = Some(result);
                    })
                })
                .collect();
            // Join explicitly so a job panic resurfaces with its original
            // payload (an unjoined scoped-thread panic would be replaced by
            // the scope's generic one).
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
                    .expect("every job index was claimed by a worker")
            })
            .collect()
    }
}

impl Default for Runner {
    fn default() -> Self {
        Self::from_env()
    }
}

/// The hardware fallback width: [`std::thread::available_parallelism`],
/// or 1 where the platform cannot report it.
fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a raw `FETCHMECH_THREADS` value to a worker count, plus a
/// warning message when the value was set but unusable.
///
/// Pure so the policy is unit-testable without touching process-global
/// environment state: `None` (unset) silently yields `fallback`; a positive
/// integer wins; anything else — `0`, empty, garbage — yields `fallback`
/// with a warning describing the bad value.
#[must_use]
pub(crate) fn resolve_threads(var: Option<&str>, fallback: usize) -> (usize, Option<String>) {
    let Some(raw) = var else {
        return (fallback, None);
    };
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => (n, None),
        _ => (
            fallback,
            Some(format!(
                "{THREADS_ENV}={raw:?} is not a positive integer; \
                 using {fallback} worker thread(s)"
            )),
        ),
    }
}

/// Resolves a `--threads` flag against the `FETCHMECH_THREADS` environment
/// variable: the flag wins, and a conflict warns exactly once.
///
/// Pure for the same reason as [`resolve_threads`]. Policy:
///
/// * flag absent → defer to [`resolve_threads`] on the env value;
/// * flag `0` → unusable, resolve from env/fallback with a warning;
/// * flag positive, env unset or agreeing → flag, silent;
/// * flag positive, env set to anything else → flag, with one warning naming
///   the overridden value.
#[must_use]
pub(crate) fn resolve_threads_flag(
    flag: Option<usize>,
    var: Option<&str>,
    fallback: usize,
) -> (usize, Option<String>) {
    let Some(n) = flag else {
        return resolve_threads(var, fallback);
    };
    if n == 0 {
        let (threads, _) = resolve_threads(var, fallback);
        return (
            threads,
            Some(format!(
                "--threads 0 is not a positive integer; using {threads} worker thread(s)"
            )),
        );
    }
    match var {
        Some(raw) if raw.trim().parse::<usize>() != Ok(n) => (
            n,
            Some(format!(
                "--threads {n} overrides {THREADS_ENV}={raw:?}; using {n} worker thread(s)"
            )),
        ),
        _ => (n, None),
    }
}

// ---------------------------------------------------------------------------
// Bounded job queue: the long-lived service counterpart of `Runner::run`.
// ---------------------------------------------------------------------------

/// A unit of work for a [`JobQueue`].
///
/// The queue checks [`QueueJob::cancelled`] *between* jobs — after popping a
/// job and before running it — so a job whose waiters have all given up (a
/// deadline expired, a client disconnected) is skipped via
/// [`QueueJob::skip`] instead of burning a worker. Cancellation is
/// cooperative and never interrupts a running job.
pub trait QueueJob: Send + 'static {
    /// Executes the job on a worker thread.
    fn run(self);

    /// Whether the job should be skipped instead of run. Checked once, right
    /// before execution.
    fn cancelled(&self) -> bool {
        false
    }

    /// Called (instead of [`QueueJob::run`]) when the job was cancelled, so
    /// it can notify its waiters.
    fn skip(self)
    where
        Self: Sized,
    {
    }
}

/// Why [`JobQueue::try_submit`] rejected a job; the job is handed back so
/// the caller can respond to its waiters.
#[derive(Debug)]
pub enum SubmitError<J> {
    /// The bounded queue is at capacity — shed load (HTTP 429 territory).
    Full(J),
    /// The queue is draining for shutdown and accepts no new work.
    Closed(J),
}

impl<J> fmt::Display for SubmitError<J> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Full(_) => write!(f, "job queue full"),
            SubmitError::Closed(_) => write!(f, "job queue closed"),
        }
    }
}

struct QueueState<J> {
    queue: VecDeque<J>,
    closed: bool,
    running: usize,
}

struct QueueShared<J> {
    state: Mutex<QueueState<J>>,
    capacity: usize,
    /// Wakes workers when work arrives or the queue closes.
    work: Condvar,
    /// Wakes [`JobQueue::drain`] when the queue goes quiescent.
    idle: Condvar,
    /// Jobs whose `run`/`skip` panicked. The worker survives (the panic is
    /// caught, counted, and logged), so one bad job can never leak the
    /// `running` count and hang [`JobQueue::drain`].
    panics: std::sync::atomic::AtomicU64,
}

/// A bounded multi-producer job queue with a fixed worker pool — the
/// admission-control primitive the experiment service layers HTTP on.
///
/// Where [`Runner::run`] executes one finite grid and returns, a `JobQueue`
/// is long-lived: producers [`try_submit`](JobQueue::try_submit) jobs (and
/// are *refused*, not blocked, when the bounded queue is full — callers turn
/// that into load-shedding), `threads` workers execute them in FIFO order,
/// and [`shutdown`](JobQueue::shutdown) closes admissions, drains everything
/// already accepted, and joins the workers. Jobs implement [`QueueJob`];
/// cancellation is checked between jobs, never mid-run.
pub struct JobQueue<J: QueueJob> {
    shared: Arc<QueueShared<J>>,
    workers: Vec<JoinHandle<()>>,
}

impl<J: QueueJob> fmt::Debug for JobQueue<J> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobQueue")
            .field("capacity", &self.shared.capacity)
            .field("workers", &self.workers.len())
            .field("depth", &self.depth())
            .finish()
    }
}

impl<J: QueueJob> JobQueue<J> {
    /// Starts a queue bounded at `capacity` pending jobs, executed by
    /// `runner.threads()` worker threads (both clamped to at least 1).
    #[must_use]
    pub fn start(runner: Runner, capacity: usize) -> Self {
        let shared = Arc::new(QueueShared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                closed: false,
                running: 0,
            }),
            capacity: capacity.max(1),
            work: Condvar::new(),
            idle: Condvar::new(),
            panics: std::sync::atomic::AtomicU64::new(0),
        });
        let workers = (0..runner.threads())
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fetchmech-queue-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn queue worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Admits a job, or refuses immediately when the queue is full or
    /// closed. Never blocks.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when `capacity` jobs are already pending, and
    /// [`SubmitError::Closed`] after [`close`](JobQueue::close) — the job is
    /// returned inside the error either way.
    pub fn try_submit(&self, job: J) -> Result<(), SubmitError<J>> {
        let mut state = self.shared.state.lock().expect("queue lock poisoned");
        if state.closed {
            return Err(SubmitError::Closed(job));
        }
        if state.queue.len() >= self.shared.capacity {
            return Err(SubmitError::Full(job));
        }
        state.queue.push_back(job);
        drop(state);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Pending (admitted, not yet started) jobs.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("queue lock poisoned")
            .queue
            .len()
    }

    /// Jobs currently executing on workers.
    #[must_use]
    pub fn running(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("queue lock poisoned")
            .running
    }

    /// The admission bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// The worker-pool width.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs whose `run`/`skip` panicked on a worker (the workers survive;
    /// see the worker loop's panic guard).
    #[must_use]
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Closes admissions: subsequent [`try_submit`](JobQueue::try_submit)
    /// calls fail with [`SubmitError::Closed`], while already-admitted jobs
    /// keep draining.
    pub fn close(&self) {
        self.shared
            .state
            .lock()
            .expect("queue lock poisoned")
            .closed = true;
        self.shared.work.notify_all();
        self.shared.idle.notify_all();
    }

    /// Blocks until the queue is closed, empty, *and* no job is running —
    /// the by-reference counterpart of [`shutdown`](JobQueue::shutdown) for
    /// callers that hold the queue behind an `Arc` (the workers exit on
    /// their own once drained; they are not joined here).
    pub fn drain(&self) {
        let mut state = self.shared.state.lock().expect("queue lock poisoned");
        while !(state.closed && state.queue.is_empty() && state.running == 0) {
            state = self.shared.idle.wait(state).expect("queue lock poisoned");
        }
    }

    /// Graceful shutdown: closes admissions, waits for the workers to drain
    /// every already-admitted job, and joins them.
    ///
    /// # Panics
    ///
    /// Propagates a panic from a worker thread itself. Job panics are caught
    /// by the worker's guard and surface via [`panics`](JobQueue::panics)
    /// instead — a service must outlive its worst request.
    pub fn shutdown(mut self) {
        self.close();
        for worker in self.workers.drain(..) {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl<J: QueueJob> Drop for JobQueue<J> {
    fn drop(&mut self) {
        // Dropping without `shutdown()` still drains: close and detach. The
        // workers hold their own Arc to the shared state, so they finish the
        // admitted jobs even after the handle is gone.
        self.close();
    }
}

fn worker_loop<J: QueueJob>(shared: &QueueShared<J>) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("queue lock poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.running += 1;
                    break job;
                }
                if state.closed {
                    return;
                }
                state = shared.work.wait(state).expect("queue lock poisoned");
            }
        };
        // Guard the job body: an unwinding job must not kill the worker or
        // leak the `running` count (which would wedge `drain` forever).
        // Panics are counted and logged; the queue keeps serving.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // The cooperative cancellation point: between jobs, never
            // mid-run.
            if job.cancelled() {
                job.skip();
            } else {
                job.run();
            }
        }));
        if outcome.is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
            eprintln!("warning: a queued job panicked; the worker survives (see JobQueue::panics)");
        }
        let mut state = shared.state.lock().expect("queue lock poisoned");
        state.running -= 1;
        if state.queue.is_empty() && state.running == 0 {
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 4, 7] {
            let out = Runner::new(threads).run(&jobs, |&j| j * j);
            assert_eq!(out, jobs.iter().map(|j| j * j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn uneven_jobs_all_complete() {
        let jobs: Vec<u64> = (0..40).collect();
        let out = Runner::new(4).run(&jobs, |&j| {
            if j % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            j + 1
        });
        assert_eq!(out.len(), 40);
        assert!(out.iter().zip(&jobs).all(|(r, j)| *r == j + 1));
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Runner::new(0).threads(), 1);
    }

    #[test]
    fn env_resolution_warns_on_unusable_values() {
        // Unset: hardware fallback, no warning.
        assert_eq!(resolve_threads(None, 6), (6, None));
        // Positive integer (whitespace tolerated): taken verbatim, silent.
        assert_eq!(resolve_threads(Some("3"), 6), (3, None));
        assert_eq!(resolve_threads(Some(" 12 "), 6), (12, None));
        // Set but unusable: fallback plus a warning naming the bad value.
        for bad in ["0", "", "  ", "-2", "four", "2.5"] {
            let (threads, warning) = resolve_threads(Some(bad), 6);
            assert_eq!(threads, 6, "fallback for {bad:?}");
            let msg = warning.expect("unusable value must warn");
            assert!(msg.contains(THREADS_ENV) && msg.contains("6"), "{msg}");
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<u32> = Runner::new(8).run(&[], |_: &u32| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "job 3 exploded")]
    fn worker_panics_propagate() {
        let jobs: Vec<usize> = (0..8).collect();
        Runner::new(4).run(&jobs, |&j| {
            assert!(j != 3, "job 3 exploded");
            j
        });
    }

    #[test]
    fn flag_resolution_beats_env_and_warns_on_conflict() {
        // No flag: identical to plain env resolution.
        assert_eq!(resolve_threads_flag(None, Some("3"), 6), (3, None));
        assert_eq!(resolve_threads_flag(None, None, 6), (6, None));
        // Flag alone, or agreeing with the env: silent.
        assert_eq!(resolve_threads_flag(Some(4), None, 6), (4, None));
        assert_eq!(resolve_threads_flag(Some(4), Some("4"), 6), (4, None));
        assert_eq!(resolve_threads_flag(Some(4), Some(" 4 "), 6), (4, None));
        // Flag disagreeing with a set env: flag wins, one warning.
        let (threads, warning) = resolve_threads_flag(Some(4), Some("8"), 6);
        assert_eq!(threads, 4);
        let msg = warning.expect("conflict must warn");
        assert!(
            msg.contains("--threads 4") && msg.contains(THREADS_ENV),
            "{msg}"
        );
        // Flag wins over an unusable env value too (still warns: both were set).
        let (threads, warning) = resolve_threads_flag(Some(2), Some("zero"), 6);
        assert_eq!(threads, 2);
        assert!(warning.is_some());
        // A zero flag is unusable: resolve from env with a warning.
        let (threads, warning) = resolve_threads_flag(Some(0), Some("3"), 6);
        assert_eq!(threads, 3);
        assert!(warning
            .expect("zero flag must warn")
            .contains("--threads 0"));
    }

    // -- JobQueue ----------------------------------------------------------

    use std::sync::atomic::AtomicBool;

    #[derive(Debug)]
    struct TestJob {
        id: usize,
        cancel: Arc<AtomicBool>,
        ran: Arc<Mutex<Vec<usize>>>,
        skipped: Arc<Mutex<Vec<usize>>>,
        delay_ms: u64,
    }

    impl QueueJob for TestJob {
        fn run(self) {
            if self.delay_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(self.delay_ms));
            }
            self.ran.lock().expect("ran lock").push(self.id);
        }
        fn cancelled(&self) -> bool {
            self.cancel.load(Ordering::SeqCst)
        }
        fn skip(self) {
            self.skipped.lock().expect("skipped lock").push(self.id);
        }
    }

    struct Harness {
        ran: Arc<Mutex<Vec<usize>>>,
        skipped: Arc<Mutex<Vec<usize>>>,
    }

    impl Harness {
        fn new() -> Self {
            Self {
                ran: Arc::new(Mutex::new(Vec::new())),
                skipped: Arc::new(Mutex::new(Vec::new())),
            }
        }
        fn job(&self, id: usize, cancel: &Arc<AtomicBool>, delay_ms: u64) -> TestJob {
            TestJob {
                id,
                cancel: Arc::clone(cancel),
                ran: Arc::clone(&self.ran),
                skipped: Arc::clone(&self.skipped),
                delay_ms,
            }
        }
    }

    #[test]
    fn queue_runs_everything_then_drains_on_shutdown() {
        let h = Harness::new();
        let live = Arc::new(AtomicBool::new(false));
        let q = JobQueue::start(Runner::new(3), 64);
        for id in 0..20 {
            q.try_submit(h.job(id, &live, 0)).expect("capacity is 64");
        }
        q.shutdown();
        let mut ran = h.ran.lock().expect("ran lock").clone();
        ran.sort_unstable();
        assert_eq!(ran, (0..20).collect::<Vec<_>>());
        assert!(h.skipped.lock().expect("skipped lock").is_empty());
    }

    #[test]
    fn queue_sheds_when_full_and_rejects_after_close() {
        let h = Harness::new();
        let live = Arc::new(AtomicBool::new(false));
        // One worker pinned on a slow job, capacity 2: the 4th submit is shed.
        let q = JobQueue::start(Runner::new(1), 2);
        q.try_submit(h.job(0, &live, 150))
            .expect("admit running job");
        // Wait until the worker picked job 0 up, so the queue itself is empty.
        for _ in 0..200 {
            if q.running() == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(q.running(), 1);
        q.try_submit(h.job(1, &live, 0)).expect("fits in queue");
        q.try_submit(h.job(2, &live, 0)).expect("fits in queue");
        assert_eq!(q.depth(), 2);
        match q.try_submit(h.job(3, &live, 0)) {
            Err(SubmitError::Full(job)) => assert_eq!(job.id, 3),
            other => panic!("expected Full, got {:?}", other.map_err(|e| e.to_string())),
        }
        q.close();
        match q.try_submit(h.job(4, &live, 0)) {
            Err(SubmitError::Closed(job)) => assert_eq!(job.id, 4),
            other => panic!(
                "expected Closed, got {:?}",
                other.map_err(|e| e.to_string())
            ),
        }
        // Shutdown still drains jobs 1 and 2.
        q.shutdown();
        let mut ran = h.ran.lock().expect("ran lock").clone();
        ran.sort_unstable();
        assert_eq!(ran, vec![0, 1, 2]);
    }

    #[test]
    fn cancelled_jobs_are_skipped_between_jobs() {
        let h = Harness::new();
        let live = Arc::new(AtomicBool::new(false));
        let doomed = Arc::new(AtomicBool::new(false));
        let q = JobQueue::start(Runner::new(1), 16);
        // Occupy the worker, queue a doomed job behind it, cancel it while
        // it is still queued.
        q.try_submit(h.job(0, &live, 100)).expect("admit");
        q.try_submit(h.job(1, &doomed, 0)).expect("admit");
        q.try_submit(h.job(2, &live, 0)).expect("admit");
        doomed.store(true, Ordering::SeqCst);
        q.shutdown();
        let mut ran = h.ran.lock().expect("ran lock").clone();
        ran.sort_unstable();
        assert_eq!(ran, vec![0, 2], "doomed job must not run");
        assert_eq!(*h.skipped.lock().expect("skipped lock"), vec![1]);
    }
}
