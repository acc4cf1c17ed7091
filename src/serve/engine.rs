//! The simulation engine behind the HTTP endpoints: a process-wide shared
//! [`Lab`] plus a bounded [`JobQueue`] of unit simulations, with request
//! coalescing and per-request deadlines.
//!
//! Every HTTP request — a single `/v1/simulate` or each cell of a
//! `/v1/sweep` grid — becomes a [`SimKey`]. Identical keys that are already
//! *in flight* (queued or running) are **coalesced**: the second requester
//! attaches as a waiter on the first's result cell instead of consuming a
//! queue slot, so a thundering herd of identical sweeps costs one
//! computation. Deadlines are cooperative: a waiter that times out detaches,
//! and a job whose waiters have all detached (or whose latest deadline has
//! passed) is skipped by the queue's between-jobs cancellation check.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use fetchmech::experiments::{Lab, LayoutVariant, TraceKey};
use fetchmech::pipeline::MachineModel;
use fetchmech::runner::{JobQueue, QueueJob, SubmitError};
use fetchmech::workloads::InputId;
use fetchmech::{simulate, SchemeKind};

use crate::store::{FaultPlan, Store};

use super::metrics::Metrics;

/// Full identity of one unit simulation — the coalescing key. Two requests
/// with equal keys are guaranteed byte-identical responses, so they may
/// share one computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimKey {
    /// Benchmark name (interned to the suite's static name).
    pub bench: &'static str,
    /// Machine model name, lower-case (`p14` / `p18` / `p112`).
    pub machine: &'static str,
    /// Fetch scheme.
    pub scheme: SchemeKind,
    /// Program/layout variant.
    pub variant: LayoutVariant,
    /// Dynamic trace length.
    pub insts: u64,
}

impl SimKey {
    /// The canonical store key: a stable, human-greppable string identity.
    /// Every field participates, so two keys collide only when their
    /// responses are byte-identical anyway.
    #[must_use]
    pub fn store_key(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}",
            self.bench,
            self.machine,
            self.scheme.name(),
            self.variant.name(),
            self.insts
        )
    }
}

/// How a unit simulation ended.
#[derive(Debug, Clone)]
pub(crate) enum Outcome {
    /// The simulation ran; here is its fully-rendered response body (the
    /// single rendering shared by the HTTP response, every coalesced
    /// waiter, and the persistent store — which is what makes "byte
    /// identical across restarts" a structural property rather than a
    /// re-rendering promise).
    Done(Arc<String>),
    /// The job was skipped: every waiter detached or the deadline passed
    /// before a worker reached it.
    Expired,
    /// The simulation panicked. Carries only the opaque error reference id;
    /// the payload was logged server-side.
    Failed(String),
}

/// What a waiting request observed.
#[derive(Debug, Clone)]
pub(crate) enum WaitResult {
    /// Job finished with this outcome.
    Finished(Outcome),
    /// The caller's own deadline expired first (the job may still run for
    /// other waiters).
    TimedOut,
}

/// The shared slot one in-flight [`SimKey`] resolves through.
#[derive(Debug)]
pub(crate) struct SimCell {
    state: Mutex<CellState>,
    done: Condvar,
}

#[derive(Debug)]
struct CellState {
    /// Requests currently waiting on this cell. When it drops to zero
    /// before a worker picks the job up, the job is cancelled.
    waiters: usize,
    /// Latest deadline over all (current and past) waiters; the job is
    /// pointless once this has passed.
    deadline: Instant,
    outcome: Option<Outcome>,
}

impl SimCell {
    fn new(deadline: Instant) -> Self {
        Self {
            state: Mutex::new(CellState {
                waiters: 1,
                deadline,
                outcome: None,
            }),
            done: Condvar::new(),
        }
    }

    /// Blocks until the job finishes or `deadline` passes, whichever is
    /// first. Detaches this waiter on timeout.
    pub(crate) fn wait(&self, deadline: Instant) -> WaitResult {
        let mut state = self.state.lock().expect("cell lock poisoned");
        loop {
            if let Some(outcome) = &state.outcome {
                return WaitResult::Finished(outcome.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                state.waiters -= 1;
                return WaitResult::TimedOut;
            }
            let (guard, _) = self
                .done
                .wait_timeout(state, deadline - now)
                .expect("cell lock poisoned");
            state = guard;
        }
    }

    /// Detaches one waiter without waiting (used when a sweep aborts after
    /// a partial submission).
    pub(crate) fn detach(&self) {
        self.state.lock().expect("cell lock poisoned").waiters -= 1;
    }

    fn finish(&self, outcome: Outcome) {
        let mut state = self.state.lock().expect("cell lock poisoned");
        state.outcome = Some(outcome);
        drop(state);
        self.done.notify_all();
    }
}

/// State shared between the HTTP handlers and the queue workers.
#[derive(Debug)]
pub(crate) struct EngineShared {
    /// The process-wide experiment lab (stream/layout/profile caches).
    pub lab: Arc<Lab>,
    /// All metrics counters.
    pub metrics: Arc<Metrics>,
    /// The crash-safe result store, when persistence is configured.
    pub store: Option<Arc<Store>>,
    /// Engine-side fault schedule (deterministic `sim_panic` injection);
    /// `None` in production.
    pub fault: Option<FaultPlan>,
    /// Monotonic source of opaque error reference ids (`err-000001`, …).
    error_seq: AtomicU64,
    /// In-flight (queued or running) jobs, by key — the coalescing table.
    inflight: Mutex<HashMap<SimKey, Arc<SimCell>>>,
}

impl EngineShared {
    /// Creates the shared state with an optional persistent store and an
    /// optional engine-side fault schedule.
    #[must_use]
    pub(crate) fn with_store(
        lab: Arc<Lab>,
        metrics: Arc<Metrics>,
        store: Option<Arc<Store>>,
        fault: Option<FaultPlan>,
    ) -> Self {
        Self {
            lab,
            metrics,
            store,
            fault,
            error_seq: AtomicU64::new(0),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Mints the next opaque error reference id.
    fn next_error_id(&self) -> String {
        let n = self.error_seq.fetch_add(1, Ordering::Relaxed) + 1;
        format!("err-{n:06}")
    }

    /// Removes `cell` from the in-flight table (only if the table still maps
    /// the key to this very cell — a successor job may have replaced it).
    fn remove_inflight(&self, key: &SimKey, cell: &Arc<SimCell>) {
        let mut map = self.inflight.lock().expect("inflight lock poisoned");
        if map.get(key).is_some_and(|c| Arc::ptr_eq(c, cell)) {
            map.remove(key);
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shed {
    /// The bounded queue is full — respond 429.
    QueueFull,
    /// The service is draining for shutdown — respond 503.
    Closed,
}

/// Submits (or coalesces) one unit simulation and returns the cell to wait
/// on.
///
/// If an identical job is already in flight the caller attaches to it (no
/// queue slot consumed, `jobs_coalesced` incremented); otherwise a fresh job
/// is admitted to `queue` — or refused, when the queue is full or closed.
///
/// # Errors
///
/// [`Shed::QueueFull`] or [`Shed::Closed`]; the caller maps these to
/// structured 429/503 responses.
pub(crate) fn submit(
    shared: &Arc<EngineShared>,
    queue: &JobQueue<SimJob>,
    key: SimKey,
    machine: MachineModel,
    deadline: Instant,
) -> Result<Arc<SimCell>, Shed> {
    let metrics = &shared.metrics;
    let mut map = shared.inflight.lock().expect("inflight lock poisoned");
    if let Some(cell) = map.get(&key) {
        let mut state = cell.state.lock().expect("cell lock poisoned");
        if state.outcome.is_none() {
            state.waiters += 1;
            state.deadline = state.deadline.max(deadline);
            drop(state);
            metrics
                .jobs_coalesced
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Ok(Arc::clone(cell));
        }
        // Finished cell still in the table (tiny window between outcome and
        // removal): treat as not in flight and submit fresh below.
    }
    let cell = Arc::new(SimCell::new(deadline));
    let job = SimJob {
        key,
        machine,
        cell: Arc::clone(&cell),
        shared: Arc::clone(shared),
    };
    match queue.try_submit(job) {
        Ok(()) => {
            map.insert(key, Arc::clone(&cell));
            metrics
                .jobs_enqueued
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(cell)
        }
        Err(SubmitError::Full(_)) => {
            metrics
                .jobs_shed
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Err(Shed::QueueFull)
        }
        Err(SubmitError::Closed(_)) => Err(Shed::Closed),
    }
}

/// One queued unit simulation.
pub(crate) struct SimJob {
    key: SimKey,
    machine: MachineModel,
    cell: Arc<SimCell>,
    shared: Arc<EngineShared>,
}

impl std::fmt::Debug for SimJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimJob").field("key", &self.key).finish()
    }
}

impl QueueJob for SimJob {
    fn run(self) {
        let lab = Arc::clone(&self.shared.lab);
        let key = self.key;
        let machine = self.machine.clone();
        let store_key = key.store_key();
        let inject_panic = self
            .shared
            .fault
            .as_ref()
            .is_some_and(|plan| plan.rolls_sim_panic(&store_key));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            if inject_panic {
                panic!("injected fault: sim_panic (deterministic, seeded)");
            }
            // The block-stream fast path: bit-identical to simulating the
            // per-instruction trace (debug builds re-run that oracle inside
            // `simulate`), at a fraction of the time and memory.
            let stream = lab.stream(TraceKey {
                bench: key.bench,
                variant: key.variant,
                block_bytes: machine.block_bytes,
                input: InputId::TEST,
                limit: key.insts,
            });
            simulate(&machine, key.scheme, &stream)
        }));
        let metrics = &self.shared.metrics;
        let outcome = match outcome {
            Ok(result) => {
                metrics.jobs_completed.fetch_add(1, Ordering::Relaxed);
                // Render once; this exact string is the response body, the
                // coalesced waiters' body, and the store record.
                let body = Arc::new(super::api::sim_result_json(&key, &result).pretty());
                if let Some(store) = &self.shared.store {
                    store.persist(store_key, &body);
                }
                Outcome::Done(body)
            }
            Err(payload) => {
                metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
                // Log the details server-side; clients get only the opaque
                // reference id (internal panic payloads can leak paths,
                // assertions, and other implementation detail).
                let id = self.shared.next_error_id();
                let detail: &str = if let Some(s) = payload.downcast_ref::<&str>() {
                    s
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s
                } else {
                    "non-string panic payload"
                };
                eprintln!("fetchmech-serve: [{id}] simulation panicked for {key:?}: {detail}");
                Outcome::Failed(id)
            }
        };
        // Leave the coalescing table first so late identical requests start
        // a fresh job instead of attaching to a finished cell.
        self.shared.remove_inflight(&self.key, &self.cell);
        self.cell.finish(outcome);
    }

    fn cancelled(&self) -> bool {
        let state = self.cell.state.lock().expect("cell lock poisoned");
        state.waiters == 0 || Instant::now() >= state.deadline
    }

    fn skip(self) {
        self.shared
            .metrics
            .jobs_expired
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.shared.remove_inflight(&self.key, &self.cell);
        self.cell.finish(Outcome::Expired);
    }
}
