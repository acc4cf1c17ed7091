//! `fetchmech-serve`: a concurrent experiment service over the simulator.
//!
//! The service answers HTTP/1.1 + JSON requests from a process-wide shared
//! [`Lab`] (so repeated work hits the memoized block-stream, layout and
//! profile caches) and a bounded job queue of unit simulations layered on
//! [`fetchmech::runner::Runner`]. The pieces:
//!
//! * [`http`] — a minimal `std::net` HTTP layer (one request per
//!   connection, size-limited, `Connection: close`).
//! * [`engine`] — the coalescing job engine: identical in-flight requests
//!   share one computation; deadlines cancel queued work cooperatively.
//! * [`api`] — request validation and response rendering for
//!   `POST /v1/simulate`, `POST /v1/sweep`, and `POST /v1/programs`
//!   (frontend program uploads, registered under content-hash ids).
//! * `metrics` — counters and latency histograms behind `GET /metrics`.
//!
//! Admission control is explicit: when the bounded queue is full the
//! service sheds load with a structured `429` instead of queueing
//! unboundedly, and [`Server::shutdown`] drains in-flight work before
//! returning so a SIGTERM never truncates a running experiment.

pub mod api;
pub mod engine;
pub mod http;
pub(crate) mod metrics;

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use fetchmech::experiments::{ExpConfig, Lab};
use fetchmech::json::Value;
use fetchmech::runner::{JobQueue, Runner};

use crate::store::{FaultPlan, NoFault, Store};

use api::Limits;
use engine::{EngineShared, Outcome, Shed, SimJob, WaitResult};
use http::{ReadError, Request, Response};
use metrics::Metrics;

/// How long [`Server::shutdown`] waits for open connections to finish
/// before abandoning them.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Bounded backlog of the store's write-behind channel; overflow drops
/// persists (never blocks the request path).
const STORE_QUEUE: usize = 256;

/// Everything configurable about the service.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port (reported by
    /// [`Server::addr`]).
    pub addr: String,
    /// Worker-pool size; `None` defers to `FETCHMECH_THREADS` / available
    /// parallelism, exactly like the CLI tools.
    pub threads: Option<usize>,
    /// Bounded job-queue capacity; submissions beyond it are shed with 429.
    pub queue_capacity: usize,
    /// Most simultaneously-served connections; beyond it, connections get an
    /// immediate 503.
    pub max_connections: usize,
    /// Default per-request deadline (ms) when the body omits `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Upper cap on any requested deadline (ms).
    pub max_deadline_ms: u64,
    /// Default trace length when the body omits `insts`.
    pub default_insts: u64,
    /// Upper cap on any requested trace length.
    pub max_insts: u64,
    /// Lab sizing (trace lengths used by profiling/reordering).
    pub exp: ExpConfig,
    /// When set, results persist to this append-only store log and survive
    /// restarts; `None` keeps the service purely in-memory.
    pub store_path: Option<PathBuf>,
    /// Deterministic fault schedule (store I/O + worker panics); `None` in
    /// production.
    pub fault: Option<FaultPlan>,
    /// Per-connection socket read timeout, so a slow-loris client cannot
    /// pin a connection thread.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout, so a half-closed or unread
    /// client cannot pin a connection thread.
    pub write_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            threads: None,
            queue_capacity: 128,
            max_connections: 128,
            default_deadline_ms: 30_000,
            max_deadline_ms: 600_000,
            default_insts: 20_000,
            max_insts: 500_000,
            exp: ExpConfig::full(),
            store_path: None,
            fault: None,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// Counts live connection-handler threads so shutdown can drain them.
#[derive(Debug)]
struct ConnTracker {
    max: usize,
    live: Mutex<usize>,
    idle: Condvar,
}

impl ConnTracker {
    fn new(max: usize) -> Self {
        Self {
            max: max.max(1),
            live: Mutex::new(0),
            idle: Condvar::new(),
        }
    }

    /// Claims a connection slot; `false` when the server is saturated.
    fn try_acquire(&self) -> bool {
        let mut live = self.live.lock().expect("conn lock poisoned");
        if *live >= self.max {
            return false;
        }
        *live += 1;
        true
    }

    fn release(&self) {
        let mut live = self.live.lock().expect("conn lock poisoned");
        *live -= 1;
        if *live == 0 {
            self.idle.notify_all();
        }
    }

    /// Waits until no connections remain (or the timeout passes).
    fn drain(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut live = self.live.lock().expect("conn lock poisoned");
        while *live > 0 {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let (guard, _) = self
                .idle
                .wait_timeout(live, deadline - now)
                .expect("conn lock poisoned");
            live = guard;
        }
    }
}

/// A running service instance. Dropping it without calling
/// [`Server::shutdown`] stops accepting but does not wait for in-flight
/// work.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
    conns: Arc<ConnTracker>,
    queue: Arc<JobQueue<SimJob>>,
    shared: Arc<EngineShared>,
}

/// Accept-time knobs shared by every connection.
#[derive(Debug, Clone, Copy)]
struct ConnOptions {
    limits: Limits,
    read_timeout: Duration,
    write_timeout: Duration,
    /// The store was configured but failed to open at boot: the service
    /// runs, but `/healthz` reports the persistence tier as degraded.
    store_boot_failed: bool,
}

/// Per-connection context handed to the handler threads.
#[derive(Debug)]
struct Handler {
    shared: Arc<EngineShared>,
    queue: Arc<JobQueue<SimJob>>,
    limits: Limits,
    store_boot_failed: bool,
    started: Instant,
}

impl Server {
    /// Binds, spawns the worker pool and the accept loop, and returns once
    /// the service is reachable.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let runner = Runner::from_flag_or_env(config.threads);
        let queue = Arc::new(JobQueue::start(runner, config.queue_capacity));
        let metrics = Arc::new(Metrics::new());
        let lab = Arc::new(Lab::with_runner(config.exp, runner));

        // A store that cannot open must not kill the service: run without
        // persistence and surface the degradation via /healthz instead.
        let mut store_boot_failed = false;
        let store = match &config.store_path {
            None => None,
            Some(path) => {
                let fault: Arc<dyn crate::store::IoFault> = match &config.fault {
                    Some(plan) => Arc::new(*plan),
                    None => Arc::new(NoFault),
                };
                match Store::open(path.clone(), fault, STORE_QUEUE) {
                    Ok(store) => {
                        let report = store.recovery();
                        eprintln!(
                            "fetchmech-serve: store {} recovered {} records ({} keys, {} torn bytes truncated)",
                            path.display(),
                            report.records,
                            report.keys,
                            report.truncated_bytes,
                        );
                        Some(Arc::new(store))
                    }
                    Err(e) => {
                        eprintln!(
                            "fetchmech-serve: cannot open store {} ({e}); continuing without persistence",
                            path.display(),
                        );
                        store_boot_failed = true;
                        None
                    }
                }
            }
        };
        let shared = Arc::new(EngineShared::with_store(
            lab,
            Arc::clone(&metrics),
            store,
            config.fault,
        ));
        let limits = Limits {
            default_insts: config.default_insts,
            max_insts: config.max_insts,
            default_deadline_ms: config.default_deadline_ms,
            max_deadline_ms: config.max_deadline_ms,
        };
        let options = ConnOptions {
            limits,
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            store_boot_failed,
        };

        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(ConnTracker::new(config.max_connections));

        let accept_stop = Arc::clone(&stop);
        let accept_conns = Arc::clone(&conns);
        let accept_shared = Arc::clone(&shared);
        let accept_queue = Arc::clone(&queue);
        let accept_thread = thread::Builder::new()
            .name("fetchmech-accept".to_string())
            .spawn(move || {
                accept_loop(
                    &listener,
                    &accept_stop,
                    &accept_conns,
                    &accept_shared,
                    &accept_queue,
                    options,
                );
            })
            .expect("failed to spawn accept thread");

        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            conns,
            queue,
            shared,
        })
    }

    /// The actual bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, wait for open connections (up to
    /// 30 s), then close the job queue, drain any queued work, and flush the
    /// store's persistence backlog.
    pub fn shutdown(mut self) {
        self.stop_accepting();
        self.conns.drain(DRAIN_TIMEOUT);
        self.queue.close();
        self.queue.drain();
        if let Some(store) = &self.shared.store {
            store.shutdown();
        }
    }

    /// Raises `stop`, then wakes the accept thread — blocked in `accept()` —
    /// with one connection to its own listener, and joins it. The loop
    /// discards that connection because `stop` is already set.
    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = TcpStream::connect_timeout(&wake_addr(self.addr), Duration::from_secs(1));
            let _ = handle.join();
        }
    }
}

/// Where to connect to wake a listener bound to `addr`: an unspecified IP
/// (`0.0.0.0` / `::`) maps to the loopback address of the same family.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_accepting();
        self.queue.close();
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &Arc<AtomicBool>,
    conns: &Arc<ConnTracker>,
    shared: &Arc<EngineShared>,
    queue: &Arc<JobQueue<SimJob>>,
    options: ConnOptions,
) {
    let started = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            // Either the shutdown wake-up or a client racing it: not served.
            Ok(_) if stop.load(Ordering::SeqCst) => break,
            Ok((stream, _peer)) => {
                let _ = stream.set_read_timeout(Some(options.read_timeout));
                let _ = stream.set_write_timeout(Some(options.write_timeout));
                if !conns.try_acquire() {
                    refuse_saturated(stream, shared);
                    continue;
                }
                let handler = Handler {
                    shared: Arc::clone(shared),
                    queue: Arc::clone(queue),
                    limits: options.limits,
                    store_boot_failed: options.store_boot_failed,
                    started,
                };
                let thread_conns = Arc::clone(conns);
                let spawned = thread::Builder::new()
                    .name("fetchmech-conn".to_string())
                    .spawn(move || {
                        handler.serve_connection(stream);
                        thread_conns.release();
                    });
                if spawned.is_err() {
                    conns.release();
                }
            }
            // A real accept error (e.g. EMFILE): back off briefly so a
            // persistent one cannot spin the thread.
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Over the connection cap: answer 503 inline on the accept thread (cheap —
/// no simulation work) rather than silently dropping the socket.
fn refuse_saturated(mut stream: TcpStream, shared: &Arc<EngineShared>) {
    shared
        .metrics
        .resp_unavailable
        .fetch_add(1, Ordering::Relaxed);
    let resp = Response::error(503, "saturated", "connection limit reached; retry shortly")
        .with_retry_after(1);
    let _ = resp.write_to(&mut stream);
}

impl Handler {
    fn serve_connection(&self, mut stream: TcpStream) {
        let request = match http::read_request(&mut stream) {
            Ok(req) => req,
            Err(ReadError::Closed) => return,
            Err(ReadError::Io(_)) => return,
            Err(ReadError::TooLarge) => {
                self.finish(
                    &mut stream,
                    Response::error(413, "too_large", "request exceeds size limits"),
                );
                return;
            }
            Err(ReadError::Malformed(why)) => {
                self.finish(&mut stream, Response::error(400, "malformed", why));
                return;
            }
        };
        let response = self.route(&request);
        self.finish(&mut stream, response);
    }

    fn finish(&self, stream: &mut TcpStream, response: Response) {
        self.shared.metrics.record_status(response.status);
        let _ = response.write_to(stream);
    }

    fn route(&self, request: &Request) -> Response {
        let metrics = &self.shared.metrics;
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => {
                metrics.req_healthz.fetch_add(1, Ordering::Relaxed);
                let programs = self.shared.lab.external_names();
                Response::json(200, &api::healthz_json(self.store_state(), &programs))
            }
            ("GET", "/metrics") => {
                metrics.req_metrics.fetch_add(1, Ordering::Relaxed);
                Response::json(200, &self.metrics_json())
            }
            ("POST", "/v1/simulate") => {
                metrics.req_simulate.fetch_add(1, Ordering::Relaxed);
                let t0 = Instant::now();
                let resp = self.handle_simulate(&request.body);
                metrics.record_latency(t0.elapsed());
                resp
            }
            ("POST", "/v1/sweep") => {
                metrics.req_sweep.fetch_add(1, Ordering::Relaxed);
                let t0 = Instant::now();
                let resp = self.handle_sweep(&request.body);
                metrics.record_latency(t0.elapsed());
                resp
            }
            ("POST", "/v1/programs") => {
                metrics.req_programs.fetch_add(1, Ordering::Relaxed);
                self.handle_programs(&request.body)
            }
            ("GET" | "POST", _) => {
                metrics.req_other.fetch_add(1, Ordering::Relaxed);
                Response::error(404, "not_found", format!("no route for {}", request.path))
            }
            _ => {
                metrics.req_other.fetch_add(1, Ordering::Relaxed);
                Response::error(
                    405,
                    "method_not_allowed",
                    format!("method {}", request.method),
                )
            }
        }
    }

    /// The persistence tier's health, as reported by `/healthz`.
    fn store_state(&self) -> &'static str {
        match &self.shared.store {
            Some(store) if store.is_degraded() => "degraded",
            Some(_) => "active",
            None if self.store_boot_failed => "degraded",
            None => "disabled",
        }
    }

    fn metrics_json(&self) -> Value {
        let lab_cache = self.shared.lab.cache_stats().to_json();
        let store = match &self.shared.store {
            Some(store) => store.to_json(),
            None => Value::object([("state", Value::Str(self.store_state().to_string()))]),
        };
        self.shared.metrics.to_json(
            self.started.elapsed(),
            self.queue.depth(),
            self.queue.capacity(),
            self.queue.running(),
            self.queue.workers(),
            self.queue.panics(),
            &store,
            &lab_cache,
        )
    }

    fn internal_error(reference: &str) -> Response {
        Response::error(
            500,
            "internal",
            format!("internal error; reference {reference}"),
        )
    }

    /// `POST /v1/programs`: parse + lower an uploaded frontend program and
    /// register it in the lab under its content-hash id. Registration is
    /// idempotent — re-uploading the same program (under either format) with
    /// the same lowered form returns the same id with `registered: false`,
    /// and every simulate/sweep/store path then accepts the id as a bench
    /// name.
    fn handle_programs(&self, body: &[u8]) -> Response {
        let upload = match api::parse_program_upload(body) {
            Ok(upload) => upload,
            Err(why) => return Response::error(400, "invalid_request", why),
        };
        let lowered = match fetchmech_frontend::parse(upload.format, &upload.source) {
            Ok(lowered) => lowered,
            Err(e) => return Response::error(400, "invalid_program", e.to_string()),
        };
        let id = format!("prog-{:016x}", lowered.fingerprint());
        let stats = Value::object([
            ("funcs", Value::Uint(lowered.program.num_funcs() as u64)),
            ("blocks", Value::Uint(lowered.program.num_blocks() as u64)),
            (
                "branches",
                Value::Uint(u64::from(lowered.program.num_branches())),
            ),
        ]);
        let registered = if self.shared.lab.intern_name(&id).is_some() {
            false
        } else {
            match self
                .shared
                .lab
                .register_external(&id, lowered.program, lowered.behaviors)
            {
                Ok(_) => true,
                Err(why) => return Response::error(429, "registry_full", why).with_retry_after(1),
            }
        };
        Response::json(
            200,
            &Value::object([
                ("id", Value::Str(id)),
                ("registered", Value::Bool(registered)),
                ("stats", stats),
            ]),
        )
    }

    fn handle_simulate(&self, body: &[u8]) -> Response {
        let req = match api::parse_simulate(body, &self.limits, &self.shared.lab) {
            Ok(req) => req,
            Err(why) => return Response::error(400, "invalid_request", why),
        };
        // Durable results never touch the queue: a store hit is an index
        // lookup + one read, byte-identical to the original 200.
        if let Some(store) = &self.shared.store {
            if let Some(body) = store.lookup(&req.key.store_key()) {
                return Response::raw_json(200, body);
            }
        }
        let deadline = Instant::now() + Duration::from_millis(req.deadline_ms);
        let cell = match engine::submit(&self.shared, &self.queue, req.key, req.machine, deadline) {
            Ok(cell) => cell,
            Err(shed) => return shed_response(shed),
        };
        match cell.wait(deadline) {
            WaitResult::Finished(Outcome::Done(body)) => {
                Response::raw_json(200, body.as_ref().clone())
            }
            WaitResult::Finished(Outcome::Expired) | WaitResult::TimedOut => Response::error(
                504,
                "deadline_exceeded",
                format!("deadline of {} ms expired", req.deadline_ms),
            ),
            WaitResult::Finished(Outcome::Failed(reference)) => Self::internal_error(&reference),
        }
    }

    fn handle_sweep(&self, body: &[u8]) -> Response {
        let req = match api::parse_sweep(body, &self.limits, &self.shared.lab) {
            Ok(req) => req,
            Err(why) => return Response::error(400, "invalid_request", why),
        };
        let deadline = Instant::now() + Duration::from_millis(req.deadline_ms);

        // Phase 0: resolve durable cells from the store. Stored bodies are
        // reparsed into values (the JSON layer's render∘parse fixed-point
        // property keeps the final rendering byte-identical); a body that
        // fails to parse is treated as a miss and recomputed.
        let mut cached: Vec<Option<Value>> = match &self.shared.store {
            Some(store) => req
                .cells
                .iter()
                .map(|(key, _)| {
                    store
                        .lookup(&key.store_key())
                        .and_then(|body| fetchmech::json::parse(&body).ok())
                })
                .collect(),
            None => vec![None; req.cells.len()],
        };

        // Phase 1: admit (or coalesce) every non-durable cell up front so
        // identical cells coalesce against each other; if any cell is
        // refused, detach everything already attached and shed the sweep as
        // a unit.
        let mut cells: Vec<Option<Arc<engine::SimCell>>> = vec![None; req.cells.len()];
        for (i, (key, machine)) in req.cells.iter().enumerate() {
            if cached[i].is_some() {
                continue;
            }
            match engine::submit(&self.shared, &self.queue, *key, machine.clone(), deadline) {
                Ok(cell) => cells[i] = Some(cell),
                Err(shed) => {
                    for cell in cells.iter().flatten() {
                        cell.detach();
                    }
                    return shed_response(shed);
                }
            }
        }

        // Phase 2: collect in deterministic grid order.
        let mut results = Vec::with_capacity(req.cells.len());
        for i in 0..req.cells.len() {
            if let Some(value) = cached[i].take() {
                results.push(value);
                continue;
            }
            let cell = cells[i].as_ref().expect("cell for non-cached slot");
            match cell.wait(deadline) {
                WaitResult::Finished(Outcome::Done(body)) => match fetchmech::json::parse(&body) {
                    Ok(value) => results.push(value),
                    Err(_) => return Self::internal_error("unrenderable result"),
                },
                WaitResult::Finished(Outcome::Expired) | WaitResult::TimedOut => {
                    // Later cells share the same deadline: detach them so
                    // their queued jobs can be skipped, then report 504.
                    for later in cells[i + 1..].iter().flatten() {
                        later.detach();
                    }
                    return Response::error(
                        504,
                        "deadline_exceeded",
                        format!(
                            "deadline of {} ms expired after {} of {} cells",
                            req.deadline_ms,
                            results.len(),
                            req.cells.len()
                        ),
                    );
                }
                WaitResult::Finished(Outcome::Failed(reference)) => {
                    for later in cells[i + 1..].iter().flatten() {
                        later.detach();
                    }
                    return Self::internal_error(&reference);
                }
            }
        }
        Response::json(
            200,
            &Value::object([
                ("jobs", Value::Uint(results.len() as u64)),
                ("results", Value::Array(results)),
            ]),
        )
    }
}

fn shed_response(shed: Shed) -> Response {
    match shed {
        Shed::QueueFull => {
            Response::error(429, "queue_full", "job queue is full; retry with backoff")
                .with_retry_after(1)
        }
        Shed::Closed => {
            Response::error(503, "shutting_down", "service is draining").with_retry_after(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_addr_maps_unspecified_ips_to_loopback_of_the_same_family() {
        let v4: SocketAddr = "0.0.0.0:8080".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:8080".parse().unwrap());
        let v6: SocketAddr = "[::]:8080".parse().unwrap();
        assert_eq!(wake_addr(v6), "[::1]:8080".parse().unwrap());
        let bound: SocketAddr = "10.1.2.3:80".parse().unwrap();
        assert_eq!(wake_addr(bound), bound);
    }
}
