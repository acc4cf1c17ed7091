//! Integration tests for `fetchmech-serve`: boot the server in-process on an
//! ephemeral port and drive it over raw `std::net::TcpStream`, asserting
//! byte-identical results vs serial execution, queue-full shedding,
//! coalescing, deadline expiry, cache reuse across sweeps, graceful
//! shutdown draining, and prompt shutdown of the blocking accept thread.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use fetchmech::experiments::{ExpConfig, Lab, LayoutVariant, TraceKey};
use fetchmech::json::{parse, Value};
use fetchmech::pipeline::MachineModel;
use fetchmech::workloads::InputId;
use fetchmech::{simulate_reference, SchemeKind};
use fetchmech_repro::serve::engine::SimKey;
use fetchmech_repro::serve::{api, ServeConfig, Server};

/// Short traces keep debug-mode runs (which execute the full cycle-level
/// sanitizer) fast.
const EXP: ExpConfig = ExpConfig {
    trace_len: 4_000,
    profile_len: 2_000,
};

/// A simulation long enough to keep a worker visibly busy while a test
/// stages requests behind it. Release-mode block-stream runs retire well
/// over ten million instructions per second on one core, so release needs a
/// much longer trace than debug builds (whose every run also executes the
/// cycle-level sanitizer and its per-instruction oracle).
const SLOW_INSTS: u64 = if cfg!(debug_assertions) {
    120_000
} else {
    3_000_000
};

fn slow_job_body() -> String {
    format!("{{\"bench\": \"gcc\", \"insts\": {SLOW_INSTS}, \"deadline_ms\": 120000}}")
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        exp: EXP,
        default_insts: 1_500,
        ..ServeConfig::default()
    }
}

/// One request over a fresh connection; returns (status, head, body
/// including the trailing newline).
fn http_raw(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(180)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("response is UTF-8");
    let (head, body) = text.split_once("\r\n\r\n").expect("response has a head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    (status, head.to_string(), body.to_string())
}

/// One request over a fresh connection; returns (status, body including the
/// trailing newline).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = http_raw(addr, method, path, body);
    (status, body)
}

fn metrics(addr: SocketAddr) -> Value {
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    parse(&body).expect("metrics is valid JSON")
}

fn metric_u64(m: &Value, group: &str, field: &str) -> u64 {
    m.get(group)
        .and_then(|g| g.get(field))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("metrics missing {group}.{field}"))
}

/// Polls `/metrics` until `pred` holds (or panics after ~10s).
fn wait_for(addr: SocketAddr, what: &str, pred: impl Fn(&Value) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if pred(&metrics(addr)) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(10));
    }
}

/// What the server must answer for `key`: the same simulation run serially,
/// rendered through the same JSON path, plus the wire newline.
///
/// Deliberately the per-instruction reference path (`lab.trace` +
/// `simulate_reference(&trace)`), not the block stream the service runs: every
/// byte-identity assertion against this body then also checks the shipped
/// fast path against the reference simulator.
fn expected_body(lab: &Lab, key: &SimKey, machine: &MachineModel) -> String {
    let trace = lab.trace(TraceKey {
        bench: key.bench,
        variant: key.variant,
        block_bytes: machine.block_bytes,
        input: InputId::TEST,
        limit: key.insts,
    });
    let result = simulate_reference(machine, key.scheme, &trace);
    format!("{}\n", api::sim_result_json(key, &result).pretty())
}

#[test]
fn healthz_and_basic_errors() {
    let server = Server::start(test_config()).expect("server start");
    let addr = server.addr();

    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let health = parse(&body).expect("healthz is valid JSON");
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(
        health.get("store").and_then(Value::as_str),
        Some("disabled"),
        "no store configured: healthz reports the tier disabled"
    );
    assert!(health.get("benches").and_then(Value::as_array).is_some());

    let (status, body) = http(addr, "POST", "/v1/simulate", "{\"bench\": \"nope\"}");
    assert_eq!(status, 400, "unknown bench must 400: {body}");
    let (status, _) = http(addr, "POST", "/v1/simulate", "not json");
    assert_eq!(status, 400);
    let (status, _) = http(addr, "GET", "/v1/simulate", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "DELETE", "/healthz", "");
    assert_eq!(status, 405);
    let (status, body) = http(
        addr,
        "POST",
        "/v1/simulate",
        "{\"bench\": \"compress\", \"bogus\": 1}",
    );
    assert_eq!(status, 400, "unknown fields must 400: {body}");

    server.shutdown();
}

#[test]
fn concurrent_simulations_match_serial_execution() {
    let server = Server::start(test_config()).expect("server start");
    let addr = server.addr();

    // 8 distinct keys, requested 4× each = 32 concurrent clients.
    let mut keys = Vec::new();
    for bench in ["compress", "eqntott"] {
        for scheme in [
            SchemeKind::Sequential,
            SchemeKind::BankedSequential,
            SchemeKind::CollapsingBuffer,
            SchemeKind::Perfect,
        ] {
            keys.push(SimKey {
                bench,
                machine: "p14",
                scheme,
                variant: LayoutVariant::Natural,
                insts: 1_200,
            });
        }
    }

    let serial_lab = Lab::with_threads(EXP, 1);
    let machine = MachineModel::p14();
    let expected: Vec<String> = keys
        .iter()
        .map(|key| expected_body(&serial_lab, key, &machine))
        .collect();

    let keys = Arc::new(keys);
    let handles: Vec<_> = (0..32)
        .map(|i| {
            let keys = Arc::clone(&keys);
            thread::spawn(move || {
                let key = &keys[i % keys.len()];
                let body = format!(
                    "{{\"bench\": \"{}\", \"scheme\": \"{}\", \"insts\": {}}}",
                    key.bench,
                    key.scheme.name(),
                    key.insts
                );
                (i % keys.len(), http(addr, "POST", "/v1/simulate", &body))
            })
        })
        .collect();
    for handle in handles {
        let (key_idx, (status, body)) = handle.join().expect("client thread");
        assert_eq!(status, 200, "simulate failed: {body}");
        assert_eq!(
            body, expected[key_idx],
            "concurrent response differs from serial execution"
        );
    }

    let m = metrics(addr);
    assert_eq!(metric_u64(&m, "responses", "ok_200"), 32);
    assert!(metric_u64(&m, "jobs", "completed") >= 8);
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_429_and_coalesces_identical_work() {
    let config = ServeConfig {
        threads: Some(1),
        queue_capacity: 1,
        max_insts: SLOW_INSTS,
        ..test_config()
    };
    let server = Server::start(config).expect("server start");
    let addr = server.addr();

    // Occupy the single worker with a long simulation.
    let slow = thread::spawn(move || http(addr, "POST", "/v1/simulate", &slow_job_body()));
    wait_for(addr, "the slow job to start", |m| {
        metric_u64(m, "jobs", "running") == 1
    });

    // Two identical requests: the first fills the queue's only slot, the
    // second coalesces onto it instead of being shed.
    let queued_body = "{\"bench\": \"compress\", \"insts\": 900, \"deadline_ms\": 120000}";
    let queued_a = thread::spawn(move || http(addr, "POST", "/v1/simulate", queued_body));
    wait_for(addr, "the queue slot to fill", |m| {
        metric_u64(m, "jobs", "queue_depth") == 1
    });
    let queued_b = thread::spawn(move || http(addr, "POST", "/v1/simulate", queued_body));
    wait_for(addr, "the identical request to coalesce", |m| {
        metric_u64(m, "jobs", "coalesced") == 1
    });

    // A *distinct* request now finds the queue full and is shed — with a
    // Retry-After hint so clients back off instead of hammering.
    let (status, head, body) = http_raw(
        addr,
        "POST",
        "/v1/simulate",
        "{\"bench\": \"eqntott\", \"insts\": 900}",
    );
    assert_eq!(status, 429, "expected shed, got: {body}");
    assert!(
        head.lines()
            .any(|l| l.to_ascii_lowercase().starts_with("retry-after:")),
        "429 must carry Retry-After: {head}"
    );
    let shed = parse(&body).expect("429 body is JSON");
    assert_eq!(
        shed.get("error").and_then(Value::as_str),
        Some("queue_full")
    );

    let (status, slow_body) = slow.join().expect("slow client");
    assert_eq!(status, 200, "slow request must finish: {slow_body}");
    let (status_a, body_a) = queued_a.join().expect("queued client a");
    let (status_b, body_b) = queued_b.join().expect("queued client b");
    assert_eq!((status_a, status_b), (200, 200));
    assert_eq!(body_a, body_b, "coalesced responses must be byte-identical");

    let m = metrics(addr);
    assert_eq!(metric_u64(&m, "jobs", "shed"), 1);
    assert_eq!(metric_u64(&m, "responses", "shed_429"), 1);
    server.shutdown();
}

#[test]
fn expired_deadline_answers_504_and_skips_the_queued_job() {
    let config = ServeConfig {
        threads: Some(1),
        max_insts: SLOW_INSTS,
        ..test_config()
    };
    let server = Server::start(config).expect("server start");
    let addr = server.addr();

    let slow = thread::spawn(move || http(addr, "POST", "/v1/simulate", &slow_job_body()));
    wait_for(addr, "the slow job to start", |m| {
        metric_u64(m, "jobs", "running") == 1
    });

    // Queued behind the slow job with a deadline it cannot meet.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/simulate",
        "{\"bench\": \"li\", \"insts\": 900, \"deadline_ms\": 30}",
    );
    assert_eq!(status, 504, "expected deadline expiry, got: {body}");
    let err = parse(&body).expect("504 body is JSON");
    assert_eq!(
        err.get("error").and_then(Value::as_str),
        Some("deadline_exceeded")
    );

    let (status, _) = slow.join().expect("slow client");
    assert_eq!(status, 200);
    // With its only waiter gone, the queued job is skipped, not run.
    wait_for(addr, "the abandoned job to be skipped", |m| {
        metric_u64(m, "jobs", "expired") == 1
    });
    let m = metrics(addr);
    assert_eq!(metric_u64(&m, "responses", "deadline_504"), 1);
    server.shutdown();
}

#[test]
fn repeated_sweeps_hit_the_lab_cache_and_stay_deterministic() {
    let server = Server::start(test_config()).expect("server start");
    let addr = server.addr();

    let sweep = "{\"benches\": [\"compress\", \"eqntott\"], \
                 \"schemes\": [\"sequential\", \"collapsing\"], \"insts\": 1100}";
    let (status, first) = http(addr, "POST", "/v1/sweep", sweep);
    assert_eq!(status, 200, "sweep failed: {first}");
    let doc = parse(&first).expect("sweep body is JSON");
    assert_eq!(doc.get("jobs").and_then(Value::as_u64), Some(4));
    assert_eq!(
        doc.get("results")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(4)
    );

    let hits_after_first = metric_u64(&metrics(addr), "lab_cache", "stream_hits");
    let (status, second) = http(addr, "POST", "/v1/sweep", sweep);
    assert_eq!(status, 200);
    assert_eq!(first, second, "identical sweeps must be byte-identical");

    // Every cell of the repeated sweep re-uses a cached block stream, and no
    // per-instruction trace is ever generated.
    let m = metrics(addr);
    let hits_after_second = metric_u64(&m, "lab_cache", "stream_hits");
    assert!(
        hits_after_second >= hits_after_first + 4,
        "repeated sweep should hit the stream cache \
         ({hits_after_first} -> {hits_after_second})"
    );
    assert_eq!(metric_u64(&m, "lab_cache", "trace_generations"), 0);
    // The service simulates on `lab.stream` and persists results in its
    // store; it never fills the lab's simulation memo, which never evicts.
    assert_eq!(metric_u64(&m, "lab_cache", "sim_runs"), 0);

    // Oversized grids are rejected up front.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/sweep",
        "{\"benches\": [\"compress\"], \"insts\": 0}",
    );
    assert_eq!(status, 400, "zero insts must 400: {body}");
    server.shutdown();
}

#[test]
fn service_never_builds_per_instruction_traces() {
    let server = Server::start(test_config()).expect("server start");
    let addr = server.addr();

    let (status, body) = http(addr, "POST", "/v1/simulate", "{\"bench\": \"li\"}");
    assert_eq!(status, 200, "simulate failed: {body}");
    let (status, body) = http(
        addr,
        "POST",
        "/v1/sweep",
        "{\"benches\": [\"gcc\"], \"schemes\": [\"banked\", \"perfect\"]}",
    );
    assert_eq!(status, 200, "sweep failed: {body}");

    let bril = include_str!("../examples/programs/loopmix.bril.json");
    let (status, body) = http(addr, "POST", "/v1/programs", &upload_body("bril", bril));
    assert_eq!(status, 200, "upload failed: {body}");
    let id = parse(&body)
        .expect("upload response is JSON")
        .get("id")
        .and_then(Value::as_str)
        .expect("upload response has an id")
        .to_string();
    let (status, body) = http(
        addr,
        "POST",
        "/v1/simulate",
        &format!("{{\"bench\": \"{id}\"}}"),
    );
    assert_eq!(status, 200, "uploaded-program simulate failed: {body}");

    let m = metrics(addr);
    assert_eq!(
        metric_u64(&m, "lab_cache", "trace_generations"),
        0,
        "the service must simulate block streams, never per-instruction traces"
    );
    assert!(metric_u64(&m, "lab_cache", "stream_builds") > 0);
    server.shutdown();
}

/// Renders a `/v1/programs` upload body through the server's own JSON
/// encoder, so the source text is escaped correctly.
fn upload_body(format: &str, source: &str) -> String {
    Value::object([
        ("format", Value::Str(format.to_string())),
        ("source", Value::Str(source.to_string())),
    ])
    .pretty()
}

#[test]
fn program_upload_validation_errors() {
    let server = Server::start(test_config()).expect("server start");
    let addr = server.addr();

    // Missing fields and unknown formats are request-level 400s.
    let (status, body) = http(addr, "POST", "/v1/programs", "{}");
    assert_eq!(status, 400, "missing format must 400: {body}");
    let (status, body) = http(addr, "POST", "/v1/programs", &upload_body("elf", "x"));
    assert_eq!(status, 400, "unknown format must 400: {body}");
    let err = parse(&body).expect("400 body is JSON");
    assert_eq!(
        err.get("error").and_then(Value::as_str),
        Some("invalid_request")
    );

    // A well-formed request carrying a bad program is a *program*-level 400
    // with the frontend's diagnostic text.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/programs",
        &upload_body("bril", "{\"functions\": []}"),
    );
    assert_eq!(status, 400, "empty module must 400: {body}");
    let err = parse(&body).expect("400 body is JSON");
    assert_eq!(
        err.get("error").and_then(Value::as_str),
        Some("invalid_program")
    );
    assert!(
        err.get("detail")
            .and_then(Value::as_str)
            .is_some_and(|m| m.contains("must not be empty")),
        "diagnostic text must survive to the client: {body}"
    );

    server.shutdown();
}

#[test]
fn uploaded_program_sweeps_end_to_end_and_survives_restart() {
    let store = std::env::temp_dir().join(format!(
        "fetchmech-serve-programs-{}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    let config = || ServeConfig {
        store_path: Some(store.clone()),
        ..test_config()
    };
    let wat = include_str!("../examples/programs/kernel.wat");
    let upload = upload_body("wat", wat);

    let (id, first_sweep, sweep_req);
    {
        let server = Server::start(config()).expect("server start");
        let addr = server.addr();

        let (status, body) = http(addr, "POST", "/v1/programs", &upload);
        assert_eq!(status, 200, "upload failed: {body}");
        let doc = parse(&body).expect("upload response is JSON");
        id = doc
            .get("id")
            .and_then(Value::as_str)
            .expect("upload response has an id")
            .to_string();
        assert!(id.starts_with("prog-"), "content-hash id: {id}");
        assert_eq!(doc.get("registered").and_then(Value::as_bool), Some(true));

        // Idempotent: the same source maps to the same id, not a duplicate.
        let (status, body) = http(addr, "POST", "/v1/programs", &upload);
        assert_eq!(status, 200);
        let doc = parse(&body).expect("re-upload response is JSON");
        assert_eq!(doc.get("id").and_then(Value::as_str), Some(id.as_str()));
        assert_eq!(doc.get("registered").and_then(Value::as_bool), Some(false));

        // The id joins the /healthz vocabulary.
        let (status, health) = http(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        let health = parse(&health).expect("healthz JSON");
        assert!(
            health
                .get("programs")
                .and_then(Value::as_array)
                .is_some_and(|ps| ps.iter().any(|p| p.as_str() == Some(&id))),
            "healthz must list the uploaded program"
        );

        // Sweep the uploaded program across every fetch scheme, through the
        // exact machinery the suite benchmarks use.
        sweep_req = format!("{{\"benches\": [\"{id}\"], \"insts\": 1200}}");
        let (status, sweep) = http(addr, "POST", "/v1/sweep", &sweep_req);
        assert_eq!(status, 200, "sweep failed: {sweep}");
        let doc = parse(&sweep).expect("sweep body is JSON");
        assert_eq!(
            doc.get("jobs").and_then(Value::as_u64),
            Some(SchemeKind::ALL.len() as u64)
        );
        first_sweep = sweep;

        wait_for(addr, "all results persisted", |m| {
            metric_u64(m, "store", "persisted") >= SchemeKind::ALL.len() as u64
        });
        server.shutdown();
    }

    // Restart: the registry is per-process, so the id is unknown until the
    // client re-uploads — after which the store serves the original bytes
    // without enqueueing a single job.
    let server = Server::start(config()).expect("server restart");
    let addr = server.addr();
    let (status, body) = http(addr, "POST", "/v1/sweep", &sweep_req);
    assert_eq!(
        status, 400,
        "unregistered id must 400 after restart: {body}"
    );
    let (status, body) = http(addr, "POST", "/v1/programs", &upload);
    assert_eq!(status, 200, "re-upload failed: {body}");
    let (status, second_sweep) = http(addr, "POST", "/v1/sweep", &sweep_req);
    assert_eq!(status, 200);
    assert_eq!(
        first_sweep, second_sweep,
        "restart must serve byte-identical sweep results from the store"
    );
    let m = metrics(addr);
    assert_eq!(
        metric_u64(&m, "jobs", "enqueued"),
        0,
        "restart sweep must be resolved entirely from the store"
    );
    server.shutdown();
    let _ = std::fs::remove_file(&store);
}

#[test]
fn stalled_and_half_closed_clients_cannot_pin_workers() {
    // Tight socket timeouts and only two connection slots: if a stalled
    // client could pin its handler thread, the service would be wedged.
    let config = ServeConfig {
        read_timeout: Duration::from_millis(200),
        write_timeout: Duration::from_millis(200),
        max_connections: 2,
        ..test_config()
    };
    let server = Server::start(config).expect("server start");
    let addr = server.addr();

    // Slow-loris: sends half a request head, then stalls forever.
    let mut loris = TcpStream::connect(addr).expect("connect loris");
    loris
        .write_all(b"POST /v1/simulate HTTP/1.1\r\nContent-")
        .expect("partial head");

    // Half-closed: connects, then shuts its write side without sending a
    // byte (the server sees EOF and must drop the connection immediately).
    let half = TcpStream::connect(addr).expect("connect half-closed");
    half.shutdown(std::net::Shutdown::Write)
        .expect("half close");

    // Both slots are (at worst briefly) occupied; the read timeout must
    // free the loris slot, after which normal service resumes. Saturated
    // 503s — or outright resets — in the window are acceptable; a hang is
    // not. The probe therefore swallows connection-level errors.
    let probe = |addr: std::net::SocketAddr| -> Option<u16> {
        let mut stream = TcpStream::connect(addr).ok()?;
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
            .ok()?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).ok()?;
        let text = String::from_utf8(raw).ok()?;
        text.split(' ').nth(1)?.parse().ok()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = probe(addr);
        if status == Some(200) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "stalled clients wedged the server (last status {status:?})"
        );
        thread::sleep(Duration::from_millis(25));
    }

    // The server actively closed the stalled connection: the loris read
    // side reaches EOF instead of blocking forever.
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sink = Vec::new();
    let _ = loris.read_to_end(&mut sink); // EOF or reset, never a hang
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let config = ServeConfig {
        threads: Some(1),
        max_insts: SLOW_INSTS,
        ..test_config()
    };
    let server = Server::start(config).expect("server start");
    let addr = server.addr();

    let inflight = thread::spawn(move || http(addr, "POST", "/v1/simulate", &slow_job_body()));
    wait_for(addr, "the in-flight job to start", |m| {
        metric_u64(m, "jobs", "running") == 1
    });

    finishes_promptly("shutdown with a request in flight", move || {
        server.shutdown()
    });

    // The in-flight request was drained, not dropped.
    let (status, body) = inflight.join().expect("in-flight client");
    assert_eq!(status, 200, "drained request must succeed: {body}");

    // And the listener is gone: new connections are refused.
    assert_not_listening(addr);
}

/// Runs `f` on its own thread and fails (instead of hanging) unless it
/// returns within 5 s — the accept thread blocks in `accept()`, so a missed
/// wake-up would otherwise wedge the test forever.
fn finishes_promptly(what: &str, f: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let worker = thread::spawn(move || {
        f();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(5)).is_ok(),
        "{what} did not finish within 5 s"
    );
    worker.join().expect("finished worker thread");
}

fn assert_not_listening(addr: SocketAddr) {
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "the listener must be closed once the accept thread exits"
    );
}

#[test]
fn shutdown_wakes_an_accept_thread_that_never_saw_a_connection() {
    let server = Server::start(test_config()).expect("server start");
    let addr = server.addr();
    // No connection may reveal when the accept thread reaches `accept()`, so
    // give it time to block there. Were it still starting, it would see
    // `stop` and exit: the test would pass without exercising the wake-up,
    // never fail spuriously.
    thread::sleep(Duration::from_millis(100));
    finishes_promptly("shutdown of an idle server", move || server.shutdown());
    assert_not_listening(addr);
}

#[test]
fn dropping_a_server_wakes_its_accept_thread() {
    let server = Server::start(test_config()).expect("server start");
    let addr = server.addr();
    // Once a request has been served, the accept thread is back in `accept()`.
    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    finishes_promptly("dropping a server", move || drop(server));
    assert_not_listening(addr);
}

#[test]
fn shutdown_wakes_a_server_bound_to_the_unspecified_address() {
    let server = Server::start(ServeConfig {
        addr: "0.0.0.0:0".to_string(),
        ..test_config()
    })
    .expect("server start");
    assert!(server.addr().ip().is_unspecified());
    let loopback = SocketAddr::from(([127, 0, 0, 1], server.addr().port()));
    let (status, _) = http(loopback, "GET", "/healthz", "");
    assert_eq!(status, 200);
    finishes_promptly("shutdown of a 0.0.0.0 server", move || server.shutdown());
    assert_not_listening(loopback);
}
