//! Kill-and-recover integration test: runs the real `fetchmech-serve`
//! binary, persists results, SIGKILLs it mid-operation, corrupts the log
//! tail the way a torn write would, restarts, and asserts the durable
//! prefix is recovered byte-identically — without recomputation. Finishes
//! with a graceful SIGTERM drain and writes `BENCH_PR7.json`. A second test
//! SIGTERMs fresh servers the moment they announce themselves.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fetchmech::json::{parse, Value};

const KEYS: [&str; 4] = [
    "{\"bench\": \"compress\", \"scheme\": \"sequential\", \"insts\": 1000}",
    "{\"bench\": \"compress\", \"scheme\": \"collapsing\", \"insts\": 1000}",
    "{\"bench\": \"eqntott\", \"scheme\": \"sequential\", \"insts\": 1000}",
    "{\"bench\": \"eqntott\", \"scheme\": \"perfect\", \"insts\": 1000}",
];

/// A spawned server plus the machinery watching its stdout.
struct ServerProc {
    child: Child,
    addr: String,
    /// Drains stdout after the listening line; returns it at EOF.
    stdout: JoinHandle<String>,
}

impl ServerProc {
    /// Spawns `fetchmech-serve --quick --store <path>` on an ephemeral port
    /// and waits for the listening line to learn the address.
    fn spawn(store: &std::path::Path) -> ServerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fetchmech-serve"))
            .args(["--addr", "127.0.0.1:0", "--quick", "--insts", "1000"])
            .arg("--store")
            .arg(store)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn fetchmech-serve");
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let line = line.expect("read server stdout");
            if let Some(rest) = line.strip_prefix("fetchmech-serve listening on http://") {
                addr = Some(rest.trim().to_string());
                break;
            }
        }
        let addr = addr.expect("server printed its listening address");
        // Keep draining stdout so the pipe never backs up, and keep the
        // text for the final "drained, bye" assertion.
        let stdout = std::thread::spawn(move || {
            let mut text = String::new();
            for line in lines {
                let Ok(line) = line else { break };
                text.push_str(&line);
                text.push('\n');
            }
            text
        });
        ServerProc {
            child,
            addr,
            stdout,
        }
    }

    fn http(&self, method: &str, path: &str, body: &str) -> (u16, String) {
        http(&self.addr, method, path, body)
    }

    fn metrics(&self) -> Value {
        let (status, body) = self.http("GET", "/metrics", "");
        assert_eq!(status, 200);
        parse(&body).expect("metrics is valid JSON")
    }

    /// Immediate, non-graceful death — the crash we are testing recovery from.
    fn sigkill(mut self) {
        self.child.kill().expect("SIGKILL server");
        self.child.wait().expect("reap server");
    }

    /// Graceful shutdown; returns everything the server printed after the
    /// listening line.
    fn sigterm_and_wait(mut self) -> String {
        let pid = self.child.id().to_string();
        let status = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("send SIGTERM");
        assert!(status.success(), "kill -TERM failed");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                assert!(status.success(), "server exited nonzero: {status}");
                break;
            }
            assert!(Instant::now() < deadline, "server ignored SIGTERM");
            std::thread::sleep(Duration::from_millis(20));
        }
        // The pipe closed with the process, so the drain thread is at EOF.
        self.stdout.join().expect("stdout drain thread")
    }
}

fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
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
    (status, body.to_string())
}

fn metric_u64(m: &Value, group: &str, field: &str) -> u64 {
    m.get(group)
        .and_then(|g| g.get(field))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("metrics missing {group}.{field}"))
}

#[test]
fn sigkill_mid_write_recovers_durable_results_byte_identical() {
    let store =
        std::env::temp_dir().join(format!("fetchmech-storecrash-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&store);

    // ---- Phase 1: compute and persist a known set of results. ----
    let server = ServerProc::spawn(&store);
    let mut originals = Vec::new();
    for body in KEYS {
        let (status, resp) = server.http("POST", "/v1/simulate", body);
        assert_eq!(status, 200, "simulate failed: {resp}");
        originals.push(resp);
    }
    // Persistence is write-behind; wait until all four are durable.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if metric_u64(&server.metrics(), "store", "persisted") >= KEYS.len() as u64 {
            break;
        }
        assert!(Instant::now() < deadline, "results never became durable");
        std::thread::sleep(Duration::from_millis(20));
    }

    // ---- Phase 2: SIGKILL with a request in flight. ----
    // Fire one more simulation and kill the process while it runs; that
    // key gets no durability promise and must simply not corrupt the log.
    let addr = server.addr.clone();
    let straggler = std::thread::spawn(move || {
        // The connection dies with the server; any error is expected.
        let _ = std::panic::catch_unwind(|| {
            http(
                &addr,
                "POST",
                "/v1/simulate",
                "{\"bench\": \"eqntott\", \"scheme\": \"banked\", \"insts\": 1400}",
            )
        });
    });
    std::thread::sleep(Duration::from_millis(30));
    server.sigkill();
    straggler.join().expect("straggler thread");

    // ---- Phase 3: simulate the torn tail a mid-record crash leaves. ----
    // A valid header promising more payload than exists: recovery must
    // truncate exactly this suffix and keep every whole record before it.
    let intact_len = std::fs::metadata(&store)
        .expect("store survives SIGKILL")
        .len();
    assert!(intact_len > 0, "log is empty after persistence");
    let torn: Vec<u8> = 0x464d_5331u32 // record magic, little-endian
        .to_le_bytes()
        .into_iter()
        .chain(40u32.to_le_bytes()) // key_len: promises 40 bytes...
        .chain(400u32.to_le_bytes()) // body_len: ...plus 400 more
        .chain(0u64.to_le_bytes()) // checksum (never reached)
        .chain(*b"torn") // ...but only 4 bytes arrive
        .collect();
    {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&store)
            .expect("append torn tail");
        file.write_all(&torn).expect("write torn tail");
        file.sync_data().expect("sync torn tail");
    }

    // ---- Phase 4: restart and verify recovery. ----
    let recover_start = Instant::now();
    let server = ServerProc::spawn(&store);
    let recover_ms = recover_start.elapsed().as_millis() as u64;
    for (body, original) in KEYS.iter().zip(&originals) {
        let (status, resp) = server.http("POST", "/v1/simulate", body);
        assert_eq!(status, 200);
        assert_eq!(
            &resp, original,
            "durable result must replay byte-identical after crash"
        );
    }
    let m = server.metrics();
    let recovered = metric_u64(&m, "store", "records_recovered");
    let truncated = metric_u64(&m, "store", "bytes_truncated");
    let hits = metric_u64(&m, "store", "hits");
    assert!(
        recovered >= KEYS.len() as u64,
        "all durable records recovered (got {recovered})"
    );
    assert_eq!(
        truncated,
        torn.len() as u64,
        "recovery truncates exactly the torn suffix"
    );
    assert!(hits >= KEYS.len() as u64, "replays are store hits");
    assert_eq!(
        metric_u64(&m, "jobs", "enqueued"),
        0,
        "crash recovery must not recompute durable results"
    );
    assert_eq!(
        std::fs::metadata(&store).expect("store metadata").len(),
        intact_len,
        "the log is truncated back to the durable prefix"
    );

    // ---- Phase 5: graceful SIGTERM still drains cleanly. ----
    let tail = server.sigterm_and_wait();
    assert!(
        tail.contains("drained, bye"),
        "graceful shutdown must drain: {tail}"
    );

    let report = Value::object([
        ("durable_keys", Value::Uint(KEYS.len() as u64)),
        ("records_recovered", Value::Uint(recovered)),
        ("bytes_truncated", Value::Uint(truncated)),
        ("store_hits_on_replay", Value::Uint(hits)),
        ("replay_jobs_enqueued", Value::Uint(0)),
        ("recover_ms", Value::Uint(recover_ms)),
    ]);
    std::fs::write("BENCH_PR7.json", format!("{}\n", report.pretty()))
        .expect("write BENCH_PR7.json");
    let _ = std::fs::remove_file(&store);
}

/// The listening banner promises that SIGTERM drains: the signal handlers
/// are installed before the server binds. Sent the moment the banner
/// appears, SIGTERM must still end in a clean exit. A handler installed
/// after the banner loses this race only on a loaded machine, where the
/// default disposition kills the process, hence the repetitions.
#[test]
fn sigterm_right_after_the_banner_drains() {
    for run in 0..20 {
        let store =
            std::env::temp_dir().join(format!("fetchmech-banner-{}-{run}.log", std::process::id()));
        let _ = std::fs::remove_file(&store);
        let tail = ServerProc::spawn(&store).sigterm_and_wait();
        assert!(tail.contains("drained, bye"), "run {run}: {tail}");
        let _ = std::fs::remove_file(&store);
    }
}
