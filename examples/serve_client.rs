//! Smoke client for `fetchmech-serve`: checks `/healthz`, fires a burst of
//! concurrent `/v1/simulate` requests (verifying identical keys give
//! byte-identical bodies), runs the same `/v1/sweep` twice to exercise the
//! lab caches, then writes a throughput/latency summary to
//! `BENCH_PR5.json`.
//!
//! With a second argument naming a frontend program file (`.bril.json` /
//! `.json` / `.wat`), the client also uploads it via `POST /v1/programs`
//! and sweeps the returned content-hash id across every scheme, twice,
//! asserting byte-identical results.
//!
//! ```text
//! cargo run --release --example serve_client -- 127.0.0.1:8321 \
//!     examples/programs/loopmix.bril.json
//! ```

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use fetchmech::json::{parse, Value};

const CLIENTS: usize = 32;

/// Retry policy for shed responses (429/503): capped exponential backoff
/// with deterministic jitter, honoring the server's `Retry-After` hint.
const MAX_ATTEMPTS: u32 = 6;
const BACKOFF_BASE_MS: u64 = 50;
const BACKOFF_CAP_MS: u64 = 2_000;

/// One raw HTTP exchange; returns `(status, body, retry_after_secs)`.
fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String, Option<u64>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed response".to_string())?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "malformed status line".to_string())?;
    let retry_after = head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("retry-after")
            .then(|| value.trim().parse().ok())?
    });
    Ok((status, body.to_string(), retry_after))
}

/// Deterministic jitter in `[0, spread)` from an FNV-1a hash of the request
/// identity and attempt — replayable, yet de-synchronized across clients.
fn jitter_ms(tag: &str, attempt: u32, spread: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in tag.as_bytes().iter().chain(&attempt.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    if spread == 0 {
        0
    } else {
        h % spread
    }
}

/// The shed-aware request loop: 429/503 responses are retried with capped
/// exponential backoff + deterministic jitter, preferring the server's
/// `Retry-After` hint when present. Everything else returns immediately.
fn request_with_retry(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut last = None;
    for attempt in 0..MAX_ATTEMPTS {
        let (status, resp, retry_after) = request(addr, method, path, body)?;
        if status != 429 && status != 503 {
            return Ok((status, resp));
        }
        last = Some((status, resp));
        if attempt + 1 == MAX_ATTEMPTS {
            break;
        }
        let exp = BACKOFF_BASE_MS
            .saturating_mul(1 << attempt)
            .min(BACKOFF_CAP_MS);
        let hinted = retry_after.map(|secs| (secs.saturating_mul(1000)).min(BACKOFF_CAP_MS));
        let base = hinted.unwrap_or(exp);
        let sleep = base + jitter_ms(&format!("{method} {path} {body}"), attempt, exp.max(1));
        eprintln!(
            "serve_client: {method} {path} shed with {status} \
             (attempt {attempt}, backing off {sleep} ms)"
        );
        std::thread::sleep(Duration::from_millis(sleep));
    }
    let (status, resp) = last.expect("at least one attempt");
    Ok((status, resp))
}

fn check(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    match request_with_retry(addr, method, path, body) {
        Ok(resp) => resp,
        Err(e) => {
            eprintln!("serve_client: {method} {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:8321".to_string());

    let (status, body) = check(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "healthz failed: {body}");
    let health = parse(&body).expect("healthz is valid JSON");
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));

    // Concurrent burst: CLIENTS clients over 8 distinct request bodies;
    // responses for the same body must be byte-identical.
    let bodies: Vec<String> = ["compress", "eqntott"]
        .iter()
        .flat_map(|bench| {
            ["sequential", "banked", "collapsing", "perfect"]
                .iter()
                .map(move |scheme| {
                    format!("{{\"bench\": \"{bench}\", \"scheme\": \"{scheme}\", \"insts\": 2000}}")
                })
        })
        .collect();
    let burst_start = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let addr = addr.clone();
            let body = bodies[i % bodies.len()].clone();
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let (status, resp) = check(&addr, "POST", "/v1/simulate", &body);
                (i % 8, status, resp, t0.elapsed())
            })
        })
        .collect();
    let mut canonical: Vec<Option<String>> = vec![None; 8];
    let mut latencies = Vec::with_capacity(CLIENTS);
    for handle in handles {
        let (slot, status, resp, elapsed) = handle.join().expect("client thread");
        assert_eq!(status, 200, "simulate failed: {resp}");
        match &canonical[slot] {
            None => canonical[slot] = Some(resp),
            Some(first) => assert_eq!(first, &resp, "identical requests diverged"),
        }
        latencies.push(elapsed);
    }
    let burst_secs = burst_start.elapsed().as_secs_f64();

    // The same sweep twice: the repeat must be byte-identical and must hit
    // the server's trace cache.
    let sweep = "{\"benches\": [\"compress\", \"eqntott\"], \
                 \"schemes\": [\"sequential\", \"collapsing\"], \"insts\": 2000}";
    let (status, first) = check(&addr, "POST", "/v1/sweep", sweep);
    assert_eq!(status, 200, "sweep failed: {first}");
    let (status, second) = check(&addr, "POST", "/v1/sweep", sweep);
    assert_eq!(status, 200);
    assert_eq!(first, second, "repeated sweep diverged");

    // Optional: upload a frontend program and sweep it end-to-end.
    if let Some(path) = std::env::args().nth(2) {
        let format = if path.to_ascii_lowercase().ends_with(".wat") {
            "wat"
        } else {
            "bril"
        };
        let source = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("serve_client: read {path}: {e}");
            std::process::exit(1);
        });
        let upload = Value::object([
            ("format", Value::Str(format.to_string())),
            ("source", Value::Str(source)),
        ])
        .pretty();
        let (status, body) = check(&addr, "POST", "/v1/programs", &upload);
        assert_eq!(status, 200, "program upload failed: {body}");
        let doc = parse(&body).expect("upload response is JSON");
        let id = doc
            .get("id")
            .and_then(Value::as_str)
            .expect("upload response has an id")
            .to_string();
        assert!(id.starts_with("prog-"), "content-hash id: {id}");
        let prog_sweep = format!("{{\"benches\": [\"{id}\"], \"insts\": 2000}}");
        let (status, first) = check(&addr, "POST", "/v1/sweep", &prog_sweep);
        assert_eq!(status, 200, "program sweep failed: {first}");
        let (status, second) = check(&addr, "POST", "/v1/sweep", &prog_sweep);
        assert_eq!(status, 200);
        assert_eq!(first, second, "repeated program sweep diverged");
        eprintln!("serve_client: uploaded {path} as {id}, swept all schemes twice");
    }

    let (status, body) = check(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let m = parse(&body).expect("metrics is valid JSON");
    let lab_cache = |field: &str| {
        m.get("lab_cache")
            .and_then(|c| c.get(field))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("metrics reports lab_cache.{field}"))
    };
    let cache_hits = lab_cache("stream_hits");
    assert!(cache_hits > 0, "repeated sweeps must hit the stream cache");
    assert_eq!(
        lab_cache("trace_generations"),
        0,
        "the service must simulate block streams, never per-instruction traces"
    );
    let ok_200 = m
        .get("responses")
        .and_then(|r| r.get("ok_200"))
        .and_then(Value::as_u64)
        .unwrap_or(0);

    latencies.sort();
    let p50_ms = latencies[latencies.len() / 2].as_secs_f64() * 1000.0;
    let p99_ms = latencies[latencies.len() - 1].as_secs_f64() * 1000.0;
    #[allow(clippy::cast_precision_loss)]
    let throughput = CLIENTS as f64 / burst_secs;
    let report = Value::object([
        ("clients", Value::Uint(CLIENTS as u64)),
        (
            "burst_secs",
            Value::Num((burst_secs * 1000.0).round() / 1000.0),
        ),
        (
            "requests_per_sec",
            Value::Num((throughput * 100.0).round() / 100.0),
        ),
        ("p50_ms", Value::Num((p50_ms * 100.0).round() / 100.0)),
        ("max_ms", Value::Num((p99_ms * 100.0).round() / 100.0)),
        ("ok_200", Value::Uint(ok_200)),
        ("stream_cache_hits", Value::Uint(cache_hits)),
    ]);
    let json = format!("{}\n", report.pretty());
    std::fs::write("BENCH_PR5.json", &json).expect("write BENCH_PR5.json");
    println!("{json}");
    eprintln!(
        "serve_client: {CLIENTS} clients in {burst_secs:.2}s \
         ({throughput:.1} req/s), stream cache hits {cache_hits}"
    );
}
