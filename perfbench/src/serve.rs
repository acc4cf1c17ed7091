//! The `serve-cold` workload: `POST /v1/simulate` traffic against a real
//! `fetchmech-serve` process, from a closed loop of two connections.
//!
//! The server starts on an empty store and receives distinct keys from a
//! seeded permutation of the key space, so every request misses the store
//! and runs a simulation. After the measured load the server is restarted
//! on the store it wrote and the first keys are sent again (unmeasured):
//! every one must be a store hit, byte-identical to its cold body. The
//! traced run also times that read path.
//!
//! A workload measuring the store-hit traffic end to end was dropped: each
//! hit waits for the server's 5 ms accept poll and almost nothing else, so
//! its tail latency measured how often the host stalled a thread for a poll
//! period, and its p99 spread over ten identical runs reached 73 % of the
//! median.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fetchmech_repro::experiments::{ExpConfig, Lab, LayoutVariant, TraceKey};
use fetchmech_repro::isa::DynInst;
use fetchmech_repro::json::{parse, Value};
use fetchmech_repro::pipeline::MachineModel;
use fetchmech_repro::serve::api::{parse_simulate, sim_result_json, Limits};
use fetchmech_repro::serve::engine::SimKey;
use fetchmech_repro::serve::ServeConfig;
use fetchmech_repro::store::{NoFault, Store};
use fetchmech_repro::workloads::{suite, InputId};
use fetchmech_repro::{simulate, SchemeKind};

use crate::report::{
    add_lab_counts, add_overhead, add_sim_counts, add_span_times, compare_counters,
    derive_sim_ratios, Outcome, Replay,
};
use crate::spans::{close, open, span, Recorder};
use crate::stats::{median, percentile, vm_hwm_kb, wilson_upper, Rng};

/// Closed-loop connections (the box's two cores).
const CONNECTIONS: usize = 2;
/// Server worker threads.
const SERVER_THREADS: &str = "2";
/// Server starts per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Trace lengths of the key space.
const INSTS: [u64; 3] = [10_000, 20_000, 40_000];
/// Served keys sent again as store hits after the load.
const HOT_KEYS: usize = 400;
/// Passes over those keys over HTTP.
const HOT_PASSES: usize = 2;
/// Completed requests per `wall_s` round.
const COLD_ROUND: usize = 200;
/// Served keys recomputed in-process and compared byte for byte.
const CHECK_SAMPLE: usize = 12;
/// Cold keys the traced run replays in-process (the start of the
/// permutation, so the exact counters repeat across runs of one seed).
const COLD_REPLAY: usize = 500;
/// Passes over the store-hit keys the traced run replays in-process.
const HOT_REPLAY_PASSES: usize = 50;

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

fn signal(child: &Child, sig: i32) {
    let Ok(pid) = i32::try_from(child.id()) else {
        return;
    };
    // SAFETY: kill(2) takes plain integers and touches no memory of ours;
    // `pid` is our own child, not yet reaped (callers signal before they
    // wait on it), so the id cannot name another process.
    unsafe {
        kill(pid, sig);
    }
}

/// One `/v1/simulate` key.
#[derive(Debug, Clone, Copy)]
struct Key {
    bench: &'static str,
    machine: &'static str,
    scheme: SchemeKind,
    layout: LayoutVariant,
    insts: u64,
}

impl Key {
    fn body(&self) -> String {
        format!(
            "{{\"bench\": \"{}\", \"machine\": \"{}\", \"scheme\": \"{}\", \"layout\": \"{}\", \"insts\": {}}}",
            self.bench,
            self.machine,
            self.scheme.name(),
            self.layout.name(),
            self.insts
        )
    }

    fn sim_key(&self) -> SimKey {
        SimKey {
            bench: self.bench,
            machine: self.machine,
            scheme: self.scheme,
            variant: self.layout,
            insts: self.insts,
        }
    }

    fn model(&self) -> MachineModel {
        MachineModel::by_name(self.machine).expect("paper machine")
    }
}

/// The 15 benchmarks × 3 machines × 5 schemes × 4 layouts × 3 lengths key
/// space, in a seeded order.
fn key_space(seed: u64) -> Vec<Key> {
    let mut keys = Vec::new();
    for bench in suite::INT_NAMES.iter().chain(suite::FP_NAMES.iter()) {
        for machine in ["p14", "p18", "p112"] {
            for scheme in SchemeKind::ALL {
                for layout in LayoutVariant::ALL {
                    for insts in INSTS {
                        keys.push(Key {
                            bench,
                            machine,
                            scheme,
                            layout,
                            insts,
                        });
                    }
                }
            }
        }
    }
    Rng::new(seed).shuffle(&mut keys);
    keys
}

/// Builds the service binary next to this one and returns its path.
fn build_server(root: &Path) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let profile_dir = exe.parent().ok_or("perfbench has no parent directory")?;
    let target_dir = profile_dir
        .parent()
        .ok_or("perfbench is not in a target dir")?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "fetchmech-serve",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building fetchmech-serve failed: {status}"));
    }
    Ok(profile_dir.join("fetchmech-serve"))
}

/// A running `fetchmech-serve`. Dropping it kills the process; [`stop`]
/// shuts it down gracefully so its store is flushed.
///
/// [`stop`]: ServerProc::stop
struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
    running: bool,
}

impl ServerProc {
    /// Starts the server on `store` and returns it with its set-up time:
    /// process start until the server announces it is listening, which it
    /// does once its lab exists, its store is recovered and its accept
    /// loop runs. A `/healthz` probe must then answer 200; its wait for the
    /// accept loop's poll is request latency, not set-up.
    fn start(bin: &Path, store: &Path) -> Result<(ServerProc, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--threads",
                SERVER_THREADS,
                "--store",
            ])
            .arg(store)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = ServerProc {
            child,
            stdout,
            addr: String::new(),
            running: true,
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read server banner: {e}"))?;
        server.addr = line
            .trim()
            .rsplit_once("http://")
            .map(|(_, a)| a.to_string())
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        loop {
            if let Ok(r) = http(&server.addr, "GET", "/healthz", "") {
                if r.status == 200 {
                    break;
                }
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("server never became healthy".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((server, setup_s))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// SIGTERM, then wait for the drain to finish.
    fn stop(mut self) -> Result<(), String> {
        signal(&self.child, SIGTERM);
        // Keep reading so the server's shutdown messages never hit a closed
        // pipe, then reap it.
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| format!("wait server: {e}"))?;
        self.running = false;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.running {
            signal(&self.child, SIGKILL);
            let _ = self.child.wait();
        }
    }
}

/// One HTTP exchange, timed by phase.
#[derive(Debug)]
struct Reply {
    status: u16,
    body: String,
    connect_s: f64,
    ttfb_s: f64,
}

fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connect_s = t0.elapsed().as_secs_f64();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let sent = Instant::now();
    let mut raw = vec![0u8; 4096];
    let n = stream.read(&mut raw).map_err(|e| format!("read: {e}"))?;
    let ttfb_s = sent.elapsed().as_secs_f64();
    raw.truncate(n);
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed response".to_string())?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "malformed status line".to_string())?;
    Ok(Reply {
        status,
        body: body.to_string(),
        connect_s,
        ttfb_s,
    })
}

/// One completed (or failed) request of a load run.
#[derive(Debug)]
struct Done {
    /// Position in the key sequence.
    n: usize,
    /// Completion time since the load started.
    end_s: f64,
    latency_s: f64,
    reply: Result<Reply, String>,
}

/// A closed loop of [`CONNECTIONS`] clients over `keys`: request `n` sends
/// `keys[n % keys.len()]`. Stops issuing when `seconds` have passed, or
/// after `limit` requests.
fn load(addr: &str, keys: &[Key], seconds: f64, limit: usize) -> (Vec<Done>, f64) {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| {
                let mut mine = Vec::new();
                while start.elapsed().as_secs_f64() < seconds {
                    let n = next.fetch_add(1, Ordering::Relaxed);
                    if n >= limit {
                        break;
                    }
                    let body = keys[n % keys.len()].body();
                    let t0 = Instant::now();
                    let reply = http(addr, "POST", "/v1/simulate", &body);
                    let broken = reply.is_err();
                    mine.push(Done {
                        n,
                        end_s: start.elapsed().as_secs_f64(),
                        latency_s: t0.elapsed().as_secs_f64(),
                        reply,
                    });
                    // A connection that fails is counted once; the client
                    // stops instead of spinning on a dead server.
                    if broken {
                        break;
                    }
                }
                done.lock().expect("load results lock").extend(mine);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut done = done.into_inner().expect("load results lock");
    done.sort_by_key(|d| d.n);
    (done, elapsed)
}

/// Checks that a 200 body echoes the key it was asked for.
fn echoes(body: &str, key: &Key) -> bool {
    let Ok(v) = parse(body) else {
        return false;
    };
    let s = |f: &str| v.get(f).and_then(Value::as_str).map(str::to_string);
    s("bench").as_deref() == Some(key.bench)
        && s("machine").as_deref() == Some(key.machine)
        && s("scheme").as_deref() == Some(key.scheme.name())
        && s("layout").as_deref() == Some(key.layout.name())
        && v.get("insts").and_then(Value::as_u64) == Some(key.insts)
}

/// Median time per round of `round` completed requests.
fn round_seconds(done: &[Done], round: usize) -> f64 {
    let mut ends: Vec<f64> = done
        .iter()
        .filter(|d| matches!(&d.reply, Ok(r) if r.status == 200))
        .map(|d| d.end_s)
        .collect();
    ends.sort_by(f64::total_cmp);
    let mut rounds = Vec::new();
    let mut prev = 0.0;
    for chunk in ends.chunks_exact(round) {
        let last = chunk[round - 1];
        rounds.push(last - prev);
        prev = last;
    }
    median(&rounds)
}

fn get_num(v: &Value, path: &[&str]) -> f64 {
    let mut cur = Some(v);
    for p in path {
        cur = cur.and_then(|c| c.get(p));
    }
    cur.and_then(Value::as_f64).unwrap_or(0.0)
}

/// The `/metrics` values the per-layer table reads.
fn scrape(addr: &str, v: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let reply = http(addr, "GET", "/metrics", "")?;
    let m = parse(&reply.body).map_err(|e| format!("/metrics is not JSON: {e}"))?;
    for (name, path) in [
        ("store.persisted", ["store", "persisted"]),
        ("store.dropped", ["store", "dropped"]),
        ("store.hits", ["store", "hits"]),
        ("store.misses", ["store", "misses"]),
        ("engine.jobs_enqueued", ["jobs", "enqueued"]),
        ("engine.jobs_coalesced", ["jobs", "coalesced"]),
        ("engine.jobs_shed", ["jobs", "shed"]),
        ("engine.jobs_expired", ["jobs", "expired"]),
        ("serve.handler_mean_ms", ["latency", "mean_ms"]),
    ] {
        v.insert(name, get_num(&m, &path));
    }
    let attempts = v["store.persisted"] + v["store.dropped"];
    v.insert("store.persist_attempts", attempts);
    if attempts > 0.0 {
        v.insert("store.wasted_write_ratio", v["store.dropped"] / attempts);
    }
    Ok(())
}

/// Counts failed requests of a load run and records the client-side
/// timings; `check` judges each 200 body.
fn judge(
    out: &mut Outcome,
    done: &[Done],
    mut check: impl FnMut(&Done, &str) -> Result<(), String>,
) -> Vec<f64> {
    let mut latencies_ms = Vec::new();
    for d in done {
        out.attempted += 1;
        let verdict = match &d.reply {
            Ok(r) if r.status == 200 => check(d, &r.body),
            Ok(r) => Err(format!("status {}: {}", r.status, r.body.trim())),
            Err(e) => Err(e.clone()),
        };
        match verdict {
            Ok(()) => latencies_ms.push(d.latency_s * 1000.0),
            Err(why) => {
                out.failed += 1;
                if out.problems.len() < 10 {
                    out.problem(format!("request {}: {why}", d.n));
                }
            }
        }
    }
    latencies_ms
}

fn client_phases(v: &mut BTreeMap<&'static str, f64>, done: &[Done]) {
    let ok: Vec<&Reply> = done.iter().filter_map(|d| d.reply.as_ref().ok()).collect();
    let connect: Vec<f64> = ok.iter().map(|r| r.connect_s * 1000.0).collect();
    let ttfb: Vec<f64> = ok.iter().map(|r| r.ttfb_s * 1000.0).collect();
    v.insert("client.requests", done.len() as f64);
    v.insert("client.connect_ms", median(&connect));
    v.insert("client.ttfb_ms", median(&ttfb));
}

fn end_to_end(
    out: &mut Outcome,
    setups: &[f64],
    wall_s: f64,
    latencies_ms: &[f64],
    elapsed: f64,
    rss_kb: u64,
) {
    out.metric("setup_s", median(setups), "s");
    out.metric("wall_s", wall_s, "s");
    out.metric("req_per_s", latencies_ms.len() as f64 / elapsed, "1/s");
    out.metric("latency_p50_ms", median(latencies_ms), "ms");
    out.metric("latency_p99_ms", percentile(latencies_ms, 99.0), "ms");
    out.metric("peak_rss_mb", rss_kb as f64 / 1024.0, "MB");
    out.metric(
        "error_rate",
        wilson_upper(out.failed, out.attempted),
        "ratio",
    );
    let beyond = latencies_ms.len() - (latencies_ms.len() as f64 * 0.99).ceil() as usize;
    out.note(format!(
        "{} latency samples ({beyond} beyond p99), {} setup samples, {:.2} s of load",
        latencies_ms.len(),
        setups.len(),
        elapsed
    ));
    let pct = |p: f64| percentile(latencies_ms, p);
    out.note(format!(
        "latency ms: p90 {:.3}, p99 {:.3}, p99.9 {:.3}, max {:.3}",
        pct(90.0),
        pct(99.0),
        pct(99.9),
        pct(100.0)
    ));
    if beyond < 10 {
        out.note("fewer than 10 samples lie beyond p99: run longer for a steady tail");
    }
}

/// The server's limits (the defaults `fetchmech-serve` starts with).
fn server_limits() -> (Limits, ExpConfig) {
    let c = ServeConfig::default();
    (
        Limits {
            default_insts: c.default_insts,
            max_insts: c.max_insts,
            default_deadline_ms: c.default_deadline_ms,
            max_deadline_ms: c.max_deadline_ms,
        },
        c.exp,
    )
}

/// The measured cold load, then the store-hit check; with `spans`, the
/// traced run's in-process replays and per-layer metrics.
pub fn run(
    root: &Path,
    scratch: &Path,
    seed: u64,
    seconds: f64,
    spans: Option<&Path>,
    out: &mut Outcome,
) -> Result<(), String> {
    let bin = build_server(root)?;
    let keys = key_space(seed);
    let store = |i: usize| scratch.join(format!("cold-{i}/results.log"));
    let (server, setups) = start_servers(&bin, store)?;
    let (done, elapsed) = load(&server.addr, &keys, seconds, keys.len());
    let mut v = BTreeMap::new();
    scrape(&server.addr, &mut v)?;
    let rss_kb = vm_hwm_kb(&server.pid()).unwrap_or(0);
    server.stop()?;

    let latencies_ms = judge(out, &done, |d, body| {
        let key = &keys[d.n];
        if echoes(body, key) {
            Ok(())
        } else {
            Err(format!("body does not echo {}", key.body()))
        }
    });
    recompute_sample(out, &keys, &done, seed);
    let served: Vec<(Key, String)> = done
        .iter()
        .filter_map(|d| match &d.reply {
            Ok(r) if r.status == 200 => Some((keys[d.n], r.body.clone())),
            _ => None,
        })
        .collect();
    let hot = &served[..HOT_KEYS.min(served.len())];
    let written = store(SETUPS - 1);
    let hits = replay_hits(&bin, &written, hot, out)?;
    if spans.is_none() {
        let wall = round_seconds(&done, COLD_ROUND);
        end_to_end(out, &setups, wall, &latencies_ms, elapsed, rss_kb);
        return Ok(());
    }

    let cold = &served[..COLD_REPLAY.min(served.len())];
    // Untraced, traced, untraced: the first replay warms the allocator and
    // page cache, so the overhead compares the last two.
    let replay_store = |i: usize| scratch.join(format!("replay-{i}.log"));
    let warm = replay(out, cold, hot, &written, &replay_store(0), false);
    let traced = replay(out, cold, hot, &written, &replay_store(1), true);
    let plain = replay(out, cold, hot, &written, &replay_store(2), false);
    let rec = traced.rec.as_ref().expect("traced replay has a recorder");
    compare_counters(out, &warm.values, &traced.values);
    compare_counters(out, &plain.values, &traced.values);
    v.extend(traced.values.iter().map(|(k, x)| (*k, *x)));
    add_span_times(&mut v, rec);
    derive_sim_ratios(&mut v);
    v.insert("store.hits", hits.store_hits);
    v.insert("serve.hot_handler_mean_ms", hits.handler_mean_ms);
    client_phases(&mut v, &hits.done);
    let service_ms = traced.service_s.iter().sum::<f64>() / cold.len().max(1) as f64 * 1000.0;
    v.insert("serve.replay_service_ms", service_ms);
    v.insert(
        "engine.queue_wait_ms",
        v["serve.handler_mean_ms"] - service_ms,
    );
    let ops = (cold.len() + hot.len() * HOT_REPLAY_PASSES) as f64;
    add_overhead(&mut v, rec, ops, plain.wall_s, traced.wall_s);
    write_spans(out, rec, spans);
    out.note("engine.queue_wait_ms is derived: serve.handler_mean_ms - serve.replay_service_ms");
    out.note("client.* and serve.hot_handler_mean_ms come from the store-hit requests");
    out.per_layer(&v);
    Ok(())
}

/// Starts [`SETUPS`] servers one after another, each on the store `store`
/// returns for its index, and keeps the last one running.
fn start_servers(
    bin: &Path,
    store: impl Fn(usize) -> PathBuf,
) -> Result<(ServerProc, Vec<f64>), String> {
    let mut setups = Vec::new();
    for i in 0..SETUPS {
        let (server, s) = ServerProc::start(bin, &store(i))?;
        setups.push(s);
        if i + 1 == SETUPS {
            return Ok((server, setups));
        }
        server.stop()?;
    }
    unreachable!("SETUPS is positive")
}

/// What the store-hit requests showed.
struct Hits {
    done: Vec<Done>,
    store_hits: f64,
    handler_mean_ms: f64,
}

/// Restarts the server on the store the cold load wrote and sends the
/// `hot` keys [`HOT_PASSES`] times: every request must be a store hit (no
/// job enqueued) that returns its cold body byte for byte.
fn replay_hits(
    bin: &Path,
    store: &Path,
    hot: &[(Key, String)],
    out: &mut Outcome,
) -> Result<Hits, String> {
    if hot.is_empty() {
        return Err("no cold request succeeded".to_string());
    }
    let (server, _) = ServerProc::start(bin, store)?;
    let keys: Vec<Key> = hot.iter().map(|(k, _)| *k).collect();
    let (done, _) = load(&server.addr, &keys, f64::INFINITY, keys.len() * HOT_PASSES);
    let mut m = BTreeMap::new();
    scrape(&server.addr, &mut m)?;
    server.stop()?;
    judge(out, &done, |d, body| {
        if body == hot[d.n % hot.len()].1 {
            Ok(())
        } else {
            Err("store hit differs from the cold body of the same key".to_string())
        }
    });
    if m["engine.jobs_enqueued"] > 0.0 {
        out.problem(format!(
            "{} store-hit requests missed the store and ran a simulation",
            m["engine.jobs_enqueued"]
        ));
    }
    Ok(Hits {
        done,
        store_hits: m["store.hits"],
        handler_mean_ms: m["serve.handler_mean_ms"],
    })
}

fn write_spans(out: &mut Outcome, rec: &Recorder, path: Option<&Path>) {
    if let Some(path) = path {
        if let Err(e) = rec.write_jsonl(path) {
            out.note(format!("could not write spans: {e}"));
        }
    }
}

/// Recomputes a seeded sample of served keys in-process through `Lab::run`
/// (the block-stream fast path) and compares the rendering byte for byte
/// with the server's body (rendered from the per-instruction path).
fn recompute_sample(out: &mut Outcome, keys: &[Key], done: &[Done], seed: u64) {
    let ok: Vec<(usize, &str)> = done
        .iter()
        .filter_map(|d| match &d.reply {
            Ok(r) if r.status == 200 => Some((d.n, r.body.as_str())),
            _ => None,
        })
        .collect();
    let mut rng = Rng::new(seed ^ 0xc4ec_4eed);
    let (_, exp) = server_limits();
    let mut labs: HashMap<u64, Lab> = HashMap::new();
    for _ in 0..CHECK_SAMPLE.min(ok.len()) {
        let (n, body) = ok[rng.below(ok.len())];
        let key = &keys[n];
        let lab = labs.entry(key.insts).or_insert_with(|| {
            Lab::with_threads(
                ExpConfig {
                    trace_len: key.insts,
                    profile_len: exp.profile_len,
                },
                1,
            )
        });
        let result = lab.run(&key.model(), key.scheme, key.bench, key.layout);
        let want = sim_result_json(&key.sim_key(), &result).pretty() + "\n";
        out.attempted += 1;
        if want != body {
            out.failed += 1;
            out.problem(format!(
                "server body for {} differs from Lab::run",
                key.body()
            ));
        }
    }
}

/// Replays the traced run's inputs through the service's own layer calls.
/// First the `cold` requests as the engine job runs them: parse, store
/// lookup, profile/reorder/layout, trace, simulate on the trace, render,
/// persist (to a scratch store at `scratch_store`). Then
/// [`HOT_REPLAY_PASSES`] passes of the `hot` requests as store hits: open
/// the `written` store once, then parse and look up. Every replayed body
/// must equal the server's.
fn replay(
    out: &mut Outcome,
    cold: &[(Key, String)],
    hot: &[(Key, String)],
    written: &Path,
    scratch_store: &Path,
    traced: bool,
) -> Replay {
    let (limits, exp) = server_limits();
    let lab = Lab::with_threads(exp, 1);
    let mut rec = traced.then(Recorder::new);
    let mut v = BTreeMap::new();
    let mut service_s = Vec::new();
    let mut traces: HashSet<TraceKey> = HashSet::new();
    let check = |out: &mut Outcome, got: Option<String>, want: &str, key: &Key| {
        out.attempted += 1;
        if got.map(|b| b + "\n").as_deref() != Some(want) {
            out.failed += 1;
            out.problem(format!(
                "replayed body for {} differs from the server's",
                key.body()
            ));
        }
    };
    let scratch_store =
        Store::open(scratch_store, Arc::new(NoFault), 256).expect("open replay store");
    let start = Instant::now();
    let mut id = 0u64;
    for (key, server_body) in cold {
        id += 1;
        let t0 = Instant::now();
        let root = open(&mut rec, "request", id);
        let body = key.body();
        let req = span(&mut rec, "api::parse_simulate", || {
            parse_simulate(body.as_bytes(), &limits, &lab)
        })
        .expect("replayed request parses");
        let store_key = req.key.store_key();
        span(&mut rec, "Store::lookup", || {
            scratch_store.lookup(&store_key)
        });
        if key.layout.uses_reordered_program() {
            span(&mut rec, "Lab::profile", || lab.profile(key.bench));
            span(&mut rec, "Lab::reordered", || lab.reordered(key.bench));
        }
        let bs = req.machine.block_bytes;
        span(&mut rec, "Lab::layout", || {
            lab.layout(key.bench, key.layout, bs)
        });
        let trace_key = TraceKey {
            bench: key.bench,
            variant: key.layout,
            block_bytes: bs,
            input: InputId::TEST,
            limit: key.insts,
        };
        let trace = span(&mut rec, "Lab::trace", || lab.trace(trace_key));
        let result = span(&mut rec, "simulate(trace)", || {
            simulate(&req.machine, key.scheme, &trace)
        });
        let rendered = span(&mut rec, "api::sim_result_json", || {
            Arc::new(sim_result_json(&req.key, &result).pretty())
        });
        span(&mut rec, "Store::persist", || {
            scratch_store.persist(store_key, &rendered)
        });
        close(&mut rec, root);
        service_s.push(t0.elapsed().as_secs_f64());
        if traces.insert(trace_key) {
            *v.entry("workloads.trace_bytes").or_default() +=
                (trace.len() * std::mem::size_of::<DynInst>()) as f64;
        }
        add_sim_counts(&mut v, &result);
        check(out, Some(rendered.as_ref().clone()), server_body, key);
    }
    let store = span(&mut rec, "Store::open", || {
        Store::open(written, Arc::new(NoFault), 256)
    })
    .expect("open the written store");
    for _ in 0..HOT_REPLAY_PASSES {
        for (key, server_body) in hot {
            id += 1;
            let root = open(&mut rec, "request", id);
            let body = key.body();
            let req = span(&mut rec, "api::parse_simulate", || {
                parse_simulate(body.as_bytes(), &limits, &lab)
            })
            .expect("replayed request parses");
            let hit = span(&mut rec, "Store::lookup", || {
                store.lookup(&req.key.store_key())
            });
            close(&mut rec, root);
            check(out, hit, server_body, key);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    store.shutdown();
    scratch_store.shutdown();
    add_lab_counts(&mut v, &lab.cache_stats());
    Replay {
        wall_s,
        values: v,
        service_s,
        rec,
    }
}
