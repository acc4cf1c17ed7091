//! The `paper-grid` workload: every paper driver on a fresh `Lab` with two
//! worker threads, at one fixed `ExpConfig`.
//!
//! Each pass runs in a child process of this binary (`perfbench grid-pass`),
//! so setup time and peak RSS belong to the process doing the work. The
//! child prints one line per event; the parent times set-up, checks every
//! driver's rendered output against the golden digests, and checks the
//! lab's exact cache counts.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;

use fetchmech_repro::experiments::{
    Ablations, ExpConfig, ExtPredictors, Fig10, Fig11, Fig12, Fig13, Fig3, Fig9, Lab,
    LabCacheStats, LayoutVariant, Table2, Table3, Table4,
};
use fetchmech_repro::isa::{BlockStream, DynInst};
use fetchmech_repro::pipeline::MachineModel;
use fetchmech_repro::workloads::WorkloadClass;
use fetchmech_repro::{measure_eir, simulate, SchemeKind};

use crate::report::{
    add, add_lab_counts, add_overhead, add_sim_counts, add_span_times, compare_counters,
    derive_sim_ratios, Outcome, Replay,
};
use crate::spans::{close, open, span, Recorder};
use crate::stats::{fnv64, median, percentile, vm_hwm_kb, wilson_upper};

/// The grid's sizing: the paper's short configuration.
fn config() -> ExpConfig {
    ExpConfig::quick()
}

/// Worker threads of the lab (the box's two cores).
const THREADS: usize = 2;

/// Seconds of `--seconds` per whole grid pass: a run makes
/// `ceil(seconds / PASS_SECONDS)` passes (at least 3), a count fixed by the
/// run length alone, so every run attempts the same number of checked
/// operations.
const PASS_SECONDS: f64 = 2.5;

/// Extra set-up-only process starts per run, so `setup_s` is a median of
/// many samples.
const SETUP_SPAWNS: usize = 20;

type Driver = (&'static str, fn(&Lab) -> String);

/// Every paper driver, in the order the grid runs them.
const DRIVERS: [Driver; 11] = [
    ("Fig3", |lab| Fig3::run(lab).to_string()),
    ("Table2", |lab| Table2::run(lab).to_string()),
    ("Fig9", |lab| Fig9::run(lab).to_string()),
    ("Fig10", |lab| Fig10::run(lab).to_string()),
    ("Fig11", |lab| Fig11::run(lab).to_string()),
    ("Fig12", |lab| Fig12::run(lab).to_string()),
    ("Fig13", |lab| Fig13::run(lab).to_string()),
    ("Table3", |lab| Table3::run(lab).to_string()),
    ("Table4", |lab| Table4::run(lab).to_string()),
    ("ExtPredictors", |lab| ExtPredictors::run(lab).to_string()),
    ("Ablations", |lab| Ablations::run(lab).to_string()),
];

/// Golden digests of every driver's rendered output plus the exact lab
/// cache counts, for [`config`].
const GOLDEN: &str = include_str!("../golden/paper-grid.txt");

fn cache_fields(s: &LabCacheStats) -> [(&'static str, u64); 10] {
    [
        ("trace_hits", s.trace_hits),
        ("trace_generations", s.trace_generations),
        ("stream_hits", s.stream_hits),
        ("stream_builds", s.stream_builds),
        ("layout_hits", s.layout_hits),
        ("layout_builds", s.layout_builds),
        ("profile_hits", s.profile_hits),
        ("profile_collections", s.profile_collections),
        ("reorder_hits", s.reorder_hits),
        ("reorder_builds", s.reorder_builds),
    ]
}

/// `perfbench grid-pass [--setup-only]`: one grid pass in this process.
///
/// Prints `ready` once the lab exists, then `driver <name> <secs> <digest>`
/// per driver, `cache <field> <n>` per cache counter, `wall <secs>` and
/// `rss_kb <VmHWM>`.
pub fn child_main(setup_only: bool) -> ExitCode {
    let lab = Lab::with_threads(config(), THREADS);
    let mut out = std::io::stdout().lock();
    let emit = |out: &mut std::io::StdoutLock<'_>, line: String| {
        writeln!(out, "{line}").and_then(|()| out.flush())
    };
    if emit(&mut out, "ready".to_string()).is_err() || setup_only {
        return ExitCode::SUCCESS;
    }
    let start = Instant::now();
    for (name, run) in DRIVERS {
        let t0 = Instant::now();
        let text = run(&lab);
        let secs = t0.elapsed().as_secs_f64();
        let _ = emit(
            &mut out,
            format!("driver {name} {secs} {:016x}", fnv64(text.as_bytes())),
        );
    }
    let wall = start.elapsed().as_secs_f64();
    for (field, n) in cache_fields(&lab.cache_stats()) {
        let _ = emit(&mut out, format!("cache {field} {n}"));
    }
    let _ = emit(&mut out, format!("wall {wall}"));
    let _ = emit(
        &mut out,
        format!("rss_kb {}", vm_hwm_kb("self").unwrap_or(0)),
    );
    ExitCode::SUCCESS
}

/// What one child pass reported.
#[derive(Debug, Default)]
struct Pass {
    setup_s: f64,
    drivers: Vec<(String, f64, String)>,
    cache: Vec<(String, u64)>,
    wall_s: f64,
    rss_kb: u64,
}

fn spawn_pass(setup_only: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("grid-pass");
    if setup_only {
        cmd.arg("--setup-only");
    }
    let t0 = Instant::now();
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn grid pass: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut pass = Pass::default();
    let mut ready = false;
    let mut bad = None;
    // Read to the end before judging any line, so the child is always
    // reaped below.
    for line in BufReader::new(stdout).lines() {
        let Ok(line) = line else {
            bad = Some("unreadable grid-pass output".to_string());
            break;
        };
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["ready"] => {
                pass.setup_s = t0.elapsed().as_secs_f64();
                ready = true;
            }
            ["driver", name, secs, digest] => pass.drivers.push((
                (*name).to_string(),
                secs.parse().unwrap_or(f64::NAN),
                (*digest).to_string(),
            )),
            ["cache", field, n] => pass
                .cache
                .push(((*field).to_string(), n.parse().unwrap_or(u64::MAX))),
            ["wall", secs] => pass.wall_s = secs.parse().unwrap_or(f64::NAN),
            ["rss_kb", kb] => pass.rss_kb = kb.parse().unwrap_or(0),
            _ => bad = Some(format!("unexpected grid-pass line {line:?}")),
        }
    }
    let status = child.wait().map_err(|e| format!("wait grid pass: {e}"))?;
    if let Some(why) = bad {
        return Err(why);
    }
    if !status.success() || !ready {
        return Err(format!("grid pass exited with {status}"));
    }
    Ok(pass)
}

/// The golden file as (key, value) pairs: `driver <name> <digest>` and
/// `cache <field> <n>` lines.
fn golden() -> BTreeMap<String, String> {
    GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (kind, key, value) = (it.next()?, it.next()?, it.next()?);
            Some((format!("{kind} {key}"), value.to_string()))
        })
        .collect()
}

/// `perfbench golden`: prints a fresh golden file from one pass.
pub fn print_golden() -> ExitCode {
    match spawn_pass(false) {
        Ok(pass) => {
            let cfg = config();
            println!(
                "# paper-grid golden output: ExpConfig {{ trace_len: {}, profile_len: {} }}, {THREADS} worker threads",
                cfg.trace_len, cfg.profile_len
            );
            println!(
                "# FNV-1a digest of each driver's rendered output, then the exact LabCacheStats."
            );
            for (name, _, digest) in &pass.drivers {
                println!("driver {name} {digest}");
            }
            for (field, n) in &pass.cache {
                println!("cache {field} {n}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The untraced end-to-end run.
pub fn run_e2e(out: &mut Outcome, seconds: f64) {
    let passes = ((seconds / PASS_SECONDS).ceil() as usize).max(3);
    let golden = golden();
    let mut setups = Vec::new();
    for _ in 0..SETUP_SPAWNS {
        match spawn_pass(true) {
            Ok(p) => setups.push(p.setup_s),
            Err(e) => out.problem(e),
        }
    }
    let (mut walls, mut latencies_ms, mut rss_mb) = (Vec::new(), Vec::new(), Vec::new());
    // Each pass's p99; with 11 drivers a pass's p99 is its slowest driver.
    let mut pass_p99s = Vec::new();
    let mut ok_drivers = 0u64;
    for pass_no in 0..passes {
        // Every driver plus the cache-count check is one checked operation.
        out.attempted += DRIVERS.len() as u64 + 1;
        let pass = match spawn_pass(false) {
            Ok(p) => p,
            Err(e) => {
                out.failed += DRIVERS.len() as u64 + 1;
                out.problem(e);
                continue;
            }
        };
        setups.push(pass.setup_s);
        walls.push(pass.wall_s);
        rss_mb.push(pass.rss_kb as f64 / 1024.0);
        let pass_start = latencies_ms.len();
        for (name, _) in DRIVERS {
            let got = pass.drivers.iter().find(|(n, _, _)| n == name);
            let want = golden.get(&format!("driver {name}"));
            match got {
                Some((_, secs, digest)) if Some(digest) == want => {
                    ok_drivers += 1;
                    latencies_ms.push(secs * 1000.0);
                }
                _ => {
                    out.failed += 1;
                    out.problem(format!(
                        "pass {pass_no}: {name} output digest {:?} != golden {want:?}",
                        got.map(|g| &g.2)
                    ));
                }
            }
        }
        let cache_ok = !pass.cache.is_empty()
            && pass
                .cache
                .iter()
                .all(|(f, n)| golden.get(&format!("cache {f}")) == Some(&n.to_string()));
        if !cache_ok {
            out.failed += 1;
            out.problem(format!(
                "pass {pass_no}: lab cache counts {:?} differ from golden",
                pass.cache
            ));
        }
        if latencies_ms.len() > pass_start {
            pass_p99s.push(percentile(&latencies_ms[pass_start..], 99.0));
        }
    }
    let total_wall: f64 = walls.iter().sum();
    out.metric("setup_s", median(&setups), "s");
    out.metric("wall_s", median(&walls), "s");
    out.metric(
        "req_per_s",
        if total_wall > 0.0 {
            ok_drivers as f64 / total_wall
        } else {
            0.0
        },
        "1/s",
    );
    out.metric("latency_p50_ms", median(&latencies_ms), "ms");
    out.metric("latency_p99_ms", median(&pass_p99s), "ms");
    out.metric("peak_rss_mb", median(&rss_mb), "MB");
    out.metric(
        "error_rate",
        wilson_upper(out.failed, out.attempted),
        "ratio",
    );
    out.note(format!(
        "paper-grid: {passes} passes x {} drivers, {} setup samples, {} latency samples; \
         latency_p99_ms is the median over passes of each pass's p99 (its slowest driver)",
        DRIVERS.len(),
        setups.len(),
        latencies_ms.len()
    ));
}

/// Replays the grid's inputs serially through the layers' public calls:
/// every suite benchmark × paper machine × layout × scheme cell is simulated
/// and EIR-measured on its block stream, and the per-instruction traces
/// Tables 2 and 3 read are generated. With `traced`, every call is a span.
fn replay(traced: bool) -> Replay {
    let lab = Lab::with_threads(config(), 1);
    let mut rec = traced.then(Recorder::new);
    let mut v = BTreeMap::new();
    let machines = MachineModel::paper_models();
    let benches: Vec<&'static str> = [WorkloadClass::Int, WorkloadClass::Fp]
        .into_iter()
        .flat_map(|c| lab.class_names(c))
        .collect();
    let start = Instant::now();
    let mut id = 0u64;
    for bench in benches {
        id += 1;
        let root = open(&mut rec, "bench", id);
        span(&mut rec, "Lab::profile", || lab.profile(bench));
        span(&mut rec, "Lab::reordered", || lab.reordered(bench));
        for machine in &machines {
            for variant in LayoutVariant::ALL {
                let bs = machine.block_bytes;
                span(&mut rec, "Lab::layout", || lab.layout(bench, variant, bs));
                let stream: Arc<BlockStream> = span(&mut rec, "Lab::stream", || {
                    lab.test_stream(bench, variant, bs)
                });
                add(
                    &mut v,
                    "workloads.stream_bytes",
                    stream.stats().stream_bytes,
                );
                for scheme in SchemeKind::ALL {
                    id += 1;
                    let cell = open(&mut rec, "cell", id);
                    let r = span(&mut rec, "simulate(stream)", || {
                        simulate(machine, scheme, &stream)
                    });
                    let e = span(&mut rec, "measure_eir", || {
                        measure_eir(machine, scheme, &stream)
                    });
                    close(&mut rec, cell);
                    add_sim_counts(&mut v, &r);
                    std::hint::black_box(e);
                }
            }
        }
        // Table 2 reads natural traces at every paper block size; Table 3
        // reads natural and reordered traces at 16 B.
        let mut trace_keys: Vec<(LayoutVariant, u64)> = machines
            .iter()
            .map(|m| (LayoutVariant::Natural, m.block_bytes))
            .collect();
        trace_keys.push((LayoutVariant::Reordered, 16));
        for (variant, bs) in trace_keys {
            span(&mut rec, "Lab::layout", || lab.layout(bench, variant, bs));
            let t = span(&mut rec, "Lab::trace", || {
                lab.test_trace(bench, variant, bs)
            });
            add(
                &mut v,
                "workloads.trace_bytes",
                (t.len() * std::mem::size_of::<DynInst>()) as u64,
            );
        }
        close(&mut rec, root);
    }
    let wall_s = start.elapsed().as_secs_f64();
    add_lab_counts(&mut v, &lab.cache_stats());
    Replay {
        wall_s,
        values: v,
        service_s: Vec::new(),
        rec,
    }
}

/// The traced run: the grid's inputs replayed untraced, traced and untraced
/// again, each on a fresh lab. The first replay warms the allocator and
/// page cache, so the overhead compares the last two.
pub fn run_traced(out: &mut Outcome, spans_path: &std::path::Path) {
    let warm = replay(false);
    let traced = replay(true);
    let plain = replay(false);
    let rec = traced.rec.as_ref().expect("traced replay has a recorder");
    compare_counters(out, &warm.values, &traced.values);
    compare_counters(out, &plain.values, &traced.values);
    let mut v = traced.values.clone();
    add_span_times(&mut v, rec);
    v.insert(
        "pipeline.core_s",
        v.get("sim.simulate_s").copied().unwrap_or(0.0)
            - v.get("unit.eir_s").copied().unwrap_or(0.0),
    );
    derive_sim_ratios(&mut v);
    let cells = v.get("sim.cells").copied().unwrap_or(0.0);
    out.attempted += cells as u64;
    add_overhead(&mut v, rec, cells, plain.wall_s, traced.wall_s);
    if let Err(e) = rec.write_jsonl(spans_path) {
        out.note(format!("could not write spans: {e}"));
    }
    out.note("pipeline.core_s is derived: sim.simulate_s - unit.eir_s over the same cells");
    out.per_layer(&v);
}
