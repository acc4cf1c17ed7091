//! Performance harness for the simulation hot path: times the same
//! (machine × scheme × benchmark) grid through the per-instruction
//! reference path and the block-stream fast path, phase by phase
//! (trace generation / stream build / simulate / EIR), checks the two are
//! bit-identical, re-runs the block grid on the parallel worker pool, and
//! writes everything — timings, block-stream compression stats, cache
//! counters, and deterministic work totals — to `BENCH_PR8.json` for CI to
//! archive. Each path runs three times, alternating with the other, each
//! time on a fresh `Lab`; the reported phase times are the medians. Within a
//! pass the simulate and EIR phases run the grid `PHASE_REPS` times, so a
//! block pass is long enough to time; the results and work counters come
//! from the first repetition. The per-instruction path's generation phase
//! is `Lab::trace`: a block stream expanded into a per-instruction trace.
//!
//! ```text
//! cargo run --release --example runner_bench
//! ```
//!
//! With `FETCHMECH_PERF_GATE=<ratio>` set, the run fails unless the
//! single-threaded block path beats the per-instruction path end-to-end by
//! at least `<ratio>`×, in the median of the three paired passes. The gate
//! is only meaningful in release builds: in debug builds every block-stream
//! simulation re-runs the per-instruction oracle for the differential
//! check, so the gate is reported but not enforced there.

use std::time::Instant;

use fetchmech::experiments::{ExpConfig, Lab, LayoutVariant};
use fetchmech::json::Value;
use fetchmech::pipeline::MachineModel;
use fetchmech::workloads::WorkloadClass;
use fetchmech::{
    measure_eir, measure_eir_reference, simulate, simulate_reference, EirResult, SchemeKind,
    SimResult,
};

/// Passes of each path the perf gate takes the median over.
const REPS: usize = 3;

/// Repetitions of the simulate and EIR phases within one pass. One block
/// pass over the grid simulates in about 0.1 s, where a single scheduler
/// stall moves the reading by a third; eight repetitions take it past half a
/// second on 2 vCPUs.
const PHASE_REPS: usize = 8;

type Job = (MachineModel, SchemeKind, &'static str);

fn grid(lab: &Lab) -> Vec<Job> {
    let mut jobs = Vec::new();
    for machine in [MachineModel::p14(), MachineModel::p112()] {
        for scheme in SchemeKind::ALL {
            for bench in lab.class_names(WorkloadClass::Int) {
                jobs.push((machine.clone(), scheme, bench));
            }
        }
    }
    jobs
}

/// The distinct (benchmark, block-size) trace keys behind the grid — the
/// units of generation work, as opposed to the simulation cells.
fn trace_keys(jobs: &[Job]) -> Vec<(&'static str, u64)> {
    let mut keys: Vec<(&'static str, u64)> = Vec::new();
    for (machine, _, bench) in jobs {
        let key = (*bench, machine.block_bytes);
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    keys
}

/// Runs `f` on every job `PHASE_REPS` times, returning the first
/// repetition's results.
fn repeated<T>(jobs: &[Job], mut f: impl FnMut(&Job) -> T) -> Vec<T> {
    let results = jobs.iter().map(&mut f).collect();
    for _ in 1..PHASE_REPS {
        for job in jobs {
            std::hint::black_box(f(job));
        }
    }
    results
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn secs(v: f64) -> Value {
    Value::Num((v * 10_000.0).round() / 10_000.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::INFINITY
    }
}

/// One timed pass of a path over the grid: generation, simulation and EIR
/// phases in seconds, with the results they produced.
struct PathRun {
    lab: Lab,
    gen_secs: f64,
    sim_secs: f64,
    eir_secs: f64,
    results: Vec<SimResult>,
    eir: Vec<EirResult>,
}

impl PathRun {
    fn total_secs(&self) -> f64 {
        self.gen_secs + self.sim_secs + self.eir_secs
    }
}

/// The reference path: per-instruction traces, single-threaded. Each pass
/// gets a fresh lab so it pays its own generation cost and no memo from an
/// earlier pass can serve it; splitting generation from simulation keeps the
/// phase timings honest (the simulate phases run against warm caches).
fn insts_path(cfg: ExpConfig, jobs: &[Job], keys: &[(&'static str, u64)]) -> PathRun {
    let lab = Lab::with_threads(cfg, 1);
    let (_, gen_secs) = timed(|| {
        for &(bench, block_bytes) in keys {
            lab.test_trace(bench, LayoutVariant::Natural, block_bytes);
        }
    });
    let (results, sim_secs) = timed(|| {
        repeated(jobs, |(machine, scheme, bench)| {
            let trace = lab.test_trace(bench, LayoutVariant::Natural, machine.block_bytes);
            simulate_reference(machine, *scheme, &trace)
        })
    });
    let (eir, eir_secs) = timed(|| {
        repeated(jobs, |(machine, scheme, bench)| {
            let trace = lab.test_trace(bench, LayoutVariant::Natural, machine.block_bytes);
            measure_eir_reference(machine, *scheme, &trace)
        })
    });
    PathRun {
        lab,
        gen_secs,
        sim_secs,
        eir_secs,
        results,
        eir,
    }
}

/// The fast path: block streams, single-threaded, on a fresh lab. It calls
/// `simulate`/`measure_eir` on the lab's streams directly, since `Lab::run`
/// would answer every repetition after the first from its memo.
fn blocks_path(cfg: ExpConfig, jobs: &[Job], keys: &[(&'static str, u64)]) -> PathRun {
    let lab = Lab::with_threads(cfg, 1);
    let (_, gen_secs) = timed(|| {
        for &(bench, block_bytes) in keys {
            lab.test_stream(bench, LayoutVariant::Natural, block_bytes);
        }
    });
    let (results, sim_secs) = timed(|| {
        repeated(jobs, |(machine, scheme, bench)| {
            let stream = lab.test_stream(bench, LayoutVariant::Natural, machine.block_bytes);
            simulate(machine, *scheme, stream)
        })
    });
    let (eir, eir_secs) = timed(|| {
        repeated(jobs, |(machine, scheme, bench)| {
            let stream = lab.test_stream(bench, LayoutVariant::Natural, machine.block_bytes);
            measure_eir(machine, *scheme, stream)
        })
    });
    PathRun {
        lab,
        gen_secs,
        sim_secs,
        eir_secs,
        results,
        eir,
    }
}

/// The median of an odd number of samples.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let cfg = ExpConfig {
        trace_len: 20_000,
        profile_len: 8_000,
    };
    let jobs = grid(&Lab::with_threads(cfg, 1));
    let keys = trace_keys(&jobs);

    // One pass of each path, alternating, REPS times: a single pass read
    // anywhere from 2.6x to 4.7x on one build, so the gate takes the median.
    let mut insts_runs = Vec::with_capacity(REPS);
    let mut blocks_runs = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        insts_runs.push(insts_path(cfg, &jobs, &keys));
        blocks_runs.push(blocks_path(cfg, &jobs, &keys));
    }
    let blocks = &blocks_runs[0];
    let (blocks_results, blocks_eir) = (&blocks.results, &blocks.eir);
    for run in insts_runs.iter().chain(&blocks_runs) {
        assert_eq!(
            &run.results, blocks_results,
            "per-instruction and block-stream simulations must be bit-identical"
        );
        assert_eq!(
            &run.eir, blocks_eir,
            "per-instruction and block-stream EIR must be bit-identical"
        );
    }

    // --- Parallel pool over the block path. -------------------------------
    let parallel_lab = Lab::new(cfg);
    let threads = parallel_lab.runner().threads();
    let (parallel_results, parallel_secs) = timed(|| {
        parallel_lab
            .runner()
            .run(&jobs, |(machine, scheme, bench)| {
                parallel_lab.run(machine, *scheme, bench, LayoutVariant::Natural)
            })
    });
    assert_eq!(
        blocks_results, &parallel_results,
        "serial and parallel runs must be bit-identical"
    );

    // --- Block-stream representation stats over the grid's streams. -------
    let blocks_lab = &blocks.lab;
    let (mut s_insts, mut s_records, mut s_templates) = (0u64, 0u64, 0u64);
    let (mut s_stream_bytes, mut s_inst_bytes) = (0u64, 0u64);
    for &(bench, block_bytes) in &keys {
        let stats = blocks_lab
            .test_stream(bench, LayoutVariant::Natural, block_bytes)
            .stats();
        s_insts += stats.insts;
        s_records += stats.records;
        s_templates += stats.templates;
        s_stream_bytes += stats.stream_bytes;
        s_inst_bytes += stats.inst_bytes;
    }
    let mean_run_len = ratio(s_insts as f64, s_records as f64);
    let compression = ratio(s_inst_bytes as f64, s_stream_bytes as f64);

    // --- Deterministic work totals: must be identical run to run. ---------
    let total_cycles: u64 = blocks_results.iter().map(|r| r.cycles).sum();
    let total_retired: u64 = blocks_results.iter().map(|r| r.retired).sum();
    let total_delivered: u64 = blocks_results.iter().map(|r| r.delivered).sum();
    let total_eir_cycles: u64 = blocks_eir.iter().map(|r| r.cycles).sum();

    // --- Timings: medians over the passes. -------------------------------
    let phase = |runs: &[PathRun], f: fn(&PathRun) -> f64| median(runs.iter().map(f).collect());
    let ratios = |f: fn(&PathRun) -> f64| -> Vec<f64> {
        insts_runs
            .iter()
            .zip(&blocks_runs)
            .map(|(i, b)| ratio(f(i), f(b)))
            .collect()
    };
    let trace_gen_secs = phase(&insts_runs, |r| r.gen_secs);
    let sim_insts_secs = phase(&insts_runs, |r| r.sim_secs);
    let eir_insts_secs = phase(&insts_runs, |r| r.eir_secs);
    let stream_build_secs = phase(&blocks_runs, |r| r.gen_secs);
    let sim_blocks_secs = phase(&blocks_runs, |r| r.sim_secs);
    let eir_blocks_secs = phase(&blocks_runs, |r| r.eir_secs);
    let insts_path_secs = phase(&insts_runs, PathRun::total_secs);
    let blocks_path_secs = phase(&blocks_runs, PathRun::total_secs);
    let speedups = ratios(PathRun::total_secs);
    let block_speedup = median(speedups.clone());
    let sim_speedup = median(ratios(|r| r.sim_secs));
    let gen_speedup = median(ratios(|r| r.gen_secs));
    // The parallel pool re-runs build + simulate (not EIR) once on a fresh
    // lab, so compare it against exactly those serial phases, once.
    let parallel_speedup = ratio(
        stream_build_secs + sim_blocks_secs / PHASE_REPS as f64,
        parallel_secs,
    );

    let stats = parallel_lab.cache_stats();
    let report = Value::object([
        ("grid_jobs", Value::Uint(jobs.len() as u64)),
        ("trace_keys", Value::Uint(keys.len() as u64)),
        ("trace_len", Value::Uint(cfg.trace_len)),
        ("trace_gen_secs", secs(trace_gen_secs)),
        ("sim_insts_secs", secs(sim_insts_secs)),
        ("eir_insts_secs", secs(eir_insts_secs)),
        ("insts_path_secs", secs(insts_path_secs)),
        ("stream_build_secs", secs(stream_build_secs)),
        ("sim_blocks_secs", secs(sim_blocks_secs)),
        ("eir_blocks_secs", secs(eir_blocks_secs)),
        ("blocks_path_secs", secs(blocks_path_secs)),
        ("block_speedup", secs(block_speedup)),
        ("sim_speedup", secs(sim_speedup)),
        ("gen_speedup", secs(gen_speedup)),
        ("threads", Value::Uint(threads as u64)),
        ("parallel_secs", secs(parallel_secs)),
        ("parallel_speedup", secs(parallel_speedup)),
        ("stream_insts", Value::Uint(s_insts)),
        ("stream_records", Value::Uint(s_records)),
        ("stream_templates", Value::Uint(s_templates)),
        ("stream_bytes", Value::Uint(s_stream_bytes)),
        ("stream_mean_run_len", secs(mean_run_len)),
        ("stream_compression", secs(compression)),
        ("total_cycles", Value::Uint(total_cycles)),
        ("total_retired", Value::Uint(total_retired)),
        ("total_delivered", Value::Uint(total_delivered)),
        ("total_eir_cycles", Value::Uint(total_eir_cycles)),
        ("stream_builds", Value::Uint(stats.stream_builds)),
        ("stream_hits", Value::Uint(stats.stream_hits)),
        ("trace_generations", Value::Uint(stats.trace_generations)),
        ("trace_hits", Value::Uint(stats.trace_hits)),
    ]);
    let json = format!("{}\n", report.pretty());
    std::fs::write("BENCH_PR8.json", &json).expect("write BENCH_PR8.json");
    println!("{json}");
    eprintln!(
        "runner_bench: {} jobs × {} insts; insts path {insts_path_secs:.2}s \
         (gen {trace_gen_secs:.2} + sim {sim_insts_secs:.2} + eir {eir_insts_secs:.2}), \
         block path {blocks_path_secs:.2}s \
         (build {stream_build_secs:.2} + sim {sim_blocks_secs:.2} + eir {eir_blocks_secs:.2}) \
         => {block_speedup:.2}x (median of {speedups:.2?}); parallel {parallel_secs:.2}s on {threads} threads \
         ({parallel_speedup:.2}x); compression {compression:.1}x, \
         mean run {mean_run_len:.1}",
        jobs.len(),
        cfg.trace_len,
    );

    if let Ok(gate) = std::env::var("FETCHMECH_PERF_GATE") {
        let floor: f64 = gate
            .parse()
            .unwrap_or_else(|_| panic!("FETCHMECH_PERF_GATE must be a number, got {gate:?}"));
        if cfg!(debug_assertions) {
            eprintln!(
                "runner_bench: FETCHMECH_PERF_GATE={floor} ignored in debug builds \
                 (the block path re-runs the differential oracle there)"
            );
        } else {
            assert!(
                block_speedup >= floor,
                "perf gate: block-stream path is {block_speedup:.2}x vs the \
                 per-instruction path, below the required {floor}x floor"
            );
            eprintln!("runner_bench: perf gate passed ({block_speedup:.2}x >= {floor}x)");
        }
    }
}
