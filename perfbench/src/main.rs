//! `perfbench`: the fetchmech benchmark.
//!
//! ```text
//! perfbench --workload <paper-grid|serve-cold> --seed N --seconds S --trace 0|1
//! perfbench compare PARENT_DIR CHANGE_DIR
//! perfbench golden
//! ```
//!
//! Run it from the repository root (see `perfbench/README.md`). The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod compare;
mod grid;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Outcome;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["paper-grid", "serve-cold"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The repository root: the benchmark runs from it and needs the sources
/// of the service next to its own directory.
fn repo_root() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| format!("current_dir: {e}"))?;
    for needed in [
        "Cargo.toml",
        "src/bin/fetchmech_serve.rs",
        "perfbench/Cargo.toml",
    ] {
        if !root.join(needed).is_file() {
            return Err(format!(
                "{} has no {needed}: run perfbench from the repository root",
                root.display()
            ));
        }
    }
    Ok(root)
}

/// Scratch space for one run, under `perfbench/out/`, removed afterwards.
fn scratch_dir(root: &Path, args: &Args) -> Result<PathBuf, String> {
    let dir = root.join("perfbench/out").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let root = repo_root()?;
    let scratch = scratch_dir(&root, args)?;
    let spans_path = root
        .join("perfbench/out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let mut out = Outcome::default();
    let result = match (args.workload.as_str(), args.trace) {
        ("paper-grid", false) => {
            grid::run_e2e(&mut out, args.seconds);
            Ok(())
        }
        ("paper-grid", true) => {
            grid::run_traced(&mut out, &spans_path);
            Ok(())
        }
        (_, traced) => {
            let spans = traced.then_some(spans_path.as_path());
            serve::run(&root, &scratch, args.seed, args.seconds, spans, &mut out)
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result.map(|()| out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("grid-pass") => {
            return grid::child_main(args.get(1).is_some_and(|a| a == "--setup-only"))
        }
        Some("golden") => return grid::print_golden(),
        Some("compare") => return compare::main(&args[1..]),
        _ => {}
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!(
                "workload {} seed {} trace {}",
                args.workload,
                args.seed,
                u8::from(args.trace)
            );
            for note in &out.notes {
                println!("  {note}");
            }
            for (name, value, unit) in &out.metrics {
                println!("  {name:<34} {value:>16.6} {unit}");
            }
            for p in &out.problems {
                println!("  PROBLEM: {p}");
            }
            // An incorrect run still exits 0: the result line says so.
            println!("{}", out.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
