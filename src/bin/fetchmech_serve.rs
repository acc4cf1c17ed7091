//! `fetchmech-serve`: the concurrent experiment service.
//!
//! ```text
//! fetchmech-serve [OPTIONS]
//!
//!   --addr HOST:PORT    bind address (default 127.0.0.1:8321; port 0 picks
//!                       an ephemeral port, reported on stdout)
//!   --threads N         worker-pool size (default: FETCHMECH_THREADS or
//!                       available parallelism)
//!   --queue N           bounded job-queue capacity (default 128)
//!   --deadline-ms N     default per-request deadline (default 30000)
//!   --insts N           default trace length per request (default 20000)
//!   --max-insts N       largest accepted trace length (default 500000)
//!   --store PATH        persist results to this append-only log; hits are
//!                       served from it across restarts
//!   --quick             size the lab for CI (short profile/reorder traces)
//!   --help              print this help
//! ```
//!
//! Endpoints: `POST /v1/simulate`, `POST /v1/sweep`, `POST /v1/programs`
//! (upload a Bril/WAT program, registered under a content-hash id usable
//! as a bench name), `GET /healthz`, `GET /metrics`. The process runs
//! until SIGINT/SIGTERM, then drains in-flight work before exiting.
//!
//! Deterministic fault injection (chaos testing) is driven by environment:
//! `FETCHMECH_FAULTS=store_write=0.2,store_short_write=0.3,store_sync=0.1,sim_panic=0.05`
//! enables the listed fault classes and `FETCHMECH_FAULT_SEED=N` makes the
//! schedule replayable. See `fetchmech_repro::store::fault`.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use fetchmech::experiments::ExpConfig;
use fetchmech_repro::serve::{ServeConfig, Server};

/// Set by the signal handler; polled by the main loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs `on_signal` for SIGINT and SIGTERM via the C `signal` shim (the
/// only process-wide hook available without a libc crate).
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SAFETY: `on_signal` only touches an AtomicBool, which is async-signal
    // safe; the handler pointer outlives the process.
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

fn usage() -> &'static str {
    "usage: fetchmech-serve [--addr HOST:PORT] [--threads N] [--queue N] \
     [--deadline-ms N] [--insts N] [--max-insts N] [--store PATH] [--quick]"
}

fn parse_args(args: &[String]) -> Result<Option<ServeConfig>, String> {
    let mut config = ServeConfig {
        addr: "127.0.0.1:8321".to_string(),
        ..ServeConfig::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                config.addr = it.next().ok_or("--addr needs HOST:PORT")?.clone();
            }
            "--threads" => {
                let n = it.next().ok_or("--threads needs a count")?;
                let n: usize = n.parse().map_err(|_| format!("bad --threads value {n}"))?;
                config.threads = Some(n);
            }
            "--queue" => {
                let n = it.next().ok_or("--queue needs a capacity")?;
                config.queue_capacity = n.parse().map_err(|_| format!("bad --queue value {n}"))?;
            }
            "--deadline-ms" => {
                let n = it.next().ok_or("--deadline-ms needs a count")?;
                config.default_deadline_ms = n
                    .parse()
                    .map_err(|_| format!("bad --deadline-ms value {n}"))?;
            }
            "--insts" => {
                let n = it.next().ok_or("--insts needs a count")?;
                config.default_insts = n.parse().map_err(|_| format!("bad --insts value {n}"))?;
            }
            "--max-insts" => {
                let n = it.next().ok_or("--max-insts needs a count")?;
                config.max_insts = n
                    .parse()
                    .map_err(|_| format!("bad --max-insts value {n}"))?;
            }
            "--store" => {
                let path = it.next().ok_or("--store needs a PATH")?;
                config.store_path = Some(path.into());
            }
            "--quick" => config.exp = ExpConfig::quick(),
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(None);
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Some(config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = match parse_args(&args) {
        Ok(Some(config)) => config,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fetchmech-serve: {e}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    config.fault = fetchmech_repro::store::FaultPlan::from_env();
    if let Some(plan) = &config.fault {
        eprintln!("fetchmech-serve: deterministic fault injection ACTIVE (seed {:#x}); not for production", plan.seed);
    }

    // Before the server binds: once the banner is out (and `/healthz`
    // answers), a SIGTERM must drain, never kill.
    install_signal_handlers();
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("fetchmech-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The smoke harness greps this exact line to learn the ephemeral port.
    println!("fetchmech-serve listening on http://{}", server.addr());

    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }

    println!("fetchmech-serve: shutting down, draining in-flight work");
    server.shutdown();
    println!("fetchmech-serve: drained, bye");
    ExitCode::SUCCESS
}
