//! Serial/parallel equivalence of the experiment runner: the same grid run
//! on one worker and on several must produce field-for-field identical
//! results, and the shared workload cache must build each block stream
//! exactly once per process regardless of thread count.

use fetchmech::experiments::{ExpConfig, Fig3, Lab, LayoutVariant};
use fetchmech::pipeline::MachineModel;
use fetchmech::{SchemeKind, SimResult};

fn small_cfg() -> ExpConfig {
    ExpConfig {
        trace_len: 8_000,
        profile_len: 4_000,
    }
}

/// A raw (machine × scheme × benchmark) grid of full simulations, compared
/// as whole `SimResult`s — every counter, not just the headline IPC.
#[test]
fn raw_grid_results_are_identical_serial_and_parallel() {
    let machines = [MachineModel::p14(), MachineModel::p112()];
    let benches = ["compress", "eqntott", "tomcatv"];
    let mut jobs = Vec::new();
    for machine in &machines {
        for scheme in SchemeKind::ALL {
            for bench in benches {
                jobs.push((machine.clone(), scheme, bench));
            }
        }
    }

    let run_all = |threads: usize| -> Vec<SimResult> {
        let lab = Lab::with_threads(small_cfg(), threads);
        lab.runner().run(&jobs, |(machine, scheme, bench)| {
            lab.run(machine, *scheme, bench, LayoutVariant::Natural)
        })
    };

    let serial = run_all(1);
    let parallel = run_all(4);
    assert_eq!(serial.len(), jobs.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            a, b,
            "job {i} ({:?}) diverged across thread counts",
            jobs[i]
        );
    }
}

/// A full experiment driver end to end: Figure 3 on one worker versus four.
#[test]
fn fig3_driver_is_identical_serial_and_parallel() {
    let serial = Fig3::run(&Lab::with_threads(small_cfg(), 1));
    let parallel = Fig3::run(&Lab::with_threads(small_cfg(), 4));
    assert_eq!(serial, parallel);
}

/// Re-running a driver on the same lab builds no new block streams (and, in
/// debug builds, regenerates no oracle traces) and re-simulates no cell:
/// every run after the first is served from the shared caches.
#[test]
fn second_driver_run_generates_no_new_traces() {
    let lab = Lab::with_threads(small_cfg(), 2);
    let first = Fig3::run(&lab);
    let after_first = lab.cache_stats();
    assert!(after_first.stream_builds > 0);

    let second = Fig3::run(&lab);
    let after_second = lab.cache_stats();
    assert_eq!(first, second, "driver must be deterministic on one lab");
    assert_eq!(
        after_second.stream_builds, after_first.stream_builds,
        "second run must be all stream-cache hits"
    );
    assert!(after_second.stream_hits > after_first.stream_hits);
    assert!(after_first.sim_runs > 0);
    assert_eq!(
        after_second.sim_runs, after_first.sim_runs,
        "second run must re-simulate no cell"
    );
    assert_eq!(
        after_second.trace_generations, after_first.trace_generations,
        "second run must regenerate no per-instruction traces"
    );
    assert_eq!(
        after_second.layout_builds, after_first.layout_builds,
        "layouts must also be reused"
    );
}
