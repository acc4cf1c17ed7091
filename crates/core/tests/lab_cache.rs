//! Exactness of the [`Lab`] shared-cache counters under thread contention.
//!
//! The lab promises every expensive artifact (layout, trace, block stream,
//! simulation and EIR result) is computed *exactly once per process* no matter how many worker threads
//! request it concurrently, and that repeat requesters share the same
//! allocation. The counters in [`LabCacheStats`] make that auditable, so this
//! test drives a known request mix from many threads and asserts the exact
//! hit/miss split — any double compute or lost hit shifts a counter.

use std::sync::Arc;

use fetchmech::experiments::{ExpConfig, Lab, LabCacheStats, LayoutVariant, TraceKey};
use fetchmech::isa::DynInst;
use fetchmech::pipeline::MachineModel;
use fetchmech::workloads::InputId;
use fetchmech::{measure_eir, simulate, SchemeKind, SimResult};

const THREADS: usize = 8;
const REPEATS: usize = 4;
const BLOCK_BYTES: u64 = 64;
const LIMIT: u64 = 2_000;

fn key(bench: &'static str) -> TraceKey {
    TraceKey {
        bench,
        variant: LayoutVariant::Natural,
        block_bytes: BLOCK_BYTES,
        input: InputId::TEST,
        limit: LIMIT,
    }
}

#[test]
fn cache_counters_are_exact_under_contention() {
    let lab = Lab::with_threads(ExpConfig::quick(), 1);
    let (key_a, key_b) = (key("compress"), key("bison"));

    // Every thread hammers the same two trace keys, one block-stream key,
    // and one layout key directly, collecting the Arcs it was handed.
    let per_thread: Vec<Vec<Arc<[DynInst]>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut got = Vec::with_capacity(REPEATS * 2);
                    for _ in 0..REPEATS {
                        got.push(lab.trace(key_a));
                        got.push(lab.trace(key_b));
                        let _ = lab.layout(key_a.bench, key_a.variant, key_a.block_bytes);
                        let s = lab.stream(key_a);
                        assert_eq!(s.total_insts(), LIMIT);
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lab lookup thread panicked"))
            .collect()
    });

    // Zero-copy sharing: every thread's every repeat got the *same*
    // allocation per key, and each trace has the requested length.
    let first = &per_thread[0];
    for got in &per_thread {
        for (i, trace) in got.iter().enumerate() {
            assert_eq!(trace.len() as u64, LIMIT);
            assert!(
                Arc::ptr_eq(trace, &first[i % 2]),
                "thread returned a distinct allocation for a cached trace"
            );
        }
    }

    // Exact counter accounting for the mix above:
    // * traces: 8 threads x 4 repeats x 2 keys = 64 lookups, 2 distinct keys
    //   => exactly 2 generations, 62 hits. The stream cache never touches
    //   the trace cache — streams are generated natively.
    // * streams: 8 x 4 = 32 lookups of one key => 1 build, 31 hits.
    // * layouts: the 2 trace generations and the 1 stream build each look up
    //   their layout once, plus 8 x 4 = 32 direct lookups of the compress
    //   key => 35 lookups, 2 builds, 33 hits. Which thread wins a build race
    //   varies; the totals may not.
    // * profiles/reorderings: Natural layouts never touch them.
    // * simulations: nothing called `Lab::run`.
    let lookups = (THREADS * REPEATS) as u64;
    assert_eq!(
        lab.cache_stats(),
        LabCacheStats {
            trace_hits: lookups * 2 - 2,
            trace_generations: 2,
            stream_hits: lookups - 1,
            stream_builds: 1,
            layout_hits: lookups + 3 - 2,
            layout_builds: 2,
            profile_hits: 0,
            profile_collections: 0,
            reorder_hits: 0,
            reorder_builds: 0,
            sim_hits: 0,
            sim_runs: 0,
            eir_hits: 0,
            eir_runs: 0,
        }
    );

    // A second serial pass is pure hits.
    let again = lab.trace(key_a);
    assert!(Arc::ptr_eq(&again, &first[0]));
    let stream_again = lab.stream(key_a);
    assert_eq!(stream_again.total_insts(), LIMIT);
    let stats = lab.cache_stats();
    assert_eq!(stats.trace_generations, 2);
    assert_eq!(stats.trace_hits, lookups * 2 - 1);
    assert_eq!(stats.stream_builds, 1);
    assert_eq!(stats.stream_hits, lookups);
}

/// A small lab: memo tests simulate, and debug builds re-run every
/// simulation on the per-instruction reference.
fn small_lab(threads: usize) -> Lab {
    Lab::with_threads(
        ExpConfig {
            trace_len: LIMIT,
            profile_len: LIMIT,
        },
        threads,
    )
}

#[test]
fn repeated_cells_simulate_once_per_distinct_key() {
    let machines = [MachineModel::p14(), MachineModel::p112()];
    let schemes = [SchemeKind::Sequential, SchemeKind::CollapsingBuffer];
    let benches = ["compress", "tomcatv"];
    let mut cells = Vec::new();
    for machine in &machines {
        for scheme in schemes {
            for bench in benches {
                cells.push((machine.clone(), scheme, bench));
            }
        }
    }
    // Every cell three times, interleaved so repeats race across workers.
    let jobs: Vec<_> = (0..3).flat_map(|_| cells.iter().cloned()).collect();
    let distinct = cells.len() as u64;

    let mut outputs = Vec::new();
    for threads in [1, 4] {
        let lab = small_lab(threads);
        let results = lab.runner().run(&jobs, |(machine, scheme, bench)| {
            lab.run(machine, *scheme, bench, LayoutVariant::Natural)
        });
        let stats = lab.cache_stats();
        assert_eq!(stats.sim_runs, distinct, "{threads} thread(s)");
        assert_eq!(stats.sim_hits, jobs.len() as u64 - distinct);
        // Every call still resolves its stream first: one stream lookup per
        // call, one build per (bench, block size).
        assert_eq!(stats.stream_hits + stats.stream_builds, jobs.len() as u64);
        assert_eq!(stats.stream_builds, (machines.len() * benches.len()) as u64);
        outputs.push(results);
    }
    assert_eq!(
        outputs[0], outputs[1],
        "memoized grid diverged across threads"
    );
}

#[test]
fn memo_hits_equal_a_fresh_simulation() {
    let lab = small_lab(1);
    let machine = MachineModel::p18();
    for scheme in SchemeKind::ALL {
        let first = lab.run(&machine, scheme, "gcc", LayoutVariant::Reordered);
        let hit = lab.run(&machine, scheme, "gcc", LayoutVariant::Reordered);
        let stream = lab.test_stream("gcc", LayoutVariant::Reordered, machine.block_bytes);
        let fresh = simulate(&machine, scheme, &stream);
        assert_eq!(hit, fresh, "{scheme:?}: memo hit differs from simulate");
        assert_eq!(first, fresh);
        let eir = || lab.eir(&machine, scheme, "gcc", LayoutVariant::Reordered);
        let fresh = measure_eir(&machine, scheme, &stream);
        assert_eq!(
            [eir(), eir()],
            [fresh.clone(), fresh],
            "{scheme:?}: EIR memo"
        );
    }
    let stats = lab.cache_stats();
    let n = SchemeKind::ALL.len() as u64;
    assert_eq!((stats.sim_runs, stats.sim_hits), (n, n));
    assert_eq!((stats.eir_runs, stats.eir_hits), (n, n));
    // Every `run` and `eir` call is one stream lookup, hit or miss.
    assert_eq!(stats.stream_builds + stats.stream_hits, 5 * n);
}

#[test]
fn machines_differing_only_in_name_are_separate_keys() {
    let lab = small_lab(1);
    let p14 = MachineModel::p14();
    let renamed = MachineModel {
        name: "P14-renamed".to_owned(),
        ..p14.clone()
    };
    let a = lab.run(
        &p14,
        SchemeKind::BankedSequential,
        "li",
        LayoutVariant::Natural,
    );
    let b = lab.run(
        &renamed,
        SchemeKind::BankedSequential,
        "li",
        LayoutVariant::Natural,
    );
    assert_eq!(lab.cache_stats().sim_runs, 2);
    assert_eq!(lab.cache_stats().sim_hits, 0);
    assert_eq!(a.machine, "P14");
    assert_eq!(b.machine, "P14-renamed");
    // Same stream, same hardware: only the name differs.
    let unnamed = |r: SimResult| SimResult {
        machine: String::new(),
        ..r
    };
    assert_eq!(unnamed(a), unnamed(b));
}
