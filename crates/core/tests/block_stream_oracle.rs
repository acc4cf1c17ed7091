//! The block-stream differential oracle at grid scale.
//!
//! The fast path ([`simulate`]/[`measure_eir`] over an `Arc<BlockStream>`)
//! must be *bit-identical* to the per-instruction reference
//! ([`simulate_reference`]/[`measure_eir_reference`]) on every cell the
//! experiment drivers run. In debug builds the simulator already
//! self-checks each block-stream run against the sanitized oracle; this test
//! additionally pins the equivalence in release builds (where the internal
//! check compiles out and the perf gate runs) by comparing whole
//! `SimResult`s and `EirResult`s across the full fifteen-benchmark suite on
//! all five schemes.
//!
//! The streams are generated *natively* (`Workload::block_stream`, the
//! production path the [`Lab`](fetchmech::experiments::Lab) cache uses), and
//! the reference side runs their materialized instructions. That the
//! generator emits the right instructions in the first place is checked
//! against a per-instruction executor by the workloads crate's unit tests,
//! on the same benchmarks and trace length.

use std::sync::Arc;

use fetchmech::isa::{BlockStream, Layout, LayoutOptions};
use fetchmech::pipeline::MachineModel;
use fetchmech::workloads::{suite, InputId, Workload};
use fetchmech::{measure_eir, measure_eir_reference, simulate, simulate_reference, SchemeKind};

const LEN: u64 = 2_000;

fn check_bench(machine: &MachineModel, w: &Workload) {
    let layout = Layout::natural(&w.program, LayoutOptions::new(machine.block_bytes))
        .unwrap_or_else(|e| panic!("{}: layout failed: {e:?}", w.spec.name));
    let stream = Arc::new(w.block_stream(&layout, InputId::TEST, LEN));
    assert_eq!(
        stream.total_insts(),
        LEN,
        "{}: stream length mismatch",
        w.spec.name
    );
    let trace = stream.materialize();
    let from_trace = BlockStream::from_insts(&trace);
    for scheme in SchemeKind::ALL {
        let reference = simulate_reference(machine, scheme, trace.clone());
        let fast = simulate(machine, scheme, Arc::clone(&stream));
        assert_eq!(
            reference, fast,
            "{}/{scheme}/{}: block-stream simulate diverged",
            w.spec.name, machine.name
        );
        let reencoded = simulate(machine, scheme, from_trace.clone());
        assert_eq!(
            reference, reencoded,
            "{}/{scheme}/{}: re-encoded stream simulate diverged",
            w.spec.name, machine.name
        );
        let eir_reference = measure_eir_reference(machine, scheme, trace.clone());
        let eir_fast = measure_eir(machine, scheme, Arc::clone(&stream));
        assert_eq!(
            eir_reference, eir_fast,
            "{}/{scheme}/{}: block-stream EIR diverged",
            w.spec.name, machine.name
        );
    }
}

/// Every benchmark, every scheme, on the narrow machine.
#[test]
fn full_suite_grid_is_bit_identical_on_p14() {
    let machine = MachineModel::p14();
    for w in suite::full_suite() {
        check_bench(&machine, &w);
    }
}

/// A representative subset on the widest machine (64 B blocks, 12-issue),
/// where packets span more blocks and the run-length walk takes its longest
/// chunks.
#[test]
fn wide_machine_cells_are_bit_identical_on_p112() {
    let machine = MachineModel::p112();
    for name in ["compress", "gcc", "tomcatv"] {
        let w = suite::benchmark(name).expect("known benchmark");
        check_bench(&machine, &w);
    }
}
