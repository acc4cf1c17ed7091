//! The clean suite: every benchmark, every fetch scheme, zero sanitizer
//! findings.
//!
//! The mutation tests (in `fetchmech-analysis`) prove the engine catches
//! injected bugs; this proves the *real* simulator satisfies every invariant
//! the engine checks — including the cross-scheme EIR dominance ordering —
//! on short traces of the full workload suite. A finding here is a simulator
//! bug, not a test bug (that is how the Perfect-scheme prefetch bug was
//! found).

use std::sync::Arc;

use fetchmech::isa::{DynInst, Layout, LayoutOptions};
use fetchmech::pipeline::MachineModel;
use fetchmech::sanitize::{check_dominance, simulate_checked};
use fetchmech::workloads::{suite, InputId};
use fetchmech::SchemeKind;

const TRACE_LEN: u64 = 1_500;

#[test]
fn full_suite_runs_clean_under_the_sanitizer() {
    let machine = MachineModel::p14();
    for name in suite::INT_NAMES.iter().chain(suite::FP_NAMES.iter()) {
        let w = suite::benchmark(name).expect("suite benchmark");
        let layout = Layout::natural(&w.program, LayoutOptions::new(machine.block_bytes))
            .expect("suite programs lay out at paper block sizes");
        let trace: Arc<[DynInst]> = w
            .block_stream(&layout, InputId::TEST, TRACE_LEN)
            .materialize()
            .into();

        for scheme in SchemeKind::ALL {
            let (result, diags) = simulate_checked(&machine, scheme, &trace);
            assert!(
                diags.is_empty(),
                "{name}/{scheme:?}: sanitizer findings on a real run:\n{}",
                fetchmech_analysis::report_human(&diags)
            );
            assert!(result.ipc() > 0.0, "{name}/{scheme:?} made no progress");
        }

        let (eirs, diags) = check_dominance(&machine, name, &trace);
        assert!(
            diags.is_empty(),
            "{name}: dominance harness findings:\n{}",
            fetchmech_analysis::report_human(&diags)
        );
        assert_eq!(eirs.len(), SchemeKind::ALL.len());
    }
}
