//! The debug-hook wiring: after `install_debug_hooks`, the whole compile
//! pipeline runs with construction-site verification and stays silent for
//! valid inputs. Kept in its own test binary because hooks are process-global
//! — the mutation tests must run without them.

use fetchmech_analysis::install_debug_hooks;
use fetchmech_compiler::{reorder, Profile};
use fetchmech_workloads::{suite, InputId};

#[test]
fn hooked_pipeline_constructs_verified_artifacts() {
    assert!(
        install_debug_hooks(),
        "first installation claims the hook slots"
    );
    // Re-installation is a harmless no-op (first install wins).
    assert!(!install_debug_hooks());

    // Everything below now verifies at construction: workload generation
    // (ProgramBuilder::finish), profiling (Layout::natural + Profile),
    // trace selection, reordering (with_terminators + transform check),
    // and the optimized layouts.
    let w = suite::benchmark("espresso").expect("known benchmark");
    let profile = Profile::collect(&w, &InputId::PROFILE, 10_000);
    let r = reorder(&w.program, &profile);
    let layout = r.layout_pad_trace(16).expect("layout");
    assert!(!layout.code().is_empty());
}
