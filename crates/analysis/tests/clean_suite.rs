//! Positive coverage: every artifact the pipeline produces — all fifteen
//! suite benchmarks, their profiles, trace selections, reorders, and all
//! four layout flavours — passes every pass with zero findings, and
//! property-tested generator variations stay clean too.

use fetchmech_analysis::{
    verify_layout, verify_profile, verify_program, verify_traces, verify_transform, Diagnostic,
};
use fetchmech_compiler::{layout_pad_all, reorder, select_traces, Profile};
use fetchmech_isa::{Layout, LayoutOptions};
use fetchmech_workloads::{suite, InputId, Workload, WorkloadSpec};
use proptest::prelude::*;

const BLOCK_BYTES: u64 = 16;

fn assert_clean(what: &str, diags: &[Diagnostic]) {
    assert!(
        diags.is_empty(),
        "{what}: expected no findings, got:\n{}",
        fetchmech_analysis::report_human(diags)
    );
}

/// Runs every static pass over everything derivable from one workload.
fn verify_workload_pipeline(w: &Workload, profile_len: u64) {
    let name = w.spec.name;
    assert_clean(name, &verify_program(&w.program));

    let natural = Layout::natural(&w.program, LayoutOptions::new(BLOCK_BYTES)).expect("layout");
    assert_clean(name, &verify_layout(&w.program, &natural));

    let profile = Profile::collect(w, &InputId::PROFILE, profile_len);
    assert_clean(name, &verify_profile(&w.program, &profile));

    let traces = select_traces(&w.program, &profile);
    assert_clean(name, &verify_traces(&w.program, &traces));

    let r = reorder(&w.program, &profile);
    assert_clean(name, &verify_transform(&w.program, &r));
    assert_clean(
        name,
        &verify_layout(&r.program, &r.layout(BLOCK_BYTES).expect("layout")),
    );
    assert_clean(
        name,
        &verify_layout(
            &r.program,
            &r.layout_pad_trace(BLOCK_BYTES).expect("layout"),
        ),
    );
    let pad_all = layout_pad_all(&w.program, BLOCK_BYTES).expect("layout");
    assert_clean(name, &verify_layout(&w.program, &pad_all));
}

#[test]
fn all_fifteen_benchmarks_lint_clean() {
    let names: Vec<&str> = suite::INT_NAMES
        .iter()
        .chain(suite::FP_NAMES.iter())
        .copied()
        .collect();
    assert_eq!(names.len(), 15);
    for name in names {
        let w = suite::benchmark(name).expect("known benchmark");
        verify_workload_pipeline(&w, 10_000);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary generator configurations — not just the calibrated suite —
    /// produce IR that passes every pass end to end.
    #[test]
    fn generated_workloads_always_verify(
        seed in 0u64..100_000,
        funcs in 1usize..5,
        loop_raw in 0.0f64..1.0,
        call_raw in 0.0f64..1.0,
        hammock_raw in 0.0f64..1.0,
        diamond_raw in 0.0f64..1.0,
    ) {
        let mut spec = WorkloadSpec::base_int("prop-verify", seed);
        spec.funcs = funcs;
        // The generator requires the segment-kind probabilities to sum to at
        // most 1; scale the raw draws into that budget.
        let total = loop_raw + call_raw + hammock_raw + diamond_raw;
        let scale = if total > 0.0 { 0.95 / total.max(0.95) } else { 0.0 };
        spec.loop_prob = loop_raw * scale;
        spec.call_prob = call_raw * scale;
        spec.hammock_prob = hammock_raw * scale;
        spec.diamond_prob = diamond_raw * scale;
        let w = Workload::generate(spec);
        verify_workload_pipeline(&w, 5_000);
    }
}
