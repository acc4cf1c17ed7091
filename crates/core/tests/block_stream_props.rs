//! Property tests for the block-stream fast path: on *randomized* control-
//! flow graphs (not just the calibrated suite), the run-length stream
//! representation must simulate bit-identically to the per-instruction
//! trace it encodes.
//!
//! Each case perturbs a workload spec across the structural knobs that
//! stress packet formation — block lengths, hammock/diamond/loop mix, call
//! density — generates the program, and runs one (machine, scheme) cell
//! both ways. The grid test (`block_stream_oracle.rs`) covers the curated
//! suite exhaustively; this one hunts for CFG shapes the suite does not
//! contain.

use std::sync::Arc;

use fetchmech::isa::{Layout, LayoutOptions};
use fetchmech::pipeline::MachineModel;
use fetchmech::workloads::{InputId, Workload, WorkloadSpec};
use fetchmech::{measure_eir, measure_eir_reference, simulate, simulate_reference, SchemeKind};
use proptest::prelude::*;

const LEN: u64 = 1_200;

#[allow(clippy::too_many_arguments)]
fn build_spec(
    seed: u64,
    fp: bool,
    funcs: usize,
    block_hi: usize,
    hammock_prob: f64,
    diamond_prob: f64,
    loop_prob: f64,
    call_prob: f64,
) -> WorkloadSpec {
    let mut spec = if fp {
        WorkloadSpec::base_fp("prop-fp", seed)
    } else {
        WorkloadSpec::base_int("prop-int", seed)
    };
    spec.funcs = funcs;
    spec.block_len = (1, block_hi);
    spec.hammock_prob = hammock_prob;
    spec.diamond_prob = diamond_prob;
    spec.loop_prob = loop_prob;
    spec.call_prob = call_prob;
    spec
}

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        1u64..1_000_000,
        any::<bool>(),
        1usize..6,
        2usize..15,
        // Raw segment-kind weights, normalized below so the probabilities
        // sum to `total` (the generator requires a sum <= 1).
        (0.01f64..1.0, 0.01f64..1.0, 0.01f64..1.0, 0.01f64..1.0),
        0.2f64..0.9,
    )
        .prop_map(|(seed, fp, funcs, block_hi, (ham, dia, lp, call), total)| {
            let sum = ham + dia + lp + call;
            let scale = total / sum;
            build_spec(
                seed,
                fp,
                funcs,
                block_hi,
                ham * scale,
                dia * scale,
                lp * scale,
                call * scale,
            )
        })
}

/// A machine: a paper model, or (one draw in two) a paper model's issue
/// rate and cache geometry with its core and speculation resized — window
/// 1–80, ROB from the window to twice it plus up to 40 (so past 64 entries,
/// where the core's ready bitsets span several words), 1–4 units per class
/// drawn independently (one-unit classes starve), and speculation depth
/// 0–8.
fn arb_machine() -> impl Strategy<Value = MachineModel> {
    (
        0usize..3,
        any::<bool>(),
        1u32..=80,
        0u32..=120,
        (1u32..=4, 1u32..=4, 1u32..=4, 1u32..=4),
        0u32..=8,
    )
        .prop_map(
            |(base, reshape, window, extra, (fxu, fpu, branch_units, mem_units), spec_depth)| {
                let paper = [MachineModel::p14, MachineModel::p18, MachineModel::p112][base]();
                if !reshape {
                    return paper;
                }
                MachineModel {
                    name: format!("{}-shape", paper.name),
                    window,
                    rob: window + extra.min(window + 40),
                    fxu,
                    fpu,
                    branch_units,
                    mem_units,
                    spec_depth,
                    ..paper
                }
            },
        )
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(96))]

    /// `simulate` and `measure_eir` agree with `simulate_reference` and
    /// `measure_eir_reference` on randomized CFGs and machines, field for
    /// field.
    #[test]
    fn random_cfgs_simulate_identically(
        spec in arb_spec(),
        machine in arb_machine(),
        scheme_idx in 0usize..5,
        input in 0u32..4,
    ) {
        let scheme = SchemeKind::ALL[scheme_idx];
        let w = Workload::generate(spec);
        let layout = Layout::natural(&w.program, LayoutOptions::new(machine.block_bytes))
            .expect("generated programs lay out at all paper block sizes");
        let input = InputId(input);
        let trace: Vec<_> = w.executor(&layout, input, LEN).collect();
        let stream = Arc::new(w.block_stream(&layout, input, LEN));
        prop_assert_eq!(stream.materialize(), trace.clone());

        let reference = simulate_reference(&machine, scheme, trace.clone());
        let fast = simulate(&machine, scheme, Arc::clone(&stream));
        prop_assert_eq!(&reference, &fast);

        let eir_reference = measure_eir_reference(&machine, scheme, trace);
        let eir_fast = measure_eir(&machine, scheme, stream);
        prop_assert_eq!(&eir_reference, &eir_fast);
    }
}
