//! Dynamic soundness of the optimization pipeline: the translation
//! validator must come back clean on genuine `optimize` results, for every
//! suite benchmark and for property-generated workloads under arbitrary
//! pass subsets — and the end-to-end executions must actually agree, not
//! just pass the per-application checks.

use std::collections::HashSet;

use fetchmech_analysis::dataflow::{dead_writes, liveness, reachability};
use fetchmech_analysis::{verify_optimized, Severity};
use fetchmech_compiler::{optimize, PassEdit, PassKind, Profile};
use fetchmech_isa::{CfgView, Layout, LayoutOptions, Terminator};
use fetchmech_workloads::{suite, InputId, Workload, WorkloadSpec};
use proptest::prelude::*;

const BLOCK_BYTES: u64 = 16;
const INSTS: u64 = 10_000;

fn generated(seed: u64, funcs: usize, loop_prob: f64, call_prob: f64) -> Workload {
    let mut spec = WorkloadSpec::base_int("prop-opt", seed);
    spec.funcs = funcs;
    let free = (1.0 - spec.hammock_prob - spec.diamond_prob).max(0.0) * 0.95;
    let total = loop_prob + call_prob;
    let scale = if total > 0.0 {
        free / total.max(1.0)
    } else {
        0.0
    };
    spec.loop_prob = loop_prob * scale;
    spec.call_prob = call_prob * scale;
    Workload::generate(spec)
}

/// Sequence of `(original branch id, semantic direction)` pairs executed by
/// the workload, with every branch mapped back through `origin` and the
/// hardware direction un-inverted — layout-independent, unlike block-entry
/// detection (an empty block laid adjacent to its fall-through successor
/// executes no instruction at all).
fn branch_path(
    w: &Workload,
    origin: Option<&[fetchmech_isa::BranchId]>,
    insts: u64,
    limit: usize,
) -> Vec<(u32, bool)> {
    let layout = Layout::natural(&w.program, LayoutOptions::new(BLOCK_BYTES)).expect("layout");
    let mut inverted = vec![false; w.program.num_branches() as usize];
    for b in w.program.blocks() {
        if let Terminator::CondBranch {
            id, inverted: inv, ..
        } = b.terminator
        {
            inverted[id.0 as usize] = inv;
        }
    }
    let mut path = Vec::new();
    for d in w.block_stream(&layout, InputId::TEST, insts).iter() {
        let laid = layout
            .inst_at(d.addr)
            .expect("trace address maps to layout");
        let Some(id) = laid.ctrl.and_then(|c| c.branch_id) else {
            continue;
        };
        let semantic = d.ctrl.as_ref().expect("ctrl").taken ^ inverted[id.0 as usize];
        let orig = origin.map_or(id, |map| map[id.0 as usize]);
        path.push((orig.0, semantic));
        if path.len() == limit {
            break;
        }
    }
    path
}

fn optimized_workload(w: &Workload, optimized: &fetchmech_compiler::Optimized) -> Workload {
    Workload {
        spec: w.spec.clone(),
        program: optimized.program.clone(),
        behaviors: w.behaviors.with_origin(optimized.branch_origin.clone()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any subset of the pass pipeline on a generated workload verifies
    /// clean: statically (per-application invariants, flow conservation)
    /// and dynamically (observable-trace equivalence).
    #[test]
    fn pass_subsets_verify_clean_on_generated_workloads(
        seed in 0u64..100_000,
        funcs in 1usize..4,
        loop_prob in 0.0f64..1.0,
        call_prob in 0.0f64..1.0,
        mask in 1usize..16,
    ) {
        let w = generated(seed, funcs, loop_prob, call_prob);
        let profile = Profile::collect(&w, &InputId::PROFILE, INSTS);
        let passes: Vec<PassKind> = PassKind::ALL
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, &p)| p)
            .collect();
        let optimized = optimize(&w.program, &profile, &passes);
        let diags = verify_optimized(&w, &profile, &optimized, INSTS);
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        prop_assert!(
            errors.is_empty(),
            "passes {passes:?} flagged on seed {seed}: {errors:?}"
        );
    }

    /// End-to-end oracle, independent of the validator: the optimized
    /// program executes the same original branches with the same semantic
    /// directions, in the same order (passes may duplicate blocks and flip
    /// branch senses but never change which source path runs).
    #[test]
    fn optimized_execution_follows_the_original_branch_path(
        seed in 0u64..100_000,
        funcs in 1usize..4,
        loop_prob in 0.0f64..1.0,
        call_prob in 0.0f64..1.0,
    ) {
        let w = generated(seed, funcs, loop_prob, call_prob);
        let profile = Profile::collect(&w, &InputId::PROFILE, INSTS);
        let optimized =
            optimize(&w.program, &profile, &PassKind::ALL);
        let w_after = optimized_workload(&w, &optimized);

        // Instruction budgets cut the two runs at different points (DCE
        // shortens bodies), so compare a common prefix of branch outcomes.
        let limit = 256;
        let before = branch_path(&w, None, INSTS, limit);
        let after = branch_path(&w_after, Some(&optimized.branch_origin), INSTS, limit);
        let n = before.len().min(after.len());
        prop_assert!(n > 0, "both executions reach a branch");
        prop_assert_eq!(
            &before[..n],
            &after[..n],
            "origin branch path diverged on seed {}",
            seed
        );
    }
}

/// The full pipeline verifies clean on every suite benchmark — the same
/// gate `fetchmech-lint opt --verify` enforces in CI, as a plain test.
#[test]
fn full_suite_pipeline_verifies_clean() {
    for name in suite::INT_NAMES.iter().chain(suite::FP_NAMES.iter()) {
        let w = suite::benchmark(name).expect("known benchmark");
        let profile = Profile::collect(&w, &InputId::PROFILE, INSTS);
        let optimized = optimize(&w.program, &profile, &PassKind::ALL);
        let diags = verify_optimized(&w, &profile, &optimized, INSTS);
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{name}: pipeline flagged: {errors:?}");
    }
}

/// DCE and the static dead-write lint agree: every write the dataflow
/// analysis flags in a reachable block is among DCE's declared removals
/// (two independent algorithms over different lattices).
#[test]
fn dce_removes_every_statically_flagged_dead_write() {
    for name in ["compress", "eqntott", "espresso", "li"] {
        let w = suite::benchmark(name).expect("known benchmark");
        let profile = Profile::collect(&w, &InputId::PROFILE, INSTS);
        let optimized = optimize(&w.program, &profile, &[PassKind::Dce]);
        let app = optimized
            .applications
            .iter()
            .find(|a| a.pass == PassKind::Dce)
            .expect("dce ran");
        let PassEdit::Dce { removed, .. } = &app.edit else {
            panic!("dce edit");
        };
        let declared: HashSet<(u32, usize)> = removed.iter().map(|s| (s.block.0, s.inst)).collect();

        let view = CfgView::local(&app.before);
        let live = liveness(&app.before, &view);
        let reach = reachability(&app.before);
        for dw in dead_writes(&app.before, &view, &live) {
            if !reach[dw.block.0 as usize] {
                continue; // DCE skips blocks with no SSA reachability
            }
            assert!(
                declared.contains(&(dw.block.0, dw.inst)),
                "{name}: dead write at B{}[{}] not removed by DCE",
                dw.block.0,
                dw.inst
            );
        }
    }
}
