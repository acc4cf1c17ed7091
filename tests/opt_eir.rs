//! Acceptance test for the fetch-oriented passes: superblock formation plus
//! branch straightening must improve the static EIR prediction on real
//! suite workloads, and the prediction must stay honest — measured EIR on
//! the optimized layout never exceeds the static analyzer's bound.

use fetchmech::compiler::{optimize, PassKind, Profile};
use fetchmech::isa::{Layout, LayoutOptions};
use fetchmech::pipeline::MachineModel;
use fetchmech::workloads::{suite, InputId, Workload};
use fetchmech::{simulate, SchemeKind};
use fetchmech_analysis::eir_delta;

const INSTS: u64 = 20_000;
const WORKLOADS: [&str; 4] = ["compress", "eqntott", "espresso", "sc"];

fn optimize_for(name: &str, machine: &MachineModel) -> (Workload, fetchmech_analysis::EirDelta) {
    let w = suite::benchmark(name).expect("known benchmark");
    let profile = Profile::collect(&w, &InputId::PROFILE, INSTS);
    let optimized = optimize(
        &w.program,
        &profile,
        &[PassKind::Superblock, PassKind::Straighten],
    );
    let w_after = Workload {
        spec: w.spec.clone(),
        program: optimized.program.clone(),
        behaviors: w.behaviors.with_origin(optimized.branch_origin.clone()),
    };
    let measured = Profile::collect(&w_after, &InputId::PROFILE, INSTS);
    let delta = eir_delta(&w.program, &profile, &optimized, Some(&measured), machine)
        .expect("pipeline layout");
    // Re-lay the optimized program in its pipeline order and run the real
    // simulator over it, so the bound check below exercises the same
    // layout the static analyzer scored.
    let layout = Layout::new(
        &optimized.program,
        &optimized.order,
        LayoutOptions::new(machine.block_bytes),
    )
    .expect("tuned layout");
    let trace = w_after
        .block_stream(&layout, InputId::TEST, INSTS)
        .materialize();
    for scheme in SchemeKind::ALL {
        let r = simulate(machine, scheme, trace.clone());
        let bound = delta.after.scheme(scheme).eir_bound;
        assert!(
            r.eir() <= bound + 1e-9,
            "{name}/{scheme}: measured EIR {:.3} exceeds static bound {bound:.3}",
            r.eir()
        );
    }
    (w, delta)
}

/// Superblock + straighten shows a positive predicted sequential-EIR delta
/// on at least three suite workloads (the paper's fetch-oriented layout
/// claim, stated against our static model).
#[test]
fn fetch_passes_improve_predicted_eir_on_suite_workloads() {
    let machine = MachineModel::p112();
    let mut improved = Vec::new();
    for name in WORKLOADS {
        let (_w, delta) = optimize_for(name, &machine);
        let seq = delta
            .weighted
            .iter()
            .find(|e| e.scheme == SchemeKind::Sequential)
            .expect("sequential analyzed");
        if seq.after > seq.before {
            improved.push((name, seq.after - seq.before));
        }
    }
    assert!(
        improved.len() >= 3,
        "expected >= 3 workloads with positive predicted sequential-EIR \
         delta, got {improved:?}"
    );
}
