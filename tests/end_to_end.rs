//! Cross-crate integration tests: full workload → layout → trace → fetch →
//! pipeline runs, checking global invariants the unit tests cannot see.

use fetchmech::isa::{Layout, LayoutOptions, OpClass};
use fetchmech::pipeline::MachineModel;
use fetchmech::workloads::{suite, InputId};
use fetchmech::{simulate, SchemeKind};

fn run(name: &str, machine: &MachineModel, scheme: SchemeKind, n: u64) -> fetchmech::SimResult {
    let w = suite::benchmark(name).expect("known benchmark");
    let layout =
        Layout::natural(&w.program, LayoutOptions::new(machine.block_bytes)).expect("layout");
    simulate(machine, scheme, w.block_stream(&layout, InputId::TEST, n))
}

#[test]
fn every_instruction_retires_on_every_machine_and_scheme() {
    for machine in MachineModel::paper_models() {
        for scheme in SchemeKind::ALL {
            let r = run("compress", &machine, scheme, 10_000);
            assert_eq!(
                r.retired, 10_000,
                "{} {}: {} retired",
                machine.name, scheme, r.retired
            );
            assert!(r.ipc() > 0.0);
            assert!(r.ipc() <= f64::from(machine.issue_rate));
        }
    }
}

#[test]
fn simulation_is_bit_reproducible() {
    let machine = MachineModel::p18();
    let a = run("li", &machine, SchemeKind::CollapsingBuffer, 15_000);
    let b = run("li", &machine, SchemeKind::CollapsingBuffer, 15_000);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.fetch.mispredicts, b.fetch.mispredicts);
    assert_eq!(a.icache, b.icache);
}

#[test]
fn eir_bounds_ipc_and_issue_rate() {
    for machine in MachineModel::paper_models() {
        for scheme in [
            SchemeKind::Sequential,
            SchemeKind::CollapsingBuffer,
            SchemeKind::Perfect,
        ] {
            let r = run("espresso", &machine, scheme, 20_000);
            assert!(r.eir() >= r.ipc() - 1e-9, "{} {}", machine.name, scheme);
            assert!(
                r.eir() <= f64::from(machine.issue_rate) + 1e-9,
                "{} {}: EIR {}",
                machine.name,
                scheme,
                r.eir()
            );
        }
    }
}

#[test]
fn collapsing_buffer_only_collapses_when_intra_block_branches_exist() {
    let machine = MachineModel::p112();
    // nasa7 has essentially no intra-block branches; eqntott has many.
    let nasa = run("nasa7", &machine, SchemeKind::CollapsingBuffer, 20_000);
    let eqn = run("eqntott", &machine, SchemeKind::CollapsingBuffer, 20_000);
    assert!(
        eqn.fetch.collapsed > 20 * nasa.fetch.collapsed.max(1),
        "eqntott collapsed {} vs nasa7 {}",
        eqn.fetch.collapsed,
        nasa.fetch.collapsed
    );
}

#[test]
fn fp_code_is_less_fetch_limited_than_int_at_p14() {
    // The paper: "the loop-intensive floating-point benchmarks exhibit
    // regular access patterns, reducing the need for better fetch
    // mechanisms" (on P14).
    let machine = MachineModel::p14();
    let gap = |name| {
        let seq = run(name, &machine, SchemeKind::Sequential, 20_000).ipc();
        let per = run(name, &machine, SchemeKind::Perfect, 20_000).ipc();
        per / seq
    };
    let int_gap = gap("eqntott");
    let fp_gap = gap("tomcatv");
    assert!(
        fp_gap < int_gap,
        "fp gap {fp_gap} should be smaller than int gap {int_gap}"
    );
}

#[test]
fn mispredicts_match_between_fetch_and_trace() {
    // Every fetched control transfer appears exactly once; the mispredict
    // count can never exceed the number of dynamic control transfers.
    let machine = MachineModel::p14();
    let w = suite::benchmark("sc").expect("known");
    let layout =
        Layout::natural(&w.program, LayoutOptions::new(machine.block_bytes)).expect("layout");
    let trace = w.block_stream(&layout, InputId::TEST, 20_000).materialize();
    let controls = trace.iter().filter(|i| i.ctrl.is_some()).count() as u64;
    let r = simulate(&machine, SchemeKind::BankedSequential, trace);
    assert_eq!(r.fetch.predicted_controls, controls);
    assert!(r.fetch.mispredicts <= controls);
    // The BTB must actually learn: a warm 1024-entry BTB on a program this
    // small should predict most transfers.
    assert!(
        r.fetch.mispredict_rate() < 0.35,
        "mispredict rate {}",
        r.fetch.mispredict_rate()
    );
}

#[test]
fn padding_layouts_simulate_correctly() {
    use fetchmech::compiler::layout_pad_all;
    let machine = MachineModel::p14();
    let w = suite::benchmark("flex").expect("known");
    let layout = layout_pad_all(&w.program, machine.block_bytes).expect("layout");
    let trace = w.block_stream(&layout, InputId::TEST, 20_000).materialize();
    let nops = trace.iter().filter(|i| i.op == OpClass::Nop).count() as u64;
    assert!(nops > 0, "pad-all trace must execute nops");
    let r = simulate(&machine, SchemeKind::Sequential, trace);
    // All non-nop instructions retire; nops are dropped at dispatch but
    // still accounted for.
    assert_eq!(r.retired, 20_000);
    assert_eq!(r.retired_useful, 20_000 - nops);
}

#[test]
fn return_address_stack_fixes_return_mispredicts() {
    // `li` is the call-heavy benchmark; a 16-entry RAS should predict its
    // returns nearly perfectly and cut overall mispredicts.
    let base = MachineModel::p14();
    let with_ras = base.clone().with_ras(16);
    let without = run("li", &base, SchemeKind::CollapsingBuffer, 30_000);
    let with = {
        let w = suite::benchmark("li").expect("known benchmark");
        let layout =
            Layout::natural(&w.program, LayoutOptions::new(with_ras.block_bytes)).expect("layout");
        let stream = w.block_stream(&layout, InputId::TEST, 30_000);
        simulate(&with_ras, SchemeKind::CollapsingBuffer, stream)
    };
    assert!(with.fetch.ras_predictions > 0, "RAS must be exercised");
    assert!(
        with.fetch.ras_correct as f64 >= 0.95 * with.fetch.ras_predictions as f64,
        "RAS accuracy {}/{}",
        with.fetch.ras_correct,
        with.fetch.ras_predictions
    );
    assert!(
        with.fetch.mispredicts < without.fetch.mispredicts,
        "RAS should remove return mispredicts: {} vs {}",
        with.fetch.mispredicts,
        without.fetch.mispredicts
    );
    assert!(with.ipc() >= without.ipc(), "RAS must not hurt IPC");
}
