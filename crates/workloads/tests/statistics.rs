//! Statistical properties of the workload suite: behaviour models hit their
//! analytic taken fractions, inputs correlate (the §4 precondition), and the
//! suite's dynamic characteristics stay inside the bands the experiments
//! assume.

use fetchmech_isa::rng::Pcg64;
use fetchmech_isa::{BranchId, Layout, LayoutOptions, OpClass, TraceStats};
use fetchmech_workloads::{suite, BehaviorState, BranchModel, InputId};
use proptest::prelude::*;

proptest! {
    /// Observed taken rates match `BranchModel::taken_fraction` for every
    /// model family.
    #[test]
    fn taken_fraction_is_honest(
        p in 0.02f64..0.98,
        trips in 2u64..40,
        bits in any::<u32>(),
        len in 3u8..24,
        noise in 0.0f64..0.2,
        seed in 1u64..10_000,
    ) {
        let models = [
            BranchModel::Bernoulli(p),
            BranchModel::Loop { mean_trips: trips as f64 },
            BranchModel::FixedLoop { trips },
            BranchModel::Pattern { bits, len, noise },
        ];
        let mut rng = Pcg64::new(seed);
        for (i, model) in models.into_iter().enumerate() {
            let mut st = BehaviorState::new(1);
            let n = 60_000;
            let taken = (0..n).filter(|_| st.decide(BranchId(0), model, &mut rng)).count();
            let observed = taken as f64 / n as f64;
            let expect = model.taken_fraction();
            prop_assert!(
                (observed - expect).abs() < 0.03,
                "model #{i}: observed {observed:.3} vs analytic {expect:.3}"
            );
        }
    }
}

#[test]
fn profile_inputs_predict_the_test_input() {
    // The §4 methodology requires training inputs to be *predictive* of the
    // held-out input: per-branch taken rates must correlate strongly.
    for name in ["compress", "gcc", "tomcatv"] {
        let w = suite::benchmark(name).expect("known");
        let layout = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        let rates = |input: InputId| -> Vec<(u64, u64)> {
            let mut taken = vec![0u64; w.program.num_branches() as usize];
            let mut total = vec![0u64; w.program.num_branches() as usize];
            for i in w.executor(&layout, input, 60_000) {
                if i.op == OpClass::CondBranch {
                    let laid = layout.inst_at(i.addr).expect("laid");
                    let id = laid.ctrl.expect("ctrl").branch_id.expect("id").0 as usize;
                    total[id] += 1;
                    taken[id] += u64::from(i.ctrl.expect("ctrl").taken);
                }
            }
            taken.into_iter().zip(total).collect()
        };
        let profile = rates(InputId(0));
        let test = rates(InputId::TEST);
        let mut agree = 0;
        let mut considered = 0;
        for (p, t) in profile.iter().zip(&test) {
            if p.1 >= 50 && t.1 >= 50 {
                considered += 1;
                let pp = p.0 as f64 / p.1 as f64;
                let tt = t.0 as f64 / t.1 as f64;
                // The *bias direction* must agree for profile-driven layout
                // to work.
                if (pp >= 0.5) == (tt >= 0.5) || (pp - tt).abs() < 0.15 {
                    agree += 1;
                }
            }
        }
        assert!(
            considered >= 10,
            "{name}: too few hot branches ({considered})"
        );
        assert!(
            agree as f64 >= 0.9 * considered as f64,
            "{name}: only {agree}/{considered} branches agree between inputs"
        );
    }
}

#[test]
fn suite_dynamic_characteristics_are_in_band() {
    // The experiments assume integer codes are branchier with shorter runs
    // than FP codes; pin the bands so workload edits cannot silently drift.
    let mut int_runs = Vec::new();
    let mut fp_runs = Vec::new();
    for w in suite::full_suite() {
        let layout = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        let mut stats = TraceStats::new();
        for i in w.executor(&layout, InputId::TEST, 60_000) {
            stats.observe(&i, 16);
        }
        let run = stats.insts as f64 / stats.taken_controls.max(1) as f64;
        match w.spec.class {
            fetchmech_workloads::WorkloadClass::Int => int_runs.push((w.spec.name, run)),
            fetchmech_workloads::WorkloadClass::Fp => fp_runs.push((w.spec.name, run)),
        }
    }
    let mean = |v: &[(&str, f64)]| v.iter().map(|x| x.1).sum::<f64>() / v.len() as f64;
    let int_mean = mean(&int_runs);
    let fp_mean = mean(&fp_runs);
    assert!(
        int_mean > 6.0 && int_mean < 25.0,
        "integer mean run length {int_mean} out of band: {int_runs:?}"
    );
    assert!(
        fp_mean > int_mean,
        "fp mean run {fp_mean} must exceed integer {int_mean}"
    );
    // The paper: "typical length of instruction runs between branches is
    // approximately four to six instructions" — ours are a bit longer but
    // the same order; pin the floor so nobody regresses to branchless code.
    for (name, run) in &int_runs {
        assert!(*run < 40.0, "{name}: run length {run} looks branchless");
    }
}

#[test]
fn every_benchmark_is_exercised_by_every_input() {
    for w in suite::full_suite() {
        let layout = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        for input in InputId::PROFILE.into_iter().chain([InputId::TEST]) {
            let n = w.executor(&layout, input, 500).count();
            assert_eq!(n, 500, "{} input {input:?}", w.spec.name);
        }
    }
}
