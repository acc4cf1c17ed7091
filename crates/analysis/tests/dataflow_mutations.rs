//! Mutation tests for the dataflow lints: seed one defect into a valid
//! suite program and assert the `dataflow` pass reports exactly the
//! intended rule (see `tests/mutations.rs` for the structural-rule
//! counterpart, and `tests/static_bound_oracle.rs` in the core crate for
//! the geometry-bound mutations).
//!
//! These tests build malformed IR through the raw escape hatches, so they
//! must NOT install the debug hooks.

use std::collections::HashSet;

use fetchmech_analysis::{
    DataflowPass, Diagnostic, DiagnosticSink, Location, Pass, Severity, Target,
};
use fetchmech_compiler::{select_traces, Profile, Trace};
use fetchmech_isa::{Block, BlockId, Inst, OpClass, Program, Reg, Terminator};
use fetchmech_workloads::{suite, InputId, Workload};

fn workload() -> Workload {
    suite::benchmark("compress").expect("known benchmark")
}

fn rule_set(diags: &[Diagnostic]) -> HashSet<&'static str> {
    diags.iter().map(|d| d.rule_id).collect()
}

/// Runs one pass instance over one target.
fn run_pass(pass: &DataflowPass, target: &Target<'_>) -> Vec<Diagnostic> {
    let mut sink = DiagnosticSink::new();
    pass.run(target, &mut sink);
    sink.into_diagnostics()
}

/// Asserts every finding is `rule` (at `severity`), and at least one fired.
fn assert_only_rule(diags: &[Diagnostic], rule: &str, severity: Severity) {
    assert!(
        !diags.is_empty(),
        "expected {rule} to fire, got no findings"
    );
    assert!(
        diags
            .iter()
            .all(|d| d.rule_id == rule && d.severity == severity),
        "expected only {rule} at {severity:?}; got {:?}",
        rule_set(diags)
    );
}

/// Appends `n` blocks nothing points at (a chain ending in `Return`) and
/// returns their ids.
fn append_orphan_chain(program: &Program, n: usize) -> (Program, Vec<BlockId>) {
    let mut raw = program.clone().into_raw();
    let base = raw.blocks.len() as u32;
    let func = raw.blocks[0].func;
    let ids: Vec<BlockId> = (0..n as u32).map(|i| BlockId(base + i)).collect();
    for (i, &id) in ids.iter().enumerate() {
        let terminator = if i + 1 < n {
            Terminator::FallThrough { next: ids[i + 1] }
        } else {
            Terminator::Return
        };
        raw.blocks.push(Block {
            id,
            func,
            insts: vec![Inst::new(OpClass::IntAlu, Some(Reg::int(1)), [None, None])],
            terminator,
        });
    }
    (Program::from_raw(raw), ids)
}

// ----------------------------------------------------------------- baselines

#[test]
fn baseline_default_pass_is_clean() {
    let w = workload();
    let pass = DataflowPass::default();
    let diags = run_pass(&pass, &Target::Program(&w.program));
    assert!(
        diags.is_empty(),
        "expected clean baseline, got {:?}",
        rule_set(&diags)
    );

    let profile = Profile::collect(&w, &InputId::PROFILE, 20_000);
    let diags = run_pass(
        &pass,
        &Target::Profile {
            program: &w.program,
            profile: &profile,
        },
    );
    assert!(diags.is_empty(), "profile target: {:?}", rule_set(&diags));

    let traces = select_traces(&w.program, &profile);
    let diags = run_pass(
        &pass,
        &Target::Traces {
            program: &w.program,
            traces: &traces,
        },
    );
    assert!(diags.is_empty(), "traces target: {:?}", rule_set(&diags));
}

// --------------------------------------------------- dataflow.unreachable-block

#[test]
fn mut_unreachable_block_fires() {
    let (mutated, ids) = append_orphan_chain(&workload().program, 1);
    let diags = run_pass(&DataflowPass::default(), &Target::Program(&mutated));
    assert_only_rule(&diags, "dataflow.unreachable-block", Severity::Warning);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].location, Location::Block(ids[0]));
}

/// A whole orphan region — not just the directly unlinked block — is
/// reported: reachability is a fixpoint, not a one-step check.
#[test]
fn mut_unreachable_region_fires_per_block() {
    let (mutated, ids) = append_orphan_chain(&workload().program, 3);
    let diags = run_pass(&DataflowPass::default(), &Target::Program(&mutated));
    assert_only_rule(&diags, "dataflow.unreachable-block", Severity::Warning);
    let flagged: HashSet<Location> = diags.iter().map(|d| d.location).collect();
    for id in ids {
        assert!(flagged.contains(&Location::Block(id)), "missing {id}");
    }
}

// ---------------------------------------------------------- dataflow.dead-write

/// Prepends a write that the very next instruction overwrites. Only the
/// advisory pass reports it; the default registry pass stays silent
/// (generated workloads legitimately contain benign dead writes).
#[test]
fn mut_dead_write_fires_in_advisory_only() {
    let w = workload();
    // A body instruction that defines a register it does not read.
    let (victim_block, reg) = w
        .program
        .blocks()
        .iter()
        .find_map(|b| {
            let inst = b.insts.first()?;
            let reg = inst.dest?;
            (!inst.srcs.contains(&Some(reg))).then_some((b.id, reg))
        })
        .expect("suite program has a defining first instruction");

    let mut raw = w.program.clone().into_raw();
    raw.blocks[victim_block.0 as usize]
        .insts
        .insert(0, Inst::new(OpClass::IntAlu, Some(reg), [None, None]));
    let mutated = Program::from_raw(raw);

    let baseline = run_pass(&DataflowPass::advisory(), &Target::Program(&w.program));
    let diags = run_pass(&DataflowPass::advisory(), &Target::Program(&mutated));
    assert_only_rule(&diags, "dataflow.dead-write", Severity::Info);
    assert_eq!(
        diags.len(),
        baseline.len() + 1,
        "the seeded write adds exactly one finding"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.location == Location::Block(victim_block)
                && d.message.contains("instruction 0")),
        "the seeded site is reported: {:?}",
        diags.iter().map(|d| d.location).collect::<Vec<_>>()
    );

    // Advisory-only: the default (registry) instance must not report it.
    let default_diags = run_pass(&DataflowPass::default(), &Target::Program(&mutated));
    assert!(
        default_diags.is_empty(),
        "dead writes are advisory, got {:?}",
        rule_set(&default_diags)
    );
}

/// Negative control: a write whose value IS read is never reported, even
/// by the advisory pass at the seeded site.
#[test]
fn mut_dead_write_negative_read_value_is_live() {
    let w = workload();
    let (victim_block, reg) = w
        .program
        .blocks()
        .iter()
        .find_map(|b| {
            let inst = b.insts.first()?;
            let reg = inst.dest?;
            (!inst.srcs.contains(&Some(reg))).then_some((b.id, reg))
        })
        .expect("suite program has a defining first instruction");

    // Insert write-then-read: the new write at index 0 is consumed by the
    // new read at index 1 before the original overwrite.
    let mut raw = w.program.clone().into_raw();
    let insts = &mut raw.blocks[victim_block.0 as usize].insts;
    insts.insert(0, Inst::new(OpClass::IntAlu, None, [Some(reg), None]));
    insts.insert(0, Inst::new(OpClass::IntAlu, Some(reg), [None, None]));
    let mutated = Program::from_raw(raw);

    let diags = run_pass(&DataflowPass::advisory(), &Target::Program(&mutated));
    assert!(
        !diags
            .iter()
            .any(|d| d.location == Location::Block(victim_block)
                && d.message.contains("instruction 0")),
        "a read write must not be flagged at its def"
    );
}

// -------------------------------------------- dataflow.profile-unreachable-flow

#[test]
fn mut_profile_unreachable_flow_fires() {
    let w = workload();
    let (mutated, ids) = append_orphan_chain(&w.program, 1);
    // A profile that claims the orphan executed: extend the real profile's
    // block counts by one nonzero entry.
    let profile = Profile::collect(&w, &InputId::PROFILE, 20_000);
    let mut blocks: Vec<u64> = (0..profile.num_blocks())
        .map(|i| profile.block_count(BlockId(i as u32)))
        .collect();
    blocks.push(17);
    let (mut taken, mut total) = (Vec::new(), Vec::new());
    for i in 0..profile.num_branches() {
        let (t, n) = profile.branch_counts(fetchmech_isa::BranchId(i as u32));
        taken.push(t);
        total.push(n);
    }
    let bad = Profile::from_raw(blocks, taken, total);

    let diags = run_pass(
        &DataflowPass::default(),
        &Target::Profile {
            program: &mutated,
            profile: &bad,
        },
    );
    assert_only_rule(&diags, "dataflow.profile-unreachable-flow", Severity::Error);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].location, Location::Block(ids[0]));
}

/// Negative control: zero recorded flow into unreachable code is fine.
#[test]
fn mut_profile_unreachable_flow_negative_zero_count() {
    let w = workload();
    let (mutated, _) = append_orphan_chain(&w.program, 1);
    let profile = Profile::collect(&w, &InputId::PROFILE, 20_000);
    let diags = run_pass(
        &DataflowPass::default(),
        &Target::Profile {
            program: &mutated,
            profile: &profile,
        },
    );
    assert!(
        diags.is_empty(),
        "no flow into the orphan, got {:?}",
        rule_set(&diags)
    );
}

// ------------------------------------------------------- dataflow.redundant-seed

#[test]
fn mut_redundant_seed_fires() {
    let w = workload();
    let (mutated, ids) = append_orphan_chain(&w.program, 2);
    let traces = vec![Trace {
        blocks: ids.clone(),
        weight: 3,
    }];
    let diags = run_pass(
        &DataflowPass::default(),
        &Target::Traces {
            program: &mutated,
            traces: &traces,
        },
    );
    assert_only_rule(&diags, "dataflow.redundant-seed", Severity::Warning);
    assert_eq!(diags[0].location, Location::Trace(0));
}

/// Negative control: a trace that touches even one reachable block is a
/// legitimate selection, not a redundant seed.
#[test]
fn mut_redundant_seed_negative_mixed_trace() {
    let w = workload();
    let (mutated, ids) = append_orphan_chain(&w.program, 1);
    let traces = vec![Trace {
        blocks: vec![mutated.entry(), ids[0]],
        weight: 3,
    }];
    let diags = run_pass(
        &DataflowPass::default(),
        &Target::Traces {
            program: &mutated,
            traces: &traces,
        },
    );
    assert!(
        diags.is_empty(),
        "mixed trace must not fire, got {:?}",
        rule_set(&diags)
    );
}

// --------------------------------------------------------------- registry wiring

/// The registry's default pass list includes `dataflow`, so plain
/// `verify_program` surfaces the unreachable-block warning too.
#[test]
fn registry_runs_dataflow_pass() {
    let (mutated, _) = append_orphan_chain(&workload().program, 1);
    let diags = fetchmech_analysis::verify_program(&mutated);
    assert!(
        diags
            .iter()
            .any(|d| d.rule_id == "dataflow.unreachable-block"),
        "registry should surface the dataflow rule, got {:?}",
        rule_set(&diags)
    );
}
