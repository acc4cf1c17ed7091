//! Mutation tests for the pass-pipeline translation validator: seed one
//! defect into a genuine `optimize` result and assert the intended
//! `optverify` rule catches it (the per-rule counterpart of the CLI's
//! `fetchmech-lint opt --self-test`).
//!
//! These tests corrupt pipeline artifacts through the public mutators, so
//! they must NOT install the debug hooks (the optimize hook would reject
//! the corrupted result at construction instead of letting the explicit
//! checks report it).

use std::collections::HashSet;

use fetchmech_analysis::{
    check_app_dynamic, check_application, check_opt_static, check_ssa, Diagnostic, DiagnosticSink,
    Severity,
};
use fetchmech_compiler::{build_ssa, optimize, LvnRewrite, Optimized, PassEdit, PassKind, Profile};
use fetchmech_isa::{BlockId, CfgView, Dominators, Inst, Terminator};
use fetchmech_workloads::{suite, InputId, Workload};

const INSTS: u64 = 20_000;

fn pipeline(name: &str) -> (Workload, Profile, Optimized) {
    let w = suite::benchmark(name).expect("known benchmark");
    let profile = Profile::collect(&w, &InputId::PROFILE, INSTS);
    let optimized = optimize(&w.program, &profile, &PassKind::ALL);
    (w, profile, optimized)
}

fn rules(diags: &[Diagnostic]) -> HashSet<&'static str> {
    diags.iter().map(|d| d.rule_id).collect()
}

/// Asserts `rule` fired at Error severity (other collateral rules may fire
/// too — one seeded defect can violate several invariants at once).
fn assert_fires(diags: &[Diagnostic], rule: &str) {
    assert!(
        diags
            .iter()
            .any(|d| d.rule_id == rule && d.severity == Severity::Error),
        "expected {rule} to fire; got {:?}",
        rules(diags)
    );
}

/// Index of the first application of `pass` in the pipeline.
fn app_index(optimized: &Optimized, pass: PassKind) -> usize {
    optimized
        .applications
        .iter()
        .position(|a| a.pass == pass)
        .unwrap_or_else(|| panic!("{pass} ran"))
}

fn static_diags(w: &Workload, profile: &Profile, optimized: &Optimized) -> Vec<Diagnostic> {
    let mut sink = DiagnosticSink::new();
    check_opt_static(&w.program, optimized, Some(profile), &mut sink);
    sink.into_diagnostics()
}

// ----------------------------------------------------------------- baseline

#[test]
fn baseline_pipeline_is_clean() {
    let (w, profile, optimized) = pipeline("compress");
    let diags = static_diags(&w, &profile, &optimized);
    assert!(diags.is_empty(), "clean pipeline flagged: {diags:?}");
}

// ----------------------------------------------------------------- opt.shape

#[test]
fn truncated_rel_block_map_trips_shape() {
    let (w, profile, mut optimized) = pipeline("compress");
    let i = app_index(&optimized, PassKind::Superblock);
    optimized.applications[i].rel_block.pop();
    assert_fires(&static_diags(&w, &profile, &optimized), "opt.shape");
}

// -------------------------------------------------------- opt.body-preserved

#[test]
fn undeclared_extra_instruction_trips_body_preserved() {
    let (w, profile, mut optimized) = pipeline("compress");
    let i = app_index(&optimized, PassKind::Straighten);
    let app = &mut optimized.applications[i];
    let mut edit = app.after.edit();
    edit.insts_mut(BlockId(0)).push(Inst::nop());
    app.after = edit.finish().expect("still structurally valid");
    // Later applications no longer chain, but the body rule must fire on
    // the corrupted application itself.
    assert_fires(
        &static_diags(&w, &profile, &optimized),
        "opt.body-preserved",
    );
}

// -------------------------------------------------------- opt.lvn-available

#[test]
fn corrupted_lvn_rewrite_trips_lvn_available() {
    let (w, profile, mut optimized) = pipeline("compress");
    let i = app_index(&optimized, PassKind::Lvn);
    let app = &mut optimized.applications[i];
    let PassEdit::Lvn { rewrites } = &app.edit else {
        panic!("lvn edit");
    };
    assert!(!rewrites.is_empty(), "compress has LVN rewrites");
    // Claim the copy reads a register nothing in scope holds the value in.
    let mut rewrites: Vec<LvnRewrite> = rewrites.clone();
    let r = &mut rewrites[0];
    let mut after = r.after;
    after.srcs[0] = r.after.dest; // copy from its own (pre-write) dest
    r.after = after;
    // Patch the after program to match the bogus rewrite so only the
    // availability proof (not the body diff) can catch it.
    let mut edit = app.after.edit();
    edit.insts_mut(r.block)[r.inst] = after;
    app.after = edit.finish().expect("still structurally valid");
    let (block, inst) = (r.block, r.inst);
    app.edit = PassEdit::Lvn { rewrites };
    let mut sink = DiagnosticSink::new();
    check_application(&optimized.applications[i], &profile, &mut sink);
    let diags = sink.into_diagnostics();
    assert_fires(&diags, "opt.lvn-available");
    let _ = (w, block, inst);
}

// ------------------------------------------------------------- opt.dce-dead

#[test]
fn bogus_declared_removal_trips_dce_dead() {
    let (_w, profile, mut optimized) = pipeline("compress");
    let i = app_index(&optimized, PassKind::Dce);
    let app = &mut optimized.applications[i];
    let PassEdit::Dce { removed, rounds } = &app.edit else {
        panic!("dce edit");
    };
    let mut removed = removed.clone();
    // Declare a removal DCE never performed (the dead-write closure cannot
    // contain it, and the after program still has the instruction).
    let keep = app
        .before
        .blocks()
        .iter()
        .find(|b| !b.insts.is_empty())
        .expect("some body instruction");
    removed.push(fetchmech_compiler::DeadSite {
        block: keep.id,
        inst: 0,
        reg: keep.insts[0].dest.unwrap_or(fetchmech_isa::Reg::int(1)),
    });
    removed.sort_by_key(|s| (s.block.0, s.inst));
    app.edit = PassEdit::Dce {
        removed,
        rounds: *rounds,
    };
    let mut sink = DiagnosticSink::new();
    check_application(&optimized.applications[i], &profile, &mut sink);
    assert_fires(&sink.into_diagnostics(), "opt.dce-dead");
}

#[test]
fn live_write_removed_from_after_trips_dce_dead() {
    let (_w, profile, mut optimized) = pipeline("compress");
    let i = app_index(&optimized, PassKind::Dce);
    let app = &mut optimized.applications[i];
    // Actually delete a live instruction from the after program AND declare
    // it: the body diff is consistent, but the removal is not in the
    // dead-write closure.
    let PassEdit::Dce { removed, rounds } = &app.edit else {
        panic!("dce edit");
    };
    let declared: HashSet<(u32, usize)> = removed.iter().map(|s| (s.block.0, s.inst)).collect();
    let (blk, idx, inst) = app
        .before
        .blocks()
        .iter()
        .flat_map(|b| {
            b.insts
                .iter()
                .enumerate()
                .map(move |(j, inst)| (b.id, j, *inst))
        })
        .find(|&(b, j, inst)| inst.dest.is_some() && !declared.contains(&(b.0, j)))
        .expect("a surviving write exists");
    let mut removed = removed.clone();
    removed.push(fetchmech_compiler::DeadSite {
        block: blk,
        inst: idx,
        reg: inst.dest.expect("write"),
    });
    removed.sort_by_key(|s| (s.block.0, s.inst));
    // Rebuild the after body of `blk` from the before body minus all
    // declared removals in that block.
    let gone: HashSet<usize> = removed
        .iter()
        .filter(|s| s.block == blk)
        .map(|s| s.inst)
        .collect();
    let body: Vec<Inst> = app
        .before
        .block(blk)
        .insts
        .iter()
        .enumerate()
        .filter(|(j, _)| !gone.contains(j))
        .map(|(_, inst)| *inst)
        .collect();
    let mut edit = app.after.edit();
    *edit.insts_mut(blk) = body;
    app.after = edit.finish().expect("still structurally valid");
    app.edit = PassEdit::Dce {
        removed,
        rounds: *rounds,
    };
    let mut sink = DiagnosticSink::new();
    check_application(&optimized.applications[i], &profile, &mut sink);
    assert_fires(&sink.into_diagnostics(), "opt.dce-dead");
}

// --------------------------------------------------------- opt.origin-edges

#[test]
fn retargeted_duplicate_edge_trips_origin_edges() {
    let (_w, profile, mut optimized) = pipeline("compress");
    let i = app_index(&optimized, PassKind::Superblock);
    let app = &mut optimized.applications[i];
    let PassEdit::Superblock { duplicated, .. } = &app.edit else {
        panic!("superblock edit");
    };
    assert!(!duplicated.is_empty(), "compress duplicates blocks");
    // Point a duplicate's fall-through somewhere its origin never went.
    let (victim, hijack) = app
        .after
        .blocks()
        .iter()
        .filter_map(|b| match b.terminator {
            Terminator::FallThrough { next } => Some((b.id, next)),
            _ => None,
        })
        .find_map(|(id, next)| {
            let func = app.after.block(id).func;
            app.after
                .blocks()
                .iter()
                .find(|c| c.func == func && c.id != next && c.id != id)
                .map(|c| (id, c.id))
        })
        .expect("a retargetable fall-through exists");
    let mut edit = app.after.edit();
    edit.set_terminator(victim, Terminator::FallThrough { next: hijack });
    app.after = edit.finish().expect("still structurally valid");
    let mut sink = DiagnosticSink::new();
    check_application(&optimized.applications[i], &profile, &mut sink);
    assert_fires(&sink.into_diagnostics(), "opt.origin-edges");
}

#[test]
fn inverted_flag_without_edge_swap_trips_origin_edges() {
    let (_w, profile, mut optimized) = pipeline("compress");
    let i = app_index(&optimized, PassKind::Straighten);
    let app = &mut optimized.applications[i];
    let victim = app
        .after
        .blocks()
        .iter()
        .find_map(|b| match b.terminator {
            Terminator::CondBranch { .. } => Some(b.id),
            _ => None,
        })
        .expect("a conditional exists");
    let Terminator::CondBranch {
        id,
        srcs,
        taken,
        fall,
        inverted,
    } = app.after.block(victim).terminator
    else {
        unreachable!()
    };
    let mut edit = app.after.edit();
    edit.set_terminator(
        victim,
        Terminator::CondBranch {
            id,
            srcs,
            taken,
            fall,
            inverted: !inverted,
        },
    );
    app.after = edit.finish().expect("still structurally valid");
    let mut sink = DiagnosticSink::new();
    check_application(&optimized.applications[i], &profile, &mut sink);
    assert_fires(&sink.into_diagnostics(), "opt.origin-edges");
}

// -------------------------------------------------------- opt.flow-conserved

#[test]
fn dropped_hot_edge_trips_flow_conserved() {
    let (_w, profile, mut optimized) = pipeline("compress");
    let i = app_index(&optimized, PassKind::Straighten);
    let app = &mut optimized.applications[i];
    // Fold a hot conditional's fall edge onto its taken edge: the fall-side
    // flow has nowhere to map.
    let prof_before = Profile::from_raw(
        app.block_origin_before
            .iter()
            .map(|&o| profile.block_count(o))
            .collect(),
        app.branch_origin_before
            .iter()
            .map(|&o| profile.branch_counts(o).0)
            .collect(),
        app.branch_origin_before
            .iter()
            .map(|&o| profile.branch_counts(o).1)
            .collect(),
    );
    let victim = app
        .after
        .blocks()
        .iter()
        .filter_map(|b| match b.terminator {
            Terminator::CondBranch {
                id, taken, fall, ..
            } if taken != fall => {
                let (t, n) = prof_before.branch_counts(app.rel_branch[id.0 as usize]);
                (t > 0 && n > t).then_some((b.id, n))
            }
            _ => None,
        })
        .max_by_key(|&(_, n)| n)
        .map(|(id, _)| id)
        .expect("a two-sided executed conditional exists");
    let Terminator::CondBranch {
        id,
        srcs,
        taken,
        inverted,
        ..
    } = app.after.block(victim).terminator
    else {
        unreachable!()
    };
    let mut edit = app.after.edit();
    edit.set_terminator(
        victim,
        Terminator::CondBranch {
            id,
            srcs,
            taken,
            fall: taken,
            inverted,
        },
    );
    app.after = edit.finish().expect("still structurally valid");
    let mut sink = DiagnosticSink::new();
    check_application(&optimized.applications[i], &profile, &mut sink);
    assert_fires(&sink.into_diagnostics(), "opt.flow-conserved");
}

// ------------------------------------------------------------ ssa.phi-arity

#[test]
fn pruned_phi_arm_trips_phi_arity() {
    let w = suite::benchmark("compress").expect("known benchmark");
    let view = CfgView::local(&w.program);
    let dom = Dominators::compute(&w.program, &view);
    let mut form = build_ssa(&w.program, &view, &dom);
    let (block, arm) = form
        .phis
        .iter()
        .enumerate()
        .find_map(|(b, phis)| phis.iter().position(|p| p.args.len() >= 2).map(|p| (b, p)))
        .expect("a multi-arm phi exists");
    form.phis[block][arm].args.pop();
    let mut sink = DiagnosticSink::new();
    check_ssa(&w.program, &view, &dom, &form, &mut sink);
    assert_fires(&sink.into_diagnostics(), "ssa.phi-arity");
}

// --------------------------------------------------------- ssa.use-dominated

#[test]
fn hoisted_use_trips_use_dominated() {
    let w = suite::benchmark("compress").expect("known benchmark");
    let view = CfgView::local(&w.program);
    let dom = Dominators::compute(&w.program, &view);
    let mut form = build_ssa(&w.program, &view, &dom);
    // Rewrite the first body use in block 0 to a value defined in a later
    // block that certainly does not dominate it: the last value defined by
    // an instruction in the highest-numbered block with a definition.
    let (src_block, src_inst) = (0..w.program.num_blocks())
        .rev()
        .find_map(|b| {
            let blk = BlockId(b as u32);
            (b > 0 && !w.program.block(blk).insts.is_empty() && !dom.dominates(blk, BlockId(0)))
                .then_some((blk, 0usize))
        })
        .expect("a non-dominating defining block exists");
    let stolen = form.inst_defs[src_block.0 as usize][src_inst].expect("definition");
    let (ub, ui, us) = form
        .inst_uses
        .iter()
        .enumerate()
        .find_map(|(b, insts)| {
            dom.dominates(BlockId(b as u32), src_block).then_some(())?;
            insts
                .iter()
                .enumerate()
                .find_map(|(i, uses)| (!uses.is_empty()).then_some((b, i, 0usize)))
        })
        .expect("a use in a block dominating the theft source");
    form.inst_uses[ub][ui][us] = stolen;
    let mut sink = DiagnosticSink::new();
    check_ssa(&w.program, &view, &dom, &form, &mut sink);
    assert_fires(&sink.into_diagnostics(), "ssa.use-dominated");
}

// ----------------------------------------------------------- opt.trace-equiv

#[test]
fn swapped_branch_origins_trip_trace_equiv() {
    let (w, _profile, mut optimized) = pipeline("compress");
    let i = app_index(&optimized, PassKind::Superblock);
    let app = &mut optimized.applications[i];
    // Alias two hot original branches to each other's behavior models: the
    // static rules cannot see behavior identity, but the executed stream
    // diverges from the before program's.
    let prof = Profile::collect(&w, &InputId::PROFILE, INSTS);
    let mut hot: Vec<(u64, usize)> = app
        .branch_origin_after
        .iter()
        .enumerate()
        .map(|(idx, &o)| (prof.branch_counts(o).1, idx))
        .filter(|&(n, _)| n > 0)
        .collect();
    hot.sort_by_key(|&(n, _)| std::cmp::Reverse(n));
    let (a, b) = (hot[0].1, hot[1].1);
    assert_ne!(
        app.branch_origin_after[a], app.branch_origin_after[b],
        "distinct origins"
    );
    app.branch_origin_after.swap(a, b);
    let mut sink = DiagnosticSink::new();
    check_app_dynamic(&w, &optimized.applications[i], INSTS, &mut sink);
    assert_fires(&sink.into_diagnostics(), "opt.trace-equiv");
}

#[test]
fn swapped_edges_without_inversion_trip_trace_equiv() {
    let (w, _profile, mut optimized) = pipeline("compress");
    let i = app_index(&optimized, PassKind::Straighten);
    let app = &mut optimized.applications[i];
    // Swap a hot conditional's hardware edges without toggling `inverted`:
    // semantics flip, and the executed after stream takes the wrong side.
    let prof = Profile::collect(&w, &InputId::PROFILE, INSTS);
    let victim = app
        .after
        .blocks()
        .iter()
        .filter_map(|b| match b.terminator {
            Terminator::CondBranch {
                id, taken, fall, ..
            } if taken != fall => {
                let o = app.branch_origin_after[id.0 as usize];
                let (t, n) = prof.branch_counts(o);
                (t > 0 && n > t).then_some((b.id, n))
            }
            _ => None,
        })
        .max_by_key(|&(_, n)| n)
        .map(|(id, _)| id)
        .expect("a two-sided executed conditional exists");
    let Terminator::CondBranch {
        id,
        srcs,
        taken,
        fall,
        inverted,
    } = app.after.block(victim).terminator
    else {
        unreachable!()
    };
    let mut edit = app.after.edit();
    edit.set_terminator(
        victim,
        Terminator::CondBranch {
            id,
            srcs,
            taken: fall,
            fall: taken,
            inverted,
        },
    );
    app.after = edit.finish().expect("still structurally valid");
    let mut sink = DiagnosticSink::new();
    check_app_dynamic(&w, &optimized.applications[i], INSTS, &mut sink);
    assert_fires(&sink.into_diagnostics(), "opt.trace-equiv");
}
