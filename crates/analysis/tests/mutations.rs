//! Mutation tests: corrupt one invariant of a valid artifact and assert the
//! verifier reports exactly the intended rule.
//!
//! Every rule id in the registry has at least one seeded corruption here.
//! These tests must NOT install the debug hooks — they deliberately build
//! malformed IR through the raw escape hatches, and hooked constructors
//! would panic before the passes under test ever ran.

use std::collections::HashSet;

use fetchmech_analysis::{
    verify_layout, verify_profile, verify_program, verify_trace_diff, verify_traces,
    verify_transform, Diagnostic, Severity,
};
use fetchmech_compiler::{reorder, select_traces, Profile, Reordered, Trace};
use fetchmech_isa::{
    Addr, BlockId, BranchId, CtrlAttr, Inst, Layout, LayoutOptions, OpClass, PadMode, Program,
    Terminator,
};
use fetchmech_workloads::{suite, InputId, Workload};

const BLOCK_BYTES: u64 = 16;

fn workload() -> Workload {
    suite::benchmark("compress").expect("known benchmark")
}

fn profiled() -> (Workload, Profile) {
    let w = workload();
    let p = Profile::collect(&w, &InputId::PROFILE, 20_000);
    (w, p)
}

fn reordered() -> (Workload, Profile, Reordered) {
    let (w, p) = profiled();
    let r = reorder(&w.program, &p);
    (w, p, r)
}

fn rule_set(diags: &[Diagnostic]) -> HashSet<&'static str> {
    diags.iter().map(|d| d.rule_id).collect()
}

/// Asserts `diags` contains `rule` at the given severity.
fn assert_fires(diags: &[Diagnostic], rule: &str, severity: Severity) {
    assert!(
        diags
            .iter()
            .any(|d| d.rule_id == rule && d.severity == severity),
        "expected {rule} at {severity:?}; got {:?}",
        rule_set(diags)
    );
}

/// Corrupts `program` through its raw parts and verifies it.
fn mutate_program(
    program: &Program,
    f: impl FnOnce(&mut fetchmech_isa::RawProgram),
) -> Vec<Diagnostic> {
    let mut raw = program.clone().into_raw();
    f(&mut raw);
    verify_program(&Program::from_raw(raw))
}

/// Finds a block whose terminator satisfies `pred`.
fn find_block(program: &Program, pred: impl Fn(&Terminator) -> bool) -> BlockId {
    program
        .blocks()
        .iter()
        .find(|b| pred(&b.terminator))
        .map(|b| b.id)
        .expect("workload contains the needed terminator kind")
}

// ---------------------------------------------------------------- ProgramPass

#[test]
fn baseline_program_is_clean() {
    let w = workload();
    let diags = verify_program(&w.program);
    assert!(
        diags.is_empty(),
        "expected clean baseline, got {:?}",
        rule_set(&diags)
    );
}

#[test]
fn mut_block_id_dense() {
    let w = workload();
    let diags = mutate_program(&w.program, |raw| {
        raw.blocks[3].id = BlockId(4);
    });
    assert_fires(&diags, "prog.block-id-dense", Severity::Error);
}

#[test]
fn mut_func_valid_bad_entry() {
    let w = workload();
    let diags = mutate_program(&w.program, |raw| {
        raw.func_entries[0] = BlockId(u32::MAX);
    });
    assert_fires(&diags, "prog.func-valid", Severity::Error);
}

#[test]
fn mut_func_valid_bad_block_func() {
    let w = workload();
    let diags = mutate_program(&w.program, |raw| {
        let nf = raw.func_entries.len() as u32;
        raw.blocks[1].func = fetchmech_isa::FuncId(nf + 7);
    });
    assert_fires(&diags, "prog.func-valid", Severity::Error);
}

#[test]
fn mut_entry_valid() {
    let w = workload();
    let diags = mutate_program(&w.program, |raw| {
        raw.entry = BlockId(raw.blocks.len() as u32 + 10);
    });
    assert_fires(&diags, "prog.entry-valid", Severity::Error);
}

#[test]
fn mut_entry_reachable() {
    let w = workload();
    let diags = mutate_program(&w.program, |raw| {
        // Append a block nothing points at.
        let id = BlockId(raw.blocks.len() as u32);
        raw.blocks.push(fetchmech_isa::Block {
            id,
            func: raw.blocks[0].func,
            insts: vec![Inst::new(OpClass::IntAlu, None, [None, None])],
            terminator: Terminator::Return,
        });
    });
    assert_fires(&diags, "prog.entry-reachable", Severity::Warning);
}

#[test]
fn mut_terminator_total() {
    let w = workload();
    let entry = w.program.entry();
    let entry_func = w.program.block(entry).func;
    let diags = mutate_program(&w.program, |raw| {
        // Replace every Return/Halt of the entry function with a jump back
        // to the entry: control can never leave the function again.
        for b in &mut raw.blocks {
            if b.func == entry_func && matches!(b.terminator, Terminator::Return | Terminator::Halt)
            {
                b.terminator = Terminator::Jump { target: entry };
            }
        }
    });
    assert_fires(&diags, "prog.terminator-total", Severity::Error);
}

#[test]
fn mut_edge_target() {
    let w = workload();
    let jumper = find_block(&w.program, |t| matches!(t, Terminator::FallThrough { .. }));
    let diags = mutate_program(&w.program, |raw| {
        raw.blocks[jumper.0 as usize].terminator = Terminator::FallThrough {
            next: BlockId(9_999),
        };
    });
    assert_fires(&diags, "prog.edge-target", Severity::Error);
}

#[test]
fn mut_edge_in_func() {
    let w = workload();
    // Pick a fall-through block and retarget it into a different function.
    let victim = find_block(&w.program, |t| matches!(t, Terminator::FallThrough { .. }));
    let victim_func = w.program.block(victim).func;
    let foreign = w
        .program
        .blocks()
        .iter()
        .find(|b| b.func != victim_func)
        .map(|b| b.id)
        .expect("multi-function workload");
    let diags = mutate_program(&w.program, |raw| {
        raw.blocks[victim.0 as usize].terminator = Terminator::FallThrough { next: foreign };
    });
    assert_fires(&diags, "prog.edge-in-func", Severity::Error);
}

#[test]
fn mut_branch_id_range() {
    let w = workload();
    let brancher = find_block(&w.program, |t| matches!(t, Terminator::CondBranch { .. }));
    let diags = mutate_program(&w.program, |raw| {
        if let Terminator::CondBranch { id, .. } = &mut raw.blocks[brancher.0 as usize].terminator {
            *id = BranchId(raw.num_branches + 5);
        }
    });
    assert_fires(&diags, "prog.branch-id-range", Severity::Error);
}

#[test]
fn mut_branch_id_unique() {
    let w = workload();
    let branchers: Vec<BlockId> = w
        .program
        .blocks()
        .iter()
        .filter(|b| matches!(b.terminator, Terminator::CondBranch { .. }))
        .map(|b| b.id)
        .collect();
    assert!(branchers.len() >= 2, "need two branches to collide");
    let stolen = match w.program.block(branchers[0]).terminator {
        Terminator::CondBranch { id, .. } => id,
        _ => unreachable!(),
    };
    let diags = mutate_program(&w.program, |raw| {
        if let Terminator::CondBranch { id, .. } =
            &mut raw.blocks[branchers[1].0 as usize].terminator
        {
            *id = stolen;
        }
    });
    assert_fires(&diags, "prog.branch-id-unique", Severity::Error);
}

#[test]
fn mut_branch_id_unused() {
    let w = workload();
    let diags = mutate_program(&w.program, |raw| {
        raw.num_branches += 1;
    });
    assert_fires(&diags, "prog.branch-id-unused", Severity::Error);
}

#[test]
fn mut_call_to_entry() {
    let w = workload();
    let caller = find_block(&w.program, |t| matches!(t, Terminator::Call { .. }));
    let (callee, return_to) = match w.program.block(caller).terminator {
        Terminator::Call { callee, return_to } => (callee, return_to),
        _ => unreachable!(),
    };
    // A non-entry block inside the callee's function.
    let callee_func = w.program.block(callee).func;
    let non_entry = w
        .program
        .blocks()
        .iter()
        .find(|b| b.func == callee_func && b.id != callee)
        .map(|b| b.id)
        .expect("callee function has more than one block");
    let diags = mutate_program(&w.program, |raw| {
        raw.blocks[caller.0 as usize].terminator = Terminator::Call {
            callee: non_entry,
            return_to,
        };
    });
    assert_fires(&diags, "prog.call-to-entry", Severity::Error);
}

#[test]
fn mut_body_no_control() {
    let w = workload();
    let diags = mutate_program(&w.program, |raw| {
        raw.blocks[0].insts.push(Inst {
            op: OpClass::Jump,
            dest: None,
            srcs: [None, None],
            imm: 0,
        });
    });
    assert_fires(&diags, "prog.body-no-control", Severity::Error);
}

// ----------------------------------------------------------------- LayoutPass

fn natural_layout(w: &Workload) -> Layout {
    Layout::natural(&w.program, LayoutOptions::new(BLOCK_BYTES)).expect("layout")
}

/// Corrupts a layout through its raw parts and verifies it.
fn mutate_layout(
    w: &Workload,
    layout: &Layout,
    f: impl FnOnce(&mut fetchmech_isa::RawLayout),
) -> Vec<Diagnostic> {
    let mut raw = layout.clone().into_raw();
    f(&mut raw);
    verify_layout(&w.program, &Layout::from_raw(raw))
}

#[test]
fn baseline_layout_is_clean() {
    let w = workload();
    let diags = verify_layout(&w.program, &natural_layout(&w));
    assert!(
        diags.is_empty(),
        "expected clean baseline, got {:?}",
        rule_set(&diags)
    );
}

#[test]
fn mut_layout_order_permutation() {
    let w = workload();
    let diags = mutate_layout(&w, &natural_layout(&w), |raw| {
        raw.order[1] = raw.order[0];
    });
    assert_fires(&diags, "layout.order-permutation", Severity::Error);
}

#[test]
fn mut_layout_addr_monotonic() {
    let w = workload();
    let diags = mutate_layout(&w, &natural_layout(&w), |raw| {
        let a = raw.code[5].addr;
        raw.code[5].addr = a.add_words(2);
    });
    assert_fires(&diags, "layout.addr-monotonic", Severity::Error);
}

#[test]
fn mut_layout_addr_aligned() {
    let w = workload();
    let diags = mutate_layout(&w, &natural_layout(&w), |raw| {
        raw.code[5].addr = Addr::new(raw.code[5].addr.byte() + 2);
    });
    assert_fires(&diags, "layout.addr-aligned", Severity::Error);
}

#[test]
fn mut_layout_block_addr() {
    let w = workload();
    let diags = mutate_layout(&w, &natural_layout(&w), |raw| {
        // Nudge a non-empty block's recorded address off its first
        // instruction.
        raw.block_addr[0] = raw.block_addr[0].add_words(1);
    });
    assert_fires(&diags, "layout.block-addr", Severity::Error);
}

#[test]
fn mut_layout_target_resolves() {
    let w = workload();
    let layout = natural_layout(&w);
    // Retarget a conditional branch at some other block's start address —
    // still inside the image, but not where its terminator points.
    let (idx, wrong) = layout
        .code()
        .iter()
        .enumerate()
        .find_map(|(i, inst)| {
            if inst.op != OpClass::CondBranch {
                return None;
            }
            let expect = inst.ctrl?.target?;
            let wrong = w
                .program
                .blocks()
                .iter()
                .map(|b| layout.block_addr(b.id))
                .find(|&a| a != expect && layout.index_of(a).is_some())?;
            Some((i, wrong))
        })
        .expect("a retargetable branch exists");
    let diags = mutate_layout(&w, &layout, |raw| {
        let ctrl = raw.code[idx].ctrl.as_mut().expect("branch has ctrl");
        ctrl.target = Some(wrong);
    });
    assert_fires(&diags, "layout.target-resolves", Severity::Error);
}

#[test]
fn mut_layout_ctrl_attr_on_body_inst() {
    let w = workload();
    let layout = natural_layout(&w);
    let idx = layout
        .code()
        .iter()
        .position(|i| i.ctrl.is_none() && i.op != OpClass::Nop)
        .expect("body instruction exists");
    let diags = mutate_layout(&w, &layout, |raw| {
        raw.code[idx].ctrl = Some(CtrlAttr {
            branch_id: None,
            inverted: false,
            target: None,
        });
    });
    assert_fires(&diags, "layout.ctrl-attr", Severity::Error);
}

#[test]
fn mut_layout_ctrl_attr_missing_branch_id() {
    let w = workload();
    let layout = natural_layout(&w);
    let idx = layout
        .code()
        .iter()
        .position(|i| i.op == OpClass::CondBranch)
        .expect("branch exists");
    let diags = mutate_layout(&w, &layout, |raw| {
        raw.code[idx].ctrl.as_mut().expect("ctrl").branch_id = None;
    });
    assert_fires(&diags, "layout.ctrl-attr", Severity::Error);
}

#[test]
fn mut_layout_pad_alignment() {
    let w = workload();
    // Claim pad-all on a layout that was built without padding: blocks do
    // not start on cache-block boundaries, so the claimed alignment is a lie.
    let diags = mutate_layout(&w, &natural_layout(&w), |raw| {
        raw.options.pad = PadMode::PadAll;
    });
    assert_fires(&diags, "layout.pad-alignment", Severity::Error);
}

#[test]
fn mut_layout_pad_accounting() {
    let w = workload();
    let diags = mutate_layout(&w, &natural_layout(&w), |raw| {
        raw.stats.pad_nops += 3;
    });
    assert_fires(&diags, "layout.pad-accounting", Severity::Error);
}

// ------------------------------------------------------------------- FlowPass

/// Extracts the raw count vectors from a profile via its accessors.
fn profile_vectors(p: &Profile) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let blocks: Vec<u64> = (0..p.num_blocks())
        .map(|i| p.block_count(BlockId(i as u32)))
        .collect();
    let (mut taken, mut total) = (Vec::new(), Vec::new());
    for i in 0..p.num_branches() {
        let (t, n) = p.branch_counts(BranchId(i as u32));
        taken.push(t);
        total.push(n);
    }
    (blocks, taken, total)
}

#[test]
fn baseline_profile_is_clean() {
    let (w, p) = profiled();
    let diags = verify_profile(&w.program, &p);
    assert!(
        diags.is_empty(),
        "expected clean baseline, got {:?}",
        rule_set(&diags)
    );
}

#[test]
fn mut_profile_dims() {
    let (w, p) = profiled();
    let (mut blocks, taken, total) = profile_vectors(&p);
    blocks.pop();
    let bad = Profile::from_raw(blocks, taken, total);
    let diags = verify_profile(&w.program, &bad);
    assert_fires(&diags, "profile.dims", Severity::Error);
}

#[test]
fn mut_profile_taken_le_total() {
    let (w, p) = profiled();
    let (blocks, mut taken, total) = profile_vectors(&p);
    let hot = (0..total.len())
        .max_by_key(|&i| total[i])
        .expect("branches exist");
    taken[hot] = total[hot] + 10;
    let bad = Profile::from_raw(blocks, taken, total);
    let diags = verify_profile(&w.program, &bad);
    assert_fires(&diags, "profile.taken-le-total", Severity::Error);
}

#[test]
fn mut_profile_branch_vs_block() {
    let (w, p) = profiled();
    let (blocks, mut taken, mut total) = profile_vectors(&p);
    let hot = (0..total.len())
        .max_by_key(|&i| total[i])
        .expect("branches exist");
    assert!(
        total[hot] > 200,
        "profiling budget too small for the mutation"
    );
    // Inflate both counts so taken<=total still holds but the branch now
    // executes far more often than its block.
    total[hot] *= 3;
    taken[hot] = total[hot] / 2;
    let bad = Profile::from_raw(blocks, taken, total);
    let diags = verify_profile(&w.program, &bad);
    assert_fires(&diags, "profile.branch-vs-block", Severity::Error);
}

#[test]
fn mut_profile_flow_conservation() {
    let (w, p) = profiled();
    let (mut blocks, taken, total) = profile_vectors(&p);
    let hot = (0..blocks.len())
        .max_by_key(|&i| blocks[i])
        .expect("blocks exist");
    assert!(
        blocks[hot] > 200,
        "profiling budget too small for the mutation"
    );
    blocks[hot] *= 2;
    let bad = Profile::from_raw(blocks, taken, total);
    let diags = verify_profile(&w.program, &bad);
    assert_fires(&diags, "profile.flow-conservation", Severity::Error);
}

#[test]
fn mut_profile_empty() {
    let (w, p) = profiled();
    let bad = Profile::from_raw(
        vec![0; p.num_blocks()],
        vec![0; p.num_branches()],
        vec![0; p.num_branches()],
    );
    let diags = verify_profile(&w.program, &bad);
    assert_fires(&diags, "profile.empty", Severity::Warning);
}

// ----------------------------------------------------------------- TracesPass

fn selected() -> (Workload, Vec<Trace>) {
    let (w, p) = profiled();
    let traces = select_traces(&w.program, &p);
    (w, traces)
}

#[test]
fn baseline_traces_are_clean() {
    let (w, traces) = selected();
    let diags = verify_traces(&w.program, &traces);
    assert!(
        diags.is_empty(),
        "expected clean baseline, got {:?}",
        rule_set(&diags)
    );
}

#[test]
fn mut_traces_nonempty() {
    let (w, mut traces) = selected();
    traces.push(Trace {
        blocks: vec![],
        weight: 0,
    });
    let diags = verify_traces(&w.program, &traces);
    assert_fires(&diags, "traces.nonempty", Severity::Error);
}

#[test]
fn mut_traces_partition_duplicate() {
    let (w, mut traces) = selected();
    let dup = traces[0].blocks[0];
    traces.push(Trace {
        blocks: vec![dup],
        weight: 0,
    });
    let diags = verify_traces(&w.program, &traces);
    assert_fires(&diags, "traces.partition", Severity::Error);
}

#[test]
fn mut_traces_partition_uncovered() {
    let (w, mut traces) = selected();
    traces.pop();
    let diags = verify_traces(&w.program, &traces);
    assert_fires(&diags, "traces.partition", Severity::Error);
}

#[test]
fn mut_traces_same_func() {
    let (w, mut traces) = selected();
    // Splice a block from another function onto a trace.
    let f0 = w.program.block(traces[0].blocks[0]).func;
    let foreign = w
        .program
        .blocks()
        .iter()
        .find(|b| b.func != f0)
        .map(|b| b.id)
        .expect("multi-function workload");
    traces[0].blocks.push(foreign);
    let diags = verify_traces(&w.program, &traces);
    assert_fires(&diags, "traces.same-func", Severity::Error);
}

#[test]
fn mut_traces_adjacent_edges() {
    let (w, mut traces) = selected();
    // Append a same-function block that is not a CFG successor of the tail.
    let t = traces
        .iter_mut()
        .find(|t| {
            let func = w.program.block(t.blocks[0]).func;
            let tail = *t.blocks.last().expect("nonempty");
            w.program.blocks().iter().any(|b| {
                b.func == func
                    && !t.blocks.contains(&b.id)
                    && !w
                        .program
                        .block(tail)
                        .terminator
                        .local_successors()
                        .iter()
                        .any(|&(_, s)| s == b.id)
            })
        })
        .expect("an extendable trace exists");
    let func = w.program.block(t.blocks[0]).func;
    let tail = *t.blocks.last().expect("nonempty");
    let non_succ = w
        .program
        .blocks()
        .iter()
        .find(|b| {
            b.func == func
                && !t.blocks.contains(&b.id)
                && !w
                    .program
                    .block(tail)
                    .terminator
                    .local_successors()
                    .iter()
                    .any(|&(_, s)| s == b.id)
        })
        .map(|b| b.id)
        .expect("non-successor exists");
    t.blocks.push(non_succ);
    let diags = verify_traces(&w.program, &traces);
    assert_fires(&diags, "traces.adjacent-edges", Severity::Error);
}

// -------------------------------------------------------------- TransformPass

#[test]
fn baseline_transform_is_clean() {
    let (w, _, r) = reordered();
    let diags = verify_transform(&w.program, &r);
    assert!(
        diags.is_empty(),
        "expected clean baseline, got {:?}",
        rule_set(&diags)
    );
}

#[test]
fn mut_xform_isomorphic() {
    let (w, _, mut r) = reordered();
    let mut raw = r.program.clone().into_raw();
    raw.blocks.pop();
    r.program = Program::from_raw(raw);
    let diags = verify_transform(&w.program, &r);
    assert_fires(&diags, "xform.isomorphic", Severity::Error);
}

#[test]
fn mut_xform_body_preserved() {
    let (w, _, mut r) = reordered();
    let mut raw = r.program.clone().into_raw();
    raw.blocks[0]
        .insts
        .push(Inst::new(OpClass::IntAlu, None, [None, None]));
    r.program = Program::from_raw(raw);
    let diags = verify_transform(&w.program, &r);
    assert_fires(&diags, "xform.body-preserved", Severity::Error);
}

#[test]
fn mut_xform_terminator_equiv_flag_only() {
    let (w, _, mut r) = reordered();
    let mut raw = r.program.clone().into_raw();
    let b = raw
        .blocks
        .iter_mut()
        .find(|b| matches!(b.terminator, Terminator::CondBranch { .. }))
        .expect("branch exists");
    if let Terminator::CondBranch { inverted, .. } = &mut b.terminator {
        *inverted = !*inverted;
    }
    r.program = Program::from_raw(raw);
    let diags = verify_transform(&w.program, &r);
    assert_fires(&diags, "xform.terminator-equiv", Severity::Error);
}

#[test]
fn mut_xform_order_permutation() {
    let (w, _, mut r) = reordered();
    r.order[2] = r.order[1];
    let diags = verify_transform(&w.program, &r);
    assert_fires(&diags, "xform.order-permutation", Severity::Error);
}

#[test]
fn mut_xform_inverted_count() {
    let (w, _, mut r) = reordered();
    r.inverted_branches += 1;
    let diags = verify_transform(&w.program, &r);
    assert_fires(&diags, "xform.inverted-count", Severity::Error);
}

#[test]
fn mut_xform_trace_ends() {
    let (w, _, mut r) = reordered();
    r.trace_ends.insert(BlockId(9_999));
    let diags = verify_transform(&w.program, &r);
    assert_fires(&diags, "xform.trace-ends", Severity::Error);
}

// -------------------------------------------------------------- TraceDiffPass

#[test]
fn baseline_trace_diff_is_clean() {
    let (w, _, r) = reordered();
    let diags = verify_trace_diff(&w, &r, 20_000);
    assert!(
        diags.is_empty(),
        "expected clean baseline, got {:?}",
        rule_set(&diags)
    );
}

#[test]
fn mut_trace_equiv() {
    let (w, p, mut r) = reordered();
    // Change the destination register of a body instruction in the hottest
    // block: placement-identical, computation-different.
    let hot = (0..w.program.num_blocks() as u32)
        .map(BlockId)
        .filter(|&b| !w.program.block(b).insts.is_empty())
        .max_by_key(|&b| p.block_count(b))
        .expect("a hot non-empty block exists");
    let mut raw = r.program.clone().into_raw();
    let inst = &mut raw.blocks[hot.0 as usize].insts[0];
    inst.dest = match inst.dest {
        Some(fetchmech_isa::Reg::Int(n)) => Some(fetchmech_isa::Reg::Int((n + 1) % 30)),
        _ => Some(fetchmech_isa::Reg::int(7)),
    };
    r.program = Program::from_raw(raw);
    let diags = verify_trace_diff(&w, &r, 20_000);
    assert_fires(&diags, "xform.trace-equiv", Severity::Error);
}

#[test]
fn mut_trace_overlap() {
    let (w, _, mut r) = reordered();
    // Hollow out every block body into nops: the reordered side then yields
    // almost no useful instructions, so the comparable overlap collapses.
    let mut raw = r.program.clone().into_raw();
    for b in &mut raw.blocks {
        for inst in &mut b.insts {
            *inst = Inst::new(OpClass::Nop, None, [None, None]);
        }
    }
    r.program = Program::from_raw(raw);
    let diags = verify_trace_diff(&w, &r, 20_000);
    assert_fires(&diags, "xform.trace-overlap", Severity::Warning);
}
