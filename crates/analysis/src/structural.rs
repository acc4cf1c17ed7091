//! Structural verification of [`Program`]s and [`Layout`]s — the
//! LLVM-verifier-style invariants everything downstream assumes.

use std::collections::VecDeque;

use fetchmech_isa::{BlockId, Layout, OpClass, PadMode, Program, Terminator, WORD_BYTES};

use crate::diag::{DiagnosticSink, Location, Severity};
use crate::registry::{Pass, Target};

/// Rule ids emitted by [`ProgramPass`].
pub(crate) const PROGRAM_RULES: &[&str] = &[
    "prog.block-id-dense",
    "prog.func-valid",
    "prog.entry-valid",
    "prog.entry-reachable",
    "prog.terminator-total",
    "prog.edge-target",
    "prog.edge-in-func",
    "prog.branch-id-range",
    "prog.branch-id-unique",
    "prog.branch-id-unused",
    "prog.call-to-entry",
    "prog.body-no-control",
];

/// Structural verifier over a [`Program`]: id density, edge sanity,
/// reachability, branch-id bookkeeping, and terminator totality.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ProgramPass;

impl Pass for ProgramPass {
    fn name(&self) -> &'static str {
        "structural-program"
    }

    fn description(&self) -> &'static str {
        "CFG invariants: block/function ids, edge targets, branch-id uniqueness, \
         entry reachability, terminator totality"
    }

    fn rules(&self) -> &'static [&'static str] {
        PROGRAM_RULES
    }

    fn applies(&self, target: &Target<'_>) -> bool {
        matches!(
            target,
            Target::Program(_) | Target::Layout { .. } | Target::Transform { .. }
        )
    }

    fn run(&self, target: &Target<'_>, sink: &mut DiagnosticSink) {
        match target {
            Target::Program(p) => check_program(p, sink),
            Target::Layout { program, .. } => check_program(program, sink),
            Target::Transform {
                original,
                reordered,
            } => {
                check_program(original, sink);
                check_program(&reordered.program, sink);
            }
            _ => {}
        }
    }
}

/// Runs every [`ProgramPass`] rule over `program`.
pub(crate) fn check_program(program: &Program, sink: &mut DiagnosticSink) {
    let n = program.num_blocks();
    let nf = program.num_funcs();
    let in_range = |b: BlockId| (b.0 as usize) < n;

    // prog.block-id-dense: stored ids must equal table indices.
    for (idx, b) in program.blocks().iter().enumerate() {
        if b.id.0 as usize != idx {
            sink.error(
                "prog.block-id-dense",
                Location::Block(b.id),
                format!("block at index {idx} carries id {}", b.id),
            );
        }
    }

    // prog.func-valid: function references and entry ownership.
    if nf == 0 {
        sink.error(
            "prog.func-valid",
            Location::Program,
            "program has no functions",
        );
    }
    for (fi, &fe) in program.func_entries().iter().enumerate() {
        if !in_range(fe) {
            sink.error(
                "prog.func-valid",
                Location::Func(fetchmech_isa::FuncId(fi as u32)),
                format!("function entry {fe} is out of range"),
            );
        } else if program.block(fe).func.0 as usize != fi {
            sink.error(
                "prog.func-valid",
                Location::Func(fetchmech_isa::FuncId(fi as u32)),
                format!("entry {fe} belongs to function {}", program.block(fe).func),
            );
        }
    }
    for b in program.blocks() {
        if b.func.0 as usize >= nf {
            sink.error(
                "prog.func-valid",
                Location::Block(b.id),
                format!("block references unknown function {}", b.func),
            );
        }
    }

    // prog.entry-valid: the program entry must exist and be its function's
    // entry (execution begins there; a mid-function entry would make the
    // halt-restart semantics re-enter a loop body).
    if !in_range(program.entry()) {
        sink.error(
            "prog.entry-valid",
            Location::Block(program.entry()),
            "program entry is out of range",
        );
        return; // Everything below needs a valid entry.
    }

    // prog.edge-target / prog.edge-in-func / prog.call-to-entry /
    // prog.branch-id-*: terminator edge checks.
    let num_branches = program.num_branches();
    let mut branch_uses: Vec<Vec<BlockId>> = vec![Vec::new(); num_branches as usize];
    for b in program.blocks() {
        let mut local_edge = |to: BlockId| {
            if !in_range(to) {
                sink.error(
                    "prog.edge-target",
                    Location::Block(b.id),
                    format!("edge {} -> {to} targets a nonexistent block", b.id),
                );
            } else if program.block(to).func != b.func {
                sink.error(
                    "prog.edge-in-func",
                    Location::Block(b.id),
                    format!(
                        "edge {} -> {to} crosses from {} into {}",
                        b.id,
                        b.func,
                        program.block(to).func
                    ),
                );
            }
        };
        match b.terminator {
            Terminator::FallThrough { next } => local_edge(next),
            Terminator::Jump { target } => local_edge(target),
            Terminator::CondBranch {
                id, taken, fall, ..
            } => {
                local_edge(taken);
                local_edge(fall);
                if id.0 >= num_branches {
                    sink.error(
                        "prog.branch-id-range",
                        Location::Branch(id),
                        format!(
                            "{} uses branch id {id} outside the allocated range 0..{num_branches}",
                            b.id
                        ),
                    );
                } else {
                    branch_uses[id.0 as usize].push(b.id);
                }
            }
            Terminator::Call { callee, return_to } => {
                local_edge(return_to);
                if !in_range(callee) {
                    sink.error(
                        "prog.edge-target",
                        Location::Block(b.id),
                        format!("call in {} targets nonexistent block {callee}", b.id),
                    );
                } else {
                    let cf = program.block(callee).func;
                    if program.func_entries().get(cf.0 as usize) != Some(&callee) {
                        sink.error(
                            "prog.call-to-entry",
                            Location::Block(b.id),
                            format!("{} calls {callee}, which is not a function entry", b.id),
                        );
                    }
                }
            }
            Terminator::Return | Terminator::Halt => {}
        }
        // prog.body-no-control: bodies are straight-line by construction.
        for inst in &b.insts {
            if inst.op.is_control() || inst.op == OpClass::Halt {
                sink.error(
                    "prog.body-no-control",
                    Location::Block(b.id),
                    format!("control op {} in the body of {}", inst.op, b.id),
                );
            }
        }
    }
    for (id, uses) in branch_uses.iter().enumerate() {
        let id = fetchmech_isa::BranchId(id as u32);
        if uses.len() > 1 {
            sink.error(
                "prog.branch-id-unique",
                Location::Branch(id),
                format!(
                    "branch id {id} is used by {} blocks ({})",
                    uses.len(),
                    uses.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            );
        } else if uses.is_empty() {
            sink.error(
                "prog.branch-id-unused",
                Location::Branch(id),
                format!("allocated branch id {id} is not used by any block"),
            );
        }
    }

    // prog.entry-reachable: every block must be reachable from the program
    // entry, following intra-procedural edges plus call edges. Unreachable
    // code is dead weight the workload generators never emit; profiles and
    // trace selection silently treat it as cold, so flag it.
    let mut reachable = vec![false; n];
    let mut queue = VecDeque::new();
    let push = |q: &mut VecDeque<BlockId>, r: &mut Vec<bool>, b: BlockId| {
        if in_range(b) && !r[b.0 as usize] {
            r[b.0 as usize] = true;
            q.push_back(b);
        }
    };
    push(&mut queue, &mut reachable, program.entry());
    while let Some(b) = queue.pop_front() {
        let blk = program.block(b);
        for (_, succ) in blk.terminator.local_successors() {
            push(&mut queue, &mut reachable, succ);
        }
        if let Terminator::Call { callee, .. } = blk.terminator {
            push(&mut queue, &mut reachable, callee);
        }
    }
    for (idx, &r) in reachable.iter().enumerate() {
        if !r {
            sink.emit(
                "prog.entry-reachable",
                Severity::Warning,
                Location::Block(BlockId(idx as u32)),
                "block is unreachable from the program entry",
            );
        }
    }

    // prog.terminator-total: control flow must be able to leave every
    // function — some reachable block of the entry function must halt, and
    // every called function must contain a return. A function with neither
    // can never give control back, so any trace through it diverges.
    let mut func_exits = vec![false; nf];
    let mut func_called = vec![false; nf];
    for b in program.blocks() {
        match b.terminator {
            Terminator::Return | Terminator::Halt if (b.func.0 as usize) < nf => {
                func_exits[b.func.0 as usize] = true;
            }
            Terminator::Call { callee, .. } if in_range(callee) => {
                let cf = program.block(callee).func;
                if (cf.0 as usize) < nf {
                    func_called[cf.0 as usize] = true;
                }
            }
            _ => {}
        }
    }
    for (fi, &exits) in func_exits.iter().enumerate() {
        let entry_func = program.block(program.entry()).func.0 as usize == fi;
        if !exits && (entry_func || func_called[fi]) {
            sink.error(
                "prog.terminator-total",
                Location::Func(fetchmech_isa::FuncId(fi as u32)),
                "function has no return or halt: control can never leave it",
            );
        }
    }
}

/// Rule ids emitted by [`LayoutPass`].
pub(crate) const LAYOUT_RULES: &[&str] = &[
    "layout.order-permutation",
    "layout.addr-monotonic",
    "layout.addr-aligned",
    "layout.block-addr",
    "layout.target-resolves",
    "layout.ctrl-attr",
    "layout.pad-alignment",
    "layout.pad-accounting",
];

/// Structural verifier over a [`Layout`]: address monotonicity and
/// alignment, block-address consistency, target resolution, control
/// attributes, and §4.1 nop-padding alignment.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LayoutPass;

impl Pass for LayoutPass {
    fn name(&self) -> &'static str {
        "structural-layout"
    }

    fn description(&self) -> &'static str {
        "layout invariants: address monotonicity/alignment, block addresses, \
         branch-target resolution, cache-line padding"
    }

    fn rules(&self) -> &'static [&'static str] {
        LAYOUT_RULES
    }

    fn applies(&self, target: &Target<'_>) -> bool {
        matches!(target, Target::Layout { .. })
    }

    fn run(&self, target: &Target<'_>, sink: &mut DiagnosticSink) {
        if let Target::Layout { program, layout } = target {
            check_layout(program, layout, sink);
        }
    }
}

/// Runs every [`LayoutPass`] rule over `layout`.
pub(crate) fn check_layout(program: &Program, layout: &Layout, sink: &mut DiagnosticSink) {
    let n = program.num_blocks();

    // layout.order-permutation.
    let order = layout.order();
    let mut seen = vec![false; n];
    let mut order_ok = order.len() == n;
    if order.len() != n {
        sink.error(
            "layout.order-permutation",
            Location::Program,
            format!("layout order has {} entries for {n} blocks", order.len()),
        );
    }
    for &b in order {
        let idx = b.0 as usize;
        if idx >= n || seen[idx] {
            sink.error(
                "layout.order-permutation",
                Location::Block(b),
                format!("block {b} is duplicated or out of range in the layout order"),
            );
            order_ok = false;
        } else {
            seen[idx] = true;
        }
    }

    // layout.addr-monotonic / layout.addr-aligned: the code vector is a
    // contiguous, word-aligned, strictly increasing address sequence.
    let base = layout.options().base;
    if !base.byte().is_multiple_of(WORD_BYTES) {
        sink.error(
            "layout.addr-aligned",
            Location::Addr(base),
            format!("layout base {base} is not {WORD_BYTES}-byte aligned"),
        );
    }
    let mut prev = None;
    for inst in layout.code() {
        if !inst.addr.byte().is_multiple_of(WORD_BYTES) {
            sink.error(
                "layout.addr-aligned",
                Location::Addr(inst.addr),
                format!("instruction address {} is not word aligned", inst.addr),
            );
        }
        if let Some(p) = prev {
            let expect = fetchmech_isa::Addr::new(p).add_words(1);
            if inst.addr != expect {
                sink.error(
                    "layout.addr-monotonic",
                    Location::Addr(inst.addr),
                    format!(
                        "address {} does not follow {} (expected {expect})",
                        inst.addr,
                        fetchmech_isa::Addr::new(p)
                    ),
                );
            }
        } else if inst.addr != base {
            sink.error(
                "layout.addr-monotonic",
                Location::Addr(inst.addr),
                format!(
                    "first instruction at {} but layout base is {base}",
                    inst.addr
                ),
            );
        }
        prev = Some(inst.addr.byte());
    }

    // layout.block-addr: every block's recorded address matches its first
    // emitted instruction, and every instruction's block id is in range.
    let mut first_inst_addr = vec![None; n];
    for inst in layout.code() {
        let idx = inst.block.0 as usize;
        if idx >= n {
            sink.error(
                "layout.block-addr",
                Location::Addr(inst.addr),
                format!(
                    "instruction at {} belongs to out-of-range block {}",
                    inst.addr, inst.block
                ),
            );
            continue;
        }
        if first_inst_addr[idx].is_none() {
            first_inst_addr[idx] = Some(inst.addr);
        }
    }
    for (idx, first) in first_inst_addr.iter().enumerate() {
        let b = BlockId(idx as u32);
        if let Some(first) = first {
            if layout.block_addr(b) != *first {
                sink.error(
                    "layout.block-addr",
                    Location::Block(b),
                    format!(
                        "block address {} disagrees with first emitted instruction {first}",
                        layout.block_addr(b)
                    ),
                );
            }
        }
    }
    if order_ok {
        // Empty blocks (fully elided) must point at the next laid block.
        for (pos, &b) in order.iter().enumerate() {
            if first_inst_addr[b.0 as usize].is_some() {
                continue;
            }
            let next_addr = order[pos + 1..]
                .iter()
                .find_map(|&nb| first_inst_addr[nb.0 as usize])
                .unwrap_or_else(|| base.add_words(layout.code().len() as u64));
            if layout.block_addr(b) != next_addr {
                sink.error(
                    "layout.block-addr",
                    Location::Block(b),
                    format!(
                        "empty block address {} should equal the next block's {next_addr}",
                        layout.block_addr(b)
                    ),
                );
            }
        }
    }

    // layout.ctrl-attr + layout.target-resolves.
    for inst in layout.code() {
        let is_ctrl = inst.op.is_control() || inst.op == OpClass::Halt;
        match (&inst.ctrl, is_ctrl) {
            (None, true) => sink.error(
                "layout.ctrl-attr",
                Location::Addr(inst.addr),
                format!(
                    "control instruction {} at {} has no control attributes",
                    inst.op, inst.addr
                ),
            ),
            (Some(_), false) => sink.error(
                "layout.ctrl-attr",
                Location::Addr(inst.addr),
                format!(
                    "non-control {} at {} carries control attributes",
                    inst.op, inst.addr
                ),
            ),
            _ => {}
        }
        let Some(ctrl) = inst.ctrl else { continue };
        if (inst.op == OpClass::CondBranch) != ctrl.branch_id.is_some() {
            sink.error(
                "layout.ctrl-attr",
                Location::Addr(inst.addr),
                format!(
                    "branch-id attribute mismatch on {} at {}",
                    inst.op, inst.addr
                ),
            );
        }
        match inst.op {
            OpClass::CondBranch | OpClass::Jump | OpClass::Call | OpClass::Halt => {
                let Some(target) = ctrl.target else {
                    sink.error(
                        "layout.target-resolves",
                        Location::Addr(inst.addr),
                        format!("{} at {} has no static target", inst.op, inst.addr),
                    );
                    continue;
                };
                if layout.index_of(target).is_none() {
                    sink.error(
                        "layout.target-resolves",
                        Location::Addr(inst.addr),
                        format!(
                            "{} at {} targets {target}, outside the laid-out image",
                            inst.op, inst.addr
                        ),
                    );
                    continue;
                }
                // The target must be the address of the semantically right
                // block (or the entry for halt restarts).
                let expect = if (inst.block.0 as usize) < n {
                    match (inst.op, program.block(inst.block).terminator) {
                        (OpClass::CondBranch, Terminator::CondBranch { taken, .. }) => {
                            Some(layout.block_addr(taken))
                        }
                        (OpClass::Call, Terminator::Call { callee, .. }) => {
                            Some(layout.block_addr(callee))
                        }
                        (OpClass::Halt, _) => Some(layout.entry_addr()),
                        // Materialized jumps: either a Jump terminator's
                        // target or a cond-branch's compensation jump to its
                        // fall block.
                        (OpClass::Jump, Terminator::Jump { target: t })
                        | (OpClass::Jump, Terminator::FallThrough { next: t })
                        | (OpClass::Jump, Terminator::CondBranch { fall: t, .. }) => {
                            Some(layout.block_addr(t))
                        }
                        _ => None,
                    }
                } else {
                    None
                };
                match expect {
                    Some(e) if e != target => sink.error(
                        "layout.target-resolves",
                        Location::Addr(inst.addr),
                        format!(
                            "{} at {} targets {target} but its block's terminator resolves to {e}",
                            inst.op, inst.addr
                        ),
                    ),
                    None => sink.error(
                        "layout.target-resolves",
                        Location::Addr(inst.addr),
                        format!(
                            "{} at {} does not correspond to its block's terminator",
                            inst.op, inst.addr
                        ),
                    ),
                    _ => {}
                }
            }
            _ => {}
        }
    }

    // layout.pad-alignment: §4.1 — after a padded block, the next laid
    // block must start on a cache-block boundary.
    let bs = layout.options().block_bytes;
    let pads_after = |b: BlockId| match &layout.options().pad {
        PadMode::None => false,
        PadMode::PadAll => true,
        PadMode::PadTrace(ends) => ends.contains(&b),
    };
    if order_ok {
        for pair in order.windows(2) {
            if pads_after(pair[0]) {
                let addr = layout.block_addr(pair[1]);
                if !addr.byte().is_multiple_of(bs) {
                    sink.error(
                        "layout.pad-alignment",
                        Location::Block(pair[1]),
                        format!(
                            "block {} at {addr} must start on a {bs}-byte cache-block boundary \
                             (previous block {} is padded)",
                            pair[1], pair[0]
                        ),
                    );
                }
            }
        }
    }

    // layout.pad-accounting: stats vs. the instruction stream. Pad nops are
    // attributed to the block they follow; under PadMode::None there must be
    // none counted.
    let stats = layout.stats();
    if stats.total_insts != layout.code().len() {
        sink.error(
            "layout.pad-accounting",
            Location::Program,
            format!(
                "stats.total_insts {} disagrees with emitted code length {}",
                stats.total_insts,
                layout.code().len()
            ),
        );
    }
    if matches!(layout.options().pad, PadMode::None) && stats.pad_nops != 0 {
        sink.error(
            "layout.pad-accounting",
            Location::Program,
            format!("PadMode::None layout reports {} pad nops", stats.pad_nops),
        );
    }
    let nops = layout
        .code()
        .iter()
        .filter(|i| i.op == OpClass::Nop)
        .count();
    let body_nops: usize = program
        .blocks()
        .iter()
        .map(|b| b.insts.iter().filter(|i| i.op == OpClass::Nop).count())
        .sum();
    if nops != body_nops + stats.pad_nops {
        sink.error(
            "layout.pad-accounting",
            Location::Program,
            format!(
                "emitted nops ({nops}) != body nops ({body_nops}) + pad nops ({})",
                stats.pad_nops
            ),
        );
    }
}
