//! Transform-equivalence checks: trace-selection postconditions, CFG
//! isomorphism across `reorder()`, and dynamic-trace equivalence.

use fetchmech_compiler::{Reordered, Trace};
use fetchmech_isa::{BlockId, Layout, LayoutOptions, OpClass, Program, Terminator};
use fetchmech_workloads::{InputId, Workload};

use crate::diag::{DiagnosticSink, Location};
use crate::registry::{Pass, Target};

/// Rule ids emitted by [`TracesPass`].
pub(crate) const TRACES_RULES: &[&str] = &[
    "traces.nonempty",
    "traces.partition",
    "traces.same-func",
    "traces.adjacent-edges",
];

/// Postcondition verifier for trace selection: traces partition the blocks,
/// stay within one function, and follow real CFG edges.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TracesPass;

impl Pass for TracesPass {
    fn name(&self) -> &'static str {
        "traces"
    }

    fn description(&self) -> &'static str {
        "trace-selection postconditions: block partition, single-function \
         traces, CFG-successor adjacency"
    }

    fn rules(&self) -> &'static [&'static str] {
        TRACES_RULES
    }

    fn applies(&self, target: &Target<'_>) -> bool {
        matches!(target, Target::Traces { .. })
    }

    fn run(&self, target: &Target<'_>, sink: &mut DiagnosticSink) {
        if let Target::Traces { program, traces } = target {
            check_traces(program, traces, sink);
        }
    }
}

/// Runs every [`TracesPass`] rule.
pub(crate) fn check_traces(program: &Program, traces: &[Trace], sink: &mut DiagnosticSink) {
    let n = program.num_blocks();
    let mut seen = vec![false; n];
    for (ti, trace) in traces.iter().enumerate() {
        if trace.blocks.is_empty() {
            sink.error(
                "traces.nonempty",
                Location::Trace(ti),
                "trace has no blocks",
            );
            continue;
        }
        for &b in &trace.blocks {
            let idx = b.0 as usize;
            if idx >= n {
                sink.error(
                    "traces.partition",
                    Location::Trace(ti),
                    format!("trace contains out-of-range block {b}"),
                );
            } else if seen[idx] {
                sink.error(
                    "traces.partition",
                    Location::Trace(ti),
                    format!("block {b} appears in more than one trace"),
                );
            } else {
                seen[idx] = true;
            }
        }
        let func = program.block(trace.blocks[0]).func;
        for &b in &trace.blocks[1..] {
            if (b.0 as usize) < n && program.block(b).func != func {
                sink.error(
                    "traces.same-func",
                    Location::Trace(ti),
                    format!(
                        "block {b} is in {}, trace started in {func}",
                        program.block(b).func
                    ),
                );
            }
        }
        for pair in trace.blocks.windows(2) {
            if (pair[0].0 as usize) >= n || (pair[1].0 as usize) >= n {
                continue;
            }
            let is_succ = program
                .block(pair[0])
                .terminator
                .local_successors()
                .into_iter()
                .any(|(_, s)| s == pair[1]);
            if !is_succ {
                sink.error(
                    "traces.adjacent-edges",
                    Location::Trace(ti),
                    format!("{} -> {} is not a CFG edge", pair[0], pair[1]),
                );
            }
        }
    }
    for (idx, &s) in seen.iter().enumerate() {
        if !s {
            sink.error(
                "traces.partition",
                Location::Block(BlockId(idx as u32)),
                "block is not covered by any trace",
            );
        }
    }
}

/// Rule ids emitted by [`TransformPass`].
pub(crate) const TRANSFORM_RULES: &[&str] = &[
    "xform.isomorphic",
    "xform.body-preserved",
    "xform.terminator-equiv",
    "xform.order-permutation",
    "xform.inverted-count",
    "xform.trace-ends",
];

/// Static equivalence verifier across `reorder()`: the transformed program
/// must be the original CFG modulo branch-sense inversion, and the layout
/// order must be a permutation.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TransformPass;

impl Pass for TransformPass {
    fn name(&self) -> &'static str {
        "transform"
    }

    fn description(&self) -> &'static str {
        "reorder equivalence: CFG isomorphism modulo branch-sense inversion, \
         order permutation, inversion accounting"
    }

    fn rules(&self) -> &'static [&'static str] {
        TRANSFORM_RULES
    }

    fn applies(&self, target: &Target<'_>) -> bool {
        matches!(target, Target::Transform { .. })
    }

    fn run(&self, target: &Target<'_>, sink: &mut DiagnosticSink) {
        if let Target::Transform {
            original,
            reordered,
        } = target
        {
            check_transform(original, reordered, sink);
        }
    }
}

/// Runs every [`TransformPass`] rule.
pub(crate) fn check_transform(
    original: &Program,
    reordered: &Reordered,
    sink: &mut DiagnosticSink,
) {
    let new = &reordered.program;

    // xform.isomorphic: identical block/function/branch structure.
    let mut shape_ok = true;
    if original.num_blocks() != new.num_blocks()
        || original.num_funcs() != new.num_funcs()
        || original.num_branches() != new.num_branches()
    {
        sink.error(
            "xform.isomorphic",
            Location::Program,
            format!(
                "shape changed: {}x{}x{} blocks/funcs/branches became {}x{}x{}",
                original.num_blocks(),
                original.num_funcs(),
                original.num_branches(),
                new.num_blocks(),
                new.num_funcs(),
                new.num_branches()
            ),
        );
        shape_ok = false;
    }
    if original.entry() != new.entry() {
        sink.error(
            "xform.isomorphic",
            Location::Block(new.entry()),
            format!("entry moved from {} to {}", original.entry(), new.entry()),
        );
    }
    if !shape_ok {
        return;
    }
    for (a, b) in original.blocks().iter().zip(new.blocks()) {
        if a.func != b.func {
            sink.error(
                "xform.isomorphic",
                Location::Block(a.id),
                format!("block moved from {} to {}", a.func, b.func),
            );
        }
    }

    // xform.body-preserved: reordering only rewrites terminators.
    for (a, b) in original.blocks().iter().zip(new.blocks()) {
        if a.insts != b.insts {
            sink.error(
                "xform.body-preserved",
                Location::Block(a.id),
                "block body instructions changed across reorder",
            );
        }
    }

    // xform.terminator-equiv: conditional branches may only swap their
    // taken/fall edges with the inverted flag toggled; every other
    // terminator must be untouched.
    let mut inverted_seen = 0usize;
    for (a, b) in original.blocks().iter().zip(new.blocks()) {
        match (a.terminator, b.terminator) {
            (
                Terminator::CondBranch {
                    id,
                    srcs,
                    taken,
                    fall,
                    inverted,
                },
                Terminator::CondBranch {
                    id: id2,
                    srcs: srcs2,
                    taken: taken2,
                    fall: fall2,
                    inverted: inverted2,
                },
            ) => {
                if id != id2 || srcs != srcs2 {
                    sink.error(
                        "xform.terminator-equiv",
                        Location::Block(a.id),
                        format!("branch identity changed: {id}/{srcs:?} vs {id2}/{srcs2:?}"),
                    );
                    continue;
                }
                if taken == taken2 && fall == fall2 {
                    if inverted != inverted2 {
                        sink.error(
                            "xform.terminator-equiv",
                            Location::Branch(id),
                            "inverted flag toggled without swapping the edges",
                        );
                    }
                } else if taken == fall2 && fall == taken2 {
                    if inverted == inverted2 {
                        sink.error(
                            "xform.terminator-equiv",
                            Location::Branch(id),
                            "edges swapped without toggling the inverted flag",
                        );
                    } else {
                        inverted_seen += 1;
                    }
                } else {
                    sink.error(
                        "xform.terminator-equiv",
                        Location::Branch(id),
                        format!("edges retargeted: {taken}/{fall} became {taken2}/{fall2}",),
                    );
                }
            }
            (a_t, b_t) if a_t == b_t => {}
            _ => sink.error(
                "xform.terminator-equiv",
                Location::Block(a.id),
                "non-branch terminator changed across reorder",
            ),
        }
    }

    // xform.inverted-count: the reported inversion count must match the
    // number of actually swapped branches.
    if inverted_seen != reordered.inverted_branches {
        sink.error(
            "xform.inverted-count",
            Location::Program,
            format!(
                "reorder reports {} inversions but {} branches changed sense",
                reordered.inverted_branches, inverted_seen
            ),
        );
    }

    // xform.order-permutation.
    let n = original.num_blocks();
    let mut seen = vec![false; n];
    if reordered.order.len() != n {
        sink.error(
            "xform.order-permutation",
            Location::Program,
            format!("order has {} entries for {n} blocks", reordered.order.len()),
        );
    }
    for &b in &reordered.order {
        let idx = b.0 as usize;
        if idx >= n || seen[idx] {
            sink.error(
                "xform.order-permutation",
                Location::Block(b),
                format!("block {b} is duplicated or out of range in the reorder output"),
            );
        } else {
            seen[idx] = true;
        }
    }

    // xform.trace-ends: padding points must be real blocks.
    for &b in &reordered.trace_ends {
        if (b.0 as usize) >= n {
            sink.error(
                "xform.trace-ends",
                Location::Block(b),
                format!("trace end {b} is out of range"),
            );
        }
    }
}

/// Rule ids emitted by [`TraceDiffPass`].
pub(crate) const TRACE_DIFF_RULES: &[&str] = &["xform.trace-equiv", "xform.trace-overlap"];

/// Dynamic equivalence verifier: executes a workload before and after
/// reordering and diffs the projected (non-control, non-nop) instruction
/// streams — the deterministic semantics reordering must preserve.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TraceDiffPass;

impl Pass for TraceDiffPass {
    fn name(&self) -> &'static str {
        "trace-diff"
    }

    fn description(&self) -> &'static str {
        "dynamic equivalence: the projected instruction stream is unchanged \
         by reordering under the held-out test input"
    }

    fn rules(&self) -> &'static [&'static str] {
        TRACE_DIFF_RULES
    }

    fn applies(&self, target: &Target<'_>) -> bool {
        matches!(target, Target::TraceDiff { .. })
    }

    fn run(&self, target: &Target<'_>, sink: &mut DiagnosticSink) {
        if let Target::TraceDiff {
            workload,
            reordered,
            insts,
        } = target
        {
            check_trace_diff(workload, reordered, *insts, sink);
        }
    }
}

/// Runs the dynamic-trace diff for `insts` instructions per side.
pub(crate) fn check_trace_diff(
    workload: &Workload,
    reordered: &Reordered,
    insts: u64,
    sink: &mut DiagnosticSink,
) {
    let block_bytes = 16;
    let natural = match Layout::natural(&workload.program, LayoutOptions::new(block_bytes)) {
        Ok(l) => l,
        Err(e) => {
            sink.error(
                "xform.trace-equiv",
                Location::Program,
                format!("original program fails to lay out: {e}"),
            );
            return;
        }
    };
    let transformed = match reordered.layout(block_bytes) {
        Ok(l) => l,
        Err(e) => {
            sink.error(
                "xform.trace-equiv",
                Location::Program,
                format!("reordered program fails to lay out: {e}"),
            );
            return;
        }
    };
    let reordered_workload = Workload {
        spec: workload.spec.clone(),
        program: reordered.program.clone(),
        behaviors: workload.behaviors.clone(),
    };
    // Project away addresses, control, and padding: what must survive the
    // transform is the computation, not the placement.
    let project = |w: &Workload, l: &Layout| -> Vec<(OpClass, _, _)> {
        w.executor(l, InputId::TEST, insts)
            .filter(|i| i.ctrl.is_none() && i.op != OpClass::Nop)
            .map(|i| (i.op, i.dest, i.srcs))
            .collect()
    };
    let before = project(workload, &natural);
    let after = project(&reordered_workload, &transformed);
    let n = before.len().min(after.len());
    // Both sides execute the same instruction budget, but nops and control
    // overhead differ between layouts, so the useful-instruction streams end
    // at different points; only the common prefix is comparable.
    if n < (insts as usize) / 4 {
        sink.warn(
            "xform.trace-overlap",
            Location::Program,
            format!(
                "only {n} comparable instructions from a budget of {insts}; \
                 the equivalence check has low coverage"
            ),
        );
    }
    for (pos, (a, b)) in before[..n].iter().zip(&after[..n]).enumerate() {
        if a != b {
            sink.error(
                "xform.trace-equiv",
                Location::DynPos(pos),
                format!(
                    "instruction streams diverge: natural executes {:?}, reordered executes {:?}",
                    a, b
                ),
            );
            return; // One divergence implies everything after differs.
        }
    }
}
