//! Translation validation for the optimization pass pipeline.
//!
//! Every [`PassApplication`] the compiler's `optimize` records is checked
//! against independent re-derivations rather than trusted:
//!
//! * `opt.shape` — the relation maps have the right dimensions, originals
//!   stay in place, entries/functions are untouched, and the layout orders
//!   are permutations;
//! * `ssa.use-dominated` / `ssa.phi-arity` — the SSA well-formedness lint
//!   ([`check_ssa`]): every use is dominated by its definition, phi arms
//!   match the reachable predecessors exactly;
//! * `opt.body-preserved` — block bodies change only at the sites the pass
//!   *declared* (LVN rewrites, DCE removals), and exactly as declared;
//! * `opt.lvn-available` — each declared LVN rewrite is re-proved by an
//!   independent value-numbering walk: the copied-from register must still
//!   hold the redundant value at the rewrite site (the clobbered-holder
//!   trap);
//! * `opt.dce-dead` — the declared DCE removal set is re-derived with the
//!   analysis crate's *register*-liveness [`dead_writes`] closure (a
//!   different lattice than the compiler's SSA value liveness) and must
//!   match exactly; any dead write *remaining* after a DCE application is
//!   the promoted, error-severity `dataflow.dead-write`;
//! * `opt.origin-edges` — every after-program terminator maps onto its
//!   origin's terminator edge-for-edge through the relation (modulo
//!   branch-sense inversion with the flag toggled);
//! * `opt.flow-conserved` — every profile-weighted edge of the before
//!   program survives as some after edge with the same rel endpoints;
//! * `opt.trace-equiv` / `opt.trace-overlap` — dynamic observable-trace
//!   equivalence: the before and after programs are executed (duplicated
//!   branches aliased onto their origin behavior models via
//!   `BehaviorMap::with_origin`, sharing model, state, and RNG draws) and
//!   the projected streams must match after applying exactly the declared
//!   edit.
//!
//! The *origin maps themselves* ([`PassApplication::branch_origin_after`]
//! and friends) are deliberately not cross-checked statically: they are
//! semantic claims about which behavior model drives which branch, and the
//! dynamic layer is what validates them — corrupting an origin map diverges
//! the executed streams and trips `opt.trace-equiv`.

use std::collections::{HashMap, HashSet};

use fetchmech_compiler::{
    build_ssa, copy_op, lvn_pure, LvnRewrite, Optimized, PassApplication, PassEdit, Profile,
    SsaDef, SsaForm,
};
use fetchmech_isa::{
    BlockId, CfgView, Dominators, Inst, Layout, LayoutError, LayoutOptions, OpClass, Program, Reg,
    Terminator,
};
use fetchmech_pipeline::{MachineModel, SchemeKind};
use fetchmech_workloads::{InputId, Workload};

use crate::dataflow::{dead_writes, liveness, RULE_DEAD_WRITE};
use crate::diag::{DiagnosticSink, Location, Severity};
use crate::geometry::{analyze_geometry, predicted_eir, GeometryReport};
use crate::registry::{Pass, Target};

/// Rule ids emitted by [`OptVerifyPass`] (the residual-dead-write findings
/// reuse the dataflow pass's `dataflow.dead-write` id, promoted to error
/// severity here).
pub const OPT_RULES: &[&str] = &[
    "opt.shape",
    "ssa.use-dominated",
    "ssa.phi-arity",
    "opt.body-preserved",
    "opt.lvn-available",
    "opt.dce-dead",
    "opt.origin-edges",
    "opt.flow-conserved",
    "opt.trace-equiv",
    "opt.trace-overlap",
];

// ---------------------------------------------------------------------------
// SSA well-formedness lint
// ---------------------------------------------------------------------------

/// Site at which an SSA value must be available.
#[derive(Clone, Copy)]
enum UseSite {
    /// Body instruction `inst` of `block` (defs at earlier indices count).
    Body { block: BlockId, inst: usize },
    /// The terminator of `block` (all body defs count).
    Term(BlockId),
    /// The *end* of `block` (phi-argument availability on the edge out).
    EdgeOut(BlockId),
}

fn def_available(
    program: &Program,
    dom: &Dominators,
    form: &SsaForm,
    value: u32,
    site: UseSite,
) -> bool {
    let Some(def) = form.defs.get(value as usize) else {
        return false;
    };
    let (use_block, body_limit) = match site {
        UseSite::Body { block, inst } => (block, Some(inst)),
        UseSite::Term(block) | UseSite::EdgeOut(block) => (block, None),
    };
    match *def {
        SsaDef::Entry { func, .. } => {
            let entries = program.func_entries();
            let Some(&entry) = entries.get(func.0 as usize) else {
                return false;
            };
            dom.dominates(entry, use_block)
        }
        // Phi defs sit at the block head: they dominate everything in their
        // own block and everything the block dominates.
        SsaDef::Phi { block, .. } => block == use_block || dom.dominates(block, use_block),
        SsaDef::Inst { block, index } => {
            if block == use_block {
                body_limit.is_none_or(|limit| index < limit)
            } else {
                dom.dominates(block, use_block)
            }
        }
    }
}

/// The SSA well-formedness lint: every recorded use must be dominated by
/// its definition (`ssa.use-dominated`), and every phi's arms must match
/// the block's reachable predecessors exactly (`ssa.phi-arity`).
///
/// `view` must be [`CfgView::local`] of `program` and `dom` computed from
/// it; `form` is any SSA overlay claimed to describe `program` — including
/// a deliberately corrupted one, which is what the mutation tests feed in.
pub fn check_ssa(
    program: &Program,
    view: &CfgView,
    dom: &Dominators,
    form: &SsaForm,
    sink: &mut DiagnosticSink,
) {
    let n = program.num_blocks();
    if form.phis.len() != n
        || form.inst_uses.len() != n
        || form.inst_defs.len() != n
        || form.term_uses.len() != n
        || form.exit_live.len() != form.defs.len()
    {
        sink.error(
            "ssa.use-dominated",
            Location::Program,
            format!(
                "SSA overlay shape mismatch: program has {n} blocks, overlay \
                 has {}/{}/{}/{} phi/use/def/term tables and {} values with \
                 {} exit-live flags",
                form.phis.len(),
                form.inst_uses.len(),
                form.inst_defs.len(),
                form.term_uses.len(),
                form.defs.len(),
                form.exit_live.len()
            ),
        );
        return;
    }
    let is_entry: HashSet<BlockId> = program.func_entries().iter().copied().collect();

    for b in 0..n {
        let block = BlockId(b as u32);
        if dom.idom(block).is_none() {
            // Unreachable blocks carry no overlay; anything recorded for
            // them is unverifiable.
            continue;
        }

        // Body uses and defs.
        let insts = &program.block(block).insts;
        if form.inst_uses[b].len() != insts.len() || form.inst_defs[b].len() != insts.len() {
            sink.error(
                "ssa.use-dominated",
                Location::Block(block),
                format!(
                    "overlay records {} use rows / {} def rows for a {}-instruction block",
                    form.inst_uses[b].len(),
                    form.inst_defs[b].len(),
                    insts.len()
                ),
            );
            continue;
        }
        for (i, inst) in insts.iter().enumerate() {
            let want = inst.srcs.iter().flatten().count();
            if form.inst_uses[b][i].len() != want {
                sink.error(
                    "ssa.use-dominated",
                    Location::Block(block),
                    format!(
                        "instruction {i} reads {want} register(s) but the \
                         overlay records {} value use(s)",
                        form.inst_uses[b][i].len()
                    ),
                );
            }
            for &v in &form.inst_uses[b][i] {
                if !def_available(program, dom, form, v.0, UseSite::Body { block, inst: i }) {
                    sink.error(
                        "ssa.use-dominated",
                        Location::Block(block),
                        format!(
                            "value v{} used at instruction {i} of {block} is \
                             not dominated by its definition",
                            v.0
                        ),
                    );
                }
            }
            if let Some(v) = form.inst_defs[b][i] {
                let expected = SsaDef::Inst { block, index: i };
                if form.defs.get(v.0 as usize) != Some(&expected) {
                    sink.error(
                        "ssa.use-dominated",
                        Location::Block(block),
                        format!(
                            "instruction {i} of {block} claims to define v{} \
                             but the value's def site disagrees",
                            v.0
                        ),
                    );
                }
            } else if inst.dest.is_some() {
                sink.error(
                    "ssa.use-dominated",
                    Location::Block(block),
                    format!("destination write at instruction {i} of {block} defines no value"),
                );
            }
        }
        for &v in &form.term_uses[b] {
            if !def_available(program, dom, form, v.0, UseSite::Term(block)) {
                sink.error(
                    "ssa.use-dominated",
                    Location::Block(block),
                    format!(
                        "value v{} read by the terminator of {block} is not \
                         dominated by its definition",
                        v.0
                    ),
                );
            }
        }

        // Phi arity and arm availability. Unreachable predecessors never
        // push arms during renaming, so arms are compared against the
        // *reachable* predecessor set.
        let reachable_preds: Vec<BlockId> = view
            .predecessors(block)
            .iter()
            .copied()
            .filter(|&p| dom.idom(p).is_some())
            .collect();
        for (pi, phi) in form.phis[b].iter().enumerate() {
            let expected = SsaDef::Phi { block, index: pi };
            if form.defs.get(phi.value.0 as usize) != Some(&expected) {
                sink.error(
                    "ssa.use-dominated",
                    Location::Block(block),
                    format!(
                        "phi {pi} of {block} claims value v{} but the value's \
                         def site disagrees",
                        phi.value.0
                    ),
                );
            }
            let mut arg_preds: Vec<BlockId> = phi.args.iter().map(|&(p, _)| p).collect();
            arg_preds.sort_unstable();
            let mut want: Vec<BlockId> = reachable_preds.clone();
            want.sort_unstable();
            if arg_preds != want {
                sink.error(
                    "ssa.phi-arity",
                    Location::Block(block),
                    format!(
                        "phi for {} at {block} has arms from {arg_preds:?} \
                         but the reachable predecessors are {want:?}",
                        phi.reg
                    ),
                );
            }
            for &(p, v) in &phi.args {
                if dom.idom(p).is_none() {
                    continue; // already reported by the arity check
                }
                if !def_available(program, dom, form, v.0, UseSite::EdgeOut(p)) {
                    sink.error(
                        "ssa.use-dominated",
                        Location::Block(block),
                        format!(
                            "phi arm v{} from {p} into {block} is not \
                             available at the end of {p}",
                            v.0
                        ),
                    );
                }
            }
            match (phi.entry_arg, is_entry.contains(&block)) {
                (Some(v), true) => {
                    if (v.0 as usize) >= form.defs.len() {
                        sink.error(
                            "ssa.use-dominated",
                            Location::Block(block),
                            format!("caller-edge arm v{} is out of range", v.0),
                        );
                    }
                }
                (None, true) => sink.error(
                    "ssa.phi-arity",
                    Location::Block(block),
                    format!(
                        "phi for {} at function entry {block} is missing its \
                         implicit caller-edge arm",
                        phi.reg
                    ),
                ),
                (Some(_), false) => sink.error(
                    "ssa.phi-arity",
                    Location::Block(block),
                    format!(
                        "phi for {} at {block} carries a caller-edge arm but \
                         the block is not a function entry",
                        phi.reg
                    ),
                ),
                (None, false) => {}
            }
        }
    }
}

/// Builds the SSA overlay of `program` and lints it in one step.
pub(crate) fn check_program_ssa(program: &Program, sink: &mut DiagnosticSink) {
    let view = CfgView::local(program);
    let dom = Dominators::compute(program, &view);
    let form = build_ssa(program, &view, &dom);
    check_ssa(program, &view, &dom, &form, sink);
}

// ---------------------------------------------------------------------------
// Per-application static checks
// ---------------------------------------------------------------------------

fn is_permutation(order: &[BlockId], n: usize) -> bool {
    if order.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &b in order {
        let i = b.0 as usize;
        if i >= n || seen[i] {
            return false;
        }
        seen[i] = true;
    }
    true
}

/// `opt.shape`: relation-map dimensions and the originals-in-place,
/// entries-untouched, orders-are-permutations invariants every pass shares.
/// Returns `false` if the shape is too broken for dependent checks to run.
fn check_shape(app: &PassApplication, sink: &mut DiagnosticSink) -> bool {
    let before = &app.before;
    let after = &app.after;
    let mut ok = true;
    if app.rel_block.len() != after.num_blocks()
        || app.rel_branch.len() != after.num_branches() as usize
    {
        sink.error(
            "opt.shape",
            Location::Program,
            format!(
                "{}: relation maps have {}/{} entries for {} blocks / {} branches",
                app.pass,
                app.rel_block.len(),
                app.rel_branch.len(),
                after.num_blocks(),
                after.num_branches()
            ),
        );
        return false;
    }
    for (i, &b) in app.rel_block.iter().enumerate() {
        if (b.0 as usize) >= before.num_blocks() {
            sink.error(
                "opt.shape",
                Location::Block(BlockId(i as u32)),
                format!(
                    "{}: rel_block[{i}] = {b} is out of the before-program range",
                    app.pass
                ),
            );
            ok = false;
        } else if i < before.num_blocks() && b.0 as usize != i {
            sink.error(
                "opt.shape",
                Location::Block(BlockId(i as u32)),
                format!(
                    "{}: original block {i} was relocated to origin {b}",
                    app.pass
                ),
            );
            ok = false;
        }
    }
    for (i, &br) in app.rel_branch.iter().enumerate() {
        if br.0 >= before.num_branches() {
            sink.error(
                "opt.shape",
                Location::Branch(fetchmech_isa::BranchId(i as u32)),
                format!(
                    "{}: rel_branch[{i}] = {br} is out of the before-program range",
                    app.pass
                ),
            );
            ok = false;
        } else if (i as u32) < before.num_branches() && br.0 as usize != i {
            sink.error(
                "opt.shape",
                Location::Branch(fetchmech_isa::BranchId(i as u32)),
                format!(
                    "{}: original branch {i} was relocated to origin {br}",
                    app.pass
                ),
            );
            ok = false;
        }
    }
    if after.num_blocks() < before.num_blocks() {
        sink.error(
            "opt.shape",
            Location::Program,
            format!(
                "{}: pass dropped blocks ({} became {})",
                app.pass,
                before.num_blocks(),
                after.num_blocks()
            ),
        );
        ok = false;
    }
    if after.entry() != before.entry() || after.func_entries() != before.func_entries() {
        sink.error(
            "opt.shape",
            Location::Program,
            format!("{}: program entry or function entries changed", app.pass),
        );
        ok = false;
    }
    if !is_permutation(&app.order_before, before.num_blocks()) {
        sink.error(
            "opt.shape",
            Location::Program,
            format!(
                "{}: order_before is not a permutation of the before blocks",
                app.pass
            ),
        );
    }
    if !is_permutation(&app.order_after, after.num_blocks()) {
        sink.error(
            "opt.shape",
            Location::Program,
            format!(
                "{}: order_after is not a permutation of the after blocks",
                app.pass
            ),
        );
    }
    if app.block_origin_before.len() != before.num_blocks()
        || app.block_origin_after.len() != after.num_blocks()
        || app.branch_origin_before.len() != before.num_branches() as usize
        || app.branch_origin_after.len() != after.num_branches() as usize
    {
        sink.error(
            "opt.shape",
            Location::Program,
            format!(
                "{}: origin maps do not match the program dimensions",
                app.pass
            ),
        );
        ok = false;
    }
    ok
}

/// `opt.body-preserved`: after bodies equal before bodies through the block
/// relation, except at exactly the declared edit sites.
fn check_bodies(app: &PassApplication, sink: &mut DiagnosticSink) {
    let before = &app.before;
    let after = &app.after;

    // Declared per-site deltas, in before-program coordinates.
    let mut rewritten: HashMap<(u32, usize), &LvnRewrite> = HashMap::new();
    let mut removed_at: HashMap<u32, Vec<usize>> = HashMap::new();
    match &app.edit {
        PassEdit::Lvn { rewrites } => {
            for rw in rewrites {
                rewritten.insert((rw.block.0, rw.inst), rw);
            }
        }
        PassEdit::Dce { removed, .. } => {
            for site in removed {
                removed_at.entry(site.block.0).or_default().push(site.inst);
            }
        }
        PassEdit::Superblock { .. } | PassEdit::Straighten { .. } => {}
    }

    for a in 0..after.num_blocks() {
        let ab = BlockId(a as u32);
        let bb = app.rel_block[a];
        let mut expected: Vec<Inst> = before.block(bb).insts.clone();
        if let Some(sites) = removed_at.get(&bb.0) {
            let mut sites = sites.clone();
            sites.sort_unstable();
            for &i in sites.iter().rev() {
                if i < expected.len() {
                    expected.remove(i);
                } else {
                    sink.error(
                        "opt.body-preserved",
                        Location::Block(bb),
                        format!(
                            "{}: declared removal at instruction {i} of {bb} \
                             is out of range",
                            app.pass
                        ),
                    );
                }
            }
        }
        for (i, inst) in expected.iter_mut().enumerate() {
            if let Some(rw) = rewritten.get(&(bb.0, i)) {
                if rw.before != *inst {
                    sink.error(
                        "opt.body-preserved",
                        Location::Block(bb),
                        format!(
                            "{}: declared rewrite at instruction {i} of {bb} \
                             claims a different original instruction",
                            app.pass
                        ),
                    );
                }
                *inst = rw.after;
            }
        }
        if after.block(ab).insts != expected {
            sink.error(
                "opt.body-preserved",
                Location::Block(ab),
                format!(
                    "{}: body of {ab} differs from its origin {bb} beyond the \
                     declared edit",
                    app.pass
                ),
            );
        }
    }
}

/// `opt.lvn-available`: re-derives per-block value numbers over the before
/// program and proves each declared rewrite copied from a register that
/// still held the redundant value.
fn check_lvn_rewrites(app: &PassApplication, rewrites: &[LvnRewrite], sink: &mut DiagnosticSink) {
    const NUM_REGS: usize = 64;
    let before = &app.before;
    let mut by_block: HashMap<u32, Vec<&LvnRewrite>> = HashMap::new();
    for rw in rewrites {
        by_block.entry(rw.block.0).or_default().push(rw);
    }
    for (blk, mut rws) in by_block {
        let block = BlockId(blk);
        if (blk as usize) >= before.num_blocks() {
            sink.error(
                "opt.lvn-available",
                Location::Block(block),
                "declared rewrite in an out-of-range block",
            );
            continue;
        }
        rws.sort_by_key(|rw| rw.inst);
        let site: HashMap<usize, &LvnRewrite> = rws.iter().map(|rw| (rw.inst, *rw)).collect();

        let mut reg_vn = [0u32; NUM_REGS];
        for (i, vn) in reg_vn.iter_mut().enumerate() {
            *vn = i as u32;
        }
        let mut next_vn = NUM_REGS as u32;
        let mut table: Vec<((OpClass, u32, u32, i8), u32)> = Vec::new();

        for (i, inst) in before.block(block).insts.iter().enumerate() {
            let pure = lvn_pure(inst.op) && inst.dest.is_some();
            if !pure {
                if let Some(rw) = site.get(&i) {
                    sink.error(
                        "opt.lvn-available",
                        Location::Block(block),
                        format!(
                            "declared rewrite at instruction {} of {block} \
                             targets a non-mergeable instruction",
                            rw.inst
                        ),
                    );
                }
                if let Some(dest) = inst.dest {
                    reg_vn[dest.file_index()] = next_vn;
                    next_vn += 1;
                }
                continue;
            }
            let dest = inst.dest.expect("checked pure-with-dest");
            let vn_of = |r: Option<Reg>, regs: &[u32; NUM_REGS]| {
                r.map_or(u32::MAX, |r| regs[r.file_index()])
            };
            let key = (
                inst.op,
                vn_of(inst.srcs[0], &reg_vn),
                vn_of(inst.srcs[1], &reg_vn),
                inst.imm,
            );
            let prior = table.iter().find(|(k, _)| *k == key).map(|&(_, vn)| vn);
            if let Some(rw) = site.get(&i) {
                match prior {
                    None => sink.error(
                        "opt.lvn-available",
                        Location::Block(block),
                        format!(
                            "rewrite at instruction {i} of {block}: the \
                             computation is not redundant at this point"
                        ),
                    ),
                    Some(vn) => {
                        let holder = rw.after.srcs[0];
                        let holds = holder.is_some_and(|h| reg_vn[h.file_index()] == vn);
                        if !holds {
                            sink.error(
                                "opt.lvn-available",
                                Location::Block(block),
                                format!(
                                    "rewrite at instruction {i} of {block} \
                                     copies from {holder:?}, which no longer \
                                     holds the merged value (clobbered holder)"
                                ),
                            );
                        }
                        let well_formed = rw.after.op == copy_op(inst.op)
                            && rw.after.dest == Some(dest)
                            && rw.after.srcs[1].is_none()
                            && rw.after.imm == 0;
                        if !well_formed {
                            sink.error(
                                "opt.lvn-available",
                                Location::Block(block),
                                format!(
                                    "rewrite at instruction {i} of {block} is \
                                     not a well-formed copy of the original \
                                     destination"
                                ),
                            );
                        }
                    }
                }
            }
            let vn = prior.unwrap_or_else(|| {
                let vn = next_vn;
                next_vn += 1;
                table.push((key, vn));
                vn
            });
            reg_vn[dest.file_index()] = vn;
        }
    }
}

/// Independent DCE closure: iterated *register-liveness* [`dead_writes`]
/// (restricted to blocks reachable from their function entry), with removal
/// sites mapped back to the input program's coordinates — the same contract
/// as the compiler's SSA-based `dce`, derived on a different lattice.
#[must_use]
pub(crate) fn dead_write_closure(program: &Program) -> Vec<(BlockId, usize, Reg)> {
    let mut cur = program.clone();
    let mut index_map: Vec<Vec<usize>> = program
        .blocks()
        .iter()
        .map(|b| (0..b.insts.len()).collect())
        .collect();
    let mut removed = Vec::new();
    loop {
        let view = CfgView::local(&cur);
        let dom = Dominators::compute(&cur, &view);
        let live = liveness(&cur, &view);
        let sites: Vec<_> = dead_writes(&cur, &view, &live)
            .into_iter()
            .filter(|s| dom.idom(s.block).is_some())
            .collect();
        if sites.is_empty() {
            break;
        }
        let mut edit = cur.edit();
        for site in sites.iter().rev() {
            edit.insts_mut(site.block).remove(site.inst);
            removed.push((
                site.block,
                index_map[site.block.0 as usize].remove(site.inst),
                site.reg,
            ));
        }
        cur = edit
            .finish()
            .expect("dead-write removal preserves structure");
    }
    removed.sort_by_key(|&(b, i, _)| (b.0, i));
    removed
}

/// `opt.dce-dead` plus the promoted `dataflow.dead-write`: the declared
/// removal set must equal the independent register-liveness closure, and no
/// dead write may remain in reachable code after the pass.
fn check_dce_removals(
    app: &PassApplication,
    removed: &[fetchmech_compiler::DeadSite],
    sink: &mut DiagnosticSink,
) {
    let declared: Vec<(BlockId, usize, Reg)> =
        removed.iter().map(|s| (s.block, s.inst, s.reg)).collect();
    let independent = dead_write_closure(&app.before);
    if declared != independent {
        let detail = declared
            .iter()
            .find(|site| !independent.contains(site))
            .map_or_else(
                || {
                    independent
                        .iter()
                        .find(|site| !declared.contains(site))
                        .map_or_else(
                            || "the sets are permuted".to_string(),
                            |&(b, i, r)| {
                                format!("liveness proves ({b}, {i}, {r}) dead but DCE kept it")
                            },
                        )
                },
                |&(b, i, r)| format!("DCE removed ({b}, {i}, {r}) but liveness proves it live"),
            );
        sink.error(
            "opt.dce-dead",
            Location::Program,
            format!(
                "declared DCE removal set ({} sites) disagrees with the \
                 independent register-liveness closure ({} sites): {detail}",
                declared.len(),
                independent.len()
            ),
        );
    }
    // Promoted rule: after DCE, reachable code must be dead-write free.
    let after = &app.after;
    let view = CfgView::local(after);
    let dom = Dominators::compute(after, &view);
    let live = liveness(after, &view);
    for dw in dead_writes(after, &view, &live) {
        if dom.idom(dw.block).is_none() {
            continue;
        }
        sink.emit(
            RULE_DEAD_WRITE,
            Severity::Error,
            Location::Block(dw.block),
            format!(
                "dead write to {} at instruction {} of {} survived DCE",
                dw.reg, dw.inst, dw.block
            ),
        );
    }
}

/// `opt.origin-edges`: every after terminator must map edge-for-edge onto
/// its origin's terminator (same kind, same sources, related branch id),
/// allowing only the taken/fall swap with the inverted flag toggled.
fn check_origin_edges(app: &PassApplication, sink: &mut DiagnosticSink) {
    let before = &app.before;
    let after = &app.after;
    let rel = |b: BlockId| app.rel_block[b.0 as usize];
    for a in 0..after.num_blocks() {
        let ab = BlockId(a as u32);
        let bb = app.rel_block[a];
        let at = after.block(ab).terminator;
        let bt = before.block(bb).terminator;
        let fail = |sink: &mut DiagnosticSink, what: &str| {
            sink.error(
                "opt.origin-edges",
                Location::Block(ab),
                format!("{}: terminator of {ab} (origin {bb}) {what}", app.pass),
            );
        };
        match (bt, at) {
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
                if app.rel_branch[id2.0 as usize] != id || srcs != srcs2 {
                    fail(sink, "changed branch identity or sources");
                    continue;
                }
                let (t2, f2) = (rel(taken2), rel(fall2));
                if t2 == taken && f2 == fall {
                    if inverted != inverted2 {
                        fail(sink, "toggled the inverted flag without swapping edges");
                    }
                } else if t2 == fall && f2 == taken {
                    if inverted == inverted2 {
                        fail(sink, "swapped edges without toggling the inverted flag");
                    }
                } else {
                    fail(sink, "retargeted edges outside the origin relation");
                }
            }
            (Terminator::FallThrough { next }, Terminator::FallThrough { next: n2 })
            | (Terminator::Jump { target: next }, Terminator::Jump { target: n2 }) => {
                if rel(n2) != next {
                    fail(sink, "retargeted its successor outside the origin relation");
                }
            }
            (
                Terminator::Call { callee, return_to },
                Terminator::Call {
                    callee: c2,
                    return_to: r2,
                },
            ) => {
                if rel(c2) != callee || rel(r2) != return_to {
                    fail(sink, "changed its callee or return target");
                }
            }
            (Terminator::Return, Terminator::Return) | (Terminator::Halt, Terminator::Halt) => {}
            _ => fail(sink, "changed terminator kind"),
        }
    }
}

/// `opt.flow-conserved`: every profile-weighted edge of the before program
/// must survive as some after edge with the same rel endpoints.
fn check_flow(app: &PassApplication, profile: &Profile, sink: &mut DiagnosticSink) {
    let before = &app.before;
    let after = &app.after;
    // Project the original-program profile onto the before program.
    let prof = profile.project(&app.block_origin_before, &app.branch_origin_before);

    let mut surviving: HashSet<(u32, u32)> = HashSet::new();
    for blk in after.blocks() {
        let u = app.rel_block[blk.id.0 as usize];
        for (_, s) in blk.terminator.local_successors() {
            surviving.insert((u.0, app.rel_block[s.0 as usize].0));
        }
    }
    for blk in before.blocks() {
        for (succ, w) in prof.edge_weights(before, blk.id) {
            if w > 0.0 && !surviving.contains(&(blk.id.0, succ.0)) {
                sink.error(
                    "opt.flow-conserved",
                    Location::Block(blk.id),
                    format!(
                        "{}: edge {} -> {succ} carries profile weight {w:.0} \
                         but no after-program edge maps onto it",
                        app.pass, blk.id
                    ),
                );
            }
        }
    }
}

/// Statically validates one pass application (no execution).
pub fn check_application(app: &PassApplication, profile: &Profile, sink: &mut DiagnosticSink) {
    if !check_shape(app, sink) {
        return;
    }
    check_program_ssa(&app.after, sink);
    check_bodies(app, sink);
    match &app.edit {
        PassEdit::Lvn { rewrites } => check_lvn_rewrites(app, rewrites, sink),
        PassEdit::Dce { removed, .. } => check_dce_removals(app, removed, sink),
        PassEdit::Superblock { .. } | PassEdit::Straighten { .. } => {}
    }
    check_origin_edges(app, sink);
    check_flow(app, profile, sink);
}

// ---------------------------------------------------------------------------
// Dynamic per-application trace equivalence
// ---------------------------------------------------------------------------

type ProjectedInst = (OpClass, Option<Reg>, [Option<Reg>; 2]);
type SitedInst = (BlockId, usize, ProjectedInst);

fn collect_stream(workload: &Workload, layout: &Layout, insts: u64) -> Vec<SitedInst> {
    workload
        .block_stream(layout, InputId::TEST, insts)
        .iter()
        .filter_map(|i| {
            if i.ctrl.is_some() || i.op == OpClass::Nop {
                return None;
            }
            let laid = layout.inst_at(i.addr)?;
            let body = (i.addr.word_index() - layout.block_addr(laid.block).word_index()) as usize;
            Some((laid.block, body, (i.op, i.dest, i.srcs)))
        })
        .collect()
}

/// `opt.trace-equiv` / `opt.trace-overlap`: executes the before and after
/// programs of one application (behavior models aliased through the branch
/// origin maps, so duplicated branches share model, state, and RNG draws),
/// applies the *declared* edit to the before stream, and requires the
/// projected instruction streams to agree on their common prefix.
pub fn check_app_dynamic(
    workload: &Workload,
    app: &PassApplication,
    insts: u64,
    sink: &mut DiagnosticSink,
) {
    let opts = LayoutOptions::new(16);
    let (Ok(layout_b), Ok(layout_a)) = (
        Layout::natural(&app.before, opts.clone()),
        Layout::natural(&app.after, opts),
    ) else {
        sink.error(
            "opt.trace-equiv",
            Location::Program,
            format!("{}: before/after program fails to lay out", app.pass),
        );
        return;
    };
    let side = |program: &Program, origin: &[fetchmech_isa::BranchId]| Workload {
        spec: workload.spec.clone(),
        program: program.clone(),
        behaviors: workload.behaviors.with_origin(origin.to_vec()),
    };
    let wb = side(&app.before, &app.branch_origin_before);
    let wa = side(&app.after, &app.branch_origin_after);

    let before_stream = collect_stream(&wb, &layout_b, insts);
    let after_stream = collect_stream(&wa, &layout_a, insts);

    // Transform the before stream by exactly the declared edit.
    let expected: Vec<ProjectedInst> = match &app.edit {
        PassEdit::Lvn { rewrites } => {
            let rw: HashMap<(u32, usize), ProjectedInst> = rewrites
                .iter()
                .map(|r| {
                    (
                        (r.block.0, r.inst),
                        (r.after.op, r.after.dest, r.after.srcs),
                    )
                })
                .collect();
            before_stream
                .iter()
                .map(|&(b, i, p)| rw.get(&(b.0, i)).copied().unwrap_or(p))
                .collect()
        }
        PassEdit::Dce { removed, .. } => {
            let gone: HashSet<(u32, usize)> = removed.iter().map(|s| (s.block.0, s.inst)).collect();
            before_stream
                .iter()
                .filter(|(b, i, _)| !gone.contains(&(b.0, *i)))
                .map(|&(_, _, p)| p)
                .collect()
        }
        PassEdit::Superblock { .. } | PassEdit::Straighten { .. } => {
            before_stream.iter().map(|&(_, _, p)| p).collect()
        }
    };
    let actual: Vec<ProjectedInst> = after_stream.iter().map(|&(_, _, p)| p).collect();

    let n = expected.len().min(actual.len());
    if n < (insts as usize) / 4 {
        sink.warn(
            "opt.trace-overlap",
            Location::Program,
            format!(
                "{}: only {n} comparable instructions from a budget of \
                 {insts}; the equivalence check has low coverage",
                app.pass
            ),
        );
    }
    for (pos, (e, a)) in expected[..n].iter().zip(&actual[..n]).enumerate() {
        if e != a {
            sink.error(
                "opt.trace-equiv",
                Location::DynPos(pos),
                format!(
                    "{}: instruction streams diverge: the edited before \
                     stream executes {e:?}, the after program executes {a:?}",
                    app.pass
                ),
            );
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Whole-pipeline entry points
// ---------------------------------------------------------------------------

/// Statically validates a full pipeline result: application chaining, the
/// SSA lint on every program, and every per-application rule except the
/// dynamic trace checks. This is what the debug-build optimize hook runs
/// (without a profile, flow conservation is skipped).
pub fn check_opt_static(
    original: &Program,
    optimized: &Optimized,
    profile: Option<&Profile>,
    sink: &mut DiagnosticSink,
) {
    // Chain integrity.
    let mut prev = original;
    for (i, app) in optimized.applications.iter().enumerate() {
        if app.before != *prev {
            sink.error(
                "opt.shape",
                Location::Program,
                format!(
                    "application {i} ({}) does not consume the preceding program",
                    app.pass
                ),
            );
        }
        prev = &app.after;
    }
    if *prev != optimized.program {
        sink.error(
            "opt.shape",
            Location::Program,
            "the pipeline result is not the last application's output",
        );
    }
    if optimized.block_origin.len() != optimized.program.num_blocks()
        || optimized.branch_origin.len() != optimized.program.num_branches() as usize
        || !is_permutation(&optimized.order, optimized.program.num_blocks())
    {
        sink.error(
            "opt.shape",
            Location::Program,
            "pipeline origin maps or final order do not match the final program",
        );
    }

    check_program_ssa(original, sink);
    for app in &optimized.applications {
        if !check_shape(app, sink) {
            continue;
        }
        check_program_ssa(&app.after, sink);
        check_bodies(app, sink);
        match &app.edit {
            PassEdit::Lvn { rewrites } => check_lvn_rewrites(app, rewrites, sink),
            PassEdit::Dce { removed, .. } => check_dce_removals(app, removed, sink),
            PassEdit::Superblock { .. } | PassEdit::Straighten { .. } => {}
        }
        check_origin_edges(app, sink);
        if let Some(profile) = profile {
            check_flow(app, profile, sink);
        }
    }
}

/// Full translation validation: the static rules plus the dynamic
/// observable-trace equivalence of every application.
pub(crate) fn check_optimized(
    workload: &Workload,
    profile: &Profile,
    optimized: &Optimized,
    insts: u64,
    sink: &mut DiagnosticSink,
) {
    check_opt_static(&workload.program, optimized, Some(profile), sink);
    for app in &optimized.applications {
        check_app_dynamic(workload, app, insts, sink);
    }
}

// ---------------------------------------------------------------------------
// Static EIR delta
// ---------------------------------------------------------------------------

/// Per-scheme static predicted EIR (profile-weighted mean entry packet)
/// before and after the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedEir {
    /// The fetch scheme.
    pub scheme: SchemeKind,
    /// Predicted EIR of the original program's natural layout.
    pub before: f64,
    /// Predicted EIR of the optimized program in its pipeline order.
    pub after: f64,
}

/// Static fetch-geometry comparison across the pipeline: the PR 6 analyzer
/// run on the natural layout of the original program versus the optimized
/// program laid out in its pipeline order, plus the profile-weighted
/// predicted-EIR deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct EirDelta {
    /// Geometry of the original program's natural layout.
    pub before: GeometryReport,
    /// Geometry of the optimized program in its pipeline layout order.
    pub after: GeometryReport,
    /// Profile-weighted predicted EIR per scheme, in [`SchemeKind::ALL`]
    /// order. Duplicated blocks inherit their origin's execution count
    /// through [`Optimized::block_origin`].
    pub weighted: Vec<WeightedEir>,
}

/// Packet-restart weight per block: executions that arrive by a fetch
/// redirect (taken branch, jump, call, return) rather than by streaming in
/// from the preceding block in layout order. A block whose layout
/// predecessor falls through into it (plain fall-through, or the fall side
/// of a conditional) is only "entered" by the residual taken-side traffic —
/// which is exactly what branch straightening and superblock formation
/// minimize on the hot path.
fn restart_weights(program: &Program, profile: &Profile, order: &[BlockId]) -> Vec<f64> {
    let mut w: Vec<f64> = (0..program.num_blocks())
        .map(|b| profile.block_count(BlockId(b as u32)) as f64)
        .collect();
    for win in order.windows(2) {
        let (u, v) = (win[0], win[1]);
        let inflow = match program.block(u).terminator {
            Terminator::FallThrough { next } if next == v => profile.block_count(u) as f64,
            Terminator::CondBranch { id, fall, .. } if fall == v => {
                profile.block_count(u) as f64 * (1.0 - profile.taken_prob(id))
            }
            _ => 0.0,
        };
        w[v.0 as usize] = (w[v.0 as usize] - inflow).max(0.0);
    }
    w
}

/// Expected laid-instruction length of the fetch run starting at each
/// block's entry: the block's own laid footprint plus, weighted by the
/// probability control actually falls through into the next block *in
/// layout order*, the run continuing there. Any other exit — a taken
/// conditional, a materialized jump, a call or return — redirects fetch and
/// ends the run (the matching event charges a restart in
/// [`restart_weights`]).
fn expected_runs(
    program: &Program,
    profile: &Profile,
    layout: &Layout,
    order: &[BlockId],
) -> Vec<f64> {
    let mut laid = vec![0.0f64; program.num_blocks()];
    for inst in layout.code() {
        laid[inst.block.0 as usize] += 1.0;
    }
    let mut runs = vec![0.0f64; program.num_blocks()];
    for (i, &u) in order.iter().enumerate().rev() {
        let cont = match program.block(u).terminator {
            Terminator::FallThrough { next } if order.get(i + 1) == Some(&next) => 1.0,
            Terminator::CondBranch { id, fall, .. } if order.get(i + 1) == Some(&fall) => {
                1.0 - profile.taken_prob(id)
            }
            _ => 0.0,
        };
        let next_run = order.get(i + 1).map_or(0.0, |v| runs[v.0 as usize]);
        runs[u.0 as usize] = laid[u.0 as usize] + cont * next_run;
    }
    runs
}

/// Computes the static EIR delta of a pipeline result under `machine`,
/// weighting block entry packets by how often `profile` says fetch
/// *restarts* there (see `restart_weights`).
///
/// `measured_after`, when given, is a profile collected on the *optimized*
/// program (e.g. by re-running the workload with origin-aliased behaviors)
/// and is used verbatim for the after side. Without it the input profile is
/// projected through the origin maps, which double-counts duplicated paths:
/// a copy inherits its origin's full count while the origin keeps it too,
/// so cold duplicate chains are weighted as if they were hot and the
/// predicted delta is biased *against* tail duplication.
///
/// # Errors
///
/// Propagates [`LayoutError`] if either side fails to lay out (cannot occur
/// for a valid pipeline result).
pub fn eir_delta(
    original: &Program,
    profile: &Profile,
    optimized: &Optimized,
    measured_after: Option<&Profile>,
    machine: &MachineModel,
) -> Result<EirDelta, LayoutError> {
    let opts = LayoutOptions::new(machine.block_bytes);
    let natural = Layout::natural(original, opts.clone())?;
    let tuned = Layout::new(&optimized.program, &optimized.order, opts)?;
    let natural_order: Vec<BlockId> = (0..original.num_blocks())
        .map(|b| BlockId(b as u32))
        .collect();
    let weights_before = restart_weights(original, profile, &natural_order);
    let projected;
    let profile_after = match measured_after {
        Some(p) => p,
        None => {
            projected = profile.project(&optimized.block_origin, &optimized.branch_origin);
            &projected
        }
    };
    let weights_after = restart_weights(&optimized.program, profile_after, &optimized.order);
    let runs_before = expected_runs(original, profile, &natural, &natural_order);
    let runs_after = expected_runs(&optimized.program, profile_after, &tuned, &optimized.order);
    let weighted = SchemeKind::ALL
        .into_iter()
        .map(|scheme| WeightedEir {
            scheme,
            before: predicted_eir(
                original,
                &natural,
                machine,
                scheme,
                &weights_before,
                &runs_before,
            ),
            after: predicted_eir(
                &optimized.program,
                &tuned,
                machine,
                scheme,
                &weights_after,
                &runs_after,
            ),
        })
        .collect();
    Ok(EirDelta {
        before: analyze_geometry(original, &natural, machine),
        after: analyze_geometry(&optimized.program, &tuned, machine),
        weighted,
    })
}

// ---------------------------------------------------------------------------
// Registry pass
// ---------------------------------------------------------------------------

/// Translation validation of an optimization-pipeline result over
/// [`Target::Opt`]: static rules plus per-application dynamic trace
/// equivalence.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptVerifyPass;

impl Pass for OptVerifyPass {
    fn name(&self) -> &'static str {
        "optverify"
    }

    fn description(&self) -> &'static str {
        "pass-pipeline translation validation: SSA well-formedness, declared \
         edits re-proved, origin-edge isomorphism, profile flow conservation, \
         dynamic trace equivalence"
    }

    fn rules(&self) -> &'static [&'static str] {
        OPT_RULES
    }

    fn applies(&self, target: &Target<'_>) -> bool {
        matches!(target, Target::Opt { .. })
    }

    fn run(&self, target: &Target<'_>, sink: &mut DiagnosticSink) {
        if let Target::Opt {
            workload,
            profile,
            optimized,
            insts,
        } = target
        {
            check_optimized(workload, profile, optimized, *insts, sink);
        }
    }
}
