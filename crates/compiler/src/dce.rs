//! Dead-code elimination driven by SSA-value liveness.
//!
//! A value is *live* if some body instruction or terminator reads it, if a
//! `Call`/`Return`/`Halt` point (which conservatively reads all registers)
//! can observe it, or if it feeds a phi whose own value is live (phi
//! transparency). A body instruction whose destination value is dead is
//! removable; removal can kill the uses that kept *earlier* defs alive, so
//! [`dce`] iterates build-SSA → collect → remove to a fixpoint.
//!
//! On fully reachable programs one round of `dead_inst_sites` computes
//! exactly the same set as the analysis crate's register-liveness
//! `dead_writes` — two independent algorithms over different lattices — and
//! the translation-validation layer cross-checks the two (the promoted
//! `dataflow.dead-write` rule). Blocks unreachable from their function entry
//! are never touched.

use fetchmech_isa::{BlockId, CfgView, Dominators, Program, Reg};

use crate::ssa::{build_ssa, SsaForm};

/// One removed (or removable) body instruction: block, body index, and the
/// register whose write was dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadSite {
    /// Containing block.
    pub block: BlockId,
    /// Body-instruction index within the block (in the program the site was
    /// computed against).
    pub inst: usize,
    /// The dead-written register.
    pub reg: Reg,
}

/// Computes per-value liveness for an SSA overlay (phi-transparent
/// fixpoint).
#[must_use]
pub(crate) fn value_liveness(form: &SsaForm) -> Vec<bool> {
    let mut live = form.exit_live.clone();
    for v in form.inst_uses.iter().flatten().flatten() {
        live[v.0 as usize] = true;
    }
    for v in form.term_uses.iter().flatten() {
        live[v.0 as usize] = true;
    }
    // Phi transparency: a phi's arms are read only if the phi's own value
    // is; iterate because arms may themselves be phis.
    let mut changed = true;
    while changed {
        changed = false;
        for phi in form.phis.iter().flatten() {
            if !live[phi.value.0 as usize] {
                continue;
            }
            for &(_, arg) in &phi.args {
                if !live[arg.0 as usize] {
                    live[arg.0 as usize] = true;
                    changed = true;
                }
            }
            if let Some(arg) = phi.entry_arg {
                if !live[arg.0 as usize] {
                    live[arg.0 as usize] = true;
                    changed = true;
                }
            }
        }
    }
    live
}

/// One round of dead-site collection: body instructions whose destination
/// value is dead, sorted by `(block, inst)`. Unreachable blocks (no SSA
/// overlay) are skipped.
#[must_use]
pub(crate) fn dead_inst_sites(
    program: &Program,
    form: &SsaForm,
    dom: &Dominators,
) -> Vec<DeadSite> {
    let live = value_liveness(form);
    let mut sites = Vec::new();
    for b in 0..program.num_blocks() {
        let block = BlockId(b as u32);
        if dom.idom(block).is_none() {
            continue;
        }
        for (i, inst) in program.block(block).insts.iter().enumerate() {
            let Some(dest) = inst.dest else { continue };
            let Some(value) = form.inst_defs[b][i] else {
                continue;
            };
            if !live[value.0 as usize] {
                sites.push(DeadSite {
                    block,
                    inst: i,
                    reg: dest,
                });
            }
        }
    }
    sites
}

/// The result of running [`dce`]: the edited program and every removed
/// site in the *input* program's coordinates.
#[derive(Debug, Clone)]
pub struct DceResult {
    /// The program with all dead writes removed.
    pub program: Program,
    /// Removed sites, in input-program `(block, body index)` coordinates,
    /// sorted.
    pub removed: Vec<DeadSite>,
    /// Number of build→collect→remove rounds until the fixpoint.
    pub rounds: usize,
}

/// Removes dead body instructions to a fixpoint.
///
/// # Panics
///
/// Panics if the edited program fails re-validation (removal of body
/// instructions cannot break structural invariants).
#[must_use]
pub fn dce(program: &Program) -> DceResult {
    let mut cur = program.clone();
    // Per block: current body index → input-program body index.
    let mut index_map: Vec<Vec<usize>> = program
        .blocks()
        .iter()
        .map(|b| (0..b.insts.len()).collect())
        .collect();
    let mut removed = Vec::new();
    let mut rounds = 0;

    loop {
        let view = CfgView::local(&cur);
        let dom = Dominators::compute(&cur, &view);
        let form = build_ssa(&cur, &view, &dom);
        let sites = dead_inst_sites(&cur, &form, &dom);
        if sites.is_empty() {
            break;
        }
        rounds += 1;
        let mut edit = cur.edit();
        // Remove back-to-front within each block so earlier indices stay
        // valid; `sites` is sorted by (block, inst).
        for site in sites.iter().rev() {
            let bi = site.block.0 as usize;
            edit.insts_mut(site.block).remove(site.inst);
            removed.push(DeadSite {
                block: site.block,
                inst: index_map[bi].remove(site.inst),
                reg: site.reg,
            });
        }
        cur = edit.finish().expect("body removal preserves CFG structure");
    }

    removed.sort_by_key(|s| (s.block.0, s.inst));
    DceResult {
        program: cur,
        removed,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchmech_isa::{Inst, OpClass, ProgramBuilder, Terminator};

    /// A block where r1 is written twice before any read: the first write
    /// is dead, and once it goes, the def feeding *it* (r2) dies too.
    fn chain() -> Program {
        let mut b = ProgramBuilder::new();
        let f = b.begin_func();
        let top = b.new_block(f);
        let exit = b.new_block(f);
        let r1 = Reg::int(1);
        let r2 = Reg::int(2);
        let r3 = Reg::int(3);
        // r2 = ...            (only feeds the dead write below, then is
        //                      itself overwritten — halt's read-all sees the
        //                      later def, so this one can cascade away)
        // r1 = r2             (dead: overwritten before any read)
        // r1 = ...            (live: read by the branch)
        // r2 = ...            (live via halt's read-all)
        // r3 = r1             (live via halt's read-all)
        b.push_inst(top, Inst::new(OpClass::IntAlu, Some(r2), [None, None]));
        b.push_inst(top, Inst::new(OpClass::IntAlu, Some(r1), [Some(r2), None]));
        b.push_inst(top, Inst::new(OpClass::IntAlu, Some(r1), [None, None]));
        b.push_inst(top, Inst::new(OpClass::IntAlu, Some(r2), [None, None]));
        b.push_inst(top, Inst::new(OpClass::IntAlu, Some(r3), [Some(r1), None]));
        b.set_cond_branch(top, [Some(r1), None], top, exit);
        b.set_terminator(exit, Terminator::Halt);
        b.set_entry(top);
        b.finish().expect("valid chain")
    }

    #[test]
    fn cascading_dead_writes_are_removed_to_fixpoint() {
        let p = chain();
        let result = dce(&p);
        // Both the dead write and the def that only fed it are gone.
        let sites: Vec<(u32, usize)> = result.removed.iter().map(|s| (s.block.0, s.inst)).collect();
        assert_eq!(sites, vec![(0, 0), (0, 1)]);
        assert_eq!(result.rounds, 2, "the feeder dies only after the write");
        assert_eq!(result.program.block(BlockId(0)).insts.len(), 3);
        // The fixpoint really is dry.
        let view = CfgView::local(&result.program);
        let dom = Dominators::compute(&result.program, &view);
        let form = build_ssa(&result.program, &view, &dom);
        assert!(dead_inst_sites(&result.program, &form, &dom).is_empty());
    }

    #[test]
    fn loop_carried_values_are_not_dead() {
        // r1 defined in the loop body and read on the next iteration via
        // the header phi: removal would be unsound, so nothing is removed.
        let mut b = ProgramBuilder::new();
        let f = b.begin_func();
        let head = b.new_block(f);
        let exit = b.new_block(f);
        let r1 = Reg::int(1);
        let r2 = Reg::int(2);
        // head: r2 = r1; r1 = ...; loop on r2.  exit shadows r1 before the
        // halt, so the loop body's r1 def is live *only* through the header
        // phi's backedge arm — exactly the phi-transparency case.
        b.push_inst(head, Inst::new(OpClass::IntAlu, Some(r2), [Some(r1), None]));
        b.push_inst(head, Inst::new(OpClass::IntAlu, Some(r1), [None, None]));
        b.set_cond_branch(head, [Some(r2), None], head, exit);
        b.push_inst(exit, Inst::new(OpClass::IntAlu, Some(r1), [None, None]));
        b.set_terminator(exit, Terminator::Halt);
        b.set_entry(head);
        let p = b.finish().expect("valid loop");
        let result = dce(&p);
        assert!(result.removed.is_empty(), "loop-carried def must survive");
    }
}
