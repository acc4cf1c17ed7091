//! Minimal-SSA overlay construction over [`CfgView`].
//!
//! The instruction set has a fixed 64-register file and the simulator models
//! dataflow, not value semantics, so SSA here is an *overlay*: registers are
//! never renamed in the [`Program`]. Instead [`build_ssa`] assigns every
//! register definition — implicit function-entry values, phi merges, and
//! body-instruction writes — a dense [`SsaValue`], and records which value
//! each body-instruction source, terminator source, and phi argument reads.
//! Destruction is therefore the identity transform: dropping the overlay
//! recovers the original program unchanged.
//!
//! Phi placement is minimal SSA via iterated dominance frontiers
//! ([`Dominators::frontiers`]), with two domain-specific twists:
//!
//! * every register has an implicit *entry* definition at each function
//!   entry (values live into a function have no in-ISA def site), and a
//!   function entry with real predecessors — a loop backedge into the
//!   function head — is a merge point between the virtual caller edge and
//!   those preds, so its phis carry an extra [`PhiNode::entry_arg`] arm;
//! * `Call`/`Return`/`Halt` terminators conservatively read every register
//!   (no calling convention exists), recorded per value in
//!   [`SsaForm::exit_live`]. This makes SSA-based liveness agree exactly
//!   with the analysis crate's register-liveness dead-write set.
//!
//! All fields are public: the translation-validation layer's mutation tests
//! corrupt one SSA invariant at a time and assert the well-formedness lint
//! catches exactly that corruption.

use fetchmech_isa::{BlockId, CfgView, Dominators, FuncId, Program, Reg, Terminator};

/// A dense SSA value id (index into [`SsaForm::defs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SsaValue(pub u32);

/// Where an SSA value is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SsaDef {
    /// The register's value on entry to `func` (no in-ISA def site).
    Entry {
        /// Function whose entry carries the value.
        func: FuncId,
        /// The register.
        reg: Reg,
    },
    /// A phi merge at the head of `block`.
    Phi {
        /// Block whose head holds the phi.
        block: BlockId,
        /// Index into [`SsaForm::phis`]`[block]`.
        index: usize,
    },
    /// The destination write of body instruction `index` of `block`.
    Inst {
        /// Defining block.
        block: BlockId,
        /// Body-instruction index within the block.
        index: usize,
    },
}

/// A phi merge: one incoming value per predecessor edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhiNode {
    /// The register being merged.
    pub reg: Reg,
    /// The value this phi defines.
    pub value: SsaValue,
    /// Incoming `(predecessor, value)` arms, one per CFG predecessor.
    pub args: Vec<(BlockId, SsaValue)>,
    /// The implicit caller-edge arm, present exactly when the block is a
    /// function entry (the merge of the entry value with loop backedges).
    pub entry_arg: Option<SsaValue>,
}

/// The SSA overlay of a program: per-site value defs and uses.
#[derive(Debug, Clone)]
pub struct SsaForm {
    /// Definition site of every value, indexed by [`SsaValue`].
    pub defs: Vec<SsaDef>,
    /// Phi nodes at each block head, indexed by block.
    pub phis: Vec<Vec<PhiNode>>,
    /// Values read by each body instruction's sources (`[block][inst]`,
    /// one entry per present `src`, in source order).
    pub inst_uses: Vec<Vec<Vec<SsaValue>>>,
    /// Value defined by each body instruction's dest, if any.
    pub inst_defs: Vec<Vec<Option<SsaValue>>>,
    /// Values read by each block's terminator (branch sources).
    pub term_uses: Vec<Vec<SsaValue>>,
    /// Values conservatively read by a `Call`/`Return`/`Halt` terminator
    /// (which read all 64 registers), indexed by [`SsaValue`].
    pub exit_live: Vec<bool>,
}

impl SsaForm {
    /// Number of SSA values.
    #[must_use]
    pub fn num_values(&self) -> usize {
        self.defs.len()
    }
}

const NUM_REGS: usize = 64;

/// Builds the minimal-SSA overlay of `program`.
///
/// `view` must be [`CfgView::local`] of the same program and `dom` computed
/// from that view. Blocks unreachable from their function entry get no phis
/// and no recorded uses (passes must not transform them).
#[must_use]
pub fn build_ssa(program: &Program, view: &CfgView, dom: &Dominators) -> SsaForm {
    let n = program.num_blocks();
    let df = dom.frontiers(program, view);
    let children = dom.children();

    let mut form = SsaForm {
        defs: Vec::new(),
        phis: vec![Vec::new(); n],
        inst_uses: (0..n)
            .map(|b| vec![Vec::new(); program.block(BlockId(b as u32)).insts.len()])
            .collect(),
        inst_defs: (0..n)
            .map(|b| vec![None; program.block(BlockId(b as u32)).insts.len()])
            .collect(),
        term_uses: vec![Vec::new(); n],
        exit_live: Vec::new(),
    };

    let mut is_entry = vec![false; n];
    for &e in program.func_entries() {
        is_entry[e.0 as usize] = true;
    }

    for (f, &entry) in program.func_entries().iter().enumerate() {
        let func = FuncId(f as u32);
        let rpo = view.reverse_postorder(entry);

        // Phi placement: iterated dominance frontier of each register's def
        // sites (body writes plus the implicit entry def).
        for fi in 0..NUM_REGS {
            let mut work: Vec<BlockId> = vec![entry];
            for &b in &rpo {
                if program
                    .block(b)
                    .insts
                    .iter()
                    .any(|i| i.dest.map(Reg::file_index) == Some(fi))
                {
                    work.push(b);
                }
            }
            let mut has_phi = vec![false; n];
            while let Some(b) = work.pop() {
                for &j in &df[b.0 as usize] {
                    if !has_phi[j.0 as usize] {
                        has_phi[j.0 as usize] = true;
                        let value = SsaValue(form.defs.len() as u32);
                        form.defs.push(SsaDef::Phi {
                            block: j,
                            index: form.phis[j.0 as usize].len(),
                        });
                        form.exit_live.push(false);
                        form.phis[j.0 as usize].push(PhiNode {
                            reg: Reg::from_file_index(fi),
                            value,
                            args: Vec::new(),
                            entry_arg: None,
                        });
                        work.push(j);
                    }
                }
            }
        }

        // Renaming: one entry value per register, then a dominator-tree walk
        // maintaining per-register value stacks.
        let mut stacks: Vec<Vec<SsaValue>> = (0..NUM_REGS)
            .map(|fi| {
                let value = SsaValue(form.defs.len() as u32);
                form.defs.push(SsaDef::Entry {
                    func,
                    reg: Reg::from_file_index(fi),
                });
                form.exit_live.push(false);
                vec![value]
            })
            .collect();

        let mut frames = vec![enter_block(
            program,
            view,
            &mut form,
            &mut stacks,
            &is_entry,
            entry,
        )];
        while let Some(frame) = frames.last_mut() {
            let kids = &children[frame.block.0 as usize];
            if frame.next_child < kids.len() {
                let child = kids[frame.next_child];
                frame.next_child += 1;
                frames.push(enter_block(
                    program,
                    view,
                    &mut form,
                    &mut stacks,
                    &is_entry,
                    child,
                ));
            } else {
                for &fi in frame.pushed.iter().rev() {
                    stacks[fi].pop();
                }
                frames.pop();
            }
        }
    }

    form
}

/// One explicit DFS frame of the renaming walk: the block, the next
/// dominator-tree child to visit, and which register stacks it pushed.
struct Frame {
    block: BlockId,
    next_child: usize,
    pushed: Vec<usize>,
}

/// Processes one block of the renaming walk (phi defs, body uses/defs,
/// terminator reads, successor phi arms) and returns its DFS frame.
fn enter_block(
    program: &Program,
    view: &CfgView,
    form: &mut SsaForm,
    stacks: &mut [Vec<SsaValue>],
    is_entry: &[bool],
    b: BlockId,
) -> Frame {
    let bi = b.0 as usize;
    let mut pushed = Vec::new();

    // Phi defs first; the implicit caller arm of an entry block's phi is
    // the pre-phi stack top (the Entry value).
    for pi in 0..form.phis[bi].len() {
        let (reg, value) = {
            let phi = &form.phis[bi][pi];
            (phi.reg, phi.value)
        };
        let fi = reg.file_index();
        if is_entry[bi] {
            let top = *stacks[fi].last().expect("entry value present");
            form.phis[bi][pi].entry_arg = Some(top);
        }
        stacks[fi].push(value);
        pushed.push(fi);
    }

    // Body: record source values before pushing the dest value, so an
    // instruction reading its own destination register sees the incoming
    // value.
    let block = program.block(b);
    for (i, inst) in block.insts.iter().enumerate() {
        let mut uses = Vec::new();
        for src in inst.srcs.iter().flatten() {
            uses.push(*stacks[src.file_index()].last().expect("value on stack"));
        }
        form.inst_uses[bi][i] = uses;
        if let Some(dest) = inst.dest {
            let value = SsaValue(form.defs.len() as u32);
            form.defs.push(SsaDef::Inst { block: b, index: i });
            form.exit_live.push(false);
            let fi = dest.file_index();
            stacks[fi].push(value);
            pushed.push(fi);
            form.inst_defs[bi][i] = Some(value);
        }
    }

    // Terminator reads. Call/Return/Halt conservatively read every
    // register (mirrors the analysis crate's liveness).
    match block.terminator {
        Terminator::CondBranch { srcs, .. } => {
            for src in srcs.iter().flatten() {
                let v = *stacks[src.file_index()].last().expect("value on stack");
                form.term_uses[bi].push(v);
            }
        }
        Terminator::Call { .. } | Terminator::Return | Terminator::Halt => {
            for stack in stacks.iter() {
                let v = *stack.last().expect("value on stack");
                form.exit_live[v.0 as usize] = true;
            }
        }
        Terminator::FallThrough { .. } | Terminator::Jump { .. } => {}
    }

    // Fill successor phi arms with this block's outgoing values.
    for &s in view.successors(b) {
        for phi in form.phis[s.0 as usize].iter_mut() {
            let v = *stacks[phi.reg.file_index()].last().expect("value on stack");
            phi.args.push((b, v));
        }
    }

    Frame {
        block: b,
        next_child: 0,
        pushed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchmech_isa::{Inst, OpClass, ProgramBuilder};

    /// entry(def r1) → {left(def r1), right} → join(use r1) → loop back or halt.
    fn diamond() -> Program {
        let mut b = ProgramBuilder::new();
        let f = b.begin_func();
        let top = b.new_block(f);
        let left = b.new_block(f);
        let right = b.new_block(f);
        let join = b.new_block(f);
        let exit = b.new_block(f);
        let r1 = Reg::int(1);
        b.push_inst(top, Inst::new(OpClass::IntAlu, Some(r1), [None, None]));
        b.set_cond_branch(top, [Some(r1), None], left, right);
        b.push_inst(left, Inst::new(OpClass::IntAlu, Some(r1), [None, None]));
        b.set_terminator(left, Terminator::Jump { target: join });
        b.set_terminator(right, Terminator::Jump { target: join });
        b.push_inst(
            join,
            Inst::new(OpClass::IntMul, Some(Reg::int(2)), [Some(r1), None]),
        );
        b.set_cond_branch(join, [Some(Reg::int(2)), None], top, exit);
        b.set_terminator(exit, Terminator::Halt);
        b.set_entry(top);
        b.finish().expect("valid diamond")
    }

    #[test]
    fn join_merges_the_two_defs() {
        let p = diamond();
        let view = CfgView::local(&p);
        let dom = Dominators::compute(&p, &view);
        let ssa = build_ssa(&p, &view, &dom);

        // The join block needs a phi for r1 (defs in top and left merge).
        let join_phis = &ssa.phis[3];
        let phi = join_phis
            .iter()
            .find(|ph| ph.reg == Reg::int(1))
            .expect("phi for r1 at the join");
        assert_eq!(phi.args.len(), 2, "one arm per predecessor");
        assert!(phi.entry_arg.is_none(), "join is not a function entry");
        // The two arms carry *different* values (top's def vs left's def).
        let mut vals: Vec<SsaValue> = phi.args.iter().map(|&(_, v)| v).collect();
        vals.dedup();
        assert_eq!(vals.len(), 2);

        // join's multiply reads the phi value.
        assert_eq!(ssa.inst_uses[3][0], vec![phi.value]);
    }

    #[test]
    fn loop_header_entry_gets_entry_arm_phis() {
        let p = diamond();
        let view = CfgView::local(&p);
        let dom = Dominators::compute(&p, &view);
        let ssa = build_ssa(&p, &view, &dom);

        // The backedge join→top makes the function entry a merge: its phis
        // must carry the implicit caller arm.
        let top_phis = &ssa.phis[0];
        assert!(!top_phis.is_empty(), "loop header needs phis");
        for phi in top_phis {
            assert!(phi.entry_arg.is_some(), "entry block phi needs caller arm");
            assert_eq!(phi.args.len(), 1, "one real predecessor (the backedge)");
        }
        // r1's header phi merges the entry value with the loop-carried def.
        let phi = top_phis
            .iter()
            .find(|ph| ph.reg == Reg::int(1))
            .expect("phi for r1 at header");
        assert!(matches!(
            ssa.defs[phi.entry_arg.expect("arm").0 as usize],
            SsaDef::Entry { .. }
        ));
    }

    #[test]
    fn every_use_resolves() {
        let p = diamond();
        let view = CfgView::local(&p);
        let dom = Dominators::compute(&p, &view);
        let ssa = build_ssa(&p, &view, &dom);
        for uses in ssa.inst_uses.iter().flatten().flatten() {
            assert!((uses.0 as usize) < ssa.num_values());
        }
    }
}
