//! The per-instruction trace executor: the reference [`Workload::block_stream`]
//! is checked against.
//!
//! It walks a laid-out program one instruction at a time under a behaviour
//! map and emits the dynamic instruction stream. The shipped generator is
//! [`Workload::block_stream`], which emits the same stream segment by
//! segment; this module exists only in test builds, where the stream
//! generator's tests compare the two instruction for instruction.

use fetchmech_isa::rng::{splitmix64, Pcg64};
use fetchmech_isa::{Addr, DynCtrl, DynInst, Layout, OpClass, Program, Terminator};

use crate::behavior::{BehaviorMap, BehaviorState};
use crate::spec::{InputId, Workload};

/// Iterator over the dynamic instruction stream of one program execution.
pub(crate) struct Executor<'a> {
    program: &'a Program,
    layout: &'a Layout,
    behaviors: BehaviorMap,
    state: BehaviorState,
    rng: Pcg64,
    /// Index of the next instruction in `layout.code()`.
    pc: usize,
    call_stack: Vec<Addr>,
    emitted: u64,
    limit: u64,
}

impl Executor<'_> {
    fn goto(&mut self, addr: Addr) {
        self.pc = self
            .layout
            .index_of(addr)
            .unwrap_or_else(|| panic!("control transfer to unmapped address {addr}"));
    }
}

impl Iterator for Executor<'_> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        if self.emitted >= self.limit {
            return None;
        }
        let inst = *self.layout.code().get(self.pc)?;
        let addr = inst.addr;
        let dyn_inst = match inst.op {
            OpClass::CondBranch => {
                let ctrl = inst.ctrl.expect("branch has ctrl");
                let id = ctrl.branch_id.expect("cond branch has id");
                // Duplicated branches (superblock tail duplication) alias
                // their original's state slot and model, so the semantic
                // decision stream is identical to the untransformed program.
                let semantic = self.state.decide(
                    self.behaviors.origin_of(id),
                    self.behaviors.model(id),
                    &mut self.rng,
                );
                let hw_taken = semantic ^ ctrl.inverted;
                let target = ctrl.target.expect("branch target resolved");
                let next_pc = if hw_taken { target } else { addr.add_words(1) };
                if hw_taken {
                    self.goto(target);
                } else {
                    self.pc += 1;
                }
                DynInst {
                    addr,
                    op: inst.op,
                    dest: inst.dest,
                    srcs: inst.srcs,
                    next_pc,
                    ctrl: Some(DynCtrl {
                        taken: hw_taken,
                        target,
                        link: None,
                    }),
                }
            }
            OpClass::Jump => {
                let target = inst
                    .ctrl
                    .and_then(|c| c.target)
                    .expect("jump target resolved");
                self.goto(target);
                DynInst {
                    addr,
                    op: inst.op,
                    dest: inst.dest,
                    srcs: inst.srcs,
                    next_pc: target,
                    ctrl: Some(DynCtrl {
                        taken: true,
                        target,
                        link: None,
                    }),
                }
            }
            OpClass::Call => {
                let target = inst
                    .ctrl
                    .and_then(|c| c.target)
                    .expect("call target resolved");
                let return_to = match self.program.block(inst.block).terminator {
                    Terminator::Call { return_to, .. } => return_to,
                    other => panic!("call instruction from non-call terminator {other:?}"),
                };
                let link = self.layout.block_addr(return_to);
                self.call_stack.push(link);
                self.goto(target);
                DynInst {
                    addr,
                    op: inst.op,
                    dest: inst.dest,
                    srcs: inst.srcs,
                    next_pc: target,
                    ctrl: Some(DynCtrl {
                        taken: true,
                        target,
                        link: Some(link),
                    }),
                }
            }
            OpClass::Return => {
                // An empty stack means a return from the entry function; treat
                // it like a halt restart (cannot happen for generated
                // programs, whose main ends in halt).
                let target = self.call_stack.pop().unwrap_or_else(|| {
                    self.state.reset();
                    self.layout.entry_addr()
                });
                self.goto(target);
                DynInst {
                    addr,
                    op: inst.op,
                    dest: inst.dest,
                    srcs: inst.srcs,
                    next_pc: target,
                    ctrl: Some(DynCtrl {
                        taken: true,
                        target,
                        link: None,
                    }),
                }
            }
            OpClass::Halt => {
                let target = self.layout.entry_addr();
                self.call_stack.clear();
                self.state.reset();
                self.goto(target);
                DynInst {
                    addr,
                    op: inst.op,
                    dest: inst.dest,
                    srcs: inst.srcs,
                    next_pc: target,
                    ctrl: Some(DynCtrl {
                        taken: true,
                        target,
                        link: None,
                    }),
                }
            }
            _ => {
                self.pc += 1;
                DynInst {
                    addr,
                    op: inst.op,
                    dest: inst.dest,
                    srcs: inst.srcs,
                    next_pc: addr.add_words(1),
                    ctrl: None,
                }
            }
        };
        self.emitted += 1;
        Some(dyn_inst)
    }
}

impl Workload {
    /// An executor over this workload with the given layout: the same
    /// behaviour, RNG seed and restart rules as [`Workload::block_stream`].
    pub(crate) fn executor<'a>(
        &'a self,
        layout: &'a Layout,
        input: InputId,
        limit: u64,
    ) -> Executor<'a> {
        let behaviors = self.behaviors.for_input(input.0, self.spec.input_magnitude);
        Executor {
            program: &self.program,
            layout,
            state: BehaviorState::new(behaviors.state_len()),
            behaviors,
            rng: Pcg64::new(splitmix64(
                self.spec.seed ^ 0xe8ec ^ (u64::from(input.0) << 32),
            )),
            pc: layout
                .index_of(layout.entry_addr())
                .expect("layout entry address must resolve"),
            call_stack: Vec::new(),
            emitted: 0,
            limit,
        }
    }
}
