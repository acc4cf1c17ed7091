//! The trace executor: walks a laid-out program under a behaviour map and
//! emits the dynamic instruction stream.
//!
//! This is the stand-in for the paper's `spike` tracing tool. The executor is
//! an [`Iterator`] over [`DynInst`], so fetch simulators consume traces
//! without materializing them; a given `(workload, layout, input, seed)`
//! tuple always produces the identical stream.

use fetchmech_isa::rng::{splitmix64, Pcg64};
use fetchmech_isa::{Addr, DynCtrl, DynInst, Layout, OpClass, Program, Terminator};

use crate::behavior::{BehaviorMap, BehaviorState};
use crate::spec::Workload;

/// Which program input to execute (the §4 methodology: inputs 0–4 profile,
/// input 5 tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InputId(pub u32);

impl InputId {
    /// The five profiling inputs.
    pub const PROFILE: [InputId; 5] = [InputId(0), InputId(1), InputId(2), InputId(3), InputId(4)];
    /// The held-out test input used for performance simulation.
    pub const TEST: InputId = InputId(5);
}

/// Iterator over the dynamic instruction stream of one program execution.
pub struct Executor<'a> {
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

impl std::fmt::Debug for Executor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("emitted", &self.emitted)
            .field("limit", &self.limit)
            .finish()
    }
}

impl<'a> Executor<'a> {
    /// Creates an executor over `layout` (which must be a layout of
    /// `program`) with per-input behaviour.
    ///
    /// `limit` bounds the trace length; the program restarts at its entry on
    /// `halt` until the limit is reached.
    ///
    /// # Panics
    ///
    /// Panics if the layout's entry address does not resolve (layout/program
    /// mismatch).
    #[must_use]
    pub fn new(
        program: &'a Program,
        layout: &'a Layout,
        behaviors: BehaviorMap,
        input: InputId,
        seed: u64,
        limit: u64,
    ) -> Self {
        let pc = layout
            .index_of(layout.entry_addr())
            .expect("layout entry address must resolve");
        Self {
            program,
            layout,
            state: BehaviorState::new(behaviors.state_len()),
            behaviors,
            rng: Pcg64::new(splitmix64(seed ^ 0xe8ec ^ (u64::from(input.0) << 32))),
            pc,
            call_stack: Vec::new(),
            emitted: 0,
            limit,
        }
    }

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

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Generated programs cycle forever via halt-restart, so in practice
        // exactly `limit` instructions are emitted; the lower bound is still 0
        // because a hand-built layout may walk off the end of its code.
        let remaining = usize::try_from(self.limit.saturating_sub(self.emitted)).unwrap_or(0);
        (0, Some(remaining))
    }
}

impl Workload {
    /// Convenience: an executor over this workload with the given layout.
    ///
    /// The behaviour is the workload's base behaviour perturbed for `input`
    /// with the spec's `input_magnitude`; the RNG seed derives from the
    /// workload seed so traces are reproducible.
    #[must_use]
    pub fn executor<'a>(&'a self, layout: &'a Layout, input: InputId, limit: u64) -> Executor<'a> {
        Executor::new(
            &self.program,
            layout,
            self.behaviors.for_input(input.0, self.spec.input_magnitude),
            input,
            self.spec.seed,
            limit,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use fetchmech_isa::{LayoutOptions, TraceStats};

    fn workload() -> Workload {
        let mut s = WorkloadSpec::base_int("exec-unit", 99);
        s.funcs = 4;
        s.segments_per_func = (4, 8);
        Workload::generate(s)
    }

    #[test]
    fn trace_is_deterministic() {
        let w = workload();
        let l = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        let a: Vec<_> = w.executor(&l, InputId::TEST, 2000).collect();
        let b: Vec<_> = w.executor(&l, InputId::TEST, 2000).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2000);
    }

    #[test]
    fn size_hint_tracks_the_limit() {
        let w = workload();
        let l = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        let mut e = w.executor(&l, InputId::TEST, 100);
        assert_eq!(e.size_hint(), (0, Some(100)));
        e.next().expect("first instruction");
        assert_eq!(e.size_hint(), (0, Some(99)));
        // A collect sees the upper bound, so pre-sizing via
        // `Vec::with_capacity` at the call site never reallocates.
        let rest: Vec<_> = e.collect();
        assert_eq!(rest.len(), 99);
    }

    #[test]
    fn next_pc_links_the_stream() {
        let w = workload();
        let l = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        let trace: Vec<_> = w.executor(&l, InputId::TEST, 5000).collect();
        for pair in trace.windows(2) {
            assert_eq!(
                pair[0].next_pc, pair[1].addr,
                "broken link after {}",
                pair[0].addr
            );
        }
    }

    #[test]
    fn different_inputs_diverge_but_share_code() {
        let w = workload();
        let l = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        let a: Vec<_> = w.executor(&l, InputId(0), 3000).collect();
        let b: Vec<_> = w.executor(&l, InputId(5), 3000).collect();
        assert_ne!(a, b, "inputs must produce different dynamic paths");
        // Yet every address comes from the same static image.
        for i in a.iter().chain(b.iter()) {
            assert!(l.index_of(i.addr).is_some());
        }
    }

    #[test]
    fn halting_restarts_at_entry() {
        let w = workload();
        let l = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        let trace: Vec<_> = w.executor(&l, InputId::TEST, 200_000).collect();
        let halts: Vec<_> = trace.iter().filter(|i| i.op == OpClass::Halt).collect();
        assert!(!halts.is_empty(), "long trace must wrap around");
        for h in halts {
            assert_eq!(h.next_pc, l.entry_addr());
        }
    }

    #[test]
    fn calls_and_returns_balance() {
        let w = workload();
        let l = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        let mut depth = 0i64;
        for i in w.executor(&l, InputId::TEST, 100_000) {
            match i.op {
                OpClass::Call => depth += 1,
                OpClass::Return => {
                    depth -= 1;
                    assert!(depth >= 0, "return without a call");
                }
                OpClass::Halt => depth = 0,
                _ => {}
            }
        }
    }

    #[test]
    fn return_targets_the_callers_resume_block() {
        let w = workload();
        let l = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        let trace: Vec<_> = w.executor(&l, InputId::TEST, 100_000).collect();
        let mut stack = Vec::new();
        let mut checked = 0;
        for i in &trace {
            match i.op {
                OpClass::Call => {
                    let block = l.inst_at(i.addr).expect("call inst").block;
                    match w.program.block(block).terminator {
                        Terminator::Call { return_to, .. } => stack.push(l.block_addr(return_to)),
                        _ => unreachable!(),
                    }
                }
                OpClass::Return => {
                    if let Some(expect) = stack.pop() {
                        assert_eq!(i.next_pc, expect);
                        checked += 1;
                    }
                }
                OpClass::Halt => stack.clear(),
                _ => {}
            }
        }
        assert!(checked > 0, "trace must contain returns");
    }

    #[test]
    fn int_workload_is_branchy() {
        let w = workload();
        let l = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        let mut stats = TraceStats::new();
        for i in w.executor(&l, InputId::TEST, 50_000) {
            stats.observe(&i, 16);
        }
        let branch_freq = stats.cond_branches as f64 / stats.insts as f64;
        assert!(
            branch_freq > 0.08,
            "branch frequency {branch_freq} too low for integer code"
        );
        assert!(stats.taken_controls > 0);
    }

    #[test]
    fn fp_workload_has_longer_runs() {
        let fp = Workload::generate(WorkloadSpec::base_fp("exec-fp", 7));
        let int = workload();
        let lf = Layout::natural(&fp.program, LayoutOptions::new(16)).expect("layout");
        let li = Layout::natural(&int.program, LayoutOptions::new(16)).expect("layout");
        let run = |w: &Workload, l: &Layout| {
            let mut taken = 0u64;
            let mut insts = 0u64;
            for i in w.executor(l, InputId::TEST, 50_000) {
                insts += 1;
                if i.is_taken_control() {
                    taken += 1;
                }
            }
            insts as f64 / taken as f64
        };
        let fp_run = run(&fp, &lf);
        let int_run = run(&int, &li);
        assert!(
            fp_run > int_run,
            "fp mean run length {fp_run} must exceed int {int_run}"
        );
    }
}
