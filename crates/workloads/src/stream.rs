//! Native block-stream trace generation.
//!
//! [`Workload::block_stream`] produces the same dynamic instruction sequence
//! as [`Workload::executor`](crate::Executor) — bit-for-bit, including the
//! branch-behaviour RNG consumption — but emits it directly in run-length
//! [`BlockStream`] form, doing O(1) work per *segment* instead of O(1) work
//! per *instruction*. A precomputed next-control table lets the generator hop
//! from control transfer to control transfer; straight-line instructions are
//! materialized only once per interned segment template, so steady-state
//! generation touches a few words per executed segment.
//!
//! The equivalence contract (`block_stream(..).materialize()` equals the
//! executor's output exactly) is enforced by this module's tests and by the
//! simulator's differential oracle.

use std::collections::HashMap;

use fetchmech_isa::rng::{splitmix64, Pcg64};
use fetchmech_isa::{
    Addr, BlockStream, BlockStreamBuilder, DynCtrl, DynInst, LaidInst, Layout, OpClass, Terminator,
};

use crate::behavior::BehaviorState;
use crate::exec::InputId;
use crate::spec::Workload;

/// Dynamic outcome of a segment's terminal instruction, the part of segment
/// identity the static code does not pin down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SegExit {
    /// Trace limit (or end of code) reached before the next control transfer.
    Cut,
    /// Conditional branch, not taken.
    CondNotTaken,
    /// Conditional branch, taken (static target).
    CondTaken,
    /// Jump, call, or halt — the destination is static.
    Uncond,
    /// Return to a dynamic address.
    Return(Addr),
}

/// True for the ops the executor treats as stream redirect points (emitting
/// a `ctrl` outcome): control transfers plus halt restarts.
fn is_event(op: OpClass) -> bool {
    op.is_control() || op == OpClass::Halt
}

/// Materializes the exact dynamic instructions of one segment:
/// `code[start..start + len]` where only the final instruction may be a
/// control transfer, with the terminal's dynamic fields given by `exit`.
fn materialize_segment(
    code: &[LaidInst],
    entry: Addr,
    start: usize,
    len: usize,
    exit: SegExit,
) -> Vec<DynInst> {
    let mut out = Vec::with_capacity(len);
    let plain_end = match exit {
        SegExit::Cut => start + len,
        _ => start + len - 1,
    };
    for inst in &code[start..plain_end] {
        out.push(DynInst {
            addr: inst.addr,
            op: inst.op,
            dest: inst.dest,
            srcs: inst.srcs,
            next_pc: inst.addr.add_words(1),
            ctrl: None,
        });
    }
    if exit != SegExit::Cut {
        let inst = &code[start + len - 1];
        let addr = inst.addr;
        let dyn_inst = match inst.op {
            OpClass::CondBranch => {
                let ctrl = inst.ctrl.expect("branch has ctrl");
                let target = ctrl.target.expect("branch target resolved");
                let taken = exit == SegExit::CondTaken;
                DynInst {
                    addr,
                    op: inst.op,
                    dest: inst.dest,
                    srcs: inst.srcs,
                    next_pc: if taken { target } else { addr.add_words(1) },
                    ctrl: Some(DynCtrl {
                        taken,
                        target,
                        link: None,
                    }),
                }
            }
            OpClass::Jump | OpClass::Call | OpClass::Halt | OpClass::Return => {
                let (target, link) = match (inst.op, exit) {
                    (OpClass::Return, SegExit::Return(target)) => (target, None),
                    (OpClass::Halt, _) => (entry, None),
                    _ => {
                        let target = inst
                            .ctrl
                            .and_then(|c| c.target)
                            .expect("unconditional target resolved");
                        let link = (inst.op == OpClass::Call).then(|| {
                            // Re-derived by the caller; patched in below.
                            Addr::new(0)
                        });
                        (target, link)
                    }
                };
                DynInst {
                    addr,
                    op: inst.op,
                    dest: inst.dest,
                    srcs: inst.srcs,
                    next_pc: target,
                    ctrl: Some(DynCtrl {
                        taken: true,
                        target,
                        link,
                    }),
                }
            }
            other => panic!("segment terminal must be a control transfer, got {other}"),
        };
        out.push(dyn_inst);
    }
    out
}

impl Workload {
    /// Generates the dynamic trace for `(layout, input, limit)` directly in
    /// run-length [`BlockStream`] form.
    ///
    /// Equivalent to `self.executor(layout, input, limit).collect()` followed
    /// by [`BlockStream::from_insts`], but walks the program one *segment* at
    /// a time: the behaviour RNG is consumed identically (one decision per
    /// dynamic conditional branch), and repeated (segment, outcome) pairs hit
    /// an interner instead of re-materializing instructions.
    ///
    /// # Panics
    ///
    /// Panics if the layout does not belong to this workload's program (an
    /// entry or control-transfer address fails to resolve).
    #[must_use]
    pub fn block_stream(&self, layout: &Layout, input: InputId, limit: u64) -> BlockStream {
        let behaviors = self.behaviors.for_input(input.0, self.spec.input_magnitude);
        let mut state = BehaviorState::new(behaviors.len());
        let mut rng = Pcg64::new(splitmix64(
            self.spec.seed ^ 0xe8ec ^ (u64::from(input.0) << 32),
        ));
        let code = layout.code();
        let entry = layout.entry_addr();

        // next_event[i] = index of the first control/halt instruction at or
        // after i (code.len() if none remains).
        let mut next_event = vec![code.len() as u32; code.len()];
        let mut nxt = code.len();
        for i in (0..code.len()).rev() {
            if is_event(code[i].op) {
                nxt = i;
            }
            next_event[i] = nxt as u32;
        }

        let mut builder = BlockStreamBuilder::new();
        // (start index, length, exit) → template id. The static code pins the
        // segment body; the exit pins the terminal's dynamic fields.
        let mut interned: HashMap<(u32, u32, SegExit), u32> = HashMap::new();
        let mut intern =
            |builder: &mut BlockStreamBuilder, start: usize, len: usize, exit: SegExit| {
                *interned.entry((start as u32, len as u32, exit)).or_insert_with(|| {
                let mut insts = materialize_segment(code, entry, start, len, exit);
                if exit != SegExit::Cut {
                    if let Some(last) = insts.last_mut() {
                        if last.op == OpClass::Call {
                            // Patch the static call link (the address the
                            // matching return resumes at).
                            let laid = &code[start + len - 1];
                            let return_to = match self.program.block(laid.block).terminator {
                                Terminator::Call { return_to, .. } => return_to,
                                other => {
                                    panic!("call instruction from non-call terminator {other:?}")
                                }
                            };
                            let link = layout.block_addr(return_to);
                            last.ctrl = last.ctrl.map(|mut c| {
                                c.link = Some(link);
                                c
                            });
                        }
                    }
                }
                builder.intern(&insts)
            })
            };

        let mut pc = layout
            .index_of(entry)
            .expect("layout entry address must resolve");
        let mut call_stack: Vec<Addr> = Vec::new();
        let mut emitted = 0u64;
        while emitted < limit && pc < code.len() {
            let avail = limit - emitted;
            let ev = next_event[pc] as usize;
            if ev >= code.len() {
                // Straight-line tail with no further control transfer: the
                // executor walks off the end of the code.
                let run = ((code.len() - pc) as u64).min(avail) as usize;
                let id = intern(&mut builder, pc, run, SegExit::Cut);
                builder.push_record(id);
                break;
            }
            let full = (ev - pc + 1) as u64;
            if full > avail {
                // The limit cuts the segment before its terminal.
                let id = intern(&mut builder, pc, avail as usize, SegExit::Cut);
                builder.push_record(id);
                break;
            }
            // The terminal executes: advance the dynamic state exactly as the
            // per-instruction executor would.
            let term = &code[ev];
            let goto = |layout: &Layout, addr: Addr| {
                layout
                    .index_of(addr)
                    .unwrap_or_else(|| panic!("control transfer to unmapped address {addr}"))
            };
            let (exit, next_pc) = match term.op {
                OpClass::CondBranch => {
                    let ctrl = term.ctrl.expect("branch has ctrl");
                    let id = ctrl.branch_id.expect("cond branch has id");
                    let semantic = state.decide(id, behaviors.model(id), &mut rng);
                    let hw_taken = semantic ^ ctrl.inverted;
                    if hw_taken {
                        let target = ctrl.target.expect("branch target resolved");
                        (SegExit::CondTaken, goto(layout, target))
                    } else {
                        (SegExit::CondNotTaken, ev + 1)
                    }
                }
                OpClass::Jump => {
                    let target = term.ctrl.and_then(|c| c.target).expect("jump target");
                    (SegExit::Uncond, goto(layout, target))
                }
                OpClass::Call => {
                    let target = term.ctrl.and_then(|c| c.target).expect("call target");
                    let return_to = match self.program.block(term.block).terminator {
                        Terminator::Call { return_to, .. } => return_to,
                        other => panic!("call instruction from non-call terminator {other:?}"),
                    };
                    call_stack.push(layout.block_addr(return_to));
                    (SegExit::Uncond, goto(layout, target))
                }
                OpClass::Return => {
                    let target = call_stack.pop().unwrap_or_else(|| {
                        state.reset();
                        entry
                    });
                    (SegExit::Return(target), goto(layout, target))
                }
                OpClass::Halt => {
                    call_stack.clear();
                    state.reset();
                    (SegExit::Uncond, goto(layout, entry))
                }
                other => unreachable!("next_event stopped at non-control {other}"),
            };
            let id = intern(&mut builder, pc, full as usize, exit);
            builder.push_record(id);
            emitted += full;
            pc = next_pc;
        }
        builder.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use crate::suite;
    use fetchmech_isa::LayoutOptions;

    fn check_equivalence(w: &Workload, layout: &Layout, input: InputId, limit: u64) {
        let via_exec: Vec<DynInst> = w.executor(layout, input, limit).collect();
        let stream = w.block_stream(layout, input, limit);
        assert_eq!(stream.total_insts(), via_exec.len() as u64);
        assert_eq!(stream.materialize(), via_exec, "{} mismatch", w.spec.name);
        // And the native encoding matches the reference encoder exactly
        // (template numbering included, since both intern in first-seen
        // order).
        assert_eq!(stream, BlockStream::from_insts(&via_exec));
    }

    #[test]
    fn native_stream_matches_executor_across_limits() {
        let mut s = WorkloadSpec::base_int("stream-unit", 42);
        s.funcs = 4;
        s.segments_per_func = (4, 8);
        let w = Workload::generate(s);
        let layout = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        for limit in [0, 1, 7, 100, 4096, 20_000] {
            check_equivalence(&w, &layout, InputId::TEST, limit);
        }
    }

    #[test]
    fn native_stream_matches_executor_across_inputs() {
        let w = suite::benchmark("compress").expect("known benchmark");
        let layout = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        for input in InputId::PROFILE.into_iter().chain([InputId::TEST]) {
            check_equivalence(&w, &layout, input, 5000);
        }
    }

    #[test]
    fn native_stream_matches_executor_for_fp_code() {
        let w = Workload::generate(WorkloadSpec::base_fp("stream-fp", 9));
        let layout = Layout::natural(&w.program, LayoutOptions::new(32)).expect("layout");
        check_equivalence(&w, &layout, InputId::TEST, 30_000);
    }

    #[test]
    fn interning_keeps_the_template_table_small() {
        let w = suite::benchmark("compress").expect("known benchmark");
        let layout = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        let stream = w.block_stream(&layout, InputId::TEST, 50_000);
        let stats = stream.stats();
        assert_eq!(stats.insts, 50_000);
        assert!(
            stats.templates < stats.records / 4,
            "templates {} vs records {}: interning ineffective",
            stats.templates,
            stats.records
        );
        assert!(
            stats.compression > 4.0,
            "compression {} too low",
            stats.compression
        );
    }
}
