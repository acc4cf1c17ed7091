//! Native block-stream trace generation.
//!
//! [`Workload::block_stream`] is the crate's trace generator, the stand-in
//! for the paper's `spike` tracing tool: a given `(workload, layout, input,
//! limit)` tuple always produces the identical dynamic instruction stream.
//! It emits that stream directly in run-length [`BlockStream`] form, doing
//! O(1) work per *segment* instead of O(1) work per *instruction*. A
//! precomputed next-control table lets the generator hop from control
//! transfer to control transfer; straight-line instructions are materialized
//! only once per interned segment template, so steady-state generation
//! touches a few words per executed segment.
//!
//! This module's tests hold the generator to a per-instruction executor
//! (test builds only): `block_stream(..).materialize()` must equal the
//! executor's output exactly, across the suite, random control-flow graphs
//! and aliased behaviour maps.

use std::collections::HashMap;

use fetchmech_isa::rng::{splitmix64, Pcg64};
use fetchmech_isa::{
    Addr, BlockStream, BlockStreamBuilder, DynCtrl, DynInst, LaidInst, Layout, OpClass, Terminator,
};

use crate::behavior::BehaviorState;
use crate::spec::{InputId, Workload};

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

/// True for the ops that end a segment (emitting a `ctrl` outcome): control
/// transfers plus halt restarts.
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
    /// The behaviour is the workload's base behaviour perturbed for `input`
    /// with the spec's `input_magnitude`, and the RNG seed derives from the
    /// workload seed, so traces are reproducible. The behaviour RNG is
    /// consumed once per dynamic conditional branch; a branch aliased by
    /// [`BehaviorMap::with_origin`](crate::BehaviorMap::with_origin) decides
    /// with its origin's model *and* runtime state. `halt` restarts the
    /// program at its entry (clearing loop state and the call stack) until
    /// `limit` instructions are emitted. Repeated (segment, outcome) pairs hit
    /// an interner instead of re-materializing instructions.
    ///
    /// The result is bit-for-bit what a per-instruction walk of the same
    /// program emits, encoded exactly as [`BlockStream::from_insts`] encodes
    /// it (template numbering included), for any behaviour map, aliased or
    /// not; the crate's tests check this against a per-instruction executor.
    ///
    /// # Panics
    ///
    /// Panics if the layout does not belong to this workload's program (an
    /// entry or control-transfer address fails to resolve).
    #[must_use]
    pub fn block_stream(&self, layout: &Layout, input: InputId, limit: u64) -> BlockStream {
        let behaviors = self.behaviors.for_input(input.0, self.spec.input_magnitude);
        // Aliased branches share their origin's slot, so the state covers
        // the base branches only.
        let mut state = BehaviorState::new(behaviors.state_len());
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
                // trace walks off the end of the code.
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
            // The terminal executes: advance the dynamic state.
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
                    let semantic =
                        state.decide(behaviors.origin_of(id), behaviors.model(id), &mut rng);
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
    use crate::{suite, BranchModel};
    use fetchmech_isa::rng::Pcg64;
    use fetchmech_isa::{BranchId, LayoutOptions, TraceStats};
    use proptest::prelude::*;

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

    /// `w` with every branch outside `keep` aliased onto an earlier branch
    /// of the same model kind, so the aliases share state slots the way
    /// superblock tail duplicates do.
    fn aliased(w: &Workload, mut keep: impl FnMut(usize) -> bool) -> Workload {
        let kind = |i: usize| std::mem::discriminant(&w.behaviors.model(BranchId(i as u32)));
        let origin = (0..w.behaviors.len())
            .map(|i| {
                let o = if keep(i) {
                    i
                } else {
                    (0..i).rev().find(|&j| kind(j) == kind(i)).unwrap_or(i)
                };
                BranchId(o as u32)
            })
            .collect();
        Workload {
            spec: w.spec.clone(),
            program: w.program.clone(),
            behaviors: w.behaviors.with_origin(origin),
        }
    }

    fn small_int() -> Workload {
        let mut s = WorkloadSpec::base_int("stream-unit", 42);
        s.funcs = 4;
        s.segments_per_func = (4, 8);
        Workload::generate(s)
    }

    fn natural(w: &Workload, block_bytes: u64) -> Layout {
        Layout::natural(&w.program, LayoutOptions::new(block_bytes)).expect("layout")
    }

    fn trace(w: &Workload, layout: &Layout, input: InputId, limit: u64) -> Vec<DynInst> {
        w.block_stream(layout, input, limit).materialize()
    }

    #[test]
    fn native_stream_matches_executor_across_limits() {
        let w = small_int();
        let layout = natural(&w, 16);
        for limit in [0, 1, 7, 100, 4096, 20_000] {
            check_equivalence(&w, &layout, InputId::TEST, limit);
        }
    }

    #[test]
    fn native_stream_matches_executor_across_inputs() {
        let w = suite::benchmark("compress").expect("known benchmark");
        let layout = natural(&w, 16);
        for input in InputId::PROFILE.into_iter().chain([InputId::TEST]) {
            check_equivalence(&w, &layout, input, 5000);
        }
    }

    #[test]
    fn native_stream_matches_executor_for_fp_code() {
        let w = Workload::generate(WorkloadSpec::base_fp("stream-fp", 9));
        check_equivalence(&w, &natural(&w, 32), InputId::TEST, 30_000);
    }

    /// Every suite benchmark at the narrow machine's 16-byte blocks, and a
    /// representative subset at the widest machine's 64-byte blocks.
    #[test]
    fn every_suite_benchmark_matches_the_executor() {
        for w in suite::full_suite() {
            check_equivalence(&w, &natural(&w, 16), InputId::TEST, 2_000);
        }
        for name in ["compress", "gcc", "tomcatv"] {
            let w = suite::benchmark(name).expect("known benchmark");
            check_equivalence(&w, &natural(&w, 64), InputId::TEST, 2_000);
        }
    }

    /// Aliased branches decide with their origin's state slot: a loop or
    /// pattern branch and its alias continue one trip count or pattern
    /// position between them, as after superblock tail duplication.
    #[test]
    fn aliased_behaviour_maps_share_their_origins_state() {
        // Which model kinds an alias shares state through.
        let mut shared = [false; 4];
        for name in ["compress", "gcc", "tomcatv"] {
            let base = suite::benchmark(name).expect("known benchmark");
            let w = aliased(&base, |i| i % 3 == 0);
            for id in (0..w.behaviors.len() as u32).map(BranchId) {
                if w.behaviors.origin_of(id) != id {
                    shared[match w.behaviors.model(id) {
                        BranchModel::Bernoulli(_) => 0,
                        BranchModel::Loop { .. } => 1,
                        BranchModel::FixedLoop { .. } => 2,
                        BranchModel::Pattern { .. } => 3,
                    }] = true;
                }
            }
            let layout = natural(&w, 16);
            for input in InputId::PROFILE.into_iter().chain([InputId::TEST]) {
                check_equivalence(&w, &layout, input, 20_000);
            }
        }
        assert_eq!(shared, [true; 4], "aliases of every model kind");
    }

    #[allow(clippy::too_many_arguments)]
    fn build_spec(
        seed: u64,
        fp: bool,
        funcs: usize,
        block_hi: usize,
        hammock_prob: f64,
        diamond_prob: f64,
        loop_prob: f64,
        call_prob: f64,
    ) -> WorkloadSpec {
        let mut spec = if fp {
            WorkloadSpec::base_fp("prop-fp", seed)
        } else {
            WorkloadSpec::base_int("prop-int", seed)
        };
        spec.funcs = funcs;
        spec.block_len = (1, block_hi);
        spec.hammock_prob = hammock_prob;
        spec.diamond_prob = diamond_prob;
        spec.loop_prob = loop_prob;
        spec.call_prob = call_prob;
        spec
    }

    fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
        (
            1u64..1_000_000,
            any::<bool>(),
            1usize..6,
            2usize..15,
            // Raw segment-kind weights, normalized below so the probabilities
            // sum to `total` (the generator requires a sum <= 1).
            (0.01f64..1.0, 0.01f64..1.0, 0.01f64..1.0, 0.01f64..1.0),
            0.2f64..0.9,
        )
            .prop_map(|(seed, fp, funcs, block_hi, (ham, dia, lp, call), total)| {
                let sum = ham + dia + lp + call;
                let scale = total / sum;
                build_spec(
                    seed,
                    fp,
                    funcs,
                    block_hi,
                    ham * scale,
                    dia * scale,
                    lp * scale,
                    call * scale,
                )
            })
    }

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(96))]

        /// Random control-flow graphs at every paper block size, one case
        /// in two under a random alias map.
        #[test]
        fn random_cfgs_match_the_executor(
            spec in arb_spec(),
            block_bytes in prop_oneof![Just(16u64), Just(32u64), Just(64u64)],
            input in 0u32..4,
            alias_seed in any::<u64>(),
        ) {
            let w = Workload::generate(spec);
            let w = if alias_seed % 2 == 0 {
                w
            } else {
                let mut rng = Pcg64::new(alias_seed);
                aliased(&w, |_| rng.chance(0.5))
            };
            check_equivalence(&w, &natural(&w, block_bytes), InputId(input), 1_200);
        }
    }

    #[test]
    fn interning_keeps_the_template_table_small() {
        let w = suite::benchmark("compress").expect("known benchmark");
        let stream = w.block_stream(&natural(&w, 16), InputId::TEST, 50_000);
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

    #[test]
    fn trace_is_deterministic() {
        let w = small_int();
        let l = natural(&w, 16);
        let a = trace(&w, &l, InputId::TEST, 2000);
        assert_eq!(a, trace(&w, &l, InputId::TEST, 2000));
        assert_eq!(a.len(), 2000);
    }

    #[test]
    fn next_pc_links_the_stream() {
        let w = small_int();
        let l = natural(&w, 16);
        for pair in trace(&w, &l, InputId::TEST, 5000).windows(2) {
            assert_eq!(
                pair[0].next_pc, pair[1].addr,
                "broken link after {}",
                pair[0].addr
            );
        }
    }

    #[test]
    fn different_inputs_diverge_but_share_code() {
        let w = small_int();
        let l = natural(&w, 16);
        let a = trace(&w, &l, InputId(0), 3000);
        let b = trace(&w, &l, InputId(5), 3000);
        assert_ne!(a, b, "inputs must produce different dynamic paths");
        // Yet every address comes from the same static image.
        for i in a.iter().chain(b.iter()) {
            assert!(l.index_of(i.addr).is_some());
        }
    }

    #[test]
    fn halting_restarts_at_entry() {
        let w = small_int();
        let l = natural(&w, 16);
        let trace = trace(&w, &l, InputId::TEST, 200_000);
        let halts: Vec<_> = trace.iter().filter(|i| i.op == OpClass::Halt).collect();
        assert!(!halts.is_empty(), "long trace must wrap around");
        for h in halts {
            assert_eq!(h.next_pc, l.entry_addr());
        }
    }

    #[test]
    fn calls_and_returns_balance() {
        let w = small_int();
        let l = natural(&w, 16);
        let mut depth = 0i64;
        for i in w.block_stream(&l, InputId::TEST, 100_000).iter() {
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
        let w = small_int();
        let l = natural(&w, 16);
        let mut stack = Vec::new();
        let mut checked = 0;
        for i in w.block_stream(&l, InputId::TEST, 100_000).iter() {
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
        let w = small_int();
        let l = natural(&w, 16);
        let mut stats = TraceStats::new();
        for i in w.block_stream(&l, InputId::TEST, 50_000).iter() {
            stats.observe(i, 16);
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
        let int = small_int();
        let run = |w: &Workload| {
            let stream = w.block_stream(&natural(w, 16), InputId::TEST, 50_000);
            let taken = stream.iter().filter(|i| i.is_taken_control()).count();
            stream.total_insts() as f64 / taken as f64
        };
        let fp_run = run(&fp);
        let int_run = run(&int);
        assert!(
            fp_run > int_run,
            "fp mean run length {fp_run} must exceed int {int_run}"
        );
    }
}
