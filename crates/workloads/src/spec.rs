//! Parameterized synthetic-program generation.
//!
//! A [`WorkloadSpec`] describes the *shape* of a benchmark — block sizes,
//! hammock density and skip distances, loop structure and trip counts, call
//! graph fan-out, FP/memory op mix, and dependence locality. [`Workload::generate`]
//! deterministically expands a spec into a [`Program`] plus the base
//! [`BehaviorMap`] for its branches. The named SPEC-style suite built from
//! these specs lives in [`crate::suite`].

use fetchmech_isa::rng::Pcg64;
use fetchmech_isa::{
    fnv1a64, BlockId, FuncId, Inst, OpClass, Program, ProgramBuilder, Reg, Terminator,
};

use crate::behavior::{BehaviorMap, BranchModel};

/// Integer or floating-point benchmark class (the paper reports the two
/// classes separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Integer codes: branchy, short blocks, frequent hammocks.
    Int,
    /// Floating-point codes: loop-dominated, long sequential runs.
    Fp,
}

impl std::fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadClass::Int => f.write_str("Int"),
            WorkloadClass::Fp => f.write_str("FP"),
        }
    }
}

/// The generation parameters for one synthetic benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name (matches the paper's benchmark it stands in for).
    pub name: &'static str,
    /// Integer or floating-point.
    pub class: WorkloadClass,
    /// Generation seed; every structural decision derives from it.
    pub seed: u64,
    /// Number of functions (function 0 is `main`).
    pub funcs: usize,
    /// Segments (structured regions) per function, inclusive range.
    pub segments_per_func: (usize, usize),
    /// Body instructions per basic block, inclusive range.
    pub block_len: (usize, usize),
    /// Fraction of body instructions that are floating-point.
    pub fp_ratio: f64,
    /// Fraction of body instructions that are loads/stores.
    pub mem_ratio: f64,
    /// Probability a segment is a hammock (forward branch skipping a short
    /// region — the intra-block branch source).
    pub hammock_prob: f64,
    /// Skipped-region length for hammocks, inclusive range (instructions).
    pub hammock_len: (usize, usize),
    /// Probability a segment is an if-else diamond.
    pub diamond_prob: f64,
    /// Probability a segment is a loop.
    pub loop_prob: f64,
    /// Blocks in a loop body, inclusive range.
    pub loop_body_blocks: (usize, usize),
    /// Mean loop trip count.
    pub mean_trips: f64,
    /// Minimum body instructions per loop iteration (keeps backedges from
    /// being trivially intra-block, as in real inner loops).
    pub min_loop_insts: usize,
    /// Range for Bernoulli taken-probabilities of non-loop branches.
    pub taken_prob: (f64, f64),
    /// Fraction of non-loop branches that follow a correlated repeating
    /// pattern instead of i.i.d. coin flips (what a two-level predictor can
    /// exploit and a per-branch counter cannot).
    pub pattern_prob: f64,
    /// Fraction of loops whose trip count is the same on every activation.
    pub fixed_loop_prob: f64,
    /// Probability a segment is a call (to a later-numbered function).
    pub call_prob: f64,
    /// How many recently-written registers sources may reach back to.
    pub dep_locality: usize,
    /// Perturbation magnitude distinguishing program inputs: each input
    /// shifts branch probabilities (absolutely) and loop trip counts
    /// (relatively) by up to this much.
    pub input_magnitude: f64,
}

impl WorkloadSpec {
    /// A generic integer-code shape; named benchmarks tweak from here.
    #[must_use]
    pub fn base_int(name: &'static str, seed: u64) -> Self {
        Self {
            name,
            class: WorkloadClass::Int,
            seed,
            funcs: 8,
            segments_per_func: (6, 18),
            block_len: (2, 7),
            fp_ratio: 0.02,
            mem_ratio: 0.30,
            hammock_prob: 0.30,
            hammock_len: (1, 6),
            diamond_prob: 0.15,
            loop_prob: 0.12,
            loop_body_blocks: (1, 3),
            mean_trips: 6.0,
            min_loop_insts: 12,
            taken_prob: (0.2, 0.8),
            pattern_prob: 0.25,
            fixed_loop_prob: 0.5,
            call_prob: 0.12,
            dep_locality: 4,
            input_magnitude: 0.08,
        }
    }

    /// The spec shell wrapping an *externally supplied* program (frontend
    /// uploads). The structural knobs are degenerate placeholders — the
    /// program and behaviours come from the frontend, not the generator —
    /// but `name`, `seed`, `class`, and `input_magnitude` are live: they
    /// drive trace seeding and per-input behaviour perturbation exactly as
    /// for generated workloads. Never pass this spec to
    /// [`Workload::generate`].
    ///
    /// The seed is the FNV-1a hash of `name`, so every process that runs a
    /// program under the same id generates the same traces — stored results
    /// of uploaded programs replay only while this rule holds.
    #[must_use]
    pub fn external(name: &'static str) -> Self {
        Self {
            name,
            class: WorkloadClass::Int,
            seed: fnv1a64(name.as_bytes()),
            funcs: 1,
            segments_per_func: (1, 1),
            block_len: (1, 1),
            fp_ratio: 0.0,
            mem_ratio: 0.0,
            hammock_prob: 0.0,
            hammock_len: (1, 1),
            diamond_prob: 0.0,
            loop_prob: 0.0,
            loop_body_blocks: (1, 1),
            mean_trips: 1.0,
            min_loop_insts: 0,
            taken_prob: (0.5, 0.5),
            pattern_prob: 0.0,
            fixed_loop_prob: 0.0,
            call_prob: 0.0,
            dep_locality: 1,
            input_magnitude: 0.08,
        }
    }

    /// A generic floating-point shape; named benchmarks tweak from here.
    #[must_use]
    pub fn base_fp(name: &'static str, seed: u64) -> Self {
        Self {
            name,
            class: WorkloadClass::Fp,
            seed,
            funcs: 5,
            segments_per_func: (4, 10),
            block_len: (6, 14),
            fp_ratio: 0.45,
            mem_ratio: 0.30,
            hammock_prob: 0.06,
            hammock_len: (1, 4),
            diamond_prob: 0.04,
            loop_prob: 0.45,
            loop_body_blocks: (1, 4),
            mean_trips: 40.0,
            min_loop_insts: 28,
            taken_prob: (0.3, 0.7),
            pattern_prob: 0.15,
            fixed_loop_prob: 0.7,
            call_prob: 0.08,
            dep_locality: 6,
            input_magnitude: 0.06,
        }
    }
}

/// A generated benchmark: the immutable program plus its base branch
/// behaviour.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The spec this workload was generated from.
    pub spec: WorkloadSpec,
    /// The control-flow graph.
    pub program: Program,
    /// Base behaviour of every conditional branch; each program input
    /// executes a perturbed copy of it.
    pub behaviors: BehaviorMap,
}

impl Workload {
    /// Deterministically generates the workload for `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (zero functions, empty ranges, or
    /// probabilities outside `[0, 1]`) — specs are code, not user input.
    #[must_use]
    pub fn generate(spec: WorkloadSpec) -> Self {
        assert!(spec.funcs >= 1, "need at least one function");
        assert!(
            spec.segments_per_func.0 >= 1 && spec.segments_per_func.0 <= spec.segments_per_func.1
        );
        assert!(spec.block_len.0 <= spec.block_len.1);
        assert!(spec.hammock_len.0 >= 1 && spec.hammock_len.0 <= spec.hammock_len.1);
        assert!(spec.loop_body_blocks.0 >= 1 && spec.loop_body_blocks.0 <= spec.loop_body_blocks.1);
        for p in [
            spec.fp_ratio,
            spec.mem_ratio,
            spec.hammock_prob,
            spec.diamond_prob,
            spec.loop_prob,
            spec.call_prob,
            spec.pattern_prob,
            spec.fixed_loop_prob,
        ] {
            assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        }
        assert!(
            spec.hammock_prob + spec.diamond_prob + spec.loop_prob + spec.call_prob <= 1.0 + 1e-9,
            "segment-kind probabilities must not exceed 1"
        );

        let mut gen = Generator::new(&spec);
        gen.build();
        let Generator {
            builder, models, ..
        } = gen;
        let program = builder
            .finish()
            .expect("generator produced an invalid program");
        assert_eq!(
            program.num_branches() as usize,
            models.len(),
            "branch models out of sync with branch ids"
        );
        Workload {
            spec,
            program,
            behaviors: BehaviorMap::new(models),
        }
    }
}

/// Kinds of structured segments a function body is assembled from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Straight,
    Hammock,
    Diamond,
    Loop,
    Call,
}

struct Generator<'s> {
    spec: &'s WorkloadSpec,
    builder: ProgramBuilder,
    models: Vec<BranchModel>,
    /// Structural randomness.
    r_struct: Pcg64,
    /// Instruction-mix randomness.
    r_mix: Pcg64,
    /// Probability randomness (branch biases).
    r_prob: Pcg64,
    /// Recently written integer registers (dataflow locality).
    recent_int: Vec<u8>,
    recent_fp: Vec<u8>,
    next_int: u8,
    next_fp: u8,
    /// Body instructions emitted so far (loop-size accounting).
    insts_emitted: usize,
}

impl<'s> Generator<'s> {
    fn new(spec: &'s WorkloadSpec) -> Self {
        Self {
            spec,
            builder: ProgramBuilder::new(),
            models: Vec::new(),
            r_struct: Pcg64::stream(spec.seed, 1),
            r_mix: Pcg64::stream(spec.seed, 2),
            r_prob: Pcg64::stream(spec.seed, 3),
            recent_int: vec![1],
            recent_fp: vec![0],
            next_int: 1,
            next_fp: 0,
            insts_emitted: 0,
        }
    }

    fn build(&mut self) {
        // Declare all functions first so calls can reference later entries.
        let funcs: Vec<FuncId> = (0..self.spec.funcs)
            .map(|_| self.builder.begin_func())
            .collect();
        let mut entries: Vec<Option<BlockId>> = vec![None; funcs.len()];
        for (i, &f) in funcs.iter().enumerate() {
            if entries[i].is_none() {
                let entry = self.build_func(f, i, &funcs, &mut entries);
                entries[i] = Some(entry);
            }
        }
        self.builder.set_entry(entries[0].expect("main generated"));
    }

    /// Builds function `idx`; returns its entry block.
    fn build_func(
        &mut self,
        f: FuncId,
        idx: usize,
        funcs: &[FuncId],
        entries: &mut [Option<BlockId>],
    ) -> BlockId {
        let (lo, hi) = self.spec.segments_per_func;
        let nsegs = self.r_struct.range_usize(lo, hi + 1);
        let entry = self.builder.new_block(f);
        let mut cur = entry;
        self.fill_body(cur);
        for _ in 0..nsegs {
            cur = match self.pick_segment(idx) {
                Segment::Straight => self.seg_straight(f, cur),
                Segment::Hammock => self.seg_hammock(f, cur),
                Segment::Diamond => self.seg_diamond(f, cur),
                Segment::Loop => self.seg_loop(f, cur),
                Segment::Call => {
                    let j = self.r_struct.range_usize(idx + 1, funcs.len());
                    self.seg_call(f, cur, j, funcs, entries)
                }
            };
        }
        // Main invokes every function not already reachable through the call
        // graph, so no generated code is dead and every program exercises
        // calls and returns.
        if idx == 0 {
            for j in 1..funcs.len() {
                if entries[j].is_none() {
                    cur = self.seg_call(f, cur, j, funcs, entries);
                }
            }
        }
        // Close the function.
        let term = if idx == 0 {
            Terminator::Halt
        } else {
            Terminator::Return
        };
        self.builder.set_terminator(cur, term);
        entry
    }

    fn pick_segment(&mut self, func_idx: usize) -> Segment {
        let s = self.spec;
        let can_call = func_idx + 1 < s.funcs;
        let call_p = if can_call { s.call_prob } else { 0.0 };
        let choice = self.r_struct.pick_weighted(&[
            (1.0 - s.hammock_prob - s.diamond_prob - s.loop_prob - call_p).max(0.0),
            s.hammock_prob,
            s.diamond_prob,
            s.loop_prob,
            call_p,
        ]);
        [
            Segment::Straight,
            Segment::Hammock,
            Segment::Diamond,
            Segment::Loop,
            Segment::Call,
        ][choice]
    }

    // ---- segment constructors -------------------------------------------

    /// `cur -> next` straight-line code.
    fn seg_straight(&mut self, f: FuncId, cur: BlockId) -> BlockId {
        let next = self.builder.new_block(f);
        self.fill_body(next);
        self.builder
            .set_terminator(cur, Terminator::FallThrough { next });
        next
    }

    /// `cur -(taken, skips)-> join; cur -fall-> then -> join` — the
    /// intra-block-branch generator. `then` is deliberately short so the
    /// taken target often lands in the same cache block.
    fn seg_hammock(&mut self, f: FuncId, cur: BlockId) -> BlockId {
        let then_blk = self.builder.new_block(f);
        let join = self.builder.new_block(f);
        let (lo, hi) = self.spec.hammock_len;
        let len = self.r_struct.range_usize(lo, hi + 1);
        for _ in 0..len {
            let inst = self.body_inst();
            self.builder.push_inst(then_blk, inst);
        }
        self.insts_emitted += len;
        self.builder
            .set_terminator(then_blk, Terminator::FallThrough { next: join });
        self.fill_body(join);
        let srcs = self.branch_srcs();
        self.builder.set_cond_branch(cur, srcs, join, then_blk);
        let model = self.sample_branch_model();
        self.models.push(model);
        join
    }

    /// `cur -taken-> else; cur -fall-> then; both -> join`.
    fn seg_diamond(&mut self, f: FuncId, cur: BlockId) -> BlockId {
        let then_blk = self.builder.new_block(f);
        let else_blk = self.builder.new_block(f);
        let join = self.builder.new_block(f);
        self.fill_body(then_blk);
        self.fill_body(else_blk);
        self.fill_body(join);
        self.builder
            .set_terminator(then_blk, Terminator::Jump { target: join });
        self.builder
            .set_terminator(else_blk, Terminator::FallThrough { next: join });
        let srcs = self.branch_srcs();
        self.builder.set_cond_branch(cur, srcs, else_blk, then_blk);
        let model = self.sample_branch_model();
        self.models.push(model);
        join
    }

    /// `cur -> head -> body... -> tail -(backedge)-> head; tail -fall-> exit`.
    fn seg_loop(&mut self, f: FuncId, cur: BlockId) -> BlockId {
        let head = self.builder.new_block(f);
        self.fill_body(head);
        self.builder
            .set_terminator(cur, Terminator::FallThrough { next: head });
        let (lo, hi) = self.spec.loop_body_blocks;
        let nbody = self.r_struct.range_usize(lo, hi + 1);
        let mut tail = head;
        // Loop bodies carry the same conditional shapes as straight-line
        // code; since loops dominate dynamic execution, this is what makes
        // hammock branches (and hence intra-block taken branches) frequent
        // in the *dynamic* stream, as Table 2 requires. Bodies also respect
        // a minimum size so backedges are not trivially intra-block.
        let s = self.spec;
        let inner = s.hammock_prob + s.diamond_prob;
        let start = self.insts_emitted;
        let mut segs = 1usize; // the head counts
        while segs < nbody || self.insts_emitted - start + s.block_len.0 < s.min_loop_insts {
            tail = if inner > 0.0 && self.r_struct.chance(inner) {
                if self.r_struct.chance(s.hammock_prob / inner) {
                    self.seg_hammock(f, tail)
                } else {
                    self.seg_diamond(f, tail)
                }
            } else {
                self.seg_straight(f, tail)
            };
            segs += 1;
            if segs > 64 {
                break; // safety bound; never hit for sane specs
            }
        }
        let exit = self.builder.new_block(f);
        self.fill_body(exit);
        let srcs = self.branch_srcs();
        self.builder.set_cond_branch(tail, srcs, head, exit);
        // Perturb the mean slightly so loops differ; a spec-controlled
        // fraction iterate a fixed number of times (predictable exits).
        let mean = (self.spec.mean_trips * (0.6 + 0.8 * self.r_prob.next_f64())).max(1.5);
        let model = if self.r_prob.chance(self.spec.fixed_loop_prob) {
            BranchModel::FixedLoop {
                trips: mean.round().max(2.0) as u64,
            }
        } else {
            BranchModel::Loop { mean_trips: mean }
        };
        self.models.push(model);
        exit
    }

    /// `cur -call-> funcs[j]; resume at next`. Callers pick `j > idx`, so
    /// the call graph is a DAG (no recursion).
    fn seg_call(
        &mut self,
        f: FuncId,
        cur: BlockId,
        j: usize,
        funcs: &[FuncId],
        entries: &mut [Option<BlockId>],
    ) -> BlockId {
        // The callee's entry may not exist yet; generate ahead.
        if entries[j].is_none() {
            let e = self.build_func(funcs[j], j, funcs, entries);
            entries[j] = Some(e);
        }
        let callee = entries[j].expect("callee generated");
        let next = self.builder.new_block(f);
        self.fill_body(next);
        self.builder.set_terminator(
            cur,
            Terminator::Call {
                callee,
                return_to: next,
            },
        );
        next
    }

    // ---- instruction bodies ---------------------------------------------

    fn fill_body(&mut self, block: BlockId) {
        let (lo, hi) = self.spec.block_len;
        let len = self.r_struct.range_usize(lo, hi + 1);
        for _ in 0..len {
            let inst = self.body_inst();
            self.builder.push_inst(block, inst);
        }
        self.insts_emitted += len;
    }

    fn body_inst(&mut self) -> Inst {
        let s = self.spec;
        let roll = self.r_mix.next_f64();
        if roll < s.fp_ratio {
            let op = if self.r_mix.chance(0.5) {
                OpClass::FpAdd
            } else {
                OpClass::FpMul
            };
            let dest = self.alloc_fp();
            let srcs = [self.pick_fp(), self.pick_fp()];
            Inst::new(op, Some(dest), srcs)
        } else if roll < s.fp_ratio + s.mem_ratio {
            if self.r_mix.chance(0.6) {
                // Load: FP codes load into FP registers about half the time.
                let to_fp = s.fp_ratio > 0.2 && self.r_mix.chance(0.5);
                let dest = if to_fp {
                    self.alloc_fp()
                } else {
                    self.alloc_int()
                };
                let addr = self.pick_int();
                Inst::new(OpClass::Load, Some(dest), [addr, None])
                    .with_imm(self.r_mix.range_u64(0, 32) as i8)
            } else {
                let data = if s.fp_ratio > 0.2 && self.r_mix.chance(0.5) {
                    self.pick_fp()
                } else {
                    self.pick_int()
                };
                let addr = self.pick_int();
                Inst::new(OpClass::Store, None, [data, addr])
                    .with_imm(self.r_mix.range_u64(0, 32) as i8)
            }
        } else {
            let op = if self.r_mix.chance(0.1) {
                OpClass::IntMul
            } else {
                OpClass::IntAlu
            };
            let dest = self.alloc_int();
            let srcs = [
                self.pick_int(),
                if self.r_mix.chance(0.5) {
                    self.pick_int()
                } else {
                    None
                },
            ];
            Inst::new(op, Some(dest), srcs)
        }
    }

    /// Samples a branch bias. Real branch biases are strongly bimodal —
    /// most branches go one way almost always, which is what makes 2-bit
    /// counters effective — so 75% of branches land within 0.12 of the range
    /// edges and only 25% are genuinely unpredictable mid-range branches.
    fn sample_taken_prob(&mut self) -> f64 {
        let (lo, hi) = self.spec.taken_prob;
        let u = self.r_prob.next_f64();
        let p = if self.r_prob.chance(0.75) {
            // Strongly biased: within [0.03, 0.15] of an extreme.
            if self.r_prob.chance(0.5) {
                0.03 + 0.12 * u
            } else {
                0.97 - 0.12 * u
            }
        } else {
            lo + (hi - lo) * u
        };
        p.clamp(0.02, 0.98)
    }

    /// Samples a non-loop branch model: usually a biased coin, sometimes a
    /// correlated repeating pattern whose density matches the sampled bias
    /// (so Table 2's taken-rate calibration is unaffected).
    fn sample_branch_model(&mut self) -> BranchModel {
        let p = self.sample_taken_prob();
        if !self.r_prob.chance(self.spec.pattern_prob) {
            return BranchModel::Bernoulli(p);
        }
        let len = self.r_prob.range_u64(3, 13) as u8;
        let ones = ((p * f64::from(len)).round() as u32).clamp(0, u32::from(len));
        // Distribute `ones` taken outcomes across the pattern.
        let mut bits = 0u32;
        let mut placed = 0;
        let mut idx: Vec<u32> = (0..u32::from(len)).collect();
        // Deterministic shuffle.
        for i in (1..idx.len()).rev() {
            let j = self.r_prob.range_usize(0, i + 1);
            idx.swap(i, j);
        }
        for &i in idx.iter().take(ones as usize) {
            bits |= 1 << i;
            placed += 1;
        }
        debug_assert_eq!(placed, ones);
        let noise = 0.01 + 0.07 * self.r_prob.next_f64();
        BranchModel::Pattern { bits, len, noise }
    }

    fn branch_srcs(&mut self) -> [Option<Reg>; 2] {
        [
            self.pick_int(),
            if self.r_mix.chance(0.3) {
                self.pick_int()
            } else {
                None
            },
        ]
    }

    /// Allocates a fresh integer destination register (r1..r24; r31 is the
    /// link register, r25..r30 are left for "globals" picked occasionally).
    fn alloc_int(&mut self) -> Reg {
        self.next_int = if self.next_int >= 24 {
            1
        } else {
            self.next_int + 1
        };
        let r = self.next_int;
        self.recent_int.push(r);
        if self.recent_int.len() > self.spec.dep_locality {
            self.recent_int.remove(0);
        }
        Reg::int(r)
    }

    fn alloc_fp(&mut self) -> Reg {
        self.next_fp = if self.next_fp >= 24 {
            0
        } else {
            self.next_fp + 1
        };
        let r = self.next_fp;
        self.recent_fp.push(r);
        if self.recent_fp.len() > self.spec.dep_locality {
            self.recent_fp.remove(0);
        }
        Reg::fp(r)
    }

    fn pick_int(&mut self) -> Option<Reg> {
        if self.r_mix.chance(0.1) {
            // A long-lived "global" register.
            return Some(Reg::int(25 + self.r_mix.range_u64(0, 6) as u8));
        }
        let r = *self.r_mix.pick(&self.recent_int);
        Some(Reg::int(r))
    }

    fn pick_fp(&mut self) -> Option<Reg> {
        let r = *self.r_mix.pick(&self.recent_fp);
        Some(Reg::fp(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchmech_isa::Terminator as T;

    fn small_spec() -> WorkloadSpec {
        let mut s = WorkloadSpec::base_int("unit", 42);
        s.funcs = 3;
        s.segments_per_func = (3, 6);
        s
    }

    #[test]
    fn external_seed_is_pinned_to_the_name() {
        // Stored results of uploaded programs replay only if this never drifts.
        let spec = WorkloadSpec::external("prog-0123456789abcdef");
        assert_eq!(spec.seed, 0xb2a0_dbef_db46_0064);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Workload::generate(small_spec());
        let b = Workload::generate(small_spec());
        assert_eq!(a.program, b.program);
        assert_eq!(a.behaviors, b.behaviors);
    }

    #[test]
    fn different_seeds_differ() {
        let mut s2 = small_spec();
        s2.seed = 43;
        let a = Workload::generate(small_spec());
        let b = Workload::generate(s2);
        assert_ne!(a.program, b.program);
    }

    #[test]
    fn every_branch_has_a_model() {
        let w = Workload::generate(small_spec());
        assert_eq!(w.program.num_branches() as usize, w.behaviors.len());
        assert!(
            !w.behaviors.is_empty(),
            "int workload must contain branches"
        );
    }

    #[test]
    fn main_halts_and_others_return() {
        let w = Workload::generate(small_spec());
        let mut halts = 0;
        let mut returns = 0;
        for b in w.program.blocks() {
            match b.terminator {
                T::Halt => halts += 1,
                T::Return => returns += 1,
                _ => {}
            }
        }
        assert_eq!(halts, 1, "exactly one halt (end of main)");
        assert!(returns >= 1, "non-main functions must return");
    }

    #[test]
    fn fp_spec_has_loops() {
        let w = Workload::generate(WorkloadSpec::base_fp("fp-unit", 7));
        let loops = w.behaviors.len();
        assert!(loops > 0);
        let any_loop = (0..w.behaviors.len()).any(|i| {
            matches!(
                w.behaviors.model(fetchmech_isa::BranchId(i as u32)),
                BranchModel::Loop { .. }
            )
        });
        assert!(any_loop, "fp workload must contain loop branches");
    }

    #[test]
    fn fp_spec_contains_fp_ops() {
        let w = Workload::generate(WorkloadSpec::base_fp("fp-unit", 7));
        let fp_insts = w
            .program
            .blocks()
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| i.op.is_fp())
            .count();
        assert!(fp_insts > 0);
    }

    #[test]
    fn int_spec_is_mostly_int() {
        let w = Workload::generate(small_spec());
        let (fp, total) = w
            .program
            .blocks()
            .iter()
            .flat_map(|b| &b.insts)
            .fold((0usize, 0usize), |(fp, tot), i| {
                (fp + usize::from(i.op.is_fp()), tot + 1)
            });
        assert!(total > 50);
        assert!(
            (fp as f64) < 0.1 * total as f64,
            "{fp}/{total} fp ops in int code"
        );
    }

    #[test]
    fn program_sizes_are_reasonable() {
        for spec in [
            WorkloadSpec::base_int("i", 1),
            WorkloadSpec::base_fp("f", 2),
        ] {
            let w = Workload::generate(spec);
            let n = w.program.static_inst_upper_bound();
            assert!(n > 100, "{} too small: {n}", w.spec.name);
            assert!(n < 100_000, "{} too large: {n}", w.spec.name);
        }
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn overfull_segment_probs_panic() {
        let mut s = small_spec();
        s.hammock_prob = 0.6;
        s.diamond_prob = 0.3;
        s.loop_prob = 0.3;
        let _ = Workload::generate(s);
    }
}
