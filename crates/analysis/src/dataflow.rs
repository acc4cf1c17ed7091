//! Worklist dataflow over [`Program`] CFGs, the concrete analyses built on
//! it, and the lint rules they derive.
//!
//! This is the analysis bedrock the ROADMAP's PGO passes (SSA, DCE,
//! superblock formation) will stand on. The pieces:
//!
//! * [`Analysis`] + `solve` — a generic iterative worklist solver. An
//!   analysis supplies a lattice (`Fact`, [`Analysis::meet`], the
//!   initial/boundary elements) and a monotone block [`Analysis::transfer`]
//!   function; the solver iterates to the fixpoint over a [`CfgView`] in
//!   reverse postorder (forward) or postorder (backward). See DESIGN.md §10
//!   for the contract a new analysis must satisfy.
//! * Concrete analyses: [`reachability`], [`Dominators`], `Liveness`
//!   (with [`dead_writes`]), [`ReachingDefs`], and per-block
//!   [`local_value_numbering`].
//! * [`DataflowPass`] — derived lint rules over registry targets:
//!   unreachable blocks, profile flow into unreachable code, redundant
//!   trace-selection seeds, and (in [`DataflowPass::advisory`] mode) dead
//!   register writes.
//!
//! Conservatism: the toy ISA has no calling convention, so liveness and
//! reaching definitions treat `Call`, `Return`, and `Halt` terminators as
//! reading every register — a value live into a call is never reported dead
//! no matter what the callee does. The soundness property (checked against
//! dynamic truth by `tests/dataflow_soundness.rs`) is one-sided: the
//! analyses may miss dead code, never invent it.

use fetchmech_compiler::{Profile, Trace};
use fetchmech_isa::{Block, BlockId, CfgView, OpClass, Program, Reg, Terminator};

use crate::diag::{DiagnosticSink, Location, Severity};
use crate::registry::{Pass, Target};

/// Rule ids emitted by [`DataflowPass`].
pub(crate) const DATAFLOW_RULES: &[&str] = &[
    RULE_UNREACHABLE,
    RULE_DEAD_WRITE,
    RULE_PROFILE_UNREACHABLE,
    RULE_REDUNDANT_SEED,
];

/// A basic block no path from the program entry can reach.
pub(crate) const RULE_UNREACHABLE: &str = "dataflow.unreachable-block";
/// A register write whose value is overwritten on every path before a read.
pub const RULE_DEAD_WRITE: &str = "dataflow.dead-write";
/// A profile that records executions of a statically unreachable block.
pub(crate) const RULE_PROFILE_UNREACHABLE: &str = "dataflow.profile-unreachable-flow";
/// A selected trace consisting entirely of unreachable blocks.
pub(crate) const RULE_REDUNDANT_SEED: &str = "dataflow.redundant-seed";

// ---------------------------------------------------------------------------
// The generic solver
// ---------------------------------------------------------------------------

/// Direction a dataflow analysis propagates facts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from predecessors to successors (e.g. reaching defs).
    Forward,
    /// Facts flow from successors to predecessors (e.g. liveness).
    Backward,
}

/// A dataflow analysis: a lattice of facts plus a monotone block transfer
/// function. See DESIGN.md §10 for the full contract; in short, `meet` must
/// be commutative/associative/idempotent, `init` must be the identity of
/// `meet` over the facts the solver ever produces, and `transfer` must be
/// monotone in its input — then the worklist iteration terminates at the
/// unique greatest fixpoint for any traversal order.
pub trait Analysis {
    /// The lattice element attached to each block boundary.
    type Fact: Clone + PartialEq;

    /// Which way facts propagate.
    fn direction(&self) -> Direction;

    /// The fact holding at the boundary (entry of an entry block for
    /// forward analyses; exit of an exit block for backward ones).
    fn boundary(&self) -> Self::Fact;

    /// The optimistic initial fact for every other block boundary.
    fn init(&self) -> Self::Fact;

    /// Folds `input` into `acc` (the lattice meet, in place).
    fn meet(&self, acc: &mut Self::Fact, input: &Self::Fact);

    /// Applies the block's effect to a fact flowing through it.
    fn transfer(&self, block: &Block, fact: &Self::Fact) -> Self::Fact;
}

/// Per-block boundary facts computed by `solve`, indexed by [`BlockId`].
#[derive(Debug, Clone)]
pub struct Facts<F> {
    /// Fact at block entry (forward: after meeting predecessors' exits;
    /// backward: after applying the block's own transfer).
    pub entry: Vec<F>,
    /// Fact at block exit (forward: after the block's transfer; backward:
    /// after meeting successors' entries).
    pub exit: Vec<F>,
}

/// Runs `analysis` to its fixpoint over `view`.
///
/// `boundaries` are the blocks that receive [`Analysis::boundary`] as their
/// incoming fact from outside the graph (the program entry for forward
/// analyses over the whole program; every `Return`/`Halt` block for
/// backward liveness). Blocks not reachable along the analysis direction
/// keep [`Analysis::init`] at both boundaries.
pub(crate) fn solve<A: Analysis>(
    program: &Program,
    view: &CfgView,
    analysis: &A,
    boundaries: &[BlockId],
) -> Facts<A::Fact> {
    let n = program.num_blocks();
    let mut entry: Vec<A::Fact> = (0..n).map(|_| analysis.init()).collect();
    let mut exit: Vec<A::Fact> = (0..n).map(|_| analysis.init()).collect();
    let forward = analysis.direction() == Direction::Forward;
    let is_boundary = {
        let mut v = vec![false; n];
        for &b in boundaries {
            if (b.0 as usize) < n {
                v[b.0 as usize] = true;
            }
        }
        v
    };

    // Work in an order that tends to see producers before consumers:
    // reverse postorder from each boundary for forward analyses, and the
    // reverse of that for backward ones.
    let mut order: Vec<BlockId> = Vec::new();
    let mut seen = vec![false; n];
    for &b in boundaries {
        for blk in view.reverse_postorder(b) {
            if !seen[blk.0 as usize] {
                seen[blk.0 as usize] = true;
                order.push(blk);
            }
        }
    }
    // For backward analyses the natural seeds are the *sink* blocks;
    // traversing from the given boundaries still enumerates every block the
    // analysis can affect, we only need the reversed visit order.
    if !forward {
        order.reverse();
    }

    let mut on_list = vec![false; n];
    let mut worklist: std::collections::VecDeque<BlockId> = order.iter().copied().collect();
    for &b in &order {
        on_list[b.0 as usize] = true;
    }

    while let Some(b) = worklist.pop_front() {
        let idx = b.0 as usize;
        on_list[idx] = false;

        // Meet over the incoming side.
        let mut incoming = if is_boundary[idx] {
            analysis.boundary()
        } else {
            analysis.init()
        };
        let sources: &[BlockId] = if forward {
            view.predecessors(b)
        } else {
            view.successors(b)
        };
        for &s in sources {
            let fact = if forward {
                &exit[s.0 as usize]
            } else {
                &entry[s.0 as usize]
            };
            analysis.meet(&mut incoming, fact);
        }

        let outgoing = analysis.transfer(program.block(b), &incoming);
        let (into, out_of) = if forward {
            (&mut entry[idx], &mut exit[idx])
        } else {
            (&mut exit[idx], &mut entry[idx])
        };
        *into = incoming;
        if *out_of != outgoing {
            *out_of = outgoing;
            let dependents: &[BlockId] = if forward {
                view.successors(b)
            } else {
                view.predecessors(b)
            };
            for &d in dependents {
                if !on_list[d.0 as usize] {
                    on_list[d.0 as usize] = true;
                    worklist.push_back(d);
                }
            }
        }
    }

    Facts { entry, exit }
}

// ---------------------------------------------------------------------------
// Reachability
// ---------------------------------------------------------------------------

struct Reachability;

impl Analysis for Reachability {
    type Fact = bool;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> bool {
        true
    }

    fn init(&self) -> bool {
        false
    }

    fn meet(&self, acc: &mut bool, input: &bool) {
        *acc = *acc || *input;
    }

    fn transfer(&self, _block: &Block, fact: &bool) -> bool {
        *fact
    }
}

/// Per-block reachability from the program entry, following local edges
/// plus `Call → callee` edges (a callee body is reachable through its
/// callers).
#[must_use]
pub fn reachability(program: &Program) -> Vec<bool> {
    let view = CfgView::interprocedural(program);
    let facts = solve(program, &view, &Reachability, &[program.entry()]);
    facts.entry
}

// ---------------------------------------------------------------------------
// Dominators
// ---------------------------------------------------------------------------

// The dominator tree moved to `fetchmech_isa::dom` so the compiler's SSA
// construction can use it (this crate depends on the compiler, not the other
// way around); re-exported here for existing callers.
pub use fetchmech_isa::Dominators;

// ---------------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------------

/// All 64 architectural registers, as a dense bitmask over
/// [`Reg::file_index`].
pub(crate) const ALL_REGS: u64 = u64::MAX;

fn reg_bit(r: Reg) -> u64 {
    1u64 << r.file_index()
}

/// Register-liveness analysis over the intra-procedural CFG.
///
/// Facts are 64-bit masks over [`Reg::file_index`]. `Call`, `Return`, and
/// `Halt` terminators conservatively read every register (no calling
/// convention exists to say otherwise), so cross-function values are always
/// live; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Liveness;

impl Liveness {
    /// Registers the terminator reads, as a mask — [`ALL_REGS`] for the
    /// conservative `Call`/`Return`/`Halt` cases.
    #[must_use]
    pub(crate) fn terminator_reads(terminator: &Terminator) -> u64 {
        match terminator {
            Terminator::CondBranch { srcs, .. } => srcs
                .iter()
                .flatten()
                .map(|&r| reg_bit(r))
                .fold(0, |a, b| a | b),
            Terminator::Call { .. } | Terminator::Return | Terminator::Halt => ALL_REGS,
            Terminator::FallThrough { .. } | Terminator::Jump { .. } => 0,
        }
    }
}

impl Analysis for Liveness {
    type Fact = u64;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self) -> u64 {
        0
    }

    fn init(&self) -> u64 {
        0
    }

    fn meet(&self, acc: &mut u64, input: &u64) {
        *acc |= *input;
    }

    fn transfer(&self, block: &Block, live_out: &u64) -> u64 {
        let mut live = *live_out | Self::terminator_reads(&block.terminator);
        for inst in block.insts.iter().rev() {
            if let Some(d) = inst.dest {
                live &= !reg_bit(d);
            }
            for &src in inst.srcs.iter().flatten() {
                live |= reg_bit(src);
            }
        }
        live
    }
}

/// Computes live-in ([`Facts::entry`]) and live-out ([`Facts::exit`]) masks
/// for every block.
#[must_use]
pub fn liveness(program: &Program, view: &CfgView) -> Facts<u64> {
    // Every block is a potential sink (Return/Halt read everything through
    // the boundary of their own transfer), so seeding the traversal from
    // the function entries enumerates all blocks; the solver then iterates
    // backward to the fixpoint.
    let boundaries: Vec<BlockId> = program.func_entries().to_vec();
    solve(program, view, &Liveness, &boundaries)
}

/// A register write no path ever reads: `(block, instruction index, reg)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadWrite {
    /// Block containing the write.
    pub block: BlockId,
    /// Index of the writing instruction within the block body.
    pub inst: usize,
    /// The overwritten-before-read destination register.
    pub reg: Reg,
}

/// Finds writes whose value is dead at the writing instruction: on every
/// path from the write, the register is overwritten before any read
/// (conservatively treating calls/returns/halts as reads of everything).
#[must_use]
pub fn dead_writes(program: &Program, view: &CfgView, live: &Facts<u64>) -> Vec<DeadWrite> {
    let _ = view;
    let mut found = Vec::new();
    for block in program.blocks() {
        let mut live_mask =
            live.exit[block.id.0 as usize] | Liveness::terminator_reads(&block.terminator);
        for (idx, inst) in block.insts.iter().enumerate().rev() {
            if let Some(d) = inst.dest {
                if live_mask & reg_bit(d) == 0 {
                    found.push(DeadWrite {
                        block: block.id,
                        inst: idx,
                        reg: d,
                    });
                }
                live_mask &= !reg_bit(d);
            }
            for &src in inst.srcs.iter().flatten() {
                live_mask |= reg_bit(src);
            }
        }
    }
    found.sort_by_key(|d| (d.block.0, d.inst));
    found
}

// ---------------------------------------------------------------------------
// Reaching definitions
// ---------------------------------------------------------------------------

/// A definition site: block, body-instruction index, and the defined
/// register. (Registers written by materialized terminator instructions —
/// the call link register — exist only in layouts, not in the CFG, and are
/// not def sites.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefSite {
    /// Block containing the definition.
    pub block: BlockId,
    /// Index of the defining instruction within the block body.
    pub inst: usize,
    /// Register defined.
    pub reg: Reg,
}

/// Reaching-definitions solution: the set of [`DefSite`]s that may reach
/// each block boundary, as bitsets over [`ReachingDefs::defs`].
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    /// All definition sites, in `(block, inst)` order; bit `i` of every
    /// bitset refers to `defs[i]`.
    pub defs: Vec<DefSite>,
    /// Per-block bitset of definitions reaching the block entry.
    pub entry: Vec<Vec<u64>>,
    /// Per-block bitset of definitions reaching the block exit.
    pub exit: Vec<Vec<u64>>,
}

struct ReachingAnalysis {
    words: usize,
    /// Per block: defs generated (last def per register wins).
    gen: Vec<Vec<u64>>,
    /// Per block: all defs of registers the block redefines.
    kill: Vec<Vec<u64>>,
}

impl Analysis for ReachingAnalysis {
    type Fact = Vec<u64>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> Vec<u64> {
        vec![0; self.words]
    }

    fn init(&self) -> Vec<u64> {
        vec![0; self.words]
    }

    fn meet(&self, acc: &mut Vec<u64>, input: &Vec<u64>) {
        for (a, b) in acc.iter_mut().zip(input) {
            *a |= *b;
        }
    }

    fn transfer(&self, block: &Block, fact: &Vec<u64>) -> Vec<u64> {
        let idx = block.id.0 as usize;
        fact.iter()
            .zip(&self.kill[idx])
            .zip(&self.gen[idx])
            .map(|((f, k), g)| (f & !k) | g)
            .collect()
    }
}

impl ReachingDefs {
    /// Computes reaching definitions over the intra-procedural CFG (calls
    /// conservatively kill nothing — the callee's definitions are *added*
    /// along the interprocedural edges it does not model, so this is a may
    /// analysis within each function).
    #[must_use]
    pub fn compute(program: &Program, view: &CfgView) -> Self {
        let n = program.num_blocks();
        let mut defs = Vec::new();
        for block in program.blocks() {
            for (idx, inst) in block.insts.iter().enumerate() {
                if let Some(reg) = inst.dest {
                    defs.push(DefSite {
                        block: block.id,
                        inst: idx,
                        reg,
                    });
                }
            }
        }
        let words = defs.len().div_ceil(64).max(1);
        // defs of each register, for kill sets.
        let mut by_reg: Vec<Vec<usize>> = vec![Vec::new(); 64];
        for (i, d) in defs.iter().enumerate() {
            by_reg[d.reg.file_index()].push(i);
        }
        let mut gen = vec![vec![0u64; words]; n];
        let mut kill = vec![vec![0u64; words]; n];
        let mut def_cursor = 0usize;
        for block in program.blocks() {
            let idx = block.id.0 as usize;
            // Last definition of each register in this block generates.
            let mut last: [Option<usize>; 64] = [None; 64];
            for inst in &block.insts {
                if let Some(reg) = inst.dest {
                    last[reg.file_index()] = Some(def_cursor);
                    def_cursor += 1;
                }
            }
            for (file, maybe_def) in last.iter().enumerate() {
                if let Some(def_id) = *maybe_def {
                    gen[idx][def_id / 64] |= 1u64 << (def_id % 64);
                    for &other in &by_reg[file] {
                        if other != def_id {
                            kill[idx][other / 64] |= 1u64 << (other % 64);
                        }
                    }
                }
            }
        }
        let analysis = ReachingAnalysis { words, gen, kill };
        let boundaries: Vec<BlockId> = program.func_entries().to_vec();
        let facts = solve(program, view, &analysis, &boundaries);
        Self {
            defs,
            entry: facts.entry,
            exit: facts.exit,
        }
    }

    /// Number of definitions reaching the entry of `block`.
    #[must_use]
    pub fn reaching_count(&self, block: BlockId) -> usize {
        self.entry[block.0 as usize]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Local value numbering
// ---------------------------------------------------------------------------

/// Result of value-numbering one block: a value number per body
/// instruction, and the indices of provably redundant computations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LvnResult {
    /// Value number assigned to each body instruction's result (instructions
    /// without a destination get a fresh number).
    pub value_numbers: Vec<u32>,
    /// Indices of pure instructions that recompute an already-available
    /// value (a later pass could rewrite them to copies).
    pub redundant: Vec<usize>,
}

fn lvn_pure(op: OpClass) -> bool {
    matches!(
        op,
        OpClass::IntAlu | OpClass::IntMul | OpClass::FpAdd | OpClass::FpMul
    )
}

/// Runs local value numbering over one block's body.
///
/// Only pure arithmetic ([`OpClass::IntAlu`], [`OpClass::IntMul`],
/// [`OpClass::FpAdd`], [`OpClass::FpMul`]) participates; loads, stores, and
/// control never match (memory and side effects are not value-numbered).
#[must_use]
pub fn local_value_numbering(block: &Block) -> LvnResult {
    use std::collections::HashMap;
    let mut next_vn: u32 = 64;
    // Registers start holding their own opaque value number.
    let mut reg_vn: [u32; 64] = core::array::from_fn(|i| i as u32);
    let mut table: HashMap<(OpClass, u32, u32, i8), u32> = HashMap::new();
    let mut value_numbers = Vec::with_capacity(block.insts.len());
    let mut redundant = Vec::new();

    for (idx, inst) in block.insts.iter().enumerate() {
        let vn = if lvn_pure(inst.op) && inst.dest.is_some() {
            let s = |r: Option<Reg>| r.map_or(u32::MAX, |r| reg_vn[r.file_index()]);
            let key = (inst.op, s(inst.srcs[0]), s(inst.srcs[1]), inst.imm);
            if let Some(&vn) = table.get(&key) {
                redundant.push(idx);
                vn
            } else {
                let vn = next_vn;
                next_vn += 1;
                table.insert(key, vn);
                vn
            }
        } else {
            let vn = next_vn;
            next_vn += 1;
            vn
        };
        if let Some(d) = inst.dest {
            reg_vn[d.file_index()] = vn;
        }
        value_numbers.push(vn);
    }
    LvnResult {
        value_numbers,
        redundant,
    }
}

/// Total redundant computations across all blocks, via
/// [`local_value_numbering`].
#[must_use]
pub fn redundant_computations(program: &Program) -> usize {
    program
        .blocks()
        .iter()
        .map(|b| local_value_numbering(b).redundant.len())
        .sum()
}

// ---------------------------------------------------------------------------
// The lint pass
// ---------------------------------------------------------------------------

/// Dataflow-derived lints over registry targets.
///
/// The default instance (registered by
/// [`Registry::with_default_passes`](crate::Registry::with_default_passes))
/// reports only defects that valid pipeline artifacts can never exhibit:
/// unreachable blocks, profile flow into unreachable code, and redundant
/// trace seeds. [`DataflowPass::advisory`] additionally reports dead
/// register writes at [`Severity::Info`] — generated workloads legitimately
/// contain a few (round-robin destination allocation wraps), so the
/// advisory rule is surfaced through `fetchmech-lint analyze` rather than
/// the default lint run, following the sanitizer catalog pass's precedent
/// of cataloging rules whose emission happens elsewhere.
#[derive(Debug, Clone, Copy, Default)]
pub struct DataflowPass {
    advisory: bool,
}

impl DataflowPass {
    /// A pass instance that also emits [`RULE_DEAD_WRITE`] findings.
    #[must_use]
    pub fn advisory() -> Self {
        Self { advisory: true }
    }
}

impl Pass for DataflowPass {
    fn name(&self) -> &'static str {
        "dataflow"
    }

    fn description(&self) -> &'static str {
        "worklist-dataflow lints: unreachable blocks, dead register writes, \
         profile flow into unreachable code, redundant trace seeds"
    }

    fn rules(&self) -> &'static [&'static str] {
        DATAFLOW_RULES
    }

    fn applies(&self, target: &Target<'_>) -> bool {
        matches!(
            target,
            Target::Program(_) | Target::Profile { .. } | Target::Traces { .. }
        )
    }

    fn run(&self, target: &Target<'_>, sink: &mut DiagnosticSink) {
        match target {
            Target::Program(p) => {
                check_unreachable(p, sink);
                if self.advisory {
                    check_dead_writes(p, sink);
                }
            }
            Target::Profile {
                program, profile, ..
            } => check_profile_reachability(program, profile, sink),
            Target::Traces { program, traces } => check_trace_seeds(program, traces, sink),
            _ => {}
        }
    }
}

/// Emits `dataflow.unreachable-block` for every block the entry cannot reach.
pub fn check_unreachable(program: &Program, sink: &mut DiagnosticSink) {
    for (idx, reachable) in reachability(program).iter().enumerate() {
        if !reachable {
            let id = BlockId(idx as u32);
            sink.warn(
                RULE_UNREACHABLE,
                Location::Block(id),
                format!("block {id} is unreachable from the program entry"),
            );
        }
    }
}

/// Emits [`RULE_DEAD_WRITE`] (at [`Severity::Info`]) for every dead
/// register write.
pub fn check_dead_writes(program: &Program, sink: &mut DiagnosticSink) {
    let view = CfgView::local(program);
    let live = liveness(program, &view);
    for dw in dead_writes(program, &view, &live) {
        sink.emit(
            RULE_DEAD_WRITE,
            Severity::Info,
            Location::Block(dw.block),
            format!(
                "write to {} at instruction {} of block {} is overwritten on \
                 every path before any read",
                dw.reg, dw.inst, dw.block
            ),
        );
    }
}

/// Emits `dataflow.profile-unreachable-flow` when a profile records executions of
/// a block static reachability proves can never run.
pub fn check_profile_reachability(program: &Program, profile: &Profile, sink: &mut DiagnosticSink) {
    let reachable = reachability(program);
    let n = program.num_blocks().min(profile.num_blocks());
    for (idx, reach) in reachable.iter().enumerate().take(n) {
        let id = BlockId(idx as u32);
        let count = profile.block_count(id);
        if !reach && count > 0 {
            sink.error(
                RULE_PROFILE_UNREACHABLE,
                Location::Block(id),
                format!("profile records {count} executions of unreachable block {id}"),
            );
        }
    }
}

/// Emits `dataflow.redundant-seed` for traces consisting entirely of
/// unreachable blocks — their seed was redundant, and laying them out
/// wastes cache space on code that can never run.
pub fn check_trace_seeds(program: &Program, traces: &[Trace], sink: &mut DiagnosticSink) {
    let reachable = reachability(program);
    let in_range = |b: BlockId| (b.0 as usize) < reachable.len();
    for (idx, trace) in traces.iter().enumerate() {
        if !trace.blocks.is_empty()
            && trace
                .blocks
                .iter()
                .all(|&b| in_range(b) && !reachable[b.0 as usize])
        {
            sink.warn(
                RULE_REDUNDANT_SEED,
                Location::Trace(idx),
                format!(
                    "trace {idx} ({} block(s) from seed weight {}) contains only \
                     unreachable code",
                    trace.blocks.len(),
                    trace.weight
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchmech_isa::{Inst, ProgramBuilder};
    use fetchmech_workloads::suite;

    /// Diamond with a loop: entry -> {left, right} -> join -> entry | exit.
    fn diamond() -> Program {
        let mut b = ProgramBuilder::new();
        let f = b.begin_func();
        let top = b.new_block(f);
        let left = b.new_block(f);
        let right = b.new_block(f);
        let join = b.new_block(f);
        let exit = b.new_block(f);
        b.push_inst(
            top,
            Inst::new(OpClass::IntAlu, Some(Reg::int(1)), [None, None]),
        );
        b.push_inst(
            left,
            Inst::new(
                OpClass::IntAlu,
                Some(Reg::int(2)),
                [Some(Reg::int(1)), None],
            ),
        );
        b.push_inst(
            right,
            Inst::new(OpClass::IntAlu, Some(Reg::int(2)), [None, None]),
        );
        b.push_inst(
            join,
            Inst::new(
                OpClass::IntAlu,
                Some(Reg::int(3)),
                [Some(Reg::int(2)), None],
            ),
        );
        b.set_cond_branch(top, [Some(Reg::int(1)), None], left, right);
        b.set_terminator(left, Terminator::Jump { target: join });
        b.set_terminator(right, Terminator::Jump { target: join });
        b.set_cond_branch(join, [Some(Reg::int(3)), None], top, exit);
        b.set_terminator(exit, Terminator::Halt);
        b.set_entry(top);
        b.finish().expect("valid")
    }

    #[test]
    fn reachability_covers_whole_suite_program() {
        let w = suite::benchmark("compress").expect("known");
        assert!(reachability(&w.program).iter().all(|&r| r));
    }

    #[test]
    fn dominators_of_diamond() {
        let p = diamond();
        let view = CfgView::local(&p);
        let dom = Dominators::compute(&p, &view);
        let (top, left, right, join, exit) =
            (BlockId(0), BlockId(1), BlockId(2), BlockId(3), BlockId(4));
        assert_eq!(dom.idom(top), Some(top));
        assert_eq!(dom.idom(left), Some(top));
        assert_eq!(dom.idom(right), Some(top));
        // join's predecessors sit on disjoint paths: idom is the fork.
        assert_eq!(dom.idom(join), Some(top));
        assert_eq!(dom.idom(exit), Some(join));
        assert!(dom.dominates(top, exit));
        assert!(!dom.dominates(left, join));
        assert_eq!(dom.depth(exit), 2);
    }

    #[test]
    fn dominators_cover_suite_functions() {
        let w = suite::benchmark("li").expect("known");
        let view = CfgView::local(&w.program);
        let dom = Dominators::compute(&w.program, &view);
        for &entry in w.program.func_entries() {
            assert_eq!(dom.idom(entry), Some(entry));
        }
        // Every reachable block's idom dominates it.
        for b in w.program.blocks() {
            if let Some(parent) = dom.idom(b.id) {
                assert!(dom.dominates(parent, b.id));
            }
        }
    }

    #[test]
    fn liveness_flows_through_diamond() {
        let p = diamond();
        let view = CfgView::local(&p);
        let live = liveness(&p, &view);
        // r1 is read by left's body and top's branch: live out of top.
        assert_ne!(live.exit[0] & (1 << Reg::int(1).file_index()), 0);
        // r2 is live out of both left and right (read at join).
        assert_ne!(live.exit[1] & (1 << Reg::int(2).file_index()), 0);
        assert_ne!(live.exit[2] & (1 << Reg::int(2).file_index()), 0);
        // Nothing is live out of the halt block.
        assert_eq!(live.exit[4], 0);
    }

    #[test]
    fn dead_write_detected_and_real_writes_spared() {
        let mut b = ProgramBuilder::new();
        let f = b.begin_func();
        let blk = b.new_block(f);
        // r1 written, overwritten before any read; r2 written and read.
        b.push_inst(
            blk,
            Inst::new(OpClass::IntAlu, Some(Reg::int(1)), [None, None]),
        );
        b.push_inst(
            blk,
            Inst::new(OpClass::IntAlu, Some(Reg::int(2)), [None, None]),
        );
        b.push_inst(
            blk,
            Inst::new(
                OpClass::IntAlu,
                Some(Reg::int(1)),
                [Some(Reg::int(2)), None],
            ),
        );
        b.set_cond_branch(blk, [Some(Reg::int(1)), None], blk, blk);
        b.set_entry(blk);
        let p = b.finish().expect("valid");
        let view = CfgView::local(&p);
        let live = liveness(&p, &view);
        let dead = dead_writes(&p, &view, &live);
        assert_eq!(
            dead,
            vec![DeadWrite {
                block: BlockId(0),
                inst: 0,
                reg: Reg::int(1),
            }]
        );
    }

    #[test]
    fn calls_keep_values_live() {
        // A write before a call is never dead: the callee may read anything.
        let mut b = ProgramBuilder::new();
        let f0 = b.begin_func();
        let f1 = b.begin_func();
        let a = b.new_block(f0);
        let ret = b.new_block(f0);
        let callee = b.new_block(f1);
        b.push_inst(
            a,
            Inst::new(OpClass::IntAlu, Some(Reg::int(7)), [None, None]),
        );
        // The return block overwrites r7 without reading it — still not dead,
        // because the call edge conservatively reads everything.
        b.push_inst(
            ret,
            Inst::new(OpClass::IntAlu, Some(Reg::int(7)), [None, None]),
        );
        b.set_terminator(
            a,
            Terminator::Call {
                callee,
                return_to: ret,
            },
        );
        b.set_terminator(ret, Terminator::Halt);
        b.set_terminator(callee, Terminator::Return);
        b.set_entry(a);
        let p = b.finish().expect("valid");
        let view = CfgView::local(&p);
        let live = liveness(&p, &view);
        let dead = dead_writes(&p, &view, &live);
        assert!(
            dead.iter().all(|d| d.block != BlockId(0)),
            "write ahead of a call must stay live, got {dead:?}"
        );
    }

    #[test]
    fn reaching_defs_merge_at_join() {
        let p = diamond();
        let view = CfgView::local(&p);
        let rd = ReachingDefs::compute(&p, &view);
        // Both left's and right's definitions of r2 reach the join entry.
        let join_entry = &rd.entry[3];
        let r2_defs: Vec<usize> = rd
            .defs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.reg == Reg::int(2))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(r2_defs.len(), 2);
        for i in r2_defs {
            assert_ne!(
                join_entry[i / 64] & (1 << (i % 64)),
                0,
                "def {i} reaches join"
            );
        }
        assert!(rd.reaching_count(BlockId(3)) >= 2);
    }

    #[test]
    fn lvn_spots_recomputed_values() {
        let mut b = ProgramBuilder::new();
        let f = b.begin_func();
        let blk = b.new_block(f);
        let add = |dest: u8, s0: u8, s1: u8| {
            Inst::new(
                OpClass::IntAlu,
                Some(Reg::int(dest)),
                [Some(Reg::int(s0)), Some(Reg::int(s1))],
            )
        };
        b.push_inst(blk, add(3, 1, 2));
        b.push_inst(blk, add(4, 1, 2)); // same value as inst 0
        b.push_inst(blk, add(5, 3, 4)); // uses equal VNs — fresh value
        b.push_inst(blk, add(1, 1, 2)); // still the old r1/r2 value: redundant
        b.push_inst(blk, add(6, 1, 2)); // r1 changed: NOT redundant
        b.set_terminator(blk, Terminator::Halt);
        b.set_entry(blk);
        let p = b.finish().expect("valid");
        let lvn = local_value_numbering(&p.blocks()[0]);
        assert_eq!(lvn.redundant, vec![1, 3]);
        assert_eq!(lvn.value_numbers[0], lvn.value_numbers[1]);
        assert_ne!(lvn.value_numbers[4], lvn.value_numbers[1]);
    }

    #[test]
    fn loads_are_never_value_numbered() {
        let mut b = ProgramBuilder::new();
        let f = b.begin_func();
        let blk = b.new_block(f);
        let load = Inst::new(OpClass::Load, Some(Reg::int(3)), [Some(Reg::int(1)), None]);
        b.push_inst(blk, load);
        b.push_inst(blk, load);
        b.set_terminator(blk, Terminator::Halt);
        b.set_entry(blk);
        let p = b.finish().expect("valid");
        assert!(local_value_numbering(&p.blocks()[0]).redundant.is_empty());
    }

    #[test]
    fn default_pass_is_quiet_on_suite_program() {
        let w = suite::benchmark("espresso").expect("known");
        let mut sink = DiagnosticSink::new();
        DataflowPass::default().run(&Target::Program(&w.program), &mut sink);
        assert!(sink.into_diagnostics().is_empty());
    }
}
