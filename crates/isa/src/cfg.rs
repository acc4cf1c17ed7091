//! Control-flow graphs: basic blocks, terminators, and programs.
//!
//! A [`Program`] is a set of [`Block`]s grouped into functions. Blocks hold
//! straight-line *body* instructions ([`Inst`]) and end in a [`Terminator`].
//! Control-flow instructions are materialized from terminators only when the
//! program is laid out in memory (see [`crate::layout`]), which is what lets
//! the compiler crate reorder blocks, invert branch senses, and elide jumps
//! without touching instruction contents.

use std::collections::HashMap;
use std::fmt;

use crate::op::OpClass;
use crate::reg::Reg;

/// Identifier of a basic block within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// Identifier of a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

/// Stable identity of a static conditional branch.
///
/// Branch behaviour models and profile counts are keyed by `BranchId`; the
/// id survives code reordering and sense inversion, which is what keeps the
/// §4 compiler experiments honest (the same dynamic branch keeps the same
/// behaviour before and after layout transforms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BranchId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}", self.0)
    }
}

impl fmt::Display for BranchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "br{}", self.0)
    }
}

/// A straight-line (non-control) instruction in a block body.
///
/// # Examples
///
/// ```
/// use fetchmech_isa::{Inst, OpClass, Reg};
///
/// let add = Inst::new(OpClass::IntAlu, Some(Reg::int(3)), [Some(Reg::int(1)), Some(Reg::int(2))]);
/// assert_eq!(add.op, OpClass::IntAlu);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// Operation class. Must not be a control-transfer class.
    pub op: OpClass,
    /// Destination register, if any.
    pub dest: Option<Reg>,
    /// Source registers (up to two).
    pub srcs: [Option<Reg>; 2],
    /// Short immediate (address offsets, small constants).
    pub imm: i8,
}

impl Inst {
    /// Creates a body instruction with a zero immediate.
    ///
    /// # Panics
    ///
    /// Panics if `op` is a control-transfer class; those are expressed as
    /// block [`Terminator`]s.
    #[must_use]
    pub fn new(op: OpClass, dest: Option<Reg>, srcs: [Option<Reg>; 2]) -> Self {
        assert!(!op.is_control(), "control op {op} must be a terminator");
        Self {
            op,
            dest,
            srcs,
            imm: 0,
        }
    }

    /// Creates a no-operation.
    #[must_use]
    pub fn nop() -> Self {
        Self {
            op: OpClass::Nop,
            dest: None,
            srcs: [None, None],
            imm: 0,
        }
    }

    /// Sets the immediate field (builder style).
    #[must_use]
    pub fn with_imm(mut self, imm: i8) -> Self {
        self.imm = imm;
        self
    }
}

/// How a basic block transfers control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Fall through to `next`. Materializes as a jump only if `next` is not
    /// laid out immediately after this block.
    FallThrough {
        /// Successor block.
        next: BlockId,
    },
    /// Two-way conditional branch.
    CondBranch {
        /// Stable branch identity (see [`BranchId`]).
        id: BranchId,
        /// Registers the branch condition reads.
        srcs: [Option<Reg>; 2],
        /// Destination when the hardware branch is taken.
        taken: BlockId,
        /// Destination when the hardware branch falls through.
        fall: BlockId,
        /// `true` if a layout transform swapped the `taken`/`fall` edges
        /// relative to the branch's original construction. Behaviour models
        /// decide in terms of the *original* taken edge; the executor XORs
        /// their decision with this flag to get the hardware direction.
        inverted: bool,
    },
    /// Unconditional direct jump.
    Jump {
        /// Destination block.
        target: BlockId,
    },
    /// Direct call. Control flows to `callee`; the matching `Return` resumes
    /// at `return_to`.
    Call {
        /// Entry block of the called function.
        callee: BlockId,
        /// Block control resumes at after the callee returns.
        return_to: BlockId,
    },
    /// Return to the most recent caller's `return_to` block.
    Return,
    /// End of program; the trace executor restarts from the entry block.
    Halt,
}

/// Classification of a control-flow edge leaving a block, used by the
/// profiler and trace-selection passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Sequential fall-through edge.
    Fall,
    /// Hardware-taken edge of a conditional branch.
    Taken,
    /// Unconditional jump edge.
    Jump,
    /// Call edge (to the callee entry).
    Call,
    /// Post-call resume edge (to the `return_to` block).
    CallFall,
}

impl Terminator {
    /// Returns the intra-procedural successor edges of this terminator.
    ///
    /// Call terminators report only the `return_to` edge (as [`EdgeKind::CallFall`]);
    /// the interprocedural edge to the callee is excluded so that trace
    /// selection never grows a trace across a function boundary.
    #[must_use]
    pub fn local_successors(&self) -> Vec<(EdgeKind, BlockId)> {
        match *self {
            Terminator::FallThrough { next } => vec![(EdgeKind::Fall, next)],
            Terminator::CondBranch { taken, fall, .. } => {
                vec![(EdgeKind::Taken, taken), (EdgeKind::Fall, fall)]
            }
            Terminator::Jump { target } => vec![(EdgeKind::Jump, target)],
            Terminator::Call { return_to, .. } => vec![(EdgeKind::CallFall, return_to)],
            Terminator::Return | Terminator::Halt => vec![],
        }
    }

    /// Returns the conditional-branch id, if this terminator is one.
    #[must_use]
    pub fn branch_id(&self) -> Option<BranchId> {
        match self {
            Terminator::CondBranch { id, .. } => Some(*id),
            _ => None,
        }
    }
}

/// A basic block: body instructions plus a terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// This block's id (equal to its index in [`Program::blocks`]).
    pub id: BlockId,
    /// Function this block belongs to.
    pub func: FuncId,
    /// Straight-line body instructions (no control transfers).
    pub insts: Vec<Inst>,
    /// The block's control transfer.
    pub terminator: Terminator,
}

/// A whole program: blocks, function entries, and the program entry point.
///
/// Construct with [`ProgramBuilder`]; `Program` itself is immutable, which is
/// what allows layouts, profiles, and behaviour maps to reference block and
/// branch ids without invalidation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    blocks: Vec<Block>,
    func_entries: Vec<BlockId>,
    entry: BlockId,
    num_branches: u32,
}

impl Program {
    /// Returns the program entry block.
    #[must_use]
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Returns all blocks in id order.
    #[must_use]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Returns the block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Returns the number of blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Returns the number of static conditional branches.
    #[must_use]
    pub fn num_branches(&self) -> u32 {
        self.num_branches
    }

    /// Returns the entry block of each function, indexed by [`FuncId`].
    #[must_use]
    pub fn func_entries(&self) -> &[BlockId] {
        &self.func_entries
    }

    /// Returns the number of functions.
    #[must_use]
    pub fn num_funcs(&self) -> usize {
        self.func_entries.len()
    }

    /// A stable FNV-1a content hash over the whole CFG: entry, function
    /// entries, every instruction, and every terminator. Equal programs hash
    /// equal across processes and restarts (no pointer or `HashMap` order
    /// dependence), which is what lets callers derive persistent
    /// content-addressed identifiers from it.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::hash::FNV_OFFSET;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(crate::hash::FNV_PRIME);
        };
        let reg = |r: Option<Reg>| -> u64 {
            match r {
                None => 0,
                Some(Reg::Int(n)) => 1 + u64::from(n),
                Some(Reg::Fp(n)) => 64 + u64::from(n),
            }
        };
        mix(u64::from(self.entry.0));
        mix(self.func_entries.len() as u64);
        for f in &self.func_entries {
            mix(u64::from(f.0));
        }
        for b in &self.blocks {
            mix(u64::from(b.func.0));
            mix(b.insts.len() as u64);
            for inst in &b.insts {
                mix(inst.op as u64);
                mix(reg(inst.dest));
                mix(reg(inst.srcs[0]));
                mix(reg(inst.srcs[1]));
                mix(inst.imm as u8 as u64);
            }
            match b.terminator {
                Terminator::FallThrough { next } => {
                    mix(1);
                    mix(u64::from(next.0));
                }
                Terminator::CondBranch {
                    id,
                    srcs,
                    taken,
                    fall,
                    inverted,
                } => {
                    mix(2);
                    mix(u64::from(id.0));
                    mix(reg(srcs[0]));
                    mix(reg(srcs[1]));
                    mix(u64::from(taken.0));
                    mix(u64::from(fall.0));
                    mix(u64::from(inverted));
                }
                Terminator::Jump { target } => {
                    mix(3);
                    mix(u64::from(target.0));
                }
                Terminator::Call { callee, return_to } => {
                    mix(4);
                    mix(u64::from(callee.0));
                    mix(u64::from(return_to.0));
                }
                Terminator::Return => mix(5),
                Terminator::Halt => mix(6),
            }
        }
        h
    }

    /// Total body + terminator-branch instruction count when every jump is
    /// materialized (an upper bound on laid-out size, before nop padding and
    /// before fall-through elision).
    #[must_use]
    pub fn static_inst_upper_bound(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| {
                b.insts.len()
                    + match b.terminator {
                        Terminator::FallThrough { .. } => 1,
                        Terminator::CondBranch { .. } => 2,
                        Terminator::Jump { .. }
                        | Terminator::Call { .. }
                        | Terminator::Return
                        | Terminator::Halt => 1,
                    }
            })
            .sum()
    }

    /// Returns a new program with the given block terminators replaced.
    ///
    /// Used by the code-reordering pass to invert branch senses and convert
    /// jumps/fall-throughs. Every key must be a valid block id and the
    /// replacement must pass the same validation as [`ProgramBuilder::finish`].
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] if the edited program is malformed.
    pub fn with_terminators(
        &self,
        edits: &HashMap<BlockId, Terminator>,
    ) -> Result<Program, ValidateError> {
        let mut blocks = self.blocks.clone();
        for (&id, term) in edits {
            let idx = id.0 as usize;
            if idx >= blocks.len() {
                return Err(ValidateError::UnknownBlock(id));
            }
            blocks[idx].terminator = *term;
        }
        let prog = Program {
            blocks,
            func_entries: self.func_entries.clone(),
            entry: self.entry,
            num_branches: self.num_branches,
        };
        prog.validate()?;
        crate::hooks::check_program(&prog);
        Ok(prog)
    }

    /// Starts a validated editing session over this program (clone-on-edit).
    ///
    /// This is the mutation companion to [`CfgView`]: compiler passes that
    /// rewrite bodies, retarget terminators, or duplicate blocks build a
    /// [`ProgramEdit`], apply their changes, and get back a fully
    /// re-validated [`Program`] (same checks as [`ProgramBuilder::finish`],
    /// including the debug verification hooks).
    #[must_use]
    pub fn edit(&self) -> ProgramEdit {
        ProgramEdit {
            blocks: self.blocks.clone(),
            func_entries: self.func_entries.clone(),
            entry: self.entry,
            num_branches: self.num_branches,
        }
    }

    /// Decomposes the program into its raw parts.
    ///
    /// Together with [`Program::from_raw`] this is the escape hatch for
    /// verification tooling: tests corrupt one field of a valid program and
    /// assert the analysis layer catches exactly that corruption.
    #[must_use]
    pub fn into_raw(self) -> RawProgram {
        RawProgram {
            blocks: self.blocks,
            func_entries: self.func_entries,
            entry: self.entry,
            num_branches: self.num_branches,
        }
    }

    /// Reassembles a program from raw parts **without validation** and
    /// without running verification hooks.
    ///
    /// The result may violate every invariant [`ProgramBuilder::finish`]
    /// enforces; anything consuming it must be prepared for out-of-range
    /// ids. Intended for the analysis layer's mutation tests and for tools
    /// that deliberately need malformed IR.
    #[must_use]
    pub fn from_raw(raw: RawProgram) -> Self {
        Self {
            blocks: raw.blocks,
            func_entries: raw.func_entries,
            entry: raw.entry,
            num_branches: raw.num_branches,
        }
    }

    fn validate(&self) -> Result<(), ValidateError> {
        let nblocks = self.blocks.len() as u32;
        let check = |id: BlockId| -> Result<(), ValidateError> {
            if id.0 >= nblocks {
                Err(ValidateError::UnknownBlock(id))
            } else {
                Ok(())
            }
        };
        check(self.entry)?;
        if self.func_entries.is_empty() {
            return Err(ValidateError::NoFunctions);
        }
        for &fe in &self.func_entries {
            check(fe)?;
        }
        let mut seen_branch = vec![false; self.num_branches as usize];
        for (idx, b) in self.blocks.iter().enumerate() {
            if b.id.0 as usize != idx {
                return Err(ValidateError::BlockIdMismatch {
                    expected: idx as u32,
                    found: b.id,
                });
            }
            if b.func.0 as usize >= self.func_entries.len() {
                return Err(ValidateError::UnknownFunc(b.func));
            }
            for inst in &b.insts {
                if inst.op.is_control() {
                    return Err(ValidateError::ControlInBody {
                        block: b.id,
                        op: inst.op,
                    });
                }
            }
            match b.terminator {
                Terminator::FallThrough { next } => {
                    check(next)?;
                    self.check_same_func(b, next)?;
                }
                Terminator::CondBranch {
                    id, taken, fall, ..
                } => {
                    check(taken)?;
                    check(fall)?;
                    self.check_same_func(b, taken)?;
                    self.check_same_func(b, fall)?;
                    let slot = id.0 as usize;
                    if slot >= seen_branch.len() {
                        return Err(ValidateError::UnknownBranch(id));
                    }
                    if seen_branch[slot] {
                        return Err(ValidateError::DuplicateBranch(id));
                    }
                    seen_branch[slot] = true;
                }
                Terminator::Jump { target } => {
                    check(target)?;
                    self.check_same_func(b, target)?;
                }
                Terminator::Call { callee, return_to } => {
                    check(callee)?;
                    check(return_to)?;
                    self.check_same_func(b, return_to)?;
                    let callee_func = self.blocks[callee.0 as usize].func;
                    if self.func_entries[callee_func.0 as usize] != callee {
                        return Err(ValidateError::CallToNonEntry {
                            block: b.id,
                            callee,
                        });
                    }
                }
                Terminator::Return | Terminator::Halt => {}
            }
        }
        if !seen_branch.iter().all(|&s| s) {
            return Err(ValidateError::MissingBranch);
        }
        Ok(())
    }

    fn check_same_func(&self, from: &Block, to: BlockId) -> Result<(), ValidateError> {
        let to_func = self.blocks[to.0 as usize].func;
        if to_func != from.func {
            return Err(ValidateError::CrossFuncEdge { from: from.id, to });
        }
        Ok(())
    }
}

/// Dense successor/predecessor adjacency over a [`Program`]'s CFG.
///
/// Analyses that traverse the graph repeatedly (the dataflow solver, the
/// dominator builder) get `O(1)` indexed edge lists from it. A view is a
/// snapshot: it does not borrow the program, and edits made through
/// [`Program::with_terminators`] require building a fresh view.
///
/// Two edge flavours exist:
///
/// * [`CfgView::local`] — intra-procedural: `Call` contributes only its
///   `CallFall` edge to `return_to`. This is the graph dominators and
///   liveness run on.
/// * [`CfgView::interprocedural`] — additionally records `Call → callee`
///   edges, so reachability from the program entry covers callee bodies.
///
/// Successor lists are deduplicated (a conditional branch whose taken and
/// fall targets coincide contributes one edge).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgView {
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
}

impl CfgView {
    /// Builds the intra-procedural view (`Call` edges go to the return
    /// block only).
    #[must_use]
    pub fn local(program: &Program) -> Self {
        Self::build(program, false)
    }

    /// Builds the inter-procedural view (`Call` edges additionally reach the
    /// callee entry).
    #[must_use]
    pub fn interprocedural(program: &Program) -> Self {
        Self::build(program, true)
    }

    fn build(program: &Program, call_edges: bool) -> Self {
        let n = program.num_blocks();
        let mut succs: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        let add = |succs: &mut Vec<Vec<BlockId>>,
                   preds: &mut Vec<Vec<BlockId>>,
                   from: BlockId,
                   to: BlockId| {
            if (to.0 as usize) < n && !succs[from.0 as usize].contains(&to) {
                succs[from.0 as usize].push(to);
                preds[to.0 as usize].push(from);
            }
        };
        for b in program.blocks() {
            for (_, succ) in b.terminator.local_successors() {
                add(&mut succs, &mut preds, b.id, succ);
            }
            if call_edges {
                if let Terminator::Call { callee, .. } = b.terminator {
                    add(&mut succs, &mut preds, b.id, callee);
                }
            }
        }
        Self { succs, preds }
    }

    /// Number of blocks in the underlying program.
    #[must_use]
    pub(crate) fn num_blocks(&self) -> usize {
        self.succs.len()
    }

    /// Successors of `block`, deduplicated, in terminator order.
    #[must_use]
    pub fn successors(&self, block: BlockId) -> &[BlockId] {
        &self.succs[block.0 as usize]
    }

    /// Predecessors of `block`, deduplicated, in block-id-discovery order.
    #[must_use]
    pub fn predecessors(&self, block: BlockId) -> &[BlockId] {
        &self.preds[block.0 as usize]
    }

    /// Blocks reachable from `entry` along this view's edges, in
    /// reverse postorder (every edge `a → b` with `b` not an ancestor of `a`
    /// puts `a` before `b`; the classic iteration order for forward
    /// dataflow).
    #[must_use]
    pub fn reverse_postorder(&self, entry: BlockId) -> Vec<BlockId> {
        let n = self.num_blocks();
        if (entry.0 as usize) >= n {
            return Vec::new();
        }
        let mut visited = vec![false; n];
        let mut order = Vec::new();
        // Iterative DFS with an explicit "children pending" frame so the
        // postorder append happens after all successors are finished.
        let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
        visited[entry.0 as usize] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succs = self.successors(b);
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if !visited[s.0 as usize] {
                    visited[s.0 as usize] = true;
                    stack.push((s, 0));
                }
            } else {
                order.push(b);
                stack.pop();
            }
        }
        order.reverse();
        order
    }
}

/// A validated editing session over a [`Program`].
///
/// Created by [`Program::edit`]. The session holds a private working copy;
/// passes mutate bodies, retarget terminators, append duplicated blocks, and
/// allocate fresh branch ids, then call [`ProgramEdit::finish`], which runs
/// the full [`ProgramBuilder::finish`] validation (plus the debug
/// verification hooks) before any `Program` escapes. An edit that breaks an
/// invariant is therefore rejected at its construction site, not downstream.
#[derive(Debug, Clone)]
pub struct ProgramEdit {
    blocks: Vec<Block>,
    func_entries: Vec<BlockId>,
    entry: BlockId,
    num_branches: u32,
}

impl ProgramEdit {
    /// Number of blocks in the working copy.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Returns the working copy of a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Mutable access to a block's body instructions.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn insts_mut(&mut self, id: BlockId) -> &mut Vec<Inst> {
        &mut self.blocks[id.0 as usize].insts
    }

    /// Replaces a block's terminator.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_terminator(&mut self, id: BlockId, terminator: Terminator) {
        self.blocks[id.0 as usize].terminator = terminator;
    }

    /// Allocates a fresh conditional-branch id (duplicated branches must not
    /// reuse their original's id — validation requires each id to appear
    /// exactly once).
    pub fn alloc_branch(&mut self) -> BranchId {
        let id = BranchId(self.num_branches);
        self.num_branches += 1;
        id
    }

    /// Appends a new block to `func` and returns its id. Unlike
    /// [`ProgramBuilder::new_block`], appended blocks never become function
    /// entries — this is the tail-duplication primitive.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn add_block(&mut self, func: FuncId, insts: Vec<Inst>, terminator: Terminator) -> BlockId {
        assert!(
            (func.0 as usize) < self.func_entries.len(),
            "add_block: unknown function {func:?}"
        );
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block {
            id,
            func,
            insts,
            terminator,
        });
        id
    }

    /// Validates the working copy and returns it as a [`Program`].
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] if the edits broke any structural
    /// invariant.
    pub fn finish(self) -> Result<Program, ValidateError> {
        let prog = Program {
            blocks: self.blocks,
            func_entries: self.func_entries,
            entry: self.entry,
            num_branches: self.num_branches,
        };
        prog.validate()?;
        crate::hooks::check_program(&prog);
        Ok(prog)
    }
}

/// The raw, unvalidated parts of a [`Program`].
///
/// Produced by [`Program::into_raw`] and consumed by [`Program::from_raw`];
/// every field is public so tests and tooling can corrupt exactly one
/// invariant at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawProgram {
    /// Basic blocks, normally indexed by their own ids.
    pub blocks: Vec<Block>,
    /// Entry block of each function.
    pub func_entries: Vec<BlockId>,
    /// Program entry block.
    pub entry: BlockId,
    /// Number of allocated conditional-branch ids.
    pub num_branches: u32,
}

/// Errors produced by [`ProgramBuilder::finish`] and
/// [`Program::with_terminators`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// An edge or entry references a block id that does not exist.
    UnknownBlock(BlockId),
    /// A block references a function id that does not exist.
    UnknownFunc(FuncId),
    /// A conditional branch id is outside the allocated range.
    UnknownBranch(BranchId),
    /// Two blocks carry the same conditional-branch id.
    DuplicateBranch(BranchId),
    /// An allocated branch id is not used by any block.
    MissingBranch,
    /// A block's stored id does not match its index.
    BlockIdMismatch {
        /// Index in the block table.
        expected: u32,
        /// Id stored on the block.
        found: BlockId,
    },
    /// A body instruction has a control-transfer op class.
    ControlInBody {
        /// Offending block.
        block: BlockId,
        /// Offending op class.
        op: OpClass,
    },
    /// An intra-procedural edge crosses a function boundary.
    CrossFuncEdge {
        /// Source block.
        from: BlockId,
        /// Destination block.
        to: BlockId,
    },
    /// A call targets a block that is not a function entry.
    CallToNonEntry {
        /// Calling block.
        block: BlockId,
        /// Target block.
        callee: BlockId,
    },
    /// The program has no functions.
    NoFunctions,
    /// A block was never given a terminator.
    MissingTerminator(BlockId),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::UnknownBlock(b) => write!(f, "reference to unknown block {b}"),
            ValidateError::UnknownFunc(fu) => write!(f, "reference to unknown function {fu}"),
            ValidateError::UnknownBranch(br) => write!(f, "reference to unknown branch {br}"),
            ValidateError::DuplicateBranch(br) => write!(f, "branch id {br} used more than once"),
            ValidateError::MissingBranch => write!(f, "an allocated branch id is unused"),
            ValidateError::BlockIdMismatch { expected, found } => {
                write!(f, "block at index {expected} carries id {found}")
            }
            ValidateError::ControlInBody { block, op } => {
                write!(f, "control op {op} appears in the body of {block}")
            }
            ValidateError::CrossFuncEdge { from, to } => {
                write!(f, "edge {from} -> {to} crosses a function boundary")
            }
            ValidateError::CallToNonEntry { block, callee } => {
                write!(f, "{block} calls {callee}, which is not a function entry")
            }
            ValidateError::NoFunctions => write!(f, "program has no functions"),
            ValidateError::MissingTerminator(b) => write!(f, "block {b} has no terminator"),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Incrementally builds a [`Program`].
///
/// # Examples
///
/// ```
/// use fetchmech_isa::{Inst, OpClass, ProgramBuilder, Reg, Terminator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ProgramBuilder::new();
/// let f = b.begin_func();
/// let head = b.new_block(f);
/// let exit = b.new_block(f);
/// b.push_inst(head, Inst::new(OpClass::IntAlu, Some(Reg::int(1)), [None, None]));
/// let _loop_branch = b.set_cond_branch(head, [Some(Reg::int(1)), None], head, exit);
/// b.set_terminator(exit, Terminator::Halt);
/// b.set_entry(head);
/// let program = b.finish()?;
/// assert_eq!(program.num_blocks(), 2);
/// assert_eq!(program.num_branches(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    blocks: Vec<(FuncId, Vec<Inst>, Option<Terminator>)>,
    func_entries: Vec<Option<BlockId>>,
    entry: Option<BlockId>,
    next_branch: u32,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new function; its entry is the first block created for it.
    pub fn begin_func(&mut self) -> FuncId {
        self.func_entries.push(None);
        FuncId((self.func_entries.len() - 1) as u32)
    }

    /// Creates a new empty block in `func`. The first block created for a
    /// function becomes that function's entry.
    ///
    /// # Panics
    ///
    /// Panics if `func` was not created by this builder.
    pub fn new_block(&mut self, func: FuncId) -> BlockId {
        assert!(
            (func.0 as usize) < self.func_entries.len(),
            "unknown function {func}"
        );
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push((func, Vec::new(), None));
        let entry = &mut self.func_entries[func.0 as usize];
        if entry.is_none() {
            *entry = Some(id);
        }
        id
    }

    /// Appends a body instruction to `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is unknown or `inst` is a control op.
    pub fn push_inst(&mut self, block: BlockId, inst: Inst) {
        assert!(
            !inst.op.is_control(),
            "control op {} must be a terminator",
            inst.op
        );
        self.blocks[block.0 as usize].1.push(inst);
    }

    /// Sets a non-conditional terminator on `block`.
    ///
    /// # Panics
    ///
    /// Panics if `term` is a [`Terminator::CondBranch`]; use
    /// [`ProgramBuilder::set_cond_branch`] so the branch id is allocated.
    pub fn set_terminator(&mut self, block: BlockId, term: Terminator) {
        assert!(
            !matches!(term, Terminator::CondBranch { .. }),
            "use set_cond_branch for conditional branches"
        );
        self.blocks[block.0 as usize].2 = Some(term);
    }

    /// Sets a conditional-branch terminator on `block`, allocating and
    /// returning its stable [`BranchId`].
    pub fn set_cond_branch(
        &mut self,
        block: BlockId,
        srcs: [Option<Reg>; 2],
        taken: BlockId,
        fall: BlockId,
    ) -> BranchId {
        let id = BranchId(self.next_branch);
        self.next_branch += 1;
        self.blocks[block.0 as usize].2 = Some(Terminator::CondBranch {
            id,
            srcs,
            taken,
            fall,
            inverted: false,
        });
        id
    }

    /// Sets the program entry block.
    pub fn set_entry(&mut self, block: BlockId) {
        self.entry = Some(block);
    }

    /// Validates and returns the finished [`Program`].
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] describing the first structural problem
    /// found (dangling edge, missing terminator, cross-function edge, call to
    /// a non-entry block, branch-id misuse, …).
    pub fn finish(self) -> Result<Program, ValidateError> {
        let entry = self.entry.ok_or(ValidateError::NoFunctions)?;
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (idx, (func, insts, term)) in self.blocks.into_iter().enumerate() {
            let id = BlockId(idx as u32);
            let terminator = term.ok_or(ValidateError::MissingTerminator(id))?;
            blocks.push(Block {
                id,
                func,
                insts,
                terminator,
            });
        }
        let func_entries = self
            .func_entries
            .into_iter()
            .map(|e| e.ok_or(ValidateError::NoFunctions))
            .collect::<Result<Vec<_>, _>>()?;
        let prog = Program {
            blocks,
            func_entries,
            entry,
            num_branches: self.next_branch,
        };
        prog.validate()?;
        crate::hooks::check_program(&prog);
        Ok(prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_block_program() -> Program {
        let mut b = ProgramBuilder::new();
        let f = b.begin_func();
        let head = b.new_block(f);
        let exit = b.new_block(f);
        b.push_inst(
            head,
            Inst::new(OpClass::IntAlu, Some(Reg::int(1)), [None, None]),
        );
        b.set_cond_branch(head, [Some(Reg::int(1)), None], head, exit);
        b.set_terminator(exit, Terminator::Halt);
        b.set_entry(head);
        b.finish().expect("valid program")
    }

    #[test]
    fn builder_produces_valid_program() {
        let p = two_block_program();
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.num_branches(), 1);
        assert_eq!(p.entry(), BlockId(0));
        assert_eq!(p.func_entries(), &[BlockId(0)]);
    }

    #[test]
    fn cfg_view_edges_match_terminators() {
        let p = two_block_program();
        let v = CfgView::local(&p);
        assert_eq!(v.num_blocks(), 2);
        // head: cond branch taken->head, fall->exit.
        assert_eq!(v.successors(BlockId(0)), &[BlockId(0), BlockId(1)]);
        assert_eq!(v.successors(BlockId(1)), &[] as &[BlockId]);
        assert_eq!(v.predecessors(BlockId(0)), &[BlockId(0)]);
        assert_eq!(v.predecessors(BlockId(1)), &[BlockId(0)]);
    }

    #[test]
    fn cfg_view_deduplicates_coincident_edges() {
        let mut b = ProgramBuilder::new();
        let f = b.begin_func();
        let head = b.new_block(f);
        let exit = b.new_block(f);
        b.set_cond_branch(head, [None, None], exit, exit);
        b.set_terminator(exit, Terminator::Halt);
        b.set_entry(head);
        let p = b.finish().expect("valid");
        let v = CfgView::local(&p);
        assert_eq!(v.successors(BlockId(0)), &[BlockId(1)]);
        assert_eq!(v.predecessors(BlockId(1)), &[BlockId(0)]);
    }

    #[test]
    fn interprocedural_view_reaches_callees() {
        let mut b = ProgramBuilder::new();
        let f0 = b.begin_func();
        let f1 = b.begin_func();
        let a = b.new_block(f0);
        let ret = b.new_block(f0);
        let callee = b.new_block(f1);
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
        let local = CfgView::local(&p);
        assert_eq!(local.successors(a), &[ret]);
        let inter = CfgView::interprocedural(&p);
        assert_eq!(inter.successors(a), &[ret, callee]);
        assert_eq!(inter.predecessors(callee), &[a]);
    }

    #[test]
    fn reverse_postorder_visits_parents_first() {
        // Diamond: 0 -> {1, 2} -> 3.
        let mut b = ProgramBuilder::new();
        let f = b.begin_func();
        let top = b.new_block(f);
        let left = b.new_block(f);
        let right = b.new_block(f);
        let join = b.new_block(f);
        b.set_cond_branch(top, [None, None], left, right);
        b.set_terminator(left, Terminator::Jump { target: join });
        b.set_terminator(right, Terminator::Jump { target: join });
        b.set_terminator(join, Terminator::Halt);
        b.set_entry(top);
        let p = b.finish().expect("valid");
        let rpo = CfgView::local(&p).reverse_postorder(top);
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], top);
        assert_eq!(rpo[3], join);
        let pos = |b: BlockId| rpo.iter().position(|&x| x == b).expect("in order");
        assert!(pos(top) < pos(left) && pos(top) < pos(right));
        assert!(pos(left) < pos(join) && pos(right) < pos(join));
    }

    #[test]
    fn missing_terminator_is_rejected() {
        let mut b = ProgramBuilder::new();
        let f = b.begin_func();
        let blk = b.new_block(f);
        b.set_entry(blk);
        assert_eq!(
            b.finish().unwrap_err(),
            ValidateError::MissingTerminator(BlockId(0))
        );
    }

    #[test]
    fn dangling_edge_is_rejected() {
        let mut b = ProgramBuilder::new();
        let f = b.begin_func();
        let blk = b.new_block(f);
        b.set_terminator(blk, Terminator::Jump { target: BlockId(9) });
        b.set_entry(blk);
        assert_eq!(
            b.finish().unwrap_err(),
            ValidateError::UnknownBlock(BlockId(9))
        );
    }

    #[test]
    fn cross_function_jump_is_rejected() {
        let mut b = ProgramBuilder::new();
        let f0 = b.begin_func();
        let f1 = b.begin_func();
        let a = b.new_block(f0);
        let c = b.new_block(f1);
        b.set_terminator(a, Terminator::Jump { target: c });
        b.set_terminator(c, Terminator::Return);
        b.set_entry(a);
        assert!(matches!(
            b.finish().unwrap_err(),
            ValidateError::CrossFuncEdge { .. }
        ));
    }

    #[test]
    fn call_must_target_function_entry() {
        let mut b = ProgramBuilder::new();
        let f0 = b.begin_func();
        let f1 = b.begin_func();
        let a = b.new_block(f0);
        let ret = b.new_block(f0);
        let callee_entry = b.new_block(f1);
        let callee_body = b.new_block(f1);
        b.set_terminator(
            a,
            Terminator::Call {
                callee: callee_body,
                return_to: ret,
            },
        );
        b.set_terminator(ret, Terminator::Halt);
        b.set_terminator(callee_entry, Terminator::FallThrough { next: callee_body });
        b.set_terminator(callee_body, Terminator::Return);
        b.set_entry(a);
        assert!(matches!(
            b.finish().unwrap_err(),
            ValidateError::CallToNonEntry { .. }
        ));
    }

    #[test]
    fn control_op_in_body_panics() {
        let result = std::panic::catch_unwind(|| {
            let _ = Inst::new(OpClass::Jump, None, [None, None]);
        });
        assert!(result.is_err());
    }

    #[test]
    fn local_successors_shapes() {
        let p = two_block_program();
        let head_succs = p.block(BlockId(0)).terminator.local_successors();
        assert_eq!(
            head_succs,
            vec![(EdgeKind::Taken, BlockId(0)), (EdgeKind::Fall, BlockId(1))]
        );
        assert!(p.block(BlockId(1)).terminator.local_successors().is_empty());
    }

    #[test]
    fn with_terminators_swaps_and_validates() {
        let p = two_block_program();
        let mut edits = HashMap::new();
        edits.insert(
            BlockId(0),
            Terminator::CondBranch {
                id: BranchId(0),
                srcs: [Some(Reg::int(1)), None],
                taken: BlockId(1),
                fall: BlockId(0),
                inverted: true,
            },
        );
        let q = p.with_terminators(&edits).expect("valid edit");
        match q.block(BlockId(0)).terminator {
            Terminator::CondBranch {
                taken,
                fall,
                inverted,
                ..
            } => {
                assert_eq!(taken, BlockId(1));
                assert_eq!(fall, BlockId(0));
                assert!(inverted);
            }
            _ => panic!("terminator kind changed"),
        }
    }

    #[test]
    fn with_terminators_rejects_duplicate_branch_id() {
        let p = two_block_program();
        let mut edits = HashMap::new();
        // Give the exit block the same branch id as the head block.
        edits.insert(
            BlockId(1),
            Terminator::CondBranch {
                id: BranchId(0),
                srcs: [None, None],
                taken: BlockId(0),
                fall: BlockId(0),
                inverted: false,
            },
        );
        assert_eq!(
            p.with_terminators(&edits).unwrap_err(),
            ValidateError::DuplicateBranch(BranchId(0))
        );
    }

    #[test]
    fn static_upper_bound_counts_terminators() {
        let p = two_block_program();
        // head: 1 body + up to 2 (branch + jump); exit: 0 body + 1 halt.
        assert_eq!(p.static_inst_upper_bound(), 4);
    }
}
