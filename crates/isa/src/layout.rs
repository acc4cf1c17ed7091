//! Code layout: materializing a [`Program`] into an addressed instruction
//! stream.
//!
//! Layout is where the paper's compiler experiments live: the *same* program
//! laid out in different block orders produces different fall-through
//! elision, different taken-branch counts, and different cache-block
//! alignment. [`Layout::new`] takes an explicit block order plus a
//! [`PadMode`] (for the §4.1 pad-all / pad-trace study) and produces a flat
//! vector of [`LaidInst`]s with all branch targets resolved to addresses.

use std::collections::HashSet;
use std::fmt;

use crate::addr::{Addr, WORD_BYTES};
use crate::cfg::{Block, BlockId, BranchId, Program, Terminator};
use crate::op::OpClass;
use crate::reg::Reg;

/// Link register used by materialized `call` instructions.
const LINK_REG: Reg = Reg::Int(31);

/// Nop-padding policy applied during layout (§4.1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PadMode {
    /// No padding.
    #[default]
    None,
    /// Pad after *every* basic block so the next block starts at a cache
    /// block boundary (`pad-all`).
    PadAll,
    /// Pad only after blocks that end a compiler-selected trace
    /// (`pad-trace`); the set is produced by the trace-selection pass.
    PadTrace(HashSet<BlockId>),
}

/// Options controlling [`Layout::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutOptions {
    /// Address of the first instruction.
    pub base: Addr,
    /// Cache block size in bytes; used by the padding modes and recorded for
    /// downstream geometry queries. Must be a power of two.
    pub block_bytes: u64,
    /// Padding policy.
    pub pad: PadMode,
}

impl LayoutOptions {
    /// Conventional options: base `0x1_0000`, the given cache-block size,
    /// no padding.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two or smaller than one word.
    #[must_use]
    pub fn new(block_bytes: u64) -> Self {
        assert!(
            block_bytes.is_power_of_two() && block_bytes >= WORD_BYTES,
            "block size must be a power of two >= {WORD_BYTES}"
        );
        Self {
            base: Addr::new(0x1_0000),
            block_bytes,
            pad: PadMode::None,
        }
    }

    /// Sets the padding mode (builder style).
    #[must_use]
    pub fn with_pad(mut self, pad: PadMode) -> Self {
        self.pad = pad;
        self
    }
}

/// Control-flow attributes of a laid-out instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrlAttr {
    /// Stable branch id for conditional branches.
    pub branch_id: Option<BranchId>,
    /// Whether a layout transform inverted this conditional branch's sense.
    pub inverted: bool,
    /// Static target address: the taken destination for branches/jumps/calls
    /// and the program entry for `halt`. `None` for `ret` (dynamic target).
    pub target: Option<Addr>,
}

/// One instruction in the laid-out stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaidInst {
    /// This instruction's address.
    pub addr: Addr,
    /// Operation class.
    pub op: OpClass,
    /// Destination register.
    pub dest: Option<Reg>,
    /// Source registers.
    pub srcs: [Option<Reg>; 2],
    /// Immediate field.
    pub imm: i8,
    /// Control attributes; `Some` exactly when `op.is_control()` or the
    /// instruction is a `halt`.
    pub ctrl: Option<CtrlAttr>,
    /// Basic block this instruction was emitted for (padding nops belong to
    /// the block they follow).
    pub block: BlockId,
}

/// Renders a laid-out instruction as assembly-like text (for debugging and
/// the example binaries).
#[must_use]
pub fn disasm(inst: &LaidInst) -> String {
    let mut s = format!("{}: {}", inst.addr, inst.op.mnemonic());
    if let Some(d) = inst.dest {
        s.push_str(&format!(" {d}"));
    }
    for src in inst.srcs.iter().flatten() {
        s.push_str(&format!(" {src}"));
    }
    if let Some(CtrlAttr {
        target: Some(t), ..
    }) = inst.ctrl
    {
        s.push_str(&format!(" -> {t}"));
    }
    if inst.imm != 0 {
        s.push_str(&format!(" #{}", inst.imm));
    }
    s
}

/// Code-size statistics for a layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayoutStats {
    /// Total instructions emitted, including padding nops.
    pub total_insts: usize,
    /// Padding nops inserted by the [`PadMode`].
    pub pad_nops: usize,
    /// Materialized unconditional jumps (fall-through edges that could not be
    /// elided). Reordering aims to shrink this.
    pub materialized_jumps: usize,
}

impl LayoutStats {
    /// Padding nops as a percentage of the *unpadded* code size — the metric
    /// Table 4 of the paper reports.
    #[must_use]
    pub fn pad_pct(&self) -> f64 {
        let orig = self.total_insts - self.pad_nops;
        if orig == 0 {
            0.0
        } else {
            100.0 * self.pad_nops as f64 / orig as f64
        }
    }
}

/// Errors from [`Layout::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// The order is not a permutation of the program's blocks.
    NotAPermutation,
    /// The laid-out code would end at byte `end`, at or past 2³²: outside
    /// the 32-bit address space an [`Addr`] holds.
    AddressOverflow {
        /// One past the last byte the code would occupy.
        end: u64,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::NotAPermutation => {
                write!(
                    f,
                    "block order is not a permutation of the program's blocks"
                )
            }
            LayoutError::AddressOverflow { end } => {
                write!(
                    f,
                    "laid-out code would end at {end:#x}, past the 32-bit address space"
                )
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// The raw, unvalidated parts of a [`Layout`].
///
/// Produced by [`Layout::into_raw`] and consumed by [`Layout::from_raw`];
/// every field is public so verification tests can corrupt exactly one
/// layout invariant at a time.
#[derive(Debug, Clone)]
pub struct RawLayout {
    /// The laid-out instruction stream.
    pub code: Vec<LaidInst>,
    /// Starting address of each block, indexed by block id.
    pub block_addr: Vec<Addr>,
    /// Block layout order.
    pub order: Vec<BlockId>,
    /// Address of the program entry block.
    pub entry_addr: Addr,
    /// The options the layout was produced with.
    pub options: LayoutOptions,
    /// Emission statistics.
    pub stats: LayoutStats,
}

/// A program laid out in memory: addressed instructions plus block-address
/// and index maps.
#[derive(Debug, Clone)]
pub struct Layout {
    code: Vec<LaidInst>,
    block_addr: Vec<Addr>,
    order: Vec<BlockId>,
    entry_addr: Addr,
    options: LayoutOptions,
    stats: LayoutStats,
}

impl Layout {
    /// Lays out `program` in the given block order.
    ///
    /// Materialization rules (this is where reordering pays off):
    ///
    /// * `FallThrough`/`Jump` edges to the next block in the order are elided;
    ///   otherwise a `jmp` is emitted.
    /// * A conditional branch emits `br <taken>`; if its fall-through block is
    ///   not next in the order, a compensating `jmp <fall>` follows.
    /// * `Call`/`Return`/`Halt` always emit one instruction.
    /// * Padding nops are appended per [`PadMode`].
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::NotAPermutation`] if `order` does not list each
    /// block exactly once, and [`LayoutError::AddressOverflow`] if the code
    /// starting at `options.base` would not end below 2³².
    pub fn new(
        program: &Program,
        order: &[BlockId],
        options: LayoutOptions,
    ) -> Result<Self, LayoutError> {
        let n = program.num_blocks();
        if order.len() != n {
            return Err(LayoutError::NotAPermutation);
        }
        let mut seen = vec![false; n];
        for &b in order {
            let idx = b.0 as usize;
            if idx >= n || seen[idx] {
                return Err(LayoutError::NotAPermutation);
            }
            seen[idx] = true;
        }

        // Pass 1: sizes and addresses. The cursor is a plain byte count, so
        // code running past the address space is an error, not a panic.
        let mut block_addr = vec![Addr::default(); n];
        let mut cursor = options.base.byte();
        let mut pad_nops = 0usize;
        let mut materialized_jumps = 0usize;
        let sizes: Vec<(usize, usize)> = order
            .iter()
            .enumerate()
            .map(|(pos, &bid)| {
                let block = program.block(bid);
                let next = order.get(pos + 1).copied();
                let term_len = Self::terminator_len(block, next);
                (block.insts.len() + term_len.0, term_len.1)
            })
            .collect();
        for (pos, &bid) in order.iter().enumerate() {
            if cursor < Addr::LIMIT {
                block_addr[bid.0 as usize] = Addr::new(cursor);
            }
            let (len, jumps) = sizes[pos];
            materialized_jumps += jumps;
            cursor += len as u64 * WORD_BYTES;
            if Self::pads_after(&options.pad, bid) {
                let aligned = Self::align_up(cursor, options.block_bytes);
                pad_nops += ((aligned - cursor) / WORD_BYTES) as usize;
                cursor = aligned;
            }
        }
        if cursor >= Addr::LIMIT {
            return Err(LayoutError::AddressOverflow { end: cursor });
        }
        let cursor = Addr::new(cursor);

        // Pass 2: emit instructions with resolved targets.
        let mut code =
            Vec::with_capacity(((cursor.byte() - options.base.byte()) / WORD_BYTES) as usize);
        let entry_addr = block_addr[program.entry().0 as usize];
        let mut emit_cursor = options.base;
        for (pos, &bid) in order.iter().enumerate() {
            let block = program.block(bid);
            let next = order.get(pos + 1).copied();
            debug_assert_eq!(emit_cursor, block_addr[bid.0 as usize]);
            for inst in &block.insts {
                code.push(LaidInst {
                    addr: emit_cursor,
                    op: inst.op,
                    dest: inst.dest,
                    srcs: inst.srcs,
                    imm: inst.imm,
                    ctrl: None,
                    block: bid,
                });
                emit_cursor = emit_cursor.add_words(1);
            }
            emit_cursor =
                Self::emit_terminator(block, next, &block_addr, entry_addr, emit_cursor, &mut code);
            if Self::pads_after(&options.pad, bid) {
                let aligned = Addr::new(Self::align_up(emit_cursor.byte(), options.block_bytes));
                while emit_cursor < aligned {
                    code.push(LaidInst {
                        addr: emit_cursor,
                        op: OpClass::Nop,
                        dest: None,
                        srcs: [None, None],
                        imm: 0,
                        ctrl: None,
                        block: bid,
                    });
                    emit_cursor = emit_cursor.add_words(1);
                }
            }
        }
        debug_assert_eq!(emit_cursor, cursor);

        let stats = LayoutStats {
            total_insts: code.len(),
            pad_nops,
            materialized_jumps,
        };
        let layout = Self {
            code,
            block_addr,
            order: order.to_vec(),
            entry_addr,
            options,
            stats,
        };
        crate::hooks::check_layout(program, &layout);
        Ok(layout)
    }

    /// Decomposes the layout into its raw parts (see [`RawLayout`]).
    #[must_use]
    pub fn into_raw(self) -> RawLayout {
        RawLayout {
            code: self.code,
            block_addr: self.block_addr,
            order: self.order,
            entry_addr: self.entry_addr,
            options: self.options,
            stats: self.stats,
        }
    }

    /// Reassembles a layout from raw parts **without validation** and
    /// without running verification hooks.
    ///
    /// The result may violate every invariant [`Layout::new`] establishes;
    /// intended for the analysis layer's mutation tests.
    #[must_use]
    pub fn from_raw(raw: RawLayout) -> Self {
        Self {
            code: raw.code,
            block_addr: raw.block_addr,
            order: raw.order,
            entry_addr: raw.entry_addr,
            options: raw.options,
            stats: raw.stats,
        }
    }

    /// Lays out `program` in block-id order ("as written" — the unoptimized
    /// baseline layout).
    ///
    /// # Errors
    ///
    /// Propagates [`LayoutError`] from [`Layout::new`] (cannot occur for the
    /// natural order of a valid program).
    pub fn natural(program: &Program, options: LayoutOptions) -> Result<Self, LayoutError> {
        let order: Vec<BlockId> = (0..program.num_blocks() as u32).map(BlockId).collect();
        Self::new(program, &order, options)
    }

    /// Returns `(instruction count, materialized jump count)` that `block`'s
    /// terminator contributes, given the next block in the order.
    fn terminator_len(block: &Block, next: Option<BlockId>) -> (usize, usize) {
        match block.terminator {
            Terminator::FallThrough { next: target } | Terminator::Jump { target } => {
                if Some(target) == next {
                    (0, 0)
                } else {
                    (1, 1)
                }
            }
            Terminator::CondBranch { fall, .. } => {
                if Some(fall) == next {
                    (1, 0)
                } else {
                    (2, 1)
                }
            }
            Terminator::Call { .. } | Terminator::Return | Terminator::Halt => (1, 0),
        }
    }

    fn emit_terminator(
        block: &Block,
        next: Option<BlockId>,
        block_addr: &[Addr],
        entry_addr: Addr,
        mut cursor: Addr,
        code: &mut Vec<LaidInst>,
    ) -> Addr {
        let addr_of = |b: BlockId| block_addr[b.0 as usize];
        let mut emit = |cursor: &mut Addr,
                        op: OpClass,
                        dest: Option<Reg>,
                        srcs: [Option<Reg>; 2],
                        ctrl: Option<CtrlAttr>| {
            code.push(LaidInst {
                addr: *cursor,
                op,
                dest,
                srcs,
                imm: 0,
                ctrl,
                block: block.id,
            });
            *cursor = cursor.add_words(1);
        };
        match block.terminator {
            Terminator::FallThrough { next: target } | Terminator::Jump { target } => {
                if Some(target) != next {
                    emit(
                        &mut cursor,
                        OpClass::Jump,
                        None,
                        [None, None],
                        Some(CtrlAttr {
                            branch_id: None,
                            inverted: false,
                            target: Some(addr_of(target)),
                        }),
                    );
                }
            }
            Terminator::CondBranch {
                id,
                srcs,
                taken,
                fall,
                inverted,
            } => {
                emit(
                    &mut cursor,
                    OpClass::CondBranch,
                    None,
                    srcs,
                    Some(CtrlAttr {
                        branch_id: Some(id),
                        inverted,
                        target: Some(addr_of(taken)),
                    }),
                );
                if Some(fall) != next {
                    emit(
                        &mut cursor,
                        OpClass::Jump,
                        None,
                        [None, None],
                        Some(CtrlAttr {
                            branch_id: None,
                            inverted: false,
                            target: Some(addr_of(fall)),
                        }),
                    );
                }
            }
            Terminator::Call { callee, .. } => {
                emit(
                    &mut cursor,
                    OpClass::Call,
                    Some(LINK_REG),
                    [None, None],
                    Some(CtrlAttr {
                        branch_id: None,
                        inverted: false,
                        target: Some(addr_of(callee)),
                    }),
                );
            }
            Terminator::Return => {
                emit(
                    &mut cursor,
                    OpClass::Return,
                    None,
                    [Some(LINK_REG), None],
                    Some(CtrlAttr {
                        branch_id: None,
                        inverted: false,
                        target: None,
                    }),
                );
            }
            Terminator::Halt => {
                emit(
                    &mut cursor,
                    OpClass::Halt,
                    None,
                    [None, None],
                    Some(CtrlAttr {
                        branch_id: None,
                        inverted: false,
                        target: Some(entry_addr),
                    }),
                );
            }
        }
        cursor
    }

    fn pads_after(pad: &PadMode, block: BlockId) -> bool {
        match pad {
            PadMode::None => false,
            PadMode::PadAll => true,
            PadMode::PadTrace(ends) => ends.contains(&block),
        }
    }

    fn align_up(byte: u64, block_bytes: u64) -> u64 {
        let mask = block_bytes - 1;
        (byte + mask) & !mask
    }

    /// Returns the laid-out instruction stream.
    #[must_use]
    pub fn code(&self) -> &[LaidInst] {
        &self.code
    }

    /// Returns the address of the first instruction of `block` (equal to the
    /// next block's address when this block emitted no instructions).
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range for the laid-out program.
    #[must_use]
    pub fn block_addr(&self, block: BlockId) -> Addr {
        self.block_addr[block.0 as usize]
    }

    /// Returns the program entry address.
    #[must_use]
    pub fn entry_addr(&self) -> Addr {
        self.entry_addr
    }

    /// Returns the index into [`Layout::code`] of the instruction at `addr`,
    /// or `None` if `addr` is outside the laid-out image or unaligned.
    #[must_use]
    pub fn index_of(&self, addr: Addr) -> Option<usize> {
        let base = self.options.base.byte();
        let b = addr.byte();
        if b < base || !(b - base).is_multiple_of(WORD_BYTES) {
            return None;
        }
        let idx = ((b - base) / WORD_BYTES) as usize;
        if idx < self.code.len() {
            Some(idx)
        } else {
            None
        }
    }

    /// Returns the instruction at `addr`, if any.
    #[must_use]
    pub fn inst_at(&self, addr: Addr) -> Option<&LaidInst> {
        self.index_of(addr).map(|i| &self.code[i])
    }

    /// Returns the block order this layout used.
    #[must_use]
    pub fn order(&self) -> &[BlockId] {
        &self.order
    }

    /// Returns the layout options.
    #[must_use]
    pub fn options(&self) -> &LayoutOptions {
        &self.options
    }

    /// Returns code-size statistics.
    #[must_use]
    pub fn stats(&self) -> LayoutStats {
        self.stats
    }

    /// Total code size in bytes.
    #[must_use]
    pub fn code_bytes(&self) -> u64 {
        self.code.len() as u64 * WORD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{Inst, ProgramBuilder};

    /// head -> (cond) body -> tail(halt), with body falling through to tail.
    fn diamondish() -> Program {
        let mut b = ProgramBuilder::new();
        let f = b.begin_func();
        let head = b.new_block(f);
        let body = b.new_block(f);
        let tail = b.new_block(f);
        for _ in 0..3 {
            b.push_inst(
                head,
                Inst::new(OpClass::IntAlu, Some(Reg::int(1)), [None, None]),
            );
        }
        b.push_inst(
            body,
            Inst::new(OpClass::IntAlu, Some(Reg::int(2)), [None, None]),
        );
        // taken edge skips body (a hammock).
        b.set_cond_branch(head, [Some(Reg::int(1)), None], tail, body);
        b.set_terminator(body, Terminator::FallThrough { next: tail });
        b.set_terminator(tail, Terminator::Halt);
        b.set_entry(head);
        b.finish().expect("valid")
    }

    #[test]
    fn natural_layout_elides_fallthroughs() {
        let p = diamondish();
        let l = Layout::natural(&p, LayoutOptions::new(16)).expect("layout");
        // head: 3 alu + 1 br (fall elided); body: 1 alu (+0, fallthrough to
        // next); tail: 1 halt => 6 instructions.
        assert_eq!(l.code().len(), 6);
        assert_eq!(l.stats().materialized_jumps, 0);
        assert_eq!(l.stats().pad_nops, 0);
    }

    #[test]
    fn branch_targets_resolve_to_block_addresses() {
        let p = diamondish();
        let l = Layout::natural(&p, LayoutOptions::new(16)).expect("layout");
        let br = l
            .code()
            .iter()
            .find(|i| i.op == OpClass::CondBranch)
            .expect("branch");
        assert_eq!(
            br.ctrl.expect("ctrl").target,
            Some(l.block_addr(BlockId(2)))
        );
    }

    #[test]
    fn reversed_order_materializes_jumps() {
        let p = diamondish();
        let order = [BlockId(2), BlockId(1), BlockId(0)];
        let l = Layout::new(&p, &order, LayoutOptions::new(16)).expect("layout");
        // tail first: halt. body: alu + jmp tail. head: 3 alu + br + jmp body.
        assert_eq!(l.code().len(), 8);
        assert_eq!(l.stats().materialized_jumps, 2);
        let jumps: Vec<_> = l.code().iter().filter(|i| i.op == OpClass::Jump).collect();
        assert_eq!(jumps.len(), 2);
        assert_eq!(
            jumps[0].ctrl.expect("ctrl").target,
            Some(l.block_addr(BlockId(2)))
        );
    }

    #[test]
    fn pad_all_aligns_every_block() {
        let p = diamondish();
        let opts = LayoutOptions::new(16).with_pad(PadMode::PadAll);
        let l = Layout::natural(&p, opts).expect("layout");
        for &b in l.order() {
            assert_eq!(l.block_addr(b).byte() % 16, 0, "block {b} misaligned");
        }
        assert!(l.stats().pad_nops > 0);
        // Every emitted word is an instruction; nops fill the gaps.
        for (i, inst) in l.code().iter().enumerate() {
            assert_eq!(l.index_of(inst.addr), Some(i));
        }
    }

    #[test]
    fn pad_trace_aligns_only_marked_blocks() {
        let p = diamondish();
        let mut ends = HashSet::new();
        ends.insert(BlockId(0));
        let opts = LayoutOptions::new(16).with_pad(PadMode::PadTrace(ends));
        let l = Layout::natural(&p, opts).expect("layout");
        assert_eq!(l.block_addr(BlockId(1)).byte() % 16, 0);
        // Only one pad region: after head (3 alu + 1 br = 16 bytes, so 0 nops
        // needed here — adjust base so padding is non-trivial).
        assert_eq!(l.stats().pad_nops, 0);
    }

    #[test]
    fn halt_targets_entry() {
        let p = diamondish();
        let l = Layout::natural(&p, LayoutOptions::new(16)).expect("layout");
        let halt = l
            .code()
            .iter()
            .find(|i| i.op == OpClass::Halt)
            .expect("halt");
        assert_eq!(halt.ctrl.expect("ctrl").target, Some(l.entry_addr()));
    }

    #[test]
    fn non_permutation_is_rejected() {
        let p = diamondish();
        let bad = [BlockId(0), BlockId(0), BlockId(1)];
        assert_eq!(
            Layout::new(&p, &bad, LayoutOptions::new(16)).unwrap_err(),
            LayoutError::NotAPermutation
        );
        let short = [BlockId(0)];
        assert_eq!(
            Layout::new(&p, &short, LayoutOptions::new(16)).unwrap_err(),
            LayoutError::NotAPermutation
        );
    }

    #[test]
    fn code_past_the_address_space_is_rejected() {
        let p = diamondish();
        let words = Layout::natural(&p, LayoutOptions::new(16))
            .expect("layout")
            .code()
            .len() as u64;
        let at = |base: u64| LayoutOptions {
            base: Addr::new(base),
            ..LayoutOptions::new(16)
        };
        // The highest base whose code still ends below 2^32 lays out.
        let top = Addr::LIMIT - (words + 1) * WORD_BYTES;
        let l = Layout::natural(&p, at(top)).expect("fits");
        assert_eq!(
            l.code().last().expect("code").addr.byte(),
            Addr::LIMIT - 2 * WORD_BYTES
        );
        // One word higher and the end no longer fits.
        assert_eq!(
            Layout::natural(&p, at(top + WORD_BYTES)).unwrap_err(),
            LayoutError::AddressOverflow { end: Addr::LIMIT }
        );
        assert_eq!(
            Layout::natural(&p, at(Addr::LIMIT - 16)).unwrap_err(),
            LayoutError::AddressOverflow {
                end: Addr::LIMIT - 16 + words * WORD_BYTES
            }
        );
    }

    #[test]
    fn index_of_rejects_unaligned_and_out_of_range() {
        let p = diamondish();
        let l = Layout::natural(&p, LayoutOptions::new(16)).expect("layout");
        assert_eq!(l.index_of(Addr::new(l.entry_addr().byte() + 1)), None);
        assert_eq!(l.index_of(Addr::new(0)), None);
        assert_eq!(l.index_of(l.entry_addr()), Some(0));
    }

    #[test]
    fn addresses_are_contiguous_words() {
        let p = diamondish();
        let l = Layout::natural(&p, LayoutOptions::new(16)).expect("layout");
        for (i, inst) in l.code().iter().enumerate() {
            assert_eq!(inst.addr, l.options().base.add_words(i as u64));
        }
    }

    #[test]
    fn call_and_return_materialize() {
        let mut b = ProgramBuilder::new();
        let f0 = b.begin_func();
        let f1 = b.begin_func();
        let main = b.new_block(f0);
        let after = b.new_block(f0);
        let callee = b.new_block(f1);
        b.set_terminator(
            main,
            Terminator::Call {
                callee,
                return_to: after,
            },
        );
        b.set_terminator(after, Terminator::Halt);
        b.set_terminator(callee, Terminator::Return);
        b.set_entry(main);
        let p = b.finish().expect("valid");
        let l = Layout::natural(&p, LayoutOptions::new(16)).expect("layout");
        let call = l
            .code()
            .iter()
            .find(|i| i.op == OpClass::Call)
            .expect("call");
        assert_eq!(call.ctrl.expect("ctrl").target, Some(l.block_addr(callee)));
        let ret = l
            .code()
            .iter()
            .find(|i| i.op == OpClass::Return)
            .expect("ret");
        assert_eq!(ret.ctrl.expect("ctrl").target, None);
    }

    #[test]
    fn pad_pct_matches_definition() {
        let stats = LayoutStats {
            total_insts: 120,
            pad_nops: 20,
            materialized_jumps: 0,
        };
        assert!((stats.pad_pct() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn disasm_renders_operands_target_and_immediate() {
        let jump = LaidInst {
            addr: Addr::new(0x1000),
            op: OpClass::Jump,
            dest: None,
            srcs: [None, None],
            imm: 0,
            ctrl: Some(CtrlAttr {
                branch_id: None,
                inverted: false,
                target: Some(Addr::new(0x2000)),
            }),
            block: BlockId(0),
        };
        assert_eq!(disasm(&jump), "0x00001000: jmp -> 0x00002000");
        let alu = LaidInst {
            addr: Addr::new(0x1004),
            op: OpClass::IntAlu,
            dest: Some(Reg::int(5)),
            srcs: [Some(Reg::int(6)), Some(Reg::fp(7))],
            imm: -3,
            ctrl: None,
            block: BlockId(0),
        };
        assert_eq!(disasm(&alu), "0x00001004: alu r5 r6 f7 #-3");
    }
}
