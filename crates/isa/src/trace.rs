//! Dynamic instruction records — the unit of communication between the
//! workload trace generator and the fetch/pipeline simulators.

use crate::addr::Addr;
use crate::op::OpClass;
use crate::reg::Reg;

/// Control-flow outcome attached to a dynamic control instruction.
///
/// A conditional branch's stable id is static: it is the laid-out
/// instruction's (`Layout::inst_at(addr)`), so the dynamic record does not
/// repeat it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynCtrl {
    /// Whether the hardware transfer was taken this execution. Always `true`
    /// for unconditional transfers.
    pub taken: bool,
    /// The taken-destination address. For conditional branches this is the
    /// *static* taken target even when the branch falls through (the BTB
    /// stores it); for returns it is the dynamic return address.
    pub target: Addr,
    /// For calls: the address the matching return will resume at (what a
    /// return-address stack would push). `None` for every other transfer.
    pub link: Option<Addr>,
}

/// One dynamically-executed instruction.
///
/// # Examples
///
/// ```
/// use fetchmech_isa::{Addr, DynInst, OpClass};
///
/// let i = DynInst::simple(Addr::new(0x1000), OpClass::IntAlu, None, [None, None]);
/// assert_eq!(i.next_pc, Addr::new(0x1004));
/// assert!(!i.is_taken_control());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInst {
    /// Instruction address.
    pub addr: Addr,
    /// Operation class.
    pub op: OpClass,
    /// Destination register.
    pub dest: Option<Reg>,
    /// Source registers.
    pub srcs: [Option<Reg>; 2],
    /// Address of the next instruction actually executed.
    pub next_pc: Addr,
    /// Control outcome; `Some` exactly for control transfers and halts.
    pub ctrl: Option<DynCtrl>,
}

// Traces and stream templates hold one of these per instruction; growing
// the record grows every memoized trace with it.
const _: () = assert!(std::mem::size_of::<DynInst>() == 32);

impl DynInst {
    /// Creates a non-control dynamic instruction falling through to the next
    /// word.
    #[must_use]
    pub fn simple(addr: Addr, op: OpClass, dest: Option<Reg>, srcs: [Option<Reg>; 2]) -> Self {
        debug_assert!(!op.is_control() && op != OpClass::Halt);
        Self {
            addr,
            op,
            dest,
            srcs,
            next_pc: addr.add_words(1),
            ctrl: None,
        }
    }

    /// Returns `true` if this instruction redirected the instruction stream
    /// (a taken branch, jump, call, return, or halt restart).
    #[must_use]
    pub fn is_taken_control(&self) -> bool {
        self.ctrl.is_some_and(|c| c.taken)
    }

    /// Returns `true` if this is a conditional branch.
    #[must_use]
    pub fn is_cond_branch(&self) -> bool {
        self.op == OpClass::CondBranch
    }

    /// For a taken control transfer, returns `true` if the target lies in the
    /// same cache block as the branch itself — an *intra-block branch* in the
    /// paper's Table 2 sense. Returns `false` for non-control or not-taken
    /// instructions.
    #[must_use]
    pub(crate) fn is_intra_block_taken(&self, block_bytes: u64) -> bool {
        match self.ctrl {
            Some(c) if c.taken => self.addr.same_block(c.target, block_bytes),
            _ => false,
        }
    }
}

/// Accumulates the dynamic-stream statistics the paper reports (taken-branch
/// counts and Table 2's intra-block percentages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Total dynamic instructions observed.
    pub insts: u64,
    /// Dynamic conditional branches.
    pub cond_branches: u64,
    /// Dynamic *taken* conditional branches.
    pub taken_cond_branches: u64,
    /// All taken control transfers (branches, jumps, calls, returns, halts).
    pub taken_controls: u64,
    /// Taken control transfers whose target lies in the same cache block.
    pub intra_block_taken: u64,
    /// Dynamic nops (interesting under the padding optimizations).
    pub nops: u64,
}

impl TraceStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one dynamic instruction, classifying intra-block transfers
    /// with the given cache-block size.
    pub fn observe(&mut self, inst: &DynInst, block_bytes: u64) {
        self.insts += 1;
        if inst.op == OpClass::Nop {
            self.nops += 1;
        }
        if inst.is_cond_branch() {
            self.cond_branches += 1;
            if inst.is_taken_control() {
                self.taken_cond_branches += 1;
            }
        }
        if inst.is_taken_control() {
            self.taken_controls += 1;
            if inst.is_intra_block_taken(block_bytes) {
                self.intra_block_taken += 1;
            }
        }
    }

    /// Percentage of taken control transfers with an intra-block target
    /// (Table 2's metric).
    #[must_use]
    pub fn intra_block_pct(&self) -> f64 {
        if self.taken_controls == 0 {
            0.0
        } else {
            100.0 * self.intra_block_taken as f64 / self.taken_controls as f64
        }
    }

    /// Fraction of conditional branches that were taken.
    #[must_use]
    pub fn taken_rate(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.taken_cond_branches as f64 / self.cond_branches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn taken_branch(addr: u64, target: u64) -> DynInst {
        DynInst {
            addr: Addr::new(addr),
            op: OpClass::CondBranch,
            dest: None,
            srcs: [None, None],
            next_pc: Addr::new(target),
            ctrl: Some(DynCtrl {
                taken: true,
                target: Addr::new(target),
                link: None,
            }),
        }
    }

    #[test]
    fn simple_falls_through() {
        let i = DynInst::simple(Addr::new(0x100), OpClass::Load, None, [None, None]);
        assert_eq!(i.next_pc, Addr::new(0x104));
        assert!(!i.is_taken_control());
    }

    #[test]
    fn intra_block_detection() {
        let near = taken_branch(0x100, 0x108);
        let far = taken_branch(0x100, 0x200);
        assert!(near.is_intra_block_taken(16));
        assert!(!far.is_intra_block_taken(16));
        // With a bigger block the "far" branch becomes intra-block.
        assert!(far.is_intra_block_taken(1024));
    }

    #[test]
    fn stats_accumulate() {
        let mut s = TraceStats::new();
        s.observe(&taken_branch(0x100, 0x108), 16);
        s.observe(&taken_branch(0x100, 0x200), 16);
        s.observe(
            &DynInst::simple(Addr::new(0x104), OpClass::IntAlu, None, [None, None]),
            16,
        );
        assert_eq!(s.insts, 3);
        assert_eq!(s.cond_branches, 2);
        assert_eq!(s.taken_cond_branches, 2);
        assert_eq!(s.taken_controls, 2);
        assert_eq!(s.intra_block_taken, 1);
        assert!((s.intra_block_pct() - 50.0).abs() < 1e-9);
        assert!((s.taken_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stats_empty_percentages_are_zero() {
        let s = TraceStats::new();
        assert_eq!(s.intra_block_pct(), 0.0);
        assert_eq!(s.taken_rate(), 0.0);
    }

    #[test]
    fn not_taken_branch_is_not_intra_block() {
        let mut b = taken_branch(0x100, 0x108);
        b.ctrl = Some(DynCtrl {
            taken: false,
            target: Addr::new(0x108),
            link: None,
        });
        b.next_pc = Addr::new(0x104);
        assert!(!b.is_intra_block_taken(16));
        let mut s = TraceStats::new();
        s.observe(&b, 16);
        assert_eq!(s.taken_controls, 0);
        assert_eq!(s.cond_branches, 1);
    }
}
