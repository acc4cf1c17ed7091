//! Operation classes and functional-unit mapping.

use std::fmt;

/// The class of a functional unit in the execution core.
///
/// The paper's machine models (Table 1) provision fixed-point units, floating-
/// point units, branch units, and a data-cache interface (load units plus a
/// store buffer); result-bus count equals the total unit count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FuClass {
    /// Fixed-point (integer) unit.
    Fxu,
    /// Floating-point unit.
    Fpu,
    /// Branch unit.
    Branch,
    /// Data-cache interface (load units and the store buffer).
    Mem,
}

impl fmt::Display for FuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuClass::Fxu => "FXU",
            FuClass::Fpu => "FPU",
            FuClass::Branch => "BR",
            FuClass::Mem => "MEM",
        };
        f.write_str(s)
    }
}

/// The operation class of an instruction.
///
/// This is deliberately coarse: the simulator models timing and dataflow, not
/// semantics, so one class per (functional unit, latency) pair suffices, plus
/// the control-flow shapes the fetch unit must distinguish.
///
/// # Examples
///
/// ```
/// use fetchmech_isa::{FuClass, OpClass};
///
/// assert_eq!(OpClass::FpMul.fu_class(), FuClass::Fpu);
/// assert_eq!(OpClass::FpMul.latency(), 2);
/// assert!(OpClass::CondBranch.is_control());
/// assert!(!OpClass::IntAlu.is_control());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Integer ALU operation (add, compare, logical, shift), 1-cycle FXU.
    IntAlu,
    /// Integer multiply, 1-cycle FXU (the paper models all FXU ops at 1 cycle).
    IntMul,
    /// Floating-point add/sub/convert, 2-cycle FPU.
    FpAdd,
    /// Floating-point multiply/divide, 2-cycle FPU.
    FpMul,
    /// Memory load through the data-cache interface (hit latency; misses are
    /// not modeled, as in the paper).
    Load,
    /// Memory store via the store buffer.
    Store,
    /// Conditional branch.
    CondBranch,
    /// Unconditional direct jump.
    Jump,
    /// Direct call (pushes a return address).
    Call,
    /// Indirect return.
    Return,
    /// No-operation (used by the padding optimizations of §4.1).
    Nop,
    /// Program halt; the trace generator restarts from the entry point.
    Halt,
}

impl OpClass {
    /// All operation classes.
    pub const ALL: [OpClass; 12] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::FpAdd,
        OpClass::FpMul,
        OpClass::Load,
        OpClass::Store,
        OpClass::CondBranch,
        OpClass::Jump,
        OpClass::Call,
        OpClass::Return,
        OpClass::Nop,
        OpClass::Halt,
    ];

    /// Index of this class within [`OpClass::ALL`] — a stable dense key for
    /// per-class count arrays.
    #[must_use]
    pub(crate) fn index(self) -> usize {
        match self {
            OpClass::IntAlu => 0,
            OpClass::IntMul => 1,
            OpClass::FpAdd => 2,
            OpClass::FpMul => 3,
            OpClass::Load => 4,
            OpClass::Store => 5,
            OpClass::CondBranch => 6,
            OpClass::Jump => 7,
            OpClass::Call => 8,
            OpClass::Return => 9,
            OpClass::Nop => 10,
            OpClass::Halt => 11,
        }
    }

    /// Returns the functional unit that executes this operation.
    ///
    /// `Nop` and `Halt` are dispatched to the FXU (they occupy an issue slot
    /// but do no work), matching how padding nops consume decoder bandwidth
    /// in the paper's pad-all/pad-trace study.
    #[must_use]
    #[inline]
    pub fn fu_class(self) -> FuClass {
        match self {
            OpClass::IntAlu | OpClass::IntMul | OpClass::Nop | OpClass::Halt => FuClass::Fxu,
            OpClass::FpAdd | OpClass::FpMul => FuClass::Fpu,
            OpClass::Load | OpClass::Store => FuClass::Mem,
            OpClass::CondBranch | OpClass::Jump | OpClass::Call | OpClass::Return => {
                FuClass::Branch
            }
        }
    }

    /// Returns the execution latency in cycles (Table 1 plus DESIGN.md §1 for
    /// the parameters the paper leaves unspecified).
    #[must_use]
    #[inline]
    pub fn latency(self) -> u32 {
        match self {
            OpClass::IntAlu
            | OpClass::IntMul
            | OpClass::Store
            | OpClass::CondBranch
            | OpClass::Jump
            | OpClass::Call
            | OpClass::Return
            | OpClass::Nop
            | OpClass::Halt => 1,
            OpClass::FpAdd | OpClass::FpMul => 2,
            OpClass::Load => 2,
        }
    }

    /// Returns `true` for control-transfer instructions (anything the fetch
    /// unit must treat as a potential redirect).
    #[must_use]
    #[inline]
    pub fn is_control(self) -> bool {
        matches!(
            self,
            OpClass::CondBranch | OpClass::Jump | OpClass::Call | OpClass::Return
        )
    }

    /// Returns `true` for floating-point arithmetic.
    #[must_use]
    pub fn is_fp(self) -> bool {
        matches!(self, OpClass::FpAdd | OpClass::FpMul)
    }

    /// Short mnemonic used by the disassembler and trace dumps.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpClass::IntAlu => "alu",
            OpClass::IntMul => "mul",
            OpClass::FpAdd => "fadd",
            OpClass::FpMul => "fmul",
            OpClass::Load => "ld",
            OpClass::Store => "st",
            OpClass::CondBranch => "br",
            OpClass::Jump => "jmp",
            OpClass::Call => "call",
            OpClass::Return => "ret",
            OpClass::Nop => "nop",
            OpClass::Halt => "halt",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_ops_map_to_branch_unit() {
        for op in OpClass::ALL {
            if op.is_control() {
                assert_eq!(op.fu_class(), FuClass::Branch, "{op}");
            }
        }
    }

    #[test]
    fn fp_latency_is_two() {
        assert_eq!(OpClass::FpAdd.latency(), 2);
        assert_eq!(OpClass::FpMul.latency(), 2);
    }

    #[test]
    fn fxu_latency_is_one() {
        assert_eq!(OpClass::IntAlu.latency(), 1);
        assert_eq!(OpClass::IntMul.latency(), 1);
    }

    #[test]
    fn cond_branch_is_control() {
        assert!(OpClass::CondBranch.is_control());
    }

    #[test]
    fn index_matches_all_order() {
        for (i, op) in OpClass::ALL.iter().enumerate() {
            assert_eq!(op.index(), i, "{op}");
        }
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in OpClass::ALL {
            assert!(seen.insert(op.mnemonic()), "duplicate mnemonic {op}");
        }
    }
}
