//! # fetchmech-isa
//!
//! The instruction-set substrate for the `fetchmech` reproduction of
//! *"Optimization of Instruction Fetch Mechanisms for High Issue Rates"*
//! (Conte, Menezes, Mills, Patel — ISCA 1995).
//!
//! This crate provides everything the fetch and pipeline simulators consume:
//!
//! * a small fixed-32-bit RISC instruction set ([`OpClass`], [`Reg`],
//!   [`encode()`](encode())/[`decode`]),
//! * control-flow graphs ([`Program`], [`Block`], [`Terminator`]) with stable
//!   branch identities ([`BranchId`]) that survive compiler transforms,
//! * code layout ([`Layout`]) — block ordering, jump materialization/elision,
//!   and the nop-padding modes of the paper's §4.1,
//! * dynamic-trace records ([`DynInst`]) and stream statistics
//!   ([`TraceStats`]), and
//! * a deterministic simulation RNG ([`rng::Pcg64`]).
//!
//! # Examples
//!
//! Build a two-block loop, lay it out, and inspect the branch target:
//!
//! ```
//! use fetchmech_isa::{
//!     Inst, Layout, LayoutOptions, OpClass, ProgramBuilder, Reg, Terminator,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! let f = b.begin_func();
//! let head = b.new_block(f);
//! let exit = b.new_block(f);
//! b.push_inst(head, Inst::new(OpClass::IntAlu, Some(Reg::int(1)), [None, None]));
//! b.set_cond_branch(head, [Some(Reg::int(1)), None], head, exit);
//! b.set_terminator(exit, Terminator::Halt);
//! b.set_entry(head);
//! let program = b.finish()?;
//!
//! let layout = Layout::natural(&program, LayoutOptions::new(16))?;
//! let branch = layout.code().iter().find(|i| i.op == OpClass::CondBranch).unwrap();
//! assert_eq!(branch.ctrl.unwrap().target, Some(layout.entry_addr()));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod cfg;
pub mod dom;
pub mod encode;
pub mod hash;
pub mod hooks;
pub mod layout;
pub mod op;
pub mod reg;
pub mod rng;
pub mod stream;
pub mod trace;
pub mod trace_io;

pub use addr::{Addr, WORD_BYTES};
pub use cfg::{
    Block, BlockId, BranchId, CfgView, EdgeKind, FuncId, Inst, Program, ProgramBuilder,
    ProgramEdit, RawProgram, Terminator, ValidateError,
};
pub use dom::Dominators;
pub use encode::{decode, disasm, encode, encode_image, DecodeError, Decoded, EncodeError};
pub use hash::{fnv1a64, fnv1a64_extend, FNV_OFFSET, FNV_PRIME};
pub use layout::{
    CtrlAttr, LaidInst, Layout, LayoutError, LayoutOptions, LayoutStats, PadMode, RawLayout,
};
pub use op::{FuClass, OpClass};
pub use reg::{Reg, NUM_FP_REGS, NUM_INT_REGS};
pub use stream::{BlockStream, BlockStreamBuilder, SegTemplate, StreamStats};
pub use trace::{DynCtrl, DynInst, TraceStats};
pub use trace_io::{read_trace, write_trace};
