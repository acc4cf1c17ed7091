//! # fetchmech-compiler
//!
//! The profile-driven compiler optimizations of the ISCA '95 fetch-mechanisms
//! paper's §4:
//!
//! * [`Profile`] — block and branch-edge counts gathered from training
//!   inputs (the paper's five-profile-inputs methodology),
//! * [`select_traces`] — Fisher-style trace selection,
//! * [`reorder()`](reorder()) — trace layout with branch-sense inversion
//!   (code reordering, Figure 12 / Table 3),
//! * [`layout_pad_all`] and [`Reordered::layout_pad_trace`] — the `pad-all`
//!   and `pad-trace` nop-insertion schemes (Figure 13), with [`expansion`]
//!   measuring their code growth (Table 4),
//! * [`optimize`] — the SSA-era pass pipeline ([`lvn()`](lvn()),
//!   [`dce()`](dce()), [`superblock()`](superblock()), branch
//!   straightening), each application recorded for translation validation
//!   by the analysis crate.
//!
//! # Examples
//!
//! Profile a workload on its training inputs and reorder it:
//!
//! ```
//! use fetchmech_compiler::{reorder, Profile, TraceSelectConfig};
//! use fetchmech_workloads::{suite, InputId};
//!
//! let w = suite::benchmark("compress").expect("known benchmark");
//! let profile = Profile::collect(&w, &InputId::PROFILE, 10_000);
//! let reordered = reorder(&w.program, &profile, &TraceSelectConfig::default());
//! let layout = reordered.layout(16).expect("valid order");
//! assert_eq!(layout.order().len(), w.program.num_blocks());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dce;
pub mod hooks;
pub mod lvn;
pub(crate) mod pad;
pub(crate) mod passes;
pub(crate) mod profile;
pub mod reorder;
pub(crate) mod ssa;
pub mod superblock;
pub(crate) mod traceselect;

pub use dce::{dce, DceResult, DeadSite};
pub use lvn::{copy_op, lvn, lvn_pure, LvnResult, LvnRewrite};
pub use pad::{expansion, layout_pad_all, PadReport};
pub use passes::{optimize, OptimizeConfig, Optimized, PassApplication, PassEdit, PassKind};
pub use profile::Profile;
pub use reorder::{reorder, Reordered};
pub use ssa::{build_ssa, PhiNode, SsaDef, SsaForm, SsaValue};
pub use superblock::{superblock, SuperblockResult};
pub use traceselect::{select_traces, Trace, TraceSelectConfig};
