//! # fetchmech-workloads
//!
//! Synthetic benchmark workloads and the trace executor for the `fetchmech`
//! reproduction of the ISCA '95 fetch-mechanisms paper.
//!
//! The paper drives its simulator with `spike` traces of SPEC92 binaries on
//! HP PA-RISC workstations — inputs this repository cannot reproduce. This
//! crate substitutes **synthetic benchmarks**: deterministic control-flow
//! graph generators ([`WorkloadSpec`], [`Workload::generate`]) calibrated per
//! named benchmark ([`suite`]), per-branch stochastic behaviour models
//! ([`BranchModel`], [`BehaviorMap`]), and an [`Executor`] that walks a laid-
//! out program and emits the dynamic instruction stream. Multiple program
//! *inputs* ([`InputId`]) perturb branch behaviour deterministically,
//! reproducing the profile-vs-test-input methodology of the paper's §4.
//!
//! # Examples
//!
//! Generate the `compress` stand-in and trace 1000 instructions:
//!
//! ```
//! use fetchmech_isa::{Layout, LayoutOptions};
//! use fetchmech_workloads::{suite, InputId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let w = suite::benchmark("compress").expect("known benchmark");
//! let layout = Layout::natural(&w.program, LayoutOptions::new(16))?;
//! let trace: Vec<_> = w.executor(&layout, InputId::TEST, 1000).collect();
//! assert_eq!(trace.len(), 1000);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub(crate) mod behavior;
pub(crate) mod exec;
pub(crate) mod spec;
pub(crate) mod stream;
pub mod suite;

pub use behavior::{BehaviorMap, BehaviorState, BranchModel};
pub use exec::{Executor, InputId};
pub use spec::{Workload, WorkloadClass, WorkloadSpec};
