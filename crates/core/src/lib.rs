//! # fetchmech
//!
//! Instruction-fetch alignment mechanisms for high issue rates — a
//! production-quality reproduction of Conte, Menezes, Mills & Patel,
//! *"Optimization of Instruction Fetch Mechanisms for High Issue Rates"*
//! (ISCA 1995).
//!
//! The crate implements the paper's contribution — the **sequential**,
//! **interleaved-sequential**, **banked-sequential**, and **collapsing
//! buffer** fetch mechanisms, plus the **perfect** upper bound — on top of
//! the reproduction's substrates (ISA, synthetic workloads, I-cache, BTB,
//! out-of-order core, and profile-driven compiler optimizations), and
//! provides experiment drivers that regenerate every table and figure in the
//! paper's evaluation.
//!
//! # Quick start
//!
//! ```
//! use fetchmech::{simulate, SchemeKind};
//! use fetchmech::isa::{Layout, LayoutOptions};
//! use fetchmech::pipeline::MachineModel;
//! use fetchmech::workloads::{suite, InputId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machine = MachineModel::p14();
//! let bench = suite::benchmark("compress").expect("known benchmark");
//! let layout = Layout::natural(&bench.program, LayoutOptions::new(machine.block_bytes))?;
//! let trace: Vec<_> = bench.executor(&layout, InputId::TEST, 10_000).collect();
//!
//! let result = simulate(&machine, SchemeKind::CollapsingBuffer, trace);
//! assert!(result.ipc() > 0.5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub(crate) mod cost;
pub mod experiments;
pub mod json;
mod metrics;
pub mod runner;
pub mod sanitize;
pub mod sim;
pub(crate) mod unit;

/// The five fetch schemes (re-exported from `fetchmech-pipeline`, where the
/// type lives so the analysis layer can name schemes without depending on
/// the simulator).
pub use fetchmech_pipeline::scheme;

pub use cost::{all_structures, StructureCost};
pub use fetchmech_pipeline::scheme::{ParseSchemeError, SchemeKind};
pub use runner::{JobQueue, QueueJob, Runner, SubmitError};
pub use sanitize::{check_dominance, measure_eir_checked, simulate_checked, verify_static_bound};
pub use sim::{
    build_fetch_unit, measure_eir, measure_eir_reference, simulate, simulate_reference, EirResult,
    SimResult,
};
pub use unit::{
    AlignedFetchUnit, BlockFetchUnit, BlockPacket, BreakdownStats, FetchConfig, FetchOutcome,
    FetchStats,
};

// Re-export the substrate crates under stable names so downstream users (and
// the examples/benches) need only one dependency.
pub use fetchmech_bpred as bpred;
pub use fetchmech_cache as cache;
pub use fetchmech_compiler as compiler;
pub use fetchmech_isa as isa;
pub use fetchmech_pipeline as pipeline;
pub use fetchmech_workloads as workloads;
