//! # fetchmech-analysis
//!
//! Static-analysis and IR-verification layer for the `fetchmech`
//! reproduction of the ISCA '95 fetch-mechanisms paper.
//!
//! The simulation pipeline trusts a lot of structure: control-flow graphs
//! with dense ids and stable [`BranchId`](fetchmech_isa::BranchId)s, layouts
//! whose addresses are contiguous and whose §4.1 nop padding actually aligns
//! blocks, profiles whose counts conserve flow, and compiler transforms that
//! change *placement* without changing *computation*. This crate makes that
//! structure checkable:
//!
//! * a [`Diagnostic`] model with stable rule ids, severities, and human/JSON
//!   reporters ([`report_human`]; the JSON reporter lives in the core
//!   crate's shared `fetchmech::json` module),
//! * a [`Registry`] of [`Pass`]es over typed [`Target`]s,
//! * three pass families: structural (`ProgramPass`, `LayoutPass`), profile
//!   flow conservation (`FlowPass`), and transform equivalence
//!   (`TracesPass`, `TransformPass`, `TraceDiffPass`),
//! * translation validation for the compiler's SSA-era pass pipeline
//!   ([`optverify::OptVerifyPass`]): an SSA well-formedness lint, per-pass
//!   re-proof of every declared edit, profile flow conservation across each
//!   transform, and dynamic observable-trace equivalence
//!   ([`verify_optimized`]), plus the static EIR-delta report
//!   ([`eir_delta`]),
//! * debug-build construction hooks ([`install_debug_hooks`]) so every
//!   artifact built anywhere in the process is verified at its source,
//! * the cycle-level [`sanitize`] engine ([`CycleSanitizer`]), which audits
//!   a *running* simulation — packet geometry, issue/squash conservation,
//!   predictor accounting, and cross-scheme EIR dominance — fed by the
//!   simulator's `sanitize` feature, and
//! * the `fetchmech-lint` CLI (hosted in the root `fetchmech-repro` crate so
//!   it can drive the simulator), which runs the whole registry over any
//!   suite benchmark.
//!
//! # Examples
//!
//! Verify a generated workload and its optimized layout:
//!
//! ```
//! use fetchmech_analysis::{has_errors, verify_layout, verify_program};
//! use fetchmech_compiler::{reorder, Profile, TraceSelectConfig};
//! use fetchmech_workloads::{suite, InputId};
//!
//! let w = suite::benchmark("compress").expect("known benchmark");
//! assert!(!has_errors(&verify_program(&w.program)));
//!
//! let profile = Profile::collect(&w, &InputId::PROFILE, 10_000);
//! let r = reorder(&w.program, &profile, &TraceSelectConfig::default());
//! let layout = r.layout(16).expect("valid order");
//! assert!(!has_errors(&verify_layout(&r.program, &layout)));
//! ```

pub mod dataflow;
pub(crate) mod diag;
pub(crate) mod flow;
pub(crate) mod geometry;
pub(crate) mod hooks;
pub(crate) mod optverify;
pub(crate) mod registry;
pub mod sanitize;
pub(crate) mod stream;
pub(crate) mod structural;
pub(crate) mod transform;

pub use dataflow::{
    dead_writes, liveness, local_value_numbering, reachability, Analysis, DataflowPass, Direction,
    Dominators, Facts, ReachingDefs,
};
pub use diag::{has_errors, report_human, Diagnostic, DiagnosticSink, Location, Severity};
pub use geometry::{analyze_geometry, BlockGeometry, GeometryReport, SchemeGeometry};
pub use hooks::install_debug_hooks;
pub use optverify::{
    check_app_dynamic, check_application, check_opt_static, check_ssa, eir_delta, EirDelta,
    OptVerifyPass, WeightedEir, OPT_RULES,
};
pub use registry::{Pass, Registry, Target};
pub use sanitize::{
    check_scheme_dominance, check_static_bound, CycleSanitizer, FetchEnv, SanitizeConfig,
};
pub use stream::StreamPass;

use fetchmech_compiler::{Optimized, Profile, Reordered, Trace, TraceSelectConfig};
use fetchmech_isa::{Layout, Program};
use fetchmech_workloads::Workload;

/// Verifies a control-flow graph with the default passes.
#[must_use]
pub fn verify_program(program: &Program) -> Vec<Diagnostic> {
    Registry::with_default_passes().run(&Target::Program(program))
}

/// Verifies a layout (and its underlying program) with the default passes.
#[must_use]
pub fn verify_layout(program: &Program, layout: &Layout) -> Vec<Diagnostic> {
    Registry::with_default_passes().run(&Target::Layout { program, layout })
}

/// Verifies a profile against its program, optionally precondition-checking
/// a trace-selection configuration.
#[must_use]
pub fn verify_profile(
    program: &Program,
    profile: &Profile,
    config: Option<&TraceSelectConfig>,
) -> Vec<Diagnostic> {
    Registry::with_default_passes().run(&Target::Profile {
        program,
        profile,
        config,
    })
}

/// Verifies trace-selection output against its program.
#[must_use]
pub fn verify_traces(program: &Program, traces: &[Trace]) -> Vec<Diagnostic> {
    Registry::with_default_passes().run(&Target::Traces { program, traces })
}

/// Verifies a reorder transform statically (CFG isomorphism modulo
/// branch-sense inversion).
#[must_use]
pub fn verify_transform(original: &Program, reordered: &Reordered) -> Vec<Diagnostic> {
    Registry::with_default_passes().run(&Target::Transform {
        original,
        reordered,
    })
}

/// Verifies a run-length block stream with the default passes.
#[must_use]
pub fn verify_stream(stream: &fetchmech_isa::BlockStream) -> Vec<Diagnostic> {
    Registry::with_default_passes().run(&Target::Stream(stream))
}

/// Verifies a reorder transform dynamically by executing `insts`
/// instructions of the workload on each side and diffing the projected
/// streams.
#[must_use]
pub fn verify_trace_diff(
    workload: &Workload,
    reordered: &Reordered,
    insts: u64,
) -> Vec<Diagnostic> {
    Registry::with_default_passes().run(&Target::TraceDiff {
        workload,
        reordered,
        insts,
    })
}

/// Translation-validates an optimization-pipeline result: static rules plus
/// per-application dynamic trace equivalence over `insts` instructions.
#[must_use]
pub fn verify_optimized(
    workload: &Workload,
    profile: &Profile,
    optimized: &Optimized,
    insts: u64,
) -> Vec<Diagnostic> {
    Registry::with_default_passes().run(&Target::Opt {
        workload,
        profile,
        optimized,
        insts,
    })
}
