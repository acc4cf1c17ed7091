//! Wires the verifier passes into the debug-build hook slots exposed by
//! `fetchmech_isa::hooks` and `fetchmech_compiler::hooks`.
//!
//! After [`install_debug_hooks`] runs, every `Program`, `Layout`, `Profile`,
//! trace selection, and reorder produced anywhere in the process is verified
//! at its construction site (debug builds only); an invariant violation
//! panics with the full human-readable diagnostic report. The dynamic
//! trace-diff pass is *not* hooked — it executes tens of thousands of
//! instructions per check and is meant for explicit lint runs.

use fetchmech_compiler::{Optimized, Profile, Reordered, Trace};
use fetchmech_isa::{Layout, Program};

use crate::diag::{has_errors, report_human, Diagnostic, DiagnosticSink};

fn gate(diags: Vec<Diagnostic>) -> Result<(), String> {
    if has_errors(&diags) {
        Err(report_human(&diags))
    } else {
        Ok(())
    }
}

fn program_hook(program: &Program) -> Result<(), String> {
    gate(crate::verify_program(program))
}

fn layout_hook(program: &Program, layout: &Layout) -> Result<(), String> {
    gate(crate::verify_layout(program, layout))
}

fn profile_hook(program: &Program, profile: &Profile) -> Result<(), String> {
    gate(crate::verify_profile(program, profile))
}

fn traces_hook(program: &Program, traces: &[Trace]) -> Result<(), String> {
    gate(crate::verify_traces(program, traces))
}

fn reorder_hook(original: &Program, reordered: &Reordered) -> Result<(), String> {
    gate(crate::verify_transform(original, reordered))
}

/// Static translation validation only: the hook fires inside `optimize`,
/// where no profile or behaviour models are in scope, so flow conservation
/// and the dynamic trace checks are left to explicit `verify_optimized`
/// runs (the `fetchmech-lint opt --verify` path).
fn optimize_hook(original: &Program, optimized: &Optimized) -> Result<(), String> {
    let mut sink = DiagnosticSink::new();
    crate::optverify::check_opt_static(original, optimized, None, &mut sink);
    gate(sink.into_diagnostics())
}

/// Installs every verifier as a debug-build construction hook.
///
/// Idempotent and race-free: hook slots are first-install-wins, so calling
/// this from multiple tests or experiment entry points is safe. Returns
/// `true` if at least one hook was newly installed.
pub fn install_debug_hooks() -> bool {
    let mut any = false;
    any |= fetchmech_isa::hooks::install_program_hook(program_hook);
    any |= fetchmech_isa::hooks::install_layout_hook(layout_hook);
    any |= fetchmech_compiler::hooks::install_profile_hook(profile_hook);
    any |= fetchmech_compiler::hooks::install_traces_hook(traces_hook);
    any |= fetchmech_compiler::hooks::install_reorder_hook(reorder_hook);
    any |= fetchmech_compiler::hooks::install_optimize_hook(optimize_hook);
    any
}
