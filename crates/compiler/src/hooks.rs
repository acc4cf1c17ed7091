//! Debug-build verification hooks for compiler artifacts.
//!
//! Mirrors `fetchmech_isa::hooks`: the analysis crate cannot be a dependency
//! of this crate (it depends on us), so [`Profile`]
//! collection, trace selection, and reordering expose process-global hook
//! slots instead. An embedder installs verifiers once; debug builds then
//! verify every produced artifact at its construction site. Release builds
//! skip the calls.

use std::sync::OnceLock;

use fetchmech_isa::Program;

use crate::passes::Optimized;
use crate::profile::Profile;
use crate::reorder::Reordered;
use crate::traceselect::Trace;

/// Verification callback for collected [`Profile`]s.
pub(crate) type ProfileHook = fn(&Program, &Profile) -> Result<(), String>;

/// Verification callback for trace-selection output.
pub(crate) type TracesHook = fn(&Program, &[Trace]) -> Result<(), String>;

/// Verification callback for reorder output (original program first).
pub(crate) type ReorderHook = fn(&Program, &Reordered) -> Result<(), String>;

/// Verification callback for optimization-pipeline output (original program
/// first). Static translation validation only — the hook runs on every
/// `optimize` call, so dynamic trace comparison is left to explicit
/// verification entry points.
pub(crate) type OptimizeHook = fn(&Program, &Optimized) -> Result<(), String>;

static PROFILE_HOOK: OnceLock<ProfileHook> = OnceLock::new();
static TRACES_HOOK: OnceLock<TracesHook> = OnceLock::new();
static REORDER_HOOK: OnceLock<ReorderHook> = OnceLock::new();
static OPTIMIZE_HOOK: OnceLock<OptimizeHook> = OnceLock::new();

/// Installs the process-wide profile hook. Returns `false` if one was
/// already installed (the first installation wins).
pub fn install_profile_hook(hook: ProfileHook) -> bool {
    PROFILE_HOOK.set(hook).is_ok()
}

/// Installs the process-wide trace-selection hook. Returns `false` if one
/// was already installed (the first installation wins).
pub fn install_traces_hook(hook: TracesHook) -> bool {
    TRACES_HOOK.set(hook).is_ok()
}

/// Installs the process-wide reorder hook. Returns `false` if one was
/// already installed (the first installation wins).
pub fn install_reorder_hook(hook: ReorderHook) -> bool {
    REORDER_HOOK.set(hook).is_ok()
}

/// Installs the process-wide optimize hook. Returns `false` if one was
/// already installed (the first installation wins).
pub fn install_optimize_hook(hook: OptimizeHook) -> bool {
    OPTIMIZE_HOOK.set(hook).is_ok()
}

/// Runs the installed profile hook, if any, in debug builds.
///
/// # Panics
///
/// Panics with the hook's report if the profile is rejected.
pub(crate) fn check_profile(program: &Program, profile: &Profile) {
    if cfg!(debug_assertions) {
        if let Some(hook) = PROFILE_HOOK.get() {
            if let Err(report) = hook(program, profile) {
                panic!("profile verification hook rejected the profile:\n{report}");
            }
        }
    }
}

/// Runs the installed trace-selection hook, if any, in debug builds.
///
/// # Panics
///
/// Panics with the hook's report if the traces are rejected.
pub(crate) fn check_traces(program: &Program, traces: &[Trace]) {
    if cfg!(debug_assertions) {
        if let Some(hook) = TRACES_HOOK.get() {
            if let Err(report) = hook(program, traces) {
                panic!("trace-selection verification hook rejected the traces:\n{report}");
            }
        }
    }
}

/// Runs the installed reorder hook, if any, in debug builds.
///
/// # Panics
///
/// Panics with the hook's report if the reorder output is rejected.
pub(crate) fn check_reorder(original: &Program, reordered: &Reordered) {
    if cfg!(debug_assertions) {
        if let Some(hook) = REORDER_HOOK.get() {
            if let Err(report) = hook(original, reordered) {
                panic!("reorder verification hook rejected the transform:\n{report}");
            }
        }
    }
}

/// Runs the installed optimize hook, if any, in debug builds.
///
/// # Panics
///
/// Panics with the hook's report if the pipeline output is rejected.
pub(crate) fn check_optimize(original: &Program, optimized: &Optimized) {
    if cfg!(debug_assertions) {
        if let Some(hook) = OPTIMIZE_HOOK.get() {
            if let Err(report) = hook(original, optimized) {
                panic!("optimize verification hook rejected the pipeline output:\n{report}");
            }
        }
    }
}
