//! Debug-build verification hooks.
//!
//! The analysis crate (`fetchmech-analysis`) sits *above* this crate in the
//! dependency graph, so the IR constructors here cannot call its verifiers
//! directly. Instead they expose process-global hook slots: an embedder (the
//! analysis crate's `install_debug_hooks`, the experiment harness, or a test)
//! installs function pointers once, and every subsequently constructed
//! [`Program`] or [`Layout`] is handed to them
//! — in debug builds only. Release builds skip the calls entirely.
//!
//! A hook returns `Err(report)` to reject the artifact; the constructor then
//! panics with the report, turning silent IR corruption into a loud failure
//! at the construction site.

use std::sync::OnceLock;

use crate::cfg::Program;
use crate::layout::Layout;

/// Verification callback for freshly constructed [`Program`]s.
pub(crate) type ProgramHook = fn(&Program) -> Result<(), String>;

/// Verification callback for freshly constructed [`Layout`]s.
pub(crate) type LayoutHook = fn(&Program, &Layout) -> Result<(), String>;

static PROGRAM_HOOK: OnceLock<ProgramHook> = OnceLock::new();
static LAYOUT_HOOK: OnceLock<LayoutHook> = OnceLock::new();

/// Installs the process-wide program hook. Returns `false` if one was
/// already installed (the first installation wins).
pub fn install_program_hook(hook: ProgramHook) -> bool {
    PROGRAM_HOOK.set(hook).is_ok()
}

/// Installs the process-wide layout hook. Returns `false` if one was
/// already installed (the first installation wins).
pub fn install_layout_hook(hook: LayoutHook) -> bool {
    LAYOUT_HOOK.set(hook).is_ok()
}

/// Runs the installed program hook, if any, in debug builds.
///
/// # Panics
///
/// Panics with the hook's report if the program is rejected.
pub(crate) fn check_program(program: &Program) {
    if cfg!(debug_assertions) {
        if let Some(hook) = PROGRAM_HOOK.get() {
            if let Err(report) = hook(program) {
                panic!("program verification hook rejected the IR:\n{report}");
            }
        }
    }
}

/// Runs the installed layout hook, if any, in debug builds.
///
/// # Panics
///
/// Panics with the hook's report if the layout is rejected.
pub(crate) fn check_layout(program: &Program, layout: &Layout) {
    if cfg!(debug_assertions) {
        if let Some(hook) = LAYOUT_HOOK.get() {
            if let Err(report) = hook(program, layout) {
                panic!("layout verification hook rejected the layout:\n{report}");
            }
        }
    }
}
