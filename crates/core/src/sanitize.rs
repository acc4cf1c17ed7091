//! Simulator-side wiring for the cycle-level sanitizer.
//!
//! The checking engine itself lives in
//! [`fetchmech_analysis::sanitize`] — an independently-coded replay of the
//! paper's delivery rules. This module decides *when* it runs and feeds it
//! the simulator's event stream:
//!
//! * `ENABLED` — the gate. Debug builds sanitize every [`simulate`] and
//!   [`measure_eir`](crate::sim::measure_eir) call and panic on findings
//!   (the checks become hard assertions, like `debug_assert!`). Release
//!   builds compile the observation calls out entirely unless the
//!   `sanitize` cargo feature is on.
//! * [`simulate_checked`] / [`measure_eir_checked`] — always-available
//!   variants that run the sanitizer regardless of the gate and *return*
//!   the findings instead of panicking (the `fetchmech-lint sanitize`
//!   subcommand and the clean-suite tests).
//! * [`check_dominance`] — the differential harness: measures EIR for every
//!   scheme over one shared zero-copy trace and checks the paper's
//!   cross-scheme ordering (perfect ≥ collapsing ≥ banked/interleaved ≥
//!   sequential).
//!
//! [`simulate`]: crate::sim::simulate

use std::sync::Arc;

use fetchmech_analysis::sanitize::{
    check_scheme_dominance, check_static_bound, DOMINANCE_TOLERANCE, STATIC_BOUND_TOLERANCE,
};
use fetchmech_analysis::{analyze_geometry, CycleSanitizer, Diagnostic, FetchEnv, SanitizeConfig};
use fetchmech_isa::{DynInst, Layout, Program};
use fetchmech_pipeline::{MachineModel, TraceCursor};

use crate::scheme::SchemeKind;
use crate::sim::{EirResult, SimResult};

/// `true` when plain [`simulate`](crate::sim::simulate) and
/// [`measure_eir`](crate::sim::measure_eir) self-check every run: debug
/// builds always, release builds only with the `sanitize` cargo feature.
///
/// The constant lets LLVM erase every sanitizer branch from an unsanitized
/// release simulator — the observation calls sit behind `if ENABLED`.
pub(crate) const ENABLED: bool = cfg!(any(feature = "sanitize", debug_assertions));

/// Builds the sanitizer's machine-parameter mirror for one run.
pub(crate) fn fetch_env(machine: &MachineModel, scheme: SchemeKind, track_issue: bool) -> FetchEnv {
    FetchEnv {
        scheme,
        issue_rate: machine.issue_rate,
        block_bytes: machine.block_bytes,
        spec_depth: machine.spec_depth,
        fetch_penalty: machine.fetch_penalty,
        track_issue,
    }
}

/// Runs a full simulation with the sanitizer attached, returning the result
/// *and* every invariant finding (empty = clean run).
///
/// Unlike the self-check inside [`simulate`](crate::sim::simulate) (debug
/// builds, or the `sanitize` feature), this never panics; callers decide
/// what a finding means (the lint CLI turns errors into a nonzero exit).
#[must_use]
pub fn simulate_checked(
    machine: &MachineModel,
    scheme: SchemeKind,
    trace: impl Into<TraceCursor>,
) -> (SimResult, Vec<Diagnostic>) {
    simulate_checked_with(machine, scheme, trace, SanitizeConfig::default())
}

/// [`simulate_checked`] with an explicit rule configuration.
#[must_use]
pub fn simulate_checked_with(
    machine: &MachineModel,
    scheme: SchemeKind,
    trace: impl Into<TraceCursor>,
    cfg: SanitizeConfig,
) -> (SimResult, Vec<Diagnostic>) {
    let mut san = CycleSanitizer::with_config(fetch_env(machine, scheme, true), cfg);
    let result = crate::sim::simulate_observed(machine, scheme, trace.into(), Some(&mut san));
    (result, san.into_diagnostics())
}

/// Runs a fetch-only EIR measurement with the sanitizer attached (issue
/// tracking off: there is no back end to issue into).
#[must_use]
pub fn measure_eir_checked(
    machine: &MachineModel,
    scheme: SchemeKind,
    trace: impl Into<TraceCursor>,
) -> (EirResult, Vec<Diagnostic>) {
    let mut san = CycleSanitizer::new(fetch_env(machine, scheme, false));
    let result = crate::sim::measure_eir_observed(machine, scheme, trace.into(), Some(&mut san));
    (result, san.into_diagnostics())
}

/// The cross-scheme differential harness: measures every scheme's EIR over
/// one shared trace (zero-copy — each cursor is a refcount bump on the same
/// `Arc`) with the per-cycle sanitizer attached, then checks the paper's
/// dominance ordering. Returns the per-scheme results plus all findings,
/// labeled with `label` (typically the benchmark name).
#[must_use]
pub fn check_dominance(
    machine: &MachineModel,
    label: &str,
    trace: &Arc<[DynInst]>,
) -> (Vec<EirResult>, Vec<Diagnostic>) {
    let mut diags = Vec::new();
    let mut results = Vec::with_capacity(SchemeKind::ALL.len());
    for scheme in SchemeKind::ALL {
        let (r, d) = measure_eir_checked(machine, scheme, trace);
        diags.extend(d);
        results.push(r);
    }
    let eirs: Vec<(SchemeKind, f64)> = results.iter().map(|r| (r.scheme, r.eir())).collect();
    diags.extend(check_scheme_dominance(label, &eirs, DOMINANCE_TOLERANCE));
    (results, diags)
}

/// The static-bound cross-check (`sanitize.static_bound`): computes the
/// static fetch-geometry EIR upper bound for every scheme from the program,
/// layout, and machine alone, and checks each measured EIR against it.
///
/// The bound is sound for any dynamic trace of the layout (see
/// [`fetchmech_analysis::analyze_geometry`]), so a violation always means a bug —
/// the fetch unit delivered a packet its scheme cannot form, or the
/// geometry model mis-describes the scheme. Pair with [`check_dominance`]:
/// dominance relates schemes to each other, the static bound anchors each
/// of them to first principles.
#[must_use]
pub fn verify_static_bound(
    machine: &MachineModel,
    label: &str,
    program: &Program,
    layout: &Layout,
    eirs: &[EirResult],
) -> Vec<Diagnostic> {
    let report = analyze_geometry(program, layout, machine);
    let cells: Vec<(SchemeKind, f64, f64)> = eirs
        .iter()
        .map(|r| (r.scheme, r.eir(), report.scheme(r.scheme).eir_bound))
        .collect();
    check_static_bound(label, &cells, STATIC_BOUND_TOLERANCE)
}

/// Panics with a rendered report if `diags` contains errors — the behaviour
/// of the [`ENABLED`]-gated self-check inside the plain entry points.
pub(crate) fn assert_clean(what: &str, diags: &[Diagnostic]) {
    if fetchmech_analysis::has_errors(diags) {
        panic!(
            "cycle sanitizer found invariant violations in {what}:\n{}",
            fetchmech_analysis::report_human(diags)
        );
    }
}
