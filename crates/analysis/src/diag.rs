//! The diagnostic model: severities, locations, diagnostics, and reporters.

use std::fmt;

use fetchmech_isa::{Addr, BlockId, BranchId, FuncId};

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note; never affects exit status.
    Info,
    /// Suspicious but not semantics-breaking.
    Warning,
    /// An invariant violation; the IR must not be consumed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Where in the IR a diagnostic points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// The whole program / artifact under analysis.
    Program,
    /// A function.
    Func(FuncId),
    /// A basic block.
    Block(BlockId),
    /// A static conditional branch.
    Branch(BranchId),
    /// A laid-out instruction address.
    Addr(Addr),
    /// A selected trace, by index into the trace list.
    Trace(usize),
    /// A dynamic-instruction position in a compared execution trace.
    DynPos(usize),
    /// A simulated cycle (cycle-level sanitizer findings).
    Cycle(u64),
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Program => write!(f, "program"),
            Location::Func(id) => write!(f, "{id}"),
            Location::Block(id) => write!(f, "{id}"),
            Location::Branch(id) => write!(f, "{id}"),
            Location::Addr(a) => write!(f, "{a}"),
            Location::Trace(i) => write!(f, "trace#{i}"),
            Location::DynPos(i) => write!(f, "dyn#{i}"),
            Location::Cycle(c) => write!(f, "cycle#{c}"),
        }
    }
}

/// One finding from an analysis pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier (e.g. `layout.addr-monotonic`). Mutation tests
    /// key on these, so treat them as API.
    pub rule_id: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// IR location the finding points at.
    pub location: Location,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity, self.rule_id, self.location, self.message
        )
    }
}

/// Collects diagnostics emitted by passes.
#[derive(Debug, Default)]
pub struct DiagnosticSink {
    diags: Vec<Diagnostic>,
}

impl DiagnosticSink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Emits a diagnostic.
    pub(crate) fn emit(
        &mut self,
        rule_id: &'static str,
        severity: Severity,
        location: Location,
        message: impl Into<String>,
    ) {
        self.diags.push(Diagnostic {
            rule_id,
            severity,
            location,
            message: message.into(),
        });
    }

    /// Emits an error-severity diagnostic.
    pub(crate) fn error(
        &mut self,
        rule_id: &'static str,
        location: Location,
        message: impl Into<String>,
    ) {
        self.emit(rule_id, Severity::Error, location, message);
    }

    /// Emits a warning-severity diagnostic.
    pub(crate) fn warn(
        &mut self,
        rule_id: &'static str,
        location: Location,
        message: impl Into<String>,
    ) {
        self.emit(rule_id, Severity::Warning, location, message);
    }

    /// Consumes the sink, returning the collected diagnostics.
    #[must_use]
    pub fn into_diagnostics(self) -> Vec<Diagnostic> {
        self.diags
    }
}

/// Returns `true` if any diagnostic is error-severity.
#[must_use]
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Renders diagnostics for terminals: one `severity[rule] at loc: msg` line
/// each, followed by a summary line.
#[must_use]
pub fn report_human(diags: &[Diagnostic]) -> String {
    use fmt::Write as _;
    let mut out = String::new();
    for d in diags {
        let _ = writeln!(out, "{d}");
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    let _ = writeln!(out, "{errors} error(s), {warnings} warning(s)");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                rule_id: "prog.test-rule",
                severity: Severity::Error,
                location: Location::Block(BlockId(3)),
                message: "something \"quoted\"\nbroke".to_string(),
            },
            Diagnostic {
                rule_id: "layout.other",
                severity: Severity::Warning,
                location: Location::Addr(Addr::new(0x1_0000)),
                message: "suspicious".to_string(),
            },
        ]
    }

    #[test]
    fn human_report_has_summary() {
        let text = report_human(&sample());
        assert!(text.contains("error[prog.test-rule] at B3:"));
        assert!(text.contains("1 error(s), 1 warning(s)"));
    }

    #[test]
    fn has_errors_ignores_warnings() {
        let mut diags = sample();
        assert!(has_errors(&diags));
        diags.retain(|d| d.severity != Severity::Error);
        assert!(!has_errors(&diags));
    }
}
