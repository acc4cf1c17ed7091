//! The pass registry: analysis targets, the [`Pass`] trait, and the
//! [`Registry`] that dispatches targets to every applicable pass.

use std::fmt;

use fetchmech_compiler::{Optimized, Profile, Reordered, Trace};
use fetchmech_isa::{BlockStream, Layout, Program};
use fetchmech_workloads::Workload;

use crate::diag::{Diagnostic, DiagnosticSink};

/// One artifact (or pair of artifacts) to analyze.
///
/// Passes declare which targets they understand via [`Pass::applies`]; the
/// registry hands every target to every applicable pass.
#[derive(Clone, Copy)]
pub enum Target<'a> {
    /// A control-flow graph on its own.
    Program(&'a Program),
    /// A laid-out program.
    Layout {
        /// The program the layout was produced from.
        program: &'a Program,
        /// The layout under analysis.
        layout: &'a Layout,
    },
    /// An execution profile against its program.
    Profile {
        /// The profiled program.
        program: &'a Program,
        /// The profile under analysis.
        profile: &'a Profile,
    },
    /// Trace-selection output against its program.
    Traces {
        /// The program the traces were selected from.
        program: &'a Program,
        /// The selected traces.
        traces: &'a [Trace],
    },
    /// A compiler transform: the original program versus its reordering.
    Transform {
        /// The pre-transform program.
        original: &'a Program,
        /// The reorder result (edited program + order + trace ends).
        reordered: &'a Reordered,
    },
    /// A run-length block stream (the simulator fast path's input).
    Stream(&'a BlockStream),
    /// Dynamic-equivalence check: execute the workload pre and post
    /// transform and diff the projected instruction streams.
    TraceDiff {
        /// The workload (program + behaviour models) being transformed.
        workload: &'a Workload,
        /// The reorder result to execute against the original.
        reordered: &'a Reordered,
        /// Dynamic instructions to execute on each side.
        insts: u64,
    },
    /// An optimization-pipeline result: translation-validate every recorded
    /// pass application, statically and dynamically.
    Opt {
        /// The workload the pipeline started from (its program is the
        /// pipeline input).
        workload: &'a Workload,
        /// The profile the pipeline was driven by.
        profile: &'a Profile,
        /// The pipeline result with its per-pass applications.
        optimized: &'a Optimized,
        /// Dynamic instructions to execute per application side.
        insts: u64,
    },
}

impl fmt::Debug for Target<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Target::Program(_) => "Program",
            Target::Layout { .. } => "Layout",
            Target::Profile { .. } => "Profile",
            Target::Traces { .. } => "Traces",
            Target::Transform { .. } => "Transform",
            Target::Stream(_) => "Stream",
            Target::TraceDiff { .. } => "TraceDiff",
            Target::Opt { .. } => "Opt",
        };
        write!(f, "Target::{name}")
    }
}

/// An analysis pass: a named family of rules over one target kind.
pub trait Pass {
    /// Stable pass name (usable as a CLI filter).
    fn name(&self) -> &'static str;

    /// One-line description of what the pass checks.
    fn description(&self) -> &'static str;

    /// The rule ids this pass can emit.
    fn rules(&self) -> &'static [&'static str];

    /// Returns `true` if the pass knows how to check `target`.
    fn applies(&self, target: &Target<'_>) -> bool;

    /// Checks `target`, emitting findings into `sink`.
    fn run(&self, target: &Target<'_>, sink: &mut DiagnosticSink);
}

impl fmt::Debug for dyn Pass + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pass({})", self.name())
    }
}

/// An ordered collection of passes.
#[derive(Debug, Default)]
pub struct Registry {
    passes: Vec<Box<dyn Pass>>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Creates a registry with every built-in pass registered, in the order
    /// structural → flow → traces → transform.
    #[must_use]
    pub fn with_default_passes() -> Self {
        let mut r = Self::new();
        r.register(Box::new(crate::structural::ProgramPass));
        r.register(Box::new(crate::structural::LayoutPass));
        r.register(Box::new(crate::flow::FlowPass));
        r.register(Box::new(crate::transform::TracesPass));
        r.register(Box::new(crate::transform::TransformPass));
        r.register(Box::new(crate::transform::TraceDiffPass));
        r.register(Box::new(crate::optverify::OptVerifyPass));
        r.register(Box::new(crate::stream::StreamPass));
        r.register(Box::new(crate::dataflow::DataflowPass::default()));
        r.register(Box::new(crate::sanitize::SanitizerCatalogPass));
        r
    }

    /// Appends a pass.
    pub(crate) fn register(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// Returns the registered passes.
    #[must_use]
    pub fn passes(&self) -> &[Box<dyn Pass>] {
        &self.passes
    }

    /// Runs every applicable pass over `target` and returns the findings.
    #[must_use]
    pub(crate) fn run(&self, target: &Target<'_>) -> Vec<Diagnostic> {
        self.run_filtered(target, |_| true)
    }

    /// Runs the applicable passes whose name satisfies `keep`.
    #[must_use]
    pub fn run_filtered(
        &self,
        target: &Target<'_>,
        keep: impl Fn(&str) -> bool,
    ) -> Vec<Diagnostic> {
        let mut sink = DiagnosticSink::new();
        for pass in &self.passes {
            if keep(pass.name()) && pass.applies(target) {
                pass.run(target, &mut sink);
            }
        }
        sink.into_diagnostics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use fetchmech_workloads::{suite, InputId};

    #[test]
    fn default_registry_covers_every_target_kind() {
        let r = Registry::with_default_passes();
        let w = suite::benchmark("compress").expect("known");
        let profile = Profile::collect(&w, &InputId::PROFILE, 5_000);
        let traces = fetchmech_compiler::select_traces(&w.program, &profile);
        let reordered = fetchmech_compiler::reorder(&w.program, &profile);
        let layout =
            fetchmech_isa::Layout::natural(&w.program, fetchmech_isa::LayoutOptions::new(16))
                .expect("layout");
        let stream = w.block_stream(&layout, InputId::TEST, 2_000);
        let optimized =
            fetchmech_compiler::optimize(&w.program, &profile, &fetchmech_compiler::PassKind::ALL);
        let targets = [
            Target::Program(&w.program),
            Target::Layout {
                program: &w.program,
                layout: &layout,
            },
            Target::Profile {
                program: &w.program,
                profile: &profile,
            },
            Target::Traces {
                program: &w.program,
                traces: &traces,
            },
            Target::Transform {
                original: &w.program,
                reordered: &reordered,
            },
            Target::TraceDiff {
                workload: &w,
                reordered: &reordered,
                insts: 2_000,
            },
            Target::Stream(&stream),
            Target::Opt {
                workload: &w,
                profile: &profile,
                optimized: &optimized,
                insts: 2_000,
            },
        ];
        for target in &targets {
            let applicable = r.passes().iter().filter(|p| p.applies(target)).count();
            assert!(applicable > 0, "no pass applies to {target:?}");
        }
    }

    #[test]
    fn pass_filter_excludes_by_name() {
        let r = Registry::with_default_passes();
        let w = suite::benchmark("li").expect("known");
        let diags = r.run_filtered(&Target::Program(&w.program), |name| name == "no-such-pass");
        assert!(diags.is_empty());
    }

    #[test]
    fn rule_ids_are_unique_across_passes() {
        let r = Registry::with_default_passes();
        let mut seen = std::collections::HashSet::new();
        for pass in r.passes() {
            for rule in pass.rules() {
                assert!(seen.insert(*rule), "duplicate rule id {rule}");
            }
        }
        assert!(
            seen.len() >= 20,
            "expected a substantial rule set, got {}",
            seen.len()
        );
        let _ = Severity::Info; // silence unused import in minimal builds
    }
}
