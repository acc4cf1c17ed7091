//! Profile flow-conservation checks: Kirchhoff-style inflow/outflow balance
//! over execution counts, plus trace-selection preconditions.

use fetchmech_compiler::{Profile, TraceSelectConfig};
use fetchmech_isa::{BlockId, Program, Terminator};

use crate::diag::{DiagnosticSink, Location};
use crate::registry::{Pass, Target};

/// Rule ids emitted by [`FlowPass`].
pub(crate) const FLOW_RULES: &[&str] = &[
    "profile.dims",
    "profile.taken-le-total",
    "profile.branch-vs-block",
    "profile.flow-conservation",
    "profile.empty",
    "profile.trace-preconditions",
];

/// Absolute slack allowed on count comparisons. Profiles are cut mid-trace
/// (once per profiling input) and calls in flight at the cut never reach
/// their return block, so exact equality cannot hold.
const ABS_TOL: u64 = 32;

/// Relative slack allowed on count comparisons, on top of [`ABS_TOL`].
const REL_TOL: f64 = 0.025;

fn within_tolerance(a: u64, b: u64) -> bool {
    let hi = a.max(b);
    let diff = a.abs_diff(b);
    diff <= ABS_TOL + (hi as f64 * REL_TOL) as u64
}

/// Flow-conservation verifier over a [`Profile`]: count dimensions, per-branch
/// sanity, Kirchhoff balance of estimated inflow versus measured block counts,
/// and trace-selection preconditions.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FlowPass;

impl Pass for FlowPass {
    fn name(&self) -> &'static str {
        "profile-flow"
    }

    fn description(&self) -> &'static str {
        "profile invariants: count dimensions, taken<=total, branch-vs-block \
         consistency, Kirchhoff flow conservation, trace-selection preconditions"
    }

    fn rules(&self) -> &'static [&'static str] {
        FLOW_RULES
    }

    fn applies(&self, target: &Target<'_>) -> bool {
        matches!(target, Target::Profile { .. })
    }

    fn run(&self, target: &Target<'_>, sink: &mut DiagnosticSink) {
        if let Target::Profile {
            program,
            profile,
            config,
        } = target
        {
            check_profile(program, profile, sink);
            if let Some(config) = config {
                check_trace_preconditions(config, sink);
            }
        }
    }
}

/// Runs the profile rules (everything except trace preconditions).
pub(crate) fn check_profile(program: &Program, profile: &Profile, sink: &mut DiagnosticSink) {
    // profile.dims: the count vectors must match the program. Everything
    // below indexes by these dimensions, so bail out on mismatch.
    let mut dims_ok = true;
    if profile.num_blocks() != program.num_blocks() {
        sink.error(
            "profile.dims",
            Location::Program,
            format!(
                "profile has {} block counts for a {}-block program",
                profile.num_blocks(),
                program.num_blocks()
            ),
        );
        dims_ok = false;
    }
    if profile.num_branches() != program.num_branches() as usize {
        sink.error(
            "profile.dims",
            Location::Program,
            format!(
                "profile has {} branch counters for {} branches",
                profile.num_branches(),
                program.num_branches()
            ),
        );
        dims_ok = false;
    }
    if !dims_ok {
        return;
    }

    // profile.empty: a profile that saw nothing starves trace selection
    // (every trace becomes a zero-weight singleton).
    if (0..program.num_blocks()).all(|i| profile.block_count(BlockId(i as u32)) == 0) {
        sink.warn(
            "profile.empty",
            Location::Program,
            "profile recorded no block executions; trace selection will degenerate",
        );
        return;
    }

    // profile.taken-le-total.
    let mut branch_counts_ok = true;
    for i in 0..program.num_branches() {
        let id = fetchmech_isa::BranchId(i);
        let (taken, total) = profile.branch_counts(id);
        if taken > total {
            sink.error(
                "profile.taken-le-total",
                Location::Branch(id),
                format!("taken count {taken} exceeds execution count {total}"),
            );
            branch_counts_ok = false;
        }
    }

    // profile.branch-vs-block: a conditional branch executes once per full
    // execution of its block, so its total must track the block count
    // (modulo the trace cut ending inside the block).
    for b in program.blocks() {
        if let Some(id) = b.terminator.branch_id() {
            let (_, total) = profile.branch_counts(id);
            let count = profile.block_count(b.id);
            if !within_tolerance(total, count) {
                sink.error(
                    "profile.branch-vs-block",
                    Location::Branch(id),
                    format!(
                        "branch executed {total} times but its block {} was entered {count} times",
                        b.id
                    ),
                );
            }
        }
    }
    if !branch_counts_ok {
        return; // Inflow estimates below would be nonsense.
    }

    // profile.flow-conservation: estimate each block's inflow from its
    // predecessors' measured counts and compare with the block's own count.
    // Outflow attribution: conditional branches split by taken/not-taken
    // counts; calls flow into both the callee entry (the call) and the
    // return block (the eventual return); halts flow into the program entry
    // (the executor's restart semantics).
    let n = program.num_blocks();
    // Blocks that emit no instructions on the natural profiling layout
    // (empty body, elided fall-through/jump) are invisible to the counter:
    // their measured count always reads zero.
    let elided = |b: &fetchmech_isa::Block| -> bool {
        b.insts.is_empty()
            && match b.terminator {
                Terminator::FallThrough { next } | Terminator::Jump { target: next } => {
                    next.0 == b.id.0 + 1
                }
                _ => false,
            }
    };
    let mut inflow = vec![0u64; n];
    for b in program.blocks() {
        if elided(b) {
            continue; // Relayed below from computed inflow, not the counter.
        }
        let count = profile.block_count(b.id);
        let mut add = |to: BlockId, w: u64| {
            if (to.0 as usize) < n {
                inflow[to.0 as usize] += w;
            }
        };
        match b.terminator {
            Terminator::FallThrough { next } => add(next, count),
            Terminator::Jump { target } => add(target, count),
            Terminator::CondBranch {
                id, taken, fall, ..
            } => {
                let (t, total) = profile.branch_counts(id);
                add(taken, t);
                add(fall, total - t);
            }
            Terminator::Call { callee, return_to } => {
                add(callee, count);
                add(return_to, count);
            }
            Terminator::Return => {}
            Terminator::Halt => add(program.entry(), count),
        }
    }
    // An elided block passes whatever flows into it straight through. It
    // only ever feeds block id+1, so one ascending sweep resolves chains.
    for b in program.blocks() {
        if elided(b) {
            inflow[b.id.0 as usize + 1] += inflow[b.id.0 as usize];
        }
    }
    for b in program.blocks() {
        if elided(b) {
            continue; // The zero measured count is legitimate.
        }
        let count = profile.block_count(b.id);
        let expected = inflow[b.id.0 as usize];
        if !within_tolerance(count, expected) {
            sink.error(
                "profile.flow-conservation",
                Location::Block(b.id),
                format!("block entered {count} times but predecessor edges supply {expected}",),
            );
        }
    }
}

/// Runs the `profile.trace-preconditions` rule over a trace-selection
/// configuration.
pub(crate) fn check_trace_preconditions(config: &TraceSelectConfig, sink: &mut DiagnosticSink) {
    if !config.threshold.is_finite() || config.threshold <= 0.0 {
        sink.error(
            "profile.trace-preconditions",
            Location::Program,
            format!(
                "trace-selection threshold {} must be finite and positive",
                config.threshold
            ),
        );
    } else if config.threshold < 0.5 {
        sink.warn(
            "profile.trace-preconditions",
            Location::Program,
            format!(
                "trace-selection threshold {} below 0.5: a non-majority edge can extend a trace",
                config.threshold
            ),
        );
    }
    if config.max_blocks == 0 {
        sink.error(
            "profile.trace-preconditions",
            Location::Program,
            "trace-selection max_blocks of 0 forbids even singleton traces",
        );
    }
}
