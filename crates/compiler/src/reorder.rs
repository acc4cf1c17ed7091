//! Code reordering: trace layout with branch-sense inversion (§4's
//! profile-driven optimization).
//!
//! Traces are selected on the profile, then placed as the superblock former
//! places them at zero code growth: function by function, in flow order
//! (each trace at its head's natural position), with each placed trace
//! pulling in the trace that starts at its tail's most likely successor.
//! Within a trace, blocks are sequential. Branch straightening then inverts
//! every conditional branch whose *taken* edge leads to the next laid block,
//! so the hot path falls through, which is what removes dynamic taken
//! branches (Table 3) and lengthens the sequential runs every fetch
//! mechanism feeds on (Figure 12).

use std::collections::HashSet;

use fetchmech_isa::{BlockId, Layout, LayoutError, LayoutOptions, PadMode, Program};

use crate::passes::straighten;
use crate::profile::Profile;
use crate::superblock::place_traces;
use crate::traceselect::{select_traces, Trace, TraceSelectConfig};

/// The result of code reordering: the edited program, the block order, and
/// the trace-end set (for the pad-trace optimization).
#[derive(Debug, Clone)]
pub struct Reordered {
    /// Program with inverted branch senses where the layout profits.
    pub program: Program,
    /// Block layout order (a permutation of all blocks).
    pub order: Vec<BlockId>,
    /// The traces the order places, as selected on the profile.
    pub traces: Vec<Trace>,
    /// Final block of each trace — the only padding points `pad-trace` uses.
    pub trace_ends: HashSet<BlockId>,
    /// Number of conditional branches whose sense was inverted.
    pub inverted_branches: usize,
}

impl Reordered {
    /// Lays out the reordered program with the given cache-block size and no
    /// padding.
    ///
    /// # Errors
    ///
    /// Propagates [`LayoutError`] (cannot occur for an order produced by
    /// [`reorder`]).
    pub fn layout(&self, block_bytes: u64) -> Result<Layout, LayoutError> {
        Layout::new(&self.program, &self.order, LayoutOptions::new(block_bytes))
    }

    /// Lays out with trace-end nop padding (§4.1 `pad-trace`).
    ///
    /// # Errors
    ///
    /// Propagates [`LayoutError`].
    pub fn layout_pad_trace(&self, block_bytes: u64) -> Result<Layout, LayoutError> {
        let opts =
            LayoutOptions::new(block_bytes).with_pad(PadMode::PadTrace(self.trace_ends.clone()));
        Layout::new(&self.program, &self.order, opts)
    }
}

/// Reorders `program` according to `profile`.
///
/// # Panics
///
/// Panics only on internal invariant violations (the edited program failing
/// validation), which would be a bug.
#[must_use]
pub fn reorder(program: &Program, profile: &Profile, config: &TraceSelectConfig) -> Reordered {
    let traces = select_traces(program, profile, config);
    let order = place_traces(program, profile, &traces);
    let (edited, inverted_branches) = straighten(program, &order);
    // Only traces the profile actually saw get padded ends: padding cold
    // singleton traces would inflate code size with nops that buy nothing.
    let trace_ends: HashSet<BlockId> = traces
        .iter()
        .filter(|t| t.weight > 0)
        .map(|t| *t.blocks.last().expect("nonempty trace"))
        .collect();
    let reordered = Reordered {
        program: edited,
        order,
        traces,
        trace_ends,
        inverted_branches,
    };
    crate::hooks::check_reorder(program, &reordered);
    reordered
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchmech_isa::{OpClass, TraceStats};
    use fetchmech_workloads::{suite, InputId, Workload};

    fn setup(name: &str) -> (Workload, Reordered) {
        let w = suite::benchmark(name).expect("known");
        let p = Profile::collect(&w, &InputId::PROFILE, 30_000);
        let r = reorder(&w.program, &p, &TraceSelectConfig::default());
        (w, r)
    }

    #[test]
    fn order_is_a_permutation() {
        let (w, r) = setup("compress");
        let mut seen = vec![false; w.program.num_blocks()];
        for &b in &r.order {
            assert!(!seen[b.0 as usize]);
            seen[b.0 as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // And it actually lays out.
        let layout = r.layout(16).expect("layout");
        assert!(!layout.code().is_empty());
    }

    #[test]
    fn reordering_preserves_semantics() {
        // The projected body-instruction stream (ops and registers of
        // non-control, non-nop instructions) must be identical between the
        // natural and reordered layouts under the same input.
        let (w, r) = setup("compress");
        let natural = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        let reordered = r.layout(16).expect("layout");
        let reordered_workload = Workload {
            spec: w.spec.clone(),
            program: r.program.clone(),
            behaviors: w.behaviors.clone(),
        };
        let project = |w: &Workload, l: &Layout| -> Vec<_> {
            w.executor(l, InputId::TEST, 40_000)
                .filter(|i| i.ctrl.is_none() && i.op != OpClass::Nop)
                .map(|i| (i.op, i.dest, i.srcs))
                .collect()
        };
        let a = project(&w, &natural);
        let b = project(&reordered_workload, &reordered);
        let n = a.len().min(b.len());
        assert!(n > 10_000, "too little overlap to compare");
        assert_eq!(a[..n], b[..n], "reordering changed program semantics");
    }

    #[test]
    fn reordering_reduces_dynamic_taken_branches() {
        for name in ["compress", "espresso", "li"] {
            let (w, r) = setup(name);
            let natural = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
            let reordered = r.layout(16).expect("layout");
            let rw = Workload {
                spec: w.spec.clone(),
                program: r.program.clone(),
                behaviors: w.behaviors.clone(),
            };
            let rate = |w: &Workload, l: &Layout| {
                let mut stats = TraceStats::new();
                let mut useful = 0u64;
                for i in w.executor(l, InputId::TEST, 60_000) {
                    stats.observe(&i, 16);
                    useful += u64::from(i.ctrl.is_none() && i.op != OpClass::Nop);
                }
                stats.taken_controls as f64 / useful as f64
            };
            let before = rate(&w, &natural);
            let after = rate(&rw, &reordered);
            assert!(
                after < before * 0.95,
                "{name}: taken-branch rate {before:.4} -> {after:.4} (expected >5% reduction)"
            );
        }
    }

    #[test]
    fn inversion_count_is_nonzero_for_branchy_code() {
        let (_, r) = setup("eqntott");
        assert!(r.inverted_branches > 0);
    }

    #[test]
    fn trace_ends_are_trace_tails() {
        let (w, r) = setup("compress");
        // Every trace end must be a block; the count equals the trace count,
        // and each end is the last block of a contiguous run in the order.
        assert!(!r.trace_ends.is_empty());
        for &b in &r.trace_ends {
            assert!((b.0 as usize) < w.program.num_blocks());
        }
    }

    #[test]
    fn pad_trace_layout_aligns_trace_starts() {
        let (_, r) = setup("compress");
        let layout = r.layout_pad_trace(16).expect("layout");
        // After each trace end, the next block starts block-aligned.
        for window in r.order.windows(2) {
            if r.trace_ends.contains(&window[0]) {
                assert_eq!(
                    layout.block_addr(window[1]).byte() % 16,
                    0,
                    "block {} after trace end {} is misaligned",
                    window[1],
                    window[0]
                );
            }
        }
        assert!(layout.stats().pad_nops > 0);
    }
}
