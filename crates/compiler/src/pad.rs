//! The §4.1 nop-padding optimizations: `pad-all` and `pad-trace`.
//!
//! `pad-all` pads every basic block to the next cache-block boundary with no
//! profile information; `pad-trace` pads only trace ends (requiring the
//! reordering pass). Table 4 reports the resulting code expansion; Figure 13
//! their effect on the *sequential* fetch scheme.

use fetchmech_isa::{Layout, LayoutError, LayoutOptions, PadMode, Program};

use crate::reorder::Reordered;

/// Lays out `program` in natural order with every block padded to a cache
/// block boundary (`pad-all`).
///
/// # Errors
///
/// Propagates [`LayoutError`] (cannot occur for natural order).
pub fn layout_pad_all(program: &Program, block_bytes: u64) -> Result<Layout, LayoutError> {
    Layout::natural(
        program,
        LayoutOptions::new(block_bytes).with_pad(PadMode::PadAll),
    )
}

/// Code-expansion report for one padding configuration (a Table 4 row cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PadReport {
    /// Instructions before padding.
    pub base_insts: usize,
    /// Padding nops inserted.
    pub pad_nops: usize,
    /// Nops as a percentage of the unpadded code size.
    pub pad_pct: f64,
}

impl PadReport {
    /// Extracts the report from a laid-out program.
    #[must_use]
    pub(crate) fn from_layout(layout: &Layout) -> Self {
        let stats = layout.stats();
        Self {
            base_insts: stats.total_insts - stats.pad_nops,
            pad_nops: stats.pad_nops,
            pad_pct: stats.pad_pct(),
        }
    }
}

/// Computes Table 4's pair of expansion figures for one benchmark and block
/// size: `(pad-all, pad-trace)`.
///
/// `pad-all` is measured on the natural layout (it needs no profile);
/// `pad-trace` on the reordered layout, as in the paper.
///
/// # Errors
///
/// Propagates [`LayoutError`] from the layout engine.
pub fn expansion(
    program: &Program,
    reordered: &Reordered,
    block_bytes: u64,
) -> Result<(PadReport, PadReport), LayoutError> {
    let all = layout_pad_all(program, block_bytes)?;
    let trace = reordered.layout_pad_trace(block_bytes)?;
    Ok((PadReport::from_layout(&all), PadReport::from_layout(&trace)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::reorder::reorder;
    use crate::traceselect::TraceSelectConfig;
    use fetchmech_workloads::{suite, InputId};

    #[test]
    fn pad_all_expansion_grows_with_block_size() {
        let w = suite::benchmark("compress").expect("known");
        let pcts: Vec<f64> = [16, 32, 64]
            .into_iter()
            .map(|bs| {
                PadReport::from_layout(&layout_pad_all(&w.program, bs).expect("layout")).pad_pct
            })
            .collect();
        assert!(pcts[0] < pcts[1] && pcts[1] < pcts[2], "{pcts:?}");
        // Table 4's magnitudes: tens of percent at 16 B, >100% at 64 B.
        assert!(pcts[0] > 10.0, "{pcts:?}");
        assert!(pcts[2] > 100.0, "{pcts:?}");
    }

    #[test]
    fn pad_trace_is_much_cheaper_than_pad_all() {
        let w = suite::benchmark("espresso").expect("known");
        let p = Profile::collect(&w, &InputId::PROFILE, 30_000);
        let r = reorder(&w.program, &p, &TraceSelectConfig::default());
        for bs in [16, 32, 64] {
            let (all, trace) = expansion(&w.program, &r, bs).expect("layouts");
            assert!(
                trace.pad_pct < all.pad_pct / 2.0,
                "block {bs}: pad-trace {:.1}% vs pad-all {:.1}%",
                trace.pad_pct,
                all.pad_pct
            );
        }
    }

    #[test]
    fn reports_are_internally_consistent() {
        let w = suite::benchmark("li").expect("known");
        let layout = layout_pad_all(&w.program, 32).expect("layout");
        let rep = PadReport::from_layout(&layout);
        assert_eq!(rep.base_insts + rep.pad_nops, layout.code().len());
        let expect = 100.0 * rep.pad_nops as f64 / rep.base_insts as f64;
        assert!((rep.pad_pct - expect).abs() < 1e-9);
    }
}
