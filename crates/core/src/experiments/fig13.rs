//! Figure 13: the padding optimizations applied to the *sequential* scheme —
//! `pad-all` on the unordered layout, `pad-trace` on the reordered layout,
//! against the plain and perfect bounds.

use std::fmt;

use fetchmech_pipeline::MachineModel;
use fetchmech_workloads::WorkloadClass;

use super::{Cell, Lab, LayoutVariant};
use crate::scheme::SchemeKind;

/// One machine group of Figure 13 (integer benchmarks, harmonic-mean IPC of
/// the *sequential* scheme under each code layout).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13Row {
    /// Machine model name.
    pub machine: String,
    /// Unordered layout, no padding.
    pub unordered: f64,
    /// Unordered layout with `pad-all`.
    pub pad_all: f64,
    /// Reordered layout, no padding.
    pub reordered: f64,
    /// Reordered layout with `pad-trace`.
    pub pad_trace: f64,
    /// Perfect fetch on the unordered layout (reference bound).
    pub perfect_unordered: f64,
}

/// The full Figure 13 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13 {
    /// One row per machine.
    pub rows: Vec<Fig13Row>,
}

impl Fig13 {
    /// Runs the experiment. Every (scheme, layout-variant) cell of the grid —
    /// including the pad-all and pad-trace images — draws its layout and
    /// trace from the lab's shared caches.
    ///
    /// # Panics
    ///
    /// Panics if a layout fails to build (an internal invariant).
    pub fn run(lab: &Lab) -> Self {
        let cells: Vec<[Cell; 5]> = MachineModel::paper_models()
            .iter()
            .map(|m| {
                [
                    (SchemeKind::Sequential, LayoutVariant::Natural),
                    (SchemeKind::Sequential, LayoutVariant::PadAll),
                    (SchemeKind::Sequential, LayoutVariant::Reordered),
                    (SchemeKind::Sequential, LayoutVariant::PadTrace),
                    (SchemeKind::Perfect, LayoutVariant::Natural),
                ]
                .map(|(scheme, variant)| Cell::new(m, scheme, variant, WorkloadClass::Int))
            })
            .collect();
        let rows = cells
            .iter()
            .zip(lab.mean_ipc(&cells))
            .map(
                |([c, ..], [unordered, pad_all, reordered, pad_trace, perfect_unordered])| {
                    Fig13Row {
                        machine: c.machine.name.clone(),
                        unordered,
                        pad_all,
                        reordered,
                        pad_trace,
                        perfect_unordered,
                    }
                },
            )
            .collect();
        Fig13 { rows }
    }
}

impl fmt::Display for Fig13 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 13: pad-all / pad-trace for sequential (integer, harmonic-mean IPC)"
        )?;
        writeln!(
            f,
            "{:>8} {:>10} {:>10} {:>10} {:>10} {:>12}",
            "machine", "unordered", "pad-all", "reordered", "pad-trace", "perf(unord)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>12.3}",
                r.machine, r.unordered, r.pad_all, r.reordered, r.pad_trace, r.perfect_unordered
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExpConfig;

    #[test]
    fn fig13_padding_effects_match_paper() {
        let lab = Lab::new(ExpConfig::quick());
        let fig = Fig13::run(&lab);
        assert_eq!(fig.rows.len(), 3);
        for r in &fig.rows {
            // Reordering is the big win for sequential.
            assert!(
                r.reordered > r.unordered,
                "{}: reordered {} <= unordered {}",
                r.machine,
                r.reordered,
                r.unordered
            );
            // pad-trace is at worst a small perturbation of reordered.
            assert!(
                r.pad_trace > 0.9 * r.reordered,
                "{}: pad-trace {} collapsed relative to reordered {}",
                r.machine,
                r.pad_trace,
                r.reordered
            );
        }
        // pad-all hurts at the large block sizes (P112), where its code
        // expansion destroys cache locality and fetch density.
        let p112 = &fig.rows[2];
        assert!(
            p112.pad_all < p112.reordered,
            "P112: pad-all {} should trail reordered {}",
            p112.pad_all,
            p112.reordered
        );
    }
}
