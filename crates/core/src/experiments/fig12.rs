//! Figure 12: performance after profile-driven code reordering (integer
//! benchmarks). Reordering lifts every scheme; reordered interleaved
//! sequential reaches unordered-perfect territory, and the reordered
//! collapsing buffer approaches reordered perfect.

use std::fmt;

use fetchmech_pipeline::MachineModel;
use fetchmech_workloads::WorkloadClass;

use super::{Cell, Lab, LayoutVariant};
use crate::scheme::SchemeKind;

/// One machine group of Figure 12.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Row {
    /// Machine model name.
    pub machine: String,
    /// Sequential on the unoptimized layout.
    pub sequential_unordered: f64,
    /// The five schemes on the reordered layout, in [`SchemeKind::ALL`]
    /// order (sequential … perfect).
    pub reordered: [f64; 5],
    /// Perfect on the unoptimized layout.
    pub perfect_unordered: f64,
}

impl Fig12Row {
    /// Reordered IPC of one scheme.
    #[must_use]
    pub fn reordered_of(&self, scheme: SchemeKind) -> f64 {
        self.reordered[scheme as usize]
    }
}

/// The full Figure 12 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12 {
    /// One row per machine.
    pub rows: Vec<Fig12Row>,
}

impl Fig12 {
    /// Runs the experiment. Reordered runs share one cached reordering,
    /// layout, and trace per benchmark across all five schemes.
    ///
    /// # Panics
    ///
    /// Panics if a reordered layout fails to build (an internal invariant).
    pub fn run(lab: &Lab) -> Self {
        let cells: Vec<[Cell; 7]> = MachineModel::paper_models()
            .iter()
            .map(|m| {
                [
                    (SchemeKind::Sequential, LayoutVariant::Natural),
                    (SchemeKind::Perfect, LayoutVariant::Natural),
                    (SchemeKind::Sequential, LayoutVariant::Reordered),
                    (SchemeKind::InterleavedSequential, LayoutVariant::Reordered),
                    (SchemeKind::BankedSequential, LayoutVariant::Reordered),
                    (SchemeKind::CollapsingBuffer, LayoutVariant::Reordered),
                    (SchemeKind::Perfect, LayoutVariant::Reordered),
                ]
                .map(|(scheme, variant)| Cell::new(m, scheme, variant, WorkloadClass::Int))
            })
            .collect();
        let rows = cells
            .iter()
            .zip(lab.mean_ipc(&cells))
            .map(
                |([c, ..], [sequential_unordered, perfect_unordered, reordered @ ..])| Fig12Row {
                    machine: c.machine.name.clone(),
                    sequential_unordered,
                    reordered,
                    perfect_unordered,
                },
            )
            .collect();
        Fig12 { rows }
    }
}

impl fmt::Display for Fig12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 12: IPC after code reordering (integer, harmonic mean)"
        )?;
        write!(f, "{:>8} {:>12}", "machine", "seq(unord)")?;
        for s in SchemeKind::ALL {
            write!(f, " {:>15}", format!("{}(r)", s.name()))?;
        }
        writeln!(f, " {:>12}", "perf(unord)")?;
        for r in &self.rows {
            write!(f, "{:>8} {:>12.3}", r.machine, r.sequential_unordered)?;
            for v in r.reordered {
                write!(f, " {v:>15.3}")?;
            }
            writeln!(f, " {:>12.3}", r.perfect_unordered)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExpConfig;

    #[test]
    fn fig12_reordering_lifts_all_schemes() {
        let lab = Lab::new(ExpConfig::quick());
        let fig = Fig12::run(&lab);
        assert_eq!(fig.rows.len(), 3);
        for r in &fig.rows {
            // Reordered sequential beats unordered sequential.
            assert!(
                r.reordered_of(SchemeKind::Sequential) > r.sequential_unordered,
                "{}: reordering must lift sequential ({} vs {})",
                r.machine,
                r.reordered_of(SchemeKind::Sequential),
                r.sequential_unordered
            );
            // Reordered collapsing approaches reordered perfect (within 10%).
            let coll = r.reordered_of(SchemeKind::CollapsingBuffer);
            let perf = r.reordered_of(SchemeKind::Perfect);
            assert!(
                coll > 0.88 * perf,
                "{}: reordered collapsing {} too far below reordered perfect {}",
                r.machine,
                coll,
                perf
            );
        }
        // Reordered interleaved reaches unordered-perfect territory (the
        // paper's software-vs-hardware tradeoff) on every machine.
        for r in &fig.rows {
            assert!(
                r.reordered_of(SchemeKind::InterleavedSequential) > 0.92 * r.perfect_unordered,
                "{}: interleaved(reordered) {} vs perfect(unordered) {}",
                r.machine,
                r.reordered_of(SchemeKind::InterleavedSequential),
                r.perfect_unordered
            );
        }
    }
}
