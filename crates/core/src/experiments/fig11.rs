//! Figure 11: the shifter-implemented collapsing buffer. With a three-cycle
//! fetch misprediction penalty the collapsing buffer loses its edge over
//! banked sequential — the paper's argument for the crossbar implementation.

use std::fmt;

use fetchmech_pipeline::MachineModel;
use fetchmech_workloads::WorkloadClass;

use super::{Cell, Lab, LayoutVariant};
use crate::scheme::SchemeKind;

/// One machine group of Figure 11 (integer benchmarks only, as in the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Row {
    /// Machine model name.
    pub machine: String,
    /// Harmonic-mean IPC of the four hardware schemes with the standard
    /// two-cycle penalty, in [`SchemeKind::HARDWARE`] order.
    pub hardware: [f64; 4],
    /// The collapsing buffer with a three-cycle penalty (shifter model).
    pub collapsing_penalty3: f64,
    /// The perfect bound.
    pub perfect: f64,
}

/// The full Figure 11 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11 {
    /// One row per machine.
    pub rows: Vec<Fig11Row>,
}

impl Fig11 {
    /// Runs the experiment. The shifter (3-cycle penalty) machine shares the
    /// same cache-block size as its base machine, so its runs are
    /// stream-cache hits — only its simulations are new. The base machines'
    /// cells repeat Figure 9's, so after Figure 9 they are simulation-memo
    /// hits.
    pub fn run(lab: &Lab) -> Self {
        let cells: Vec<[Cell; 6]> = MachineModel::paper_models()
            .iter()
            .map(|m| {
                let shifter = m.clone().with_fetch_penalty(3);
                [
                    (m, SchemeKind::Sequential),
                    (m, SchemeKind::InterleavedSequential),
                    (m, SchemeKind::BankedSequential),
                    (m, SchemeKind::CollapsingBuffer),
                    (&shifter, SchemeKind::CollapsingBuffer),
                    (m, SchemeKind::Perfect),
                ]
                .map(|(m, s)| Cell::new(m, s, LayoutVariant::Natural, WorkloadClass::Int))
            })
            .collect();
        let rows = cells
            .iter()
            .zip(lab.mean_ipc(&cells))
            .map(
                |([c, ..], [s, i, b, coll, collapsing_penalty3, perfect])| Fig11Row {
                    machine: c.machine.name.clone(),
                    hardware: [s, i, b, coll],
                    collapsing_penalty3,
                    perfect,
                },
            )
            .collect();
        Fig11 { rows }
    }
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 11: collapsing buffer with a 3-cycle fetch penalty (integer, harmonic-mean IPC)"
        )?;
        write!(f, "{:>8}", "machine")?;
        for s in SchemeKind::HARDWARE {
            write!(f, " {:>12}", s.name())?;
        }
        writeln!(f, " {:>14} {:>9}", "collapsing(p3)", "perfect")?;
        for r in &self.rows {
            write!(f, "{:>8}", r.machine)?;
            for v in r.hardware {
                write!(f, " {v:>12.3}")?;
            }
            writeln!(f, " {:>14.3} {:>9.3}", r.collapsing_penalty3, r.perfect)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExpConfig;

    #[test]
    fn fig11_shifter_loses_the_edge() {
        let lab = Lab::new(ExpConfig::quick());
        let fig = Fig11::run(&lab);
        assert_eq!(fig.rows.len(), 3);
        for r in &fig.rows {
            let ipc_of = |scheme: SchemeKind| r.hardware[scheme as usize];
            // The extra penalty must cost performance...
            assert!(
                r.collapsing_penalty3 < ipc_of(SchemeKind::CollapsingBuffer),
                "{}: penalty-3 {} not below penalty-2 {}",
                r.machine,
                r.collapsing_penalty3,
                ipc_of(SchemeKind::CollapsingBuffer)
            );
            // ...and bring the collapsing buffer down to (or below) roughly
            // banked-sequential territory, as Figure 11 shows.
            let banked = ipc_of(SchemeKind::BankedSequential);
            assert!(
                r.collapsing_penalty3 < banked * 1.03,
                "{}: penalty-3 collapsing {} should not clearly beat banked {}",
                r.machine,
                r.collapsing_penalty3,
                banked
            );
        }
    }
}
