//! Figure 9: harmonic-mean IPC of all four hardware schemes plus *perfect*,
//! for the integer (9a) and floating-point (9b) classes, on all machines —
//! the paper's headline performance comparison.

use std::fmt;

use fetchmech_workloads::WorkloadClass;

use super::{class_label, scheme_rows, Lab};
use crate::scheme::SchemeKind;

/// One (machine, class) group of Figure 9: the IPC of every scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Row {
    /// Machine model name.
    pub machine: String,
    /// Benchmark class.
    pub class: WorkloadClass,
    /// Harmonic-mean IPC per scheme, indexed in [`SchemeKind::ALL`] order.
    pub ipc: [f64; 5],
}

impl Fig9Row {
    /// IPC of one scheme.
    #[must_use]
    pub fn ipc_of(&self, scheme: SchemeKind) -> f64 {
        self.ipc[scheme as usize]
    }
}

/// The full Figure 9 data set (9a = integer rows, 9b = floating-point rows).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9 {
    /// One row per (machine, class).
    pub rows: Vec<Fig9Row>,
}

impl Fig9 {
    /// Runs the experiment: one cell per scheme for each (machine, class).
    pub fn run(lab: &Lab) -> Self {
        let cells = scheme_rows(SchemeKind::ALL);
        let rows = cells
            .iter()
            .zip(lab.mean_ipc(&cells))
            .map(|([c, ..], ipc)| Fig9Row {
                machine: c.machine.name.clone(),
                class: c.class,
                ipc,
            })
            .collect();
        Fig9 { rows }
    }
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 9: IPC of the alignment mechanisms (harmonic mean)"
        )?;
        write!(f, "{:<16} {:>8}", "class", "machine")?;
        for s in SchemeKind::ALL {
            write!(f, " {:>12}", s.name())?;
        }
        writeln!(f)?;
        for r in &self.rows {
            write!(f, "{:<16} {:>8}", class_label(r.class), r.machine)?;
            for v in r.ipc {
                write!(f, " {v:>12.3}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExpConfig;

    #[test]
    fn fig9_scheme_ordering_matches_paper() {
        let lab = Lab::new(ExpConfig::quick());
        let fig = Fig9::run(&lab);
        assert_eq!(fig.rows.len(), 6);
        for r in &fig.rows {
            let seq = r.ipc_of(SchemeKind::Sequential);
            let inter = r.ipc_of(SchemeKind::InterleavedSequential);
            let banked = r.ipc_of(SchemeKind::BankedSequential);
            let coll = r.ipc_of(SchemeKind::CollapsingBuffer);
            let perf = r.ipc_of(SchemeKind::Perfect);
            let slack = 0.03; // sampling noise allowance on quick runs
            assert!(
                inter >= seq - slack,
                "{} {:?}: {inter} < {seq}",
                r.machine,
                r.class
            );
            assert!(
                banked >= inter - slack,
                "{} {:?}: {banked} < {inter}",
                r.machine,
                r.class
            );
            assert!(
                coll >= banked - slack,
                "{} {:?}: {coll} < {banked}",
                r.machine,
                r.class
            );
            assert!(
                perf >= coll - slack,
                "{} {:?}: {perf} < {coll}",
                r.machine,
                r.class
            );
        }
        // The collapsing buffer's edge over banked sequential is visible at
        // P112 for integer code (Table 2's intra-block branches).
        let p112 = fig
            .rows
            .iter()
            .find(|r| r.machine == "P112" && r.class == WorkloadClass::Int)
            .expect("row");
        assert!(
            p112.ipc_of(SchemeKind::CollapsingBuffer)
                > p112.ipc_of(SchemeKind::BankedSequential) + 0.02,
            "collapsing must clearly beat banked at P112: {:?}",
            p112.ipc
        );
    }
}
