//! Figure 9: harmonic-mean IPC of all four hardware schemes plus *perfect*,
//! for the integer (9a) and floating-point (9b) classes, on all machines —
//! the paper's headline performance comparison.

use std::fmt;

use fetchmech_pipeline::MachineModel;
use fetchmech_workloads::WorkloadClass;

use super::{class_label, Lab, LayoutVariant};
use crate::metrics::harmonic_mean;
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
        let idx = SchemeKind::ALL
            .iter()
            .position(|&s| s == scheme)
            .expect("known scheme");
        self.ipc[idx]
    }
}

/// The full Figure 9 data set (9a = integer rows, 9b = floating-point rows).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9 {
    /// One row per (machine, class).
    pub rows: Vec<Fig9Row>,
}

impl Fig9 {
    /// Runs the experiment on the lab's worker pool; the full
    /// (machine × class × scheme × benchmark) grid runs as one job list.
    pub fn run(lab: &Lab) -> Self {
        let machines = MachineModel::paper_models();
        let classes = [WorkloadClass::Int, WorkloadClass::Fp];
        let mut jobs = Vec::new();
        for machine in &machines {
            for class in classes {
                for scheme in SchemeKind::ALL {
                    for bench in lab.class_names(class) {
                        jobs.push((machine.clone(), scheme, bench));
                    }
                }
            }
        }
        let ipcs = lab.runner().run(&jobs, |(machine, scheme, bench)| {
            lab.run(machine, *scheme, bench, LayoutVariant::Natural)
                .ipc()
        });

        let mut rows = Vec::new();
        let mut idx = 0;
        for machine in &machines {
            for class in classes {
                let n = lab.class_names(class).len();
                let mut ipc = [0.0; 5];
                for slot in &mut ipc {
                    *slot = harmonic_mean(&ipcs[idx..idx + n]);
                    idx += n;
                }
                rows.push(Fig9Row {
                    machine: machine.name.clone(),
                    class,
                    ipc,
                });
            }
        }
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
