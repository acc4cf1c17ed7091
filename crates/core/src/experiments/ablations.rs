//! Ablations of the design choices DESIGN.md calls out: BTB capacity,
//! branch-speculation depth, and the return-address-stack extension, each
//! swept on the most aggressive machine (P112) where fetch pressure is
//! highest. These quantify *why* the paper's fixed parameters are reasonable
//! and how sensitive the headline results are to them.

use std::fmt;

use fetchmech_pipeline::MachineModel;
use fetchmech_workloads::WorkloadClass;

use super::{Cell, Lab, LayoutVariant};
use crate::scheme::SchemeKind;

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Parameter value (entries, depth, …).
    pub value: u64,
    /// Harmonic-mean integer IPC of the *sequential* scheme.
    pub sequential: f64,
    /// Harmonic-mean integer IPC of the *collapsing buffer*.
    pub collapsing: f64,
}

/// A named parameter sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Parameter name.
    pub name: &'static str,
    /// The paper's value of this parameter on P112.
    pub paper_value: u64,
    /// Sweep rows in ascending parameter order.
    pub rows: Vec<AblationRow>,
}

/// The ablation study: three sweeps on P112 integer workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablations {
    /// BTB capacity sweep (entries).
    pub btb: Sweep,
    /// Speculation-depth sweep (unresolved branches).
    pub spec_depth: Sweep,
    /// Return-address-stack sweep (entries; 0 = the paper's machines).
    pub ras: Sweep,
}

impl Ablations {
    /// Runs all three sweeps as one grid. Every machine variant
    /// shares the P112 block size, so all runs draw on the same cached
    /// block streams — only the simulations differ per sweep point. The
    /// sweep points equal to base P112 repeat one another (and Figure 9's
    /// P112 cells), so they are simulation-memo hits.
    pub fn run(lab: &Lab) -> Self {
        let base = MachineModel::p112();

        // Sweep-point machine variants, in (btb, spec_depth, ras) order.
        let btb_values: [u64; 4] = [64, 256, 1024, 4096];
        let spec_values: [u32; 5] = [1, 2, 4, 6, 12];
        let ras_values: [u32; 3] = [0, 4, 16];
        let mut points: Vec<(u64, MachineModel)> = Vec::new();
        for entries in btb_values {
            let mut m = base.clone();
            m.btb_entries = entries as usize;
            points.push((entries, m));
        }
        for d in spec_values {
            let mut m = base.clone();
            m.spec_depth = d;
            points.push((u64::from(d), m));
        }
        for r in ras_values {
            points.push((u64::from(r), base.clone().with_ras(r)));
        }

        let cells: Vec<[Cell; 2]> = points
            .iter()
            .map(|(_, m)| {
                [SchemeKind::Sequential, SchemeKind::CollapsingBuffer]
                    .map(|s| Cell::new(m, s, LayoutVariant::Natural, WorkloadClass::Int))
            })
            .collect();
        let mut rows: Vec<AblationRow> = points
            .iter()
            .zip(lab.mean_ipc(&cells))
            .map(|(&(value, _), [sequential, collapsing])| AblationRow {
                value,
                sequential,
                collapsing,
            })
            .collect();

        let ras = Sweep {
            name: "RAS entries",
            paper_value: 0,
            rows: rows.split_off(btb_values.len() + spec_values.len()),
        };
        let spec_depth = Sweep {
            name: "speculation depth",
            paper_value: 6,
            rows: rows.split_off(btb_values.len()),
        };
        let btb = Sweep {
            name: "BTB entries",
            paper_value: 1024,
            rows,
        };
        Ablations {
            btb,
            spec_depth,
            ras,
        }
    }

    /// All three sweeps.
    #[must_use]
    pub(crate) fn sweeps(&self) -> [&Sweep; 3] {
        [&self.btb, &self.spec_depth, &self.ras]
    }
}

impl fmt::Display for Ablations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablations on P112 (integer, harmonic-mean IPC)")?;
        for sweep in self.sweeps() {
            writeln!(f, "\n{} (paper: {}):", sweep.name, sweep.paper_value)?;
            writeln!(
                f,
                "{:>10} {:>12} {:>12}",
                "value", "sequential", "collapsing"
            )?;
            for r in &sweep.rows {
                let mark = if r.value == sweep.paper_value {
                    " <- paper"
                } else {
                    ""
                };
                writeln!(
                    f,
                    "{:>10} {:>12.3} {:>12.3}{mark}",
                    r.value, r.sequential, r.collapsing
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExpConfig;

    #[test]
    fn ablation_trends_are_sane() {
        let lab = Lab::new(ExpConfig::quick());
        let a = Ablations::run(&lab);
        let paper_row = |s: &Sweep| {
            s.rows
                .iter()
                .find(|r| r.value == s.paper_value)
                .map(|r| r.collapsing)
                .expect("sweep includes the paper's value")
        };

        // More BTB never hurts much; a 64-entry BTB clearly hurts.
        let btb = &a.btb.rows;
        assert!(btb.first().expect("rows").collapsing < btb.last().expect("rows").collapsing);
        assert!(
            paper_row(&a.btb) > 0.97 * btb.last().expect("rows").collapsing,
            "the paper's 1024 entries should be near the asymptote"
        );

        // Speculation depth 1 strangles fetch; the paper's 6 is near the top.
        let sd = &a.spec_depth.rows;
        assert!(sd[0].collapsing < sd.last().expect("rows").collapsing);
        assert!(paper_row(&a.spec_depth) > 0.95 * sd.last().expect("rows").collapsing);

        // A RAS only helps (or is neutral).
        let ras = &a.ras.rows;
        assert!(ras.last().expect("rows").collapsing >= ras[0].collapsing - 0.02);
    }
}
