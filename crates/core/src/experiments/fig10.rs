//! Figure 10: `EIR / EIR(perfect)` — each scheme's ability to align
//! instructions, independent of the execution core. The collapsing buffer's
//! claim to fame is holding ≥ ~90% from P14 through P112 while the other
//! schemes decay.

use std::fmt;

use fetchmech_workloads::WorkloadClass;

use super::{class_label, scheme_rows, Lab};
use crate::metrics::harmonic_mean;
use crate::scheme::SchemeKind;

/// One (machine, class) group of Figure 10.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Row {
    /// Machine model name.
    pub machine: String,
    /// Benchmark class.
    pub class: WorkloadClass,
    /// `100 × EIR(scheme)/EIR(perfect)` for the four hardware schemes,
    /// indexed in [`SchemeKind::HARDWARE`] order.
    pub pct: [f64; 4],
}

impl Fig10Row {
    /// Ratio for one hardware scheme.
    #[must_use]
    pub(crate) fn pct_of(&self, scheme: SchemeKind) -> f64 {
        self.pct[scheme as usize]
    }
}

/// The full Figure 10 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10 {
    /// One row per (machine, class).
    pub rows: Vec<Fig10Row>,
}

impl Fig10 {
    /// Runs the experiment: fetch-only EIR per scheme, aggregated with the
    /// harmonic mean across benchmarks, then expressed relative to perfect.
    /// The perfect bound rides in the same grid as the hardware schemes.
    pub fn run(lab: &Lab) -> Self {
        let cells = scheme_rows(SchemeKind::ALL);
        let eirs = lab.cells(&cells, |c, bench| {
            lab.eir(&c.machine, c.scheme, bench, c.variant).eir()
        });
        let rows = cells
            .iter()
            .zip(eirs)
            .map(|([c, ..], eirs)| {
                let [hardware @ .., perfect] = eirs.map(|v| harmonic_mean(&v));
                Fig10Row {
                    machine: c.machine.name.clone(),
                    class: c.class,
                    pct: hardware.map(|eir| 100.0 * eir / perfect),
                }
            })
            .collect();
        Fig10 { rows }
    }

    /// The per-machine series for one scheme and class (P14, P18, P112).
    #[must_use]
    pub fn series(&self, scheme: SchemeKind, class: WorkloadClass) -> Vec<f64> {
        self.rows
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.pct_of(scheme))
            .collect()
    }
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 10: EIR / EIR(perfect) (%)")?;
        write!(f, "{:<16} {:>8}", "class", "machine")?;
        for s in SchemeKind::HARDWARE {
            write!(f, " {:>12}", s.name())?;
        }
        writeln!(f)?;
        for r in &self.rows {
            write!(f, "{:<16} {:>8}", class_label(r.class), r.machine)?;
            for v in r.pct {
                write!(f, " {v:>11.1}%")?;
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
    fn fig10_collapsing_buffer_is_scalable() {
        let lab = Lab::new(ExpConfig::quick());
        let fig = Fig10::run(&lab);
        assert_eq!(fig.rows.len(), 6);
        for r in &fig.rows {
            // Ratios are percentages of an upper bound.
            for v in r.pct {
                assert!(v > 10.0 && v <= 101.0, "{} {:?}: {v}", r.machine, r.class);
            }
            // Collapsing dominates the other schemes.
            let coll = r.pct_of(SchemeKind::CollapsingBuffer);
            assert!(coll >= r.pct_of(SchemeKind::BankedSequential) - 1.0);
            assert!(coll >= r.pct_of(SchemeKind::Sequential) - 1.0);
        }
        // The paper's headline: the collapsing buffer keeps a high ratio from
        // P14 to P112, while sequential decays substantially.
        for class in [WorkloadClass::Int, WorkloadClass::Fp] {
            let coll = fig.series(SchemeKind::CollapsingBuffer, class);
            let seq = fig.series(SchemeKind::Sequential, class);
            assert!(
                coll[2] >= 80.0,
                "{class:?}: collapsing ratio at P112 fell to {:.1}%",
                coll[2]
            );
            assert!(
                seq[2] < coll[2] - 10.0,
                "{class:?}: sequential {:.1}% should trail collapsing {:.1}% at P112",
                seq[2],
                coll[2]
            );
        }
    }
}
