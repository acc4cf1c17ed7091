//! Figure 3: harmonic-mean IPC of *sequential* versus *perfect* for the
//! integer and floating-point benchmark classes on P14, P18, and P112 —
//! the motivation figure: how much performance better fetching could buy.

use std::fmt;

use fetchmech_workloads::WorkloadClass;

use super::{class_label, scheme_rows, Lab};
use crate::scheme::SchemeKind;

/// One bar pair of Figure 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// Machine model name.
    pub machine: String,
    /// Benchmark class.
    pub class: WorkloadClass,
    /// Harmonic-mean IPC of the *sequential* scheme.
    pub sequential: f64,
    /// Harmonic-mean IPC of the *perfect* bound.
    pub perfect: f64,
}

impl Fig3Row {
    /// Fractional headroom perfect fetching has over sequential.
    #[must_use]
    pub fn headroom(&self) -> f64 {
        self.perfect / self.sequential - 1.0
    }
}

/// The full Figure 3 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3 {
    /// One row per (machine, class).
    pub rows: Vec<Fig3Row>,
}

impl Fig3 {
    /// Runs the experiment: one (sequential, perfect) pair of cells per
    /// (machine, class).
    pub fn run(lab: &Lab) -> Self {
        let cells = scheme_rows([SchemeKind::Sequential, SchemeKind::Perfect]);
        let rows = cells
            .iter()
            .zip(lab.mean_ipc(&cells))
            .map(|([c, _], [sequential, perfect])| Fig3Row {
                machine: c.machine.name.clone(),
                class: c.class,
                sequential,
                perfect,
            })
            .collect();
        Fig3 { rows }
    }

    /// Rows for one benchmark class, in machine order.
    #[must_use]
    pub fn class_rows(&self, class: WorkloadClass) -> Vec<&Fig3Row> {
        self.rows.iter().filter(|r| r.class == class).collect()
    }
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 3: sequential vs perfect (harmonic-mean IPC)")?;
        writeln!(
            f,
            "{:<16} {:>8} {:>10} {:>9} {:>9}",
            "class", "machine", "sequential", "perfect", "headroom"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<16} {:>8} {:>10.3} {:>9.3} {:>8.1}%",
                class_label(r.class),
                r.machine,
                r.sequential,
                r.perfect,
                100.0 * r.headroom()
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
    fn fig3_shape_matches_paper() {
        let lab = Lab::new(ExpConfig::quick());
        let fig = Fig3::run(&lab);
        assert_eq!(fig.rows.len(), 6);
        for r in &fig.rows {
            assert!(
                r.perfect > r.sequential,
                "{} {}: perfect {} <= sequential {}",
                r.machine,
                class_label(r.class),
                r.perfect,
                r.sequential
            );
        }
        // The headroom grows with issue rate for integer code.
        let int = fig.class_rows(WorkloadClass::Int);
        assert!(
            int[2].headroom() > int[0].headroom(),
            "headroom must grow P14 -> P112"
        );
        // FP headroom at P14 is the smallest headroom of all (the paper's
        // "possible exception" of FP on P14).
        let fp = fig.class_rows(WorkloadClass::Fp);
        let min = fig
            .rows
            .iter()
            .map(Fig3Row::headroom)
            .fold(f64::INFINITY, f64::min);
        assert!((fp[0].headroom() - min).abs() < 1e-9 || fp[0].headroom() < 0.25);
        // Display renders every machine name.
        let text = fig.to_string();
        for m in ["P14", "P18", "P112"] {
            assert!(text.contains(m));
        }
    }
}
