//! Figure 11: the shifter-implemented collapsing buffer. With a three-cycle
//! fetch misprediction penalty the collapsing buffer loses its edge over
//! banked sequential — the paper's argument for the crossbar implementation.

use std::fmt;

use fetchmech_pipeline::MachineModel;
use fetchmech_workloads::WorkloadClass;

use super::{Lab, LayoutVariant};
use crate::metrics::harmonic_mean;
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
        let machines = MachineModel::paper_models();
        let names = lab.class_names(WorkloadClass::Int);
        let n = names.len();
        let mut jobs = Vec::new();
        for machine in &machines {
            for scheme in SchemeKind::HARDWARE {
                for &bench in &names {
                    jobs.push((machine.clone(), scheme, bench));
                }
            }
            let shifter = machine.clone().with_fetch_penalty(3);
            for &bench in &names {
                jobs.push((shifter.clone(), SchemeKind::CollapsingBuffer, bench));
            }
            for &bench in &names {
                jobs.push((machine.clone(), SchemeKind::Perfect, bench));
            }
        }
        let ipcs = lab.runner().run(&jobs, |(machine, scheme, bench)| {
            lab.run(machine, *scheme, bench, LayoutVariant::Natural)
                .ipc()
        });

        let mut rows = Vec::new();
        let mut idx = 0;
        let take_mean = |idx: &mut usize| {
            let m = harmonic_mean(&ipcs[*idx..*idx + n]);
            *idx += n;
            m
        };
        for machine in &machines {
            let mut hardware = [0.0; 4];
            for slot in &mut hardware {
                *slot = take_mean(&mut idx);
            }
            let collapsing_penalty3 = take_mean(&mut idx);
            let perfect = take_mean(&mut idx);
            rows.push(Fig11Row {
                machine: machine.name.clone(),
                hardware,
                collapsing_penalty3,
                perfect,
            });
        }
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
            let ipc_of = |scheme: SchemeKind| {
                let idx = SchemeKind::HARDWARE.iter().position(|&s| s == scheme);
                r.hardware[idx.expect("hardware scheme")]
            };
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
