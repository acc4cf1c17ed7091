//! Extension (the paper's concluding remarks): *"It remains to be seen what
//! effect branch prediction accuracy has on the misprediction penalty when
//! designing a pipelined collapsing buffer… Depending on the complexity of
//! this branch prediction hardware, a shifter-based implementation of
//! collapsing buffer may be viable."*
//!
//! This experiment swaps the BTB's 2-bit counters for McFarling's combining
//! ("tournament") predictor — the paper's own reference [11] — and re-runs
//! the Figure 11 comparison: banked sequential versus the collapsing buffer
//! at two- and three-cycle fetch penalties. Better prediction means fewer
//! redirects, so the extra penalty cycle matters less — quantifying how much
//! predictor accuracy buys the cheaper shifter implementation.

use std::fmt;

use fetchmech_bpred::{GshareConfig, PredictorKind};
use fetchmech_pipeline::MachineModel;
use fetchmech_workloads::WorkloadClass;

use super::{Cell, Lab, LayoutVariant};
use crate::metrics::harmonic_mean;
use crate::scheme::SchemeKind;
use crate::sim::SimResult;

/// Results for one machine under one predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtPredictorsRow {
    /// Machine model name.
    pub machine: String,
    /// Predictor used.
    pub predictor: PredictorKind,
    /// Mean misprediction rate over all control transfers.
    pub mispredict_rate: f64,
    /// Mean *direction* misprediction rate over conditional branches — the
    /// component the predictor choice actually changes.
    pub dir_mispredict_rate: f64,
    /// Harmonic-mean IPC of banked sequential (2-cycle penalty).
    pub banked: f64,
    /// Harmonic-mean IPC of the collapsing buffer (crossbar, 2-cycle).
    pub collapsing_p2: f64,
    /// Harmonic-mean IPC of the collapsing buffer (shifter, 3-cycle).
    pub collapsing_p3: f64,
}

impl ExtPredictorsRow {
    /// `true` if the shifter (3-cycle) collapsing buffer beats banked
    /// sequential — the viability question the paper poses.
    #[must_use]
    pub(crate) fn shifter_viable(&self) -> bool {
        self.collapsing_p3 > self.banked
    }
}

/// The predictor-extension data set (integer benchmarks).
#[derive(Debug, Clone, PartialEq)]
pub struct ExtPredictors {
    /// Two rows per machine: 2-bit BTB, then gshare.
    pub rows: Vec<ExtPredictorsRow>,
}

impl ExtPredictors {
    /// Runs the experiment. Each (machine, predictor) cell is three
    /// per-benchmark job groups — banked, crossbar collapsing (2-cycle),
    /// shifter collapsing (3-cycle) — and the crossbar runs supply both the
    /// misprediction rates and the IPC mean from a single simulation each.
    pub fn run(lab: &Lab) -> Self {
        let predictors = [
            PredictorKind::TwoBitBtb,
            PredictorKind::Tournament(GshareConfig::default_4k()),
        ];
        let cells: Vec<[Cell; 3]> = MachineModel::paper_models()
            .iter()
            .flat_map(|base| {
                predictors.map(|predictor| {
                    let machine = base.clone().with_predictor(predictor);
                    let shifter = machine.clone().with_fetch_penalty(3);
                    [
                        (&machine, SchemeKind::BankedSequential),
                        (&machine, SchemeKind::CollapsingBuffer),
                        (&shifter, SchemeKind::CollapsingBuffer),
                    ]
                    .map(|(m, s)| Cell::new(m, s, LayoutVariant::Natural, WorkloadClass::Int))
                })
            })
            .collect();
        let results = lab.cells(&cells, |c, bench| {
            lab.run(&c.machine, c.scheme, bench, c.variant)
        });

        let mean_ipc = |runs: &[SimResult]| {
            let v: Vec<f64> = runs.iter().map(SimResult::ipc).collect();
            harmonic_mean(&v)
        };
        let mean = |runs: &[SimResult], rate: fn(&SimResult) -> f64| {
            runs.iter().map(rate).sum::<f64>() / runs.len() as f64
        };
        let rows = cells
            .iter()
            .zip(results)
            .map(|([c, ..], [banked, p2, p3])| ExtPredictorsRow {
                machine: c.machine.name.clone(),
                predictor: c.machine.predictor,
                mispredict_rate: mean(&p2, |r| r.fetch.mispredict_rate()),
                dir_mispredict_rate: mean(&p2, |r| r.fetch.cond_dir_mispredict_rate()),
                banked: mean_ipc(&banked),
                collapsing_p2: mean_ipc(&p2),
                collapsing_p3: mean_ipc(&p3),
            })
            .collect();
        ExtPredictors { rows }
    }
}

impl fmt::Display for ExtPredictors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Extension: predictor accuracy vs the shifter collapsing buffer (integer, harmonic-mean IPC)"
        )?;
        writeln!(
            f,
            "{:>8} {:>16} {:>10} {:>10} {:>9} {:>14} {:>14} {:>9}",
            "machine",
            "predictor",
            "mispred%",
            "dirmiss%",
            "banked",
            "collapsing(p2)",
            "collapsing(p3)",
            "viable?"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>8} {:>16} {:>9.1}% {:>9.1}% {:>9.3} {:>14.3} {:>14.3} {:>9}",
                r.machine,
                r.predictor.to_string(),
                100.0 * r.mispredict_rate,
                100.0 * r.dir_mispredict_rate,
                r.banked,
                r.collapsing_p2,
                r.collapsing_p3,
                if r.shifter_viable() { "yes" } else { "no" }
            )?;
        }
        writeln!(
            f,
            "(viable? = does the cheaper shifter implementation still beat banked sequential)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExpConfig;

    #[test]
    fn tournament_reduces_mispredictions_and_helps_the_shifter() {
        let lab = Lab::new(ExpConfig::quick());
        let ext = ExtPredictors::run(&lab);
        assert_eq!(ext.rows.len(), 6);
        for machine in ["P14", "P18", "P112"] {
            let row = |predictor: PredictorKind| {
                ext.rows
                    .iter()
                    .find(|r| r.machine == machine && r.predictor == predictor)
                    .expect("row")
            };
            let twobit = row(PredictorKind::TwoBitBtb);
            let tourney = row(PredictorKind::Tournament(GshareConfig::default_4k()));
            assert!(
                tourney.dir_mispredict_rate < twobit.dir_mispredict_rate,
                "{machine}: tournament direction-miss {:.3} should beat 2-bit {:.3}",
                tourney.dir_mispredict_rate,
                twobit.dir_mispredict_rate
            );
            // Better prediction lifts IPC across the board.
            assert!(tourney.collapsing_p2 > twobit.collapsing_p2, "{machine}");
        }
    }
}
