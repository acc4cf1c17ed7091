//! Table 2: the percentage of taken branches whose target lies in the same
//! cache block (*intra-block branches*), per benchmark, for the three block
//! sizes — the phenomenon motivating the collapsing buffer.

use std::fmt;

use fetchmech_isa::TraceStats;
use fetchmech_pipeline::MachineModel;
use fetchmech_workloads::WorkloadClass;

use super::{Lab, LayoutVariant};

/// One benchmark row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Benchmark name.
    pub bench: &'static str,
    /// Benchmark class.
    pub class: WorkloadClass,
    /// Intra-block percentage per block size, in the order 16 B / 32 B / 64 B
    /// (P14 / P18 / P112).
    pub pct: [f64; 3],
}

/// The full Table 2 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// One row per benchmark, integer benchmarks first.
    pub rows: Vec<Table2Row>,
}

impl Table2 {
    /// Runs the experiment. One trace per benchmark per block size (block
    /// size changes the layout geometry, so each is a distinct trace-cache
    /// key) — but the traces are the same ones the simulation drivers use,
    /// so across a full report they are generated only once.
    pub fn run(lab: &Lab) -> Self {
        let block_sizes: Vec<u64> = MachineModel::paper_models()
            .iter()
            .map(|m| m.block_bytes)
            .collect();
        let classes = [WorkloadClass::Int, WorkloadClass::Fp];
        let mut jobs = Vec::new();
        for class in classes {
            for bench in lab.class_names(class) {
                for &bs in &block_sizes {
                    jobs.push((bench, bs));
                }
            }
        }
        let pcts = lab.runner().run(&jobs, |&(bench, bs)| {
            let trace = lab.test_trace(bench, LayoutVariant::Natural, bs);
            let mut stats = TraceStats::new();
            for inst in trace.iter() {
                stats.observe(inst, bs);
            }
            stats.intra_block_pct()
        });

        let mut rows = Vec::new();
        let mut idx = 0;
        for class in classes {
            for bench in lab.class_names(class) {
                let mut pct = [0.0; 3];
                for slot in &mut pct {
                    *slot = pcts[idx];
                    idx += 1;
                }
                rows.push(Table2Row { bench, class, pct });
            }
        }
        Table2 { rows }
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 2: % taken branches with intra-block targets")?;
        writeln!(
            f,
            "{:<6} {:<10} {:>8} {:>8} {:>8}",
            "class", "benchmark", "P14/16B", "P18/32B", "P112/64B"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<6} {:<10} {:>7.2}% {:>7.2}% {:>7.2}%",
                r.class, r.bench, r.pct[0], r.pct[1], r.pct[2]
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
    fn table2_trends_match_paper() {
        let lab = Lab::new(ExpConfig::quick());
        let t = Table2::run(&lab);
        assert_eq!(t.rows.len(), 15);

        // The fraction is non-decreasing in block size for every benchmark
        // (allowing small sampling noise).
        for r in &t.rows {
            assert!(r.pct[1] >= r.pct[0] - 2.0, "{}: {:?}", r.bench, r.pct);
            assert!(r.pct[2] >= r.pct[1] - 2.0, "{}: {:?}", r.bench, r.pct);
        }
        let row = |bench: &str| {
            t.rows
                .iter()
                .find(|r| r.bench == bench)
                .expect("benchmark present")
        };
        // nasa7 (pure loop nests) has essentially none.
        let nasa = row("nasa7");
        assert!(nasa.pct[2] < 2.0, "nasa7: {:?}", nasa.pct);
        // compress has a visible fraction even at 16 B blocks.
        let compress = row("compress");
        assert!(compress.pct[0] > 4.0, "compress: {:?}", compress.pct);
        // The branchiest integer codes reach tens of percent at 64 B.
        let eqntott = row("eqntott");
        assert!(eqntott.pct[2] > 25.0, "eqntott: {:?}", eqntott.pct);
    }
}
