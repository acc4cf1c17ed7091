//! Table 3: the percentage reduction in dynamic taken branches achieved by
//! code reordering, per integer benchmark — the mechanism behind Figure 12.

use std::fmt;

use fetchmech_isa::{DynInst, OpClass};
use fetchmech_workloads::WorkloadClass;

use super::{Lab, LayoutVariant};

/// One benchmark row of Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Benchmark name.
    pub bench: &'static str,
    /// Dynamic taken branches per useful instruction, natural layout.
    pub before: f64,
    /// Dynamic taken branches per useful instruction, reordered layout.
    pub after: f64,
}

impl Table3Row {
    /// Percentage reduction in taken branches.
    #[must_use]
    pub fn reduction_pct(&self) -> f64 {
        if self.before == 0.0 {
            0.0
        } else {
            100.0 * (1.0 - self.after / self.before)
        }
    }
}

/// The full Table 3 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3 {
    /// One row per integer benchmark.
    pub rows: Vec<Table3Row>,
}

impl Table3 {
    /// Runs the experiment.
    ///
    /// Rates are normalized per *useful* (non-control, non-nop) instruction,
    /// which makes the two layouts comparable even though reordering changes
    /// the dynamic instruction count (elided jumps disappear from the
    /// stream).
    ///
    /// # Panics
    ///
    /// Panics if a reordered layout fails to build (an internal invariant).
    pub fn run(lab: &Lab) -> Self {
        let names = lab.class_names(WorkloadClass::Int);
        let rate = |trace: &[DynInst]| {
            let mut taken = 0u64;
            let mut useful = 0u64;
            for i in trace {
                taken += u64::from(i.is_taken_control());
                useful += u64::from(i.ctrl.is_none() && i.op != OpClass::Nop);
            }
            taken as f64 / useful.max(1) as f64
        };
        let mut jobs = Vec::new();
        for &bench in &names {
            for variant in [LayoutVariant::Natural, LayoutVariant::Reordered] {
                jobs.push((bench, variant));
            }
        }
        let rates = lab.runner().run(&jobs, |&(bench, variant)| {
            rate(&lab.test_trace(bench, variant, 16))
        });

        let rows = names
            .iter()
            .zip(rates.chunks_exact(2))
            .map(|(&bench, pair)| Table3Row {
                bench,
                before: pair[0],
                after: pair[1],
            })
            .collect();
        Table3 { rows }
    }
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 3: % reduction in taken branches due to code reordering"
        )?;
        writeln!(
            f,
            "{:<10} {:>12} {:>12} {:>11}",
            "benchmark", "before/inst", "after/inst", "reduction"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>12.4} {:>12.4} {:>10.2}%",
                r.bench,
                r.before,
                r.after,
                r.reduction_pct()
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
    fn table3_reordering_removes_taken_branches() {
        let lab = Lab::new(ExpConfig::quick());
        let t = Table3::run(&lab);
        assert_eq!(t.rows.len(), 9);
        for r in &t.rows {
            assert!(
                r.reduction_pct() > 0.0,
                "{}: reordering must reduce taken branches ({} -> {})",
                r.bench,
                r.before,
                r.after
            );
            assert!(
                r.reduction_pct() < 80.0,
                "{}: implausibly large reduction",
                r.bench
            );
        }
        // The paper reports reductions of roughly 15–45%; the majority of
        // benchmarks should clear 15%.
        let big = t.rows.iter().filter(|r| r.reduction_pct() >= 15.0).count();
        assert!(big >= 5, "only {big} benchmarks above 15% reduction");
    }
}
