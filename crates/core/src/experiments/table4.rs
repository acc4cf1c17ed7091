//! Table 4: code expansion of the §4.1 padding schemes — nops inserted by
//! `pad-all` versus `pad-trace`, as a percentage of the original code size,
//! for all three cache-block sizes.

use std::fmt;

use fetchmech_compiler::expansion;
use fetchmech_workloads::WorkloadClass;

use super::Lab;

/// One benchmark row of Table 4 (all three block sizes).
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Benchmark name.
    pub bench: &'static str,
    /// `pad-all` expansion % at 16/32/64-byte blocks.
    pub pad_all: [f64; 3],
    /// `pad-trace` expansion % at 16/32/64-byte blocks.
    pub pad_trace: [f64; 3],
}

/// The full Table 4 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4 {
    /// One row per integer benchmark.
    pub rows: Vec<Table4Row>,
}

impl Table4 {
    /// Runs the experiment (purely static: layout only, no simulation). The
    /// per-(benchmark, block-size) expansion measurements are independent
    /// jobs; the reordering each needs is computed once in the lab's shared
    /// cache.
    ///
    /// # Panics
    ///
    /// Panics if a layout fails to build (an internal invariant).
    pub fn run(lab: &Lab) -> Self {
        let names = lab.class_names(WorkloadClass::Int);
        let mut jobs = Vec::new();
        for &name in &names {
            for bs in [16u64, 32, 64] {
                jobs.push((name, bs));
            }
        }
        let pairs = lab.runner().run(&jobs, |&(name, bs)| {
            let reordered = lab.reordered(name);
            let (all, trace) =
                expansion(&lab.bench(name).program, &reordered, bs).expect("padding layouts");
            (all.pad_pct, trace.pad_pct)
        });

        let rows = names
            .iter()
            .zip(pairs.chunks_exact(3))
            .map(|(&bench, chunk)| {
                let mut pad_all = [0.0; 3];
                let mut pad_trace = [0.0; 3];
                for (i, &(all, trace)) in chunk.iter().enumerate() {
                    pad_all[i] = all;
                    pad_trace[i] = trace;
                }
                Table4Row {
                    bench,
                    pad_all,
                    pad_trace,
                }
            })
            .collect();
        Table4 { rows }
    }
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 4: nops inserted by pad-all / pad-trace (% of original code size)"
        )?;
        writeln!(
            f,
            "{:<10} {:>21} {:>21} {:>21}",
            "benchmark", "16B (all/trace)", "32B (all/trace)", "64B (all/trace)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>10.2}% /{:>7.2}% {:>10.2}% /{:>7.2}% {:>10.2}% /{:>7.2}%",
                r.bench,
                r.pad_all[0],
                r.pad_trace[0],
                r.pad_all[1],
                r.pad_trace[1],
                r.pad_all[2],
                r.pad_trace[2]
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
    fn table4_magnitudes_match_paper() {
        let lab = Lab::new(ExpConfig::quick());
        let t = Table4::run(&lab);
        assert_eq!(t.rows.len(), 9);
        for r in &t.rows {
            for i in 0..3 {
                assert!(
                    r.pad_trace[i] < r.pad_all[i],
                    "{}: pad-trace must be cheaper at index {i}",
                    r.bench
                );
            }
            // pad-all grows steeply with block size (Table 4: ~tens of % at
            // 16 B, >100% at 64 B).
            assert!(r.pad_all[0] > 5.0, "{}: {:?}", r.bench, r.pad_all);
            assert!(r.pad_all[2] > 80.0, "{}: {:?}", r.bench, r.pad_all);
            assert!(r.pad_all[2] > r.pad_all[0], "{}: {:?}", r.bench, r.pad_all);
            // pad-trace stays moderate.
            assert!(r.pad_trace[0] < 30.0, "{}: {:?}", r.bench, r.pad_trace);
        }
    }
}
