//! Dynamic soundness of the dataflow analyses: the claims the static lints
//! make are checked against real executions of property-generated
//! workloads.
//!
//! * **Reachability** may under-approximate ("I don't know if this runs")
//!   but never over-approximate: no block an execution actually visits is
//!   ever reported unreachable.
//! * **Dead-write** findings claim the written value is overwritten on
//!   every path before any read — so no execution may read a register
//!   whose last writer was a flagged site.

use std::collections::HashSet;

use fetchmech_analysis::dataflow::{dead_writes, liveness, reachability};
use fetchmech_isa::{Addr, CfgView, Layout, LayoutOptions};
use fetchmech_workloads::{InputId, Workload, WorkloadSpec};
use proptest::prelude::*;

const BLOCK_BYTES: u64 = 16;
const TRACE_LEN: u64 = 4_000;

fn generated(seed: u64, funcs: usize, loop_prob: f64, call_prob: f64) -> Workload {
    let mut spec = WorkloadSpec::base_int("prop-dataflow", seed);
    spec.funcs = funcs;
    // The segment-kind probabilities (loops, calls, hammocks, diamonds)
    // must sum to at most 1; scale the drawn pair into the budget the base
    // spec's hammock/diamond defaults leave free.
    let free = (1.0 - spec.hammock_prob - spec.diamond_prob).max(0.0) * 0.95;
    let total = loop_prob + call_prob;
    let scale = if total > 0.0 {
        free / total.max(1.0)
    } else {
        0.0
    };
    spec.loop_prob = loop_prob * scale;
    spec.call_prob = call_prob * scale;
    Workload::generate(spec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every block an execution visits is statically reachable.
    #[test]
    fn executed_blocks_are_never_reported_unreachable(
        seed in 0u64..100_000,
        funcs in 1usize..5,
        loop_prob in 0.0f64..1.0,
        call_prob in 0.0f64..1.0,
    ) {
        let w = generated(seed, funcs, loop_prob, call_prob);
        let layout =
            Layout::natural(&w.program, LayoutOptions::new(BLOCK_BYTES)).expect("layout");
        let reach = reachability(&w.program);

        let mut visited: HashSet<u32> = HashSet::new();
        for d in w.block_stream(&layout, InputId::TEST, TRACE_LEN).iter() {
            let idx = layout.index_of(d.addr).expect("executed addr is laid");
            visited.insert(layout.code()[idx].block.0);
        }
        prop_assert!(!visited.is_empty(), "execution visits at least the entry");
        for b in visited {
            prop_assert!(
                reach[b as usize],
                "block B{b} executed but reported unreachable"
            );
        }
    }

    /// No execution reads a register whose last writer the dead-write
    /// analysis flagged: "overwritten on every path before any read" must
    /// hold on the real path too.
    #[test]
    fn flagged_dead_writes_are_never_read_at_runtime(
        seed in 0u64..100_000,
        funcs in 1usize..5,
        loop_prob in 0.0f64..1.0,
        call_prob in 0.0f64..1.0,
    ) {
        let w = generated(seed, funcs, loop_prob, call_prob);
        let layout =
            Layout::natural(&w.program, LayoutOptions::new(BLOCK_BYTES)).expect("layout");

        let view = CfgView::local(&w.program);
        let live = liveness(&w.program, &view);
        // Body instructions are laid first within each block, so site
        // (block, inst) sits at block_addr + 4*inst.
        let sites: HashSet<Addr> = dead_writes(&w.program, &view, &live)
            .iter()
            .map(|dw| layout.block_addr(dw.block).add_words(dw.inst as u64))
            .collect();

        // Walk the execution: reads happen before the writing inst's own
        // def, so check srcs first, then update the per-register flag.
        let mut last_write_flagged = [false; 64];
        for d in w.block_stream(&layout, InputId::TEST, TRACE_LEN).iter() {
            for src in d.srcs.iter().flatten() {
                prop_assert!(
                    !last_write_flagged[src.file_index()],
                    "register {src} read at {} but its last write was \
                     reported dead",
                    d.addr
                );
            }
            if let Some(dest) = d.dest {
                last_write_flagged[dest.file_index()] = sites.contains(&d.addr);
            }
        }
    }
}
