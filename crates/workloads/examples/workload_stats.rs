//! Prints dynamic-stream statistics for every benchmark in the suite:
//! branch frequency, taken rate, and the Table 2 intra-block percentages.
//!
//! Run with `cargo run -p fetchmech-workloads --example workload_stats`.

use fetchmech_isa::{Layout, LayoutOptions, TraceStats};
use fetchmech_workloads::{suite, InputId};

fn main() {
    const N: u64 = 200_000;
    println!(
        "{:<10} {:>7} {:>7} {:>6} {:>6}  {:>6} {:>6} {:>6}",
        "bench", "static", "brfreq", "taken", "run", "16B", "32B", "64B"
    );
    for w in suite::full_suite() {
        let layout = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        let mut s16 = TraceStats::new();
        let mut s32 = TraceStats::new();
        let mut s64 = TraceStats::new();
        for d in w.block_stream(&layout, InputId::TEST, N).iter() {
            s16.observe(d, 16);
            s32.observe(d, 32);
            s64.observe(d, 64);
        }
        println!(
            "{:<10} {:>7} {:>6.1}% {:>5.1}% {:>6.1}  {:>5.1}% {:>5.1}% {:>5.1}%",
            w.spec.name,
            layout.code().len(),
            100.0 * s16.cond_branches as f64 / s16.insts as f64,
            100.0 * s16.taken_rate(),
            s16.insts as f64 / s16.taken_controls.max(1) as f64,
            s16.intra_block_pct(),
            s32.intra_block_pct(),
            s64.intra_block_pct(),
        );
    }
}
