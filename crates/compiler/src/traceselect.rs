//! Fisher-style trace selection (trace scheduling's "trace selection" phase,
//! as used by Hwu & Chang for instruction-cache layout).
//!
//! Traces are grown greedily from the hottest unselected block, forward along
//! the most likely successor edge and backward along the most likely
//! predecessor edge, while the transition probability stays at or above a
//! threshold and the next block is unselected and in the same function.

use std::collections::HashMap;

use fetchmech_isa::{BlockId, Program};

use crate::profile::Profile;

/// One selected trace: a sequence of blocks expected to execute sequentially.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Blocks in layout order.
    pub blocks: Vec<BlockId>,
    /// Profile weight of the seed block (used to order traces).
    pub weight: u64,
}

/// Minimum transition probability to extend a trace (Fisher used values
/// around 0.5–0.7; this follows Hwu & Chang's 0.6).
pub(crate) const TRACE_THRESHOLD: f64 = 0.6;
/// Maximum trace length in blocks (guards pathological growth).
pub(crate) const TRACE_MAX_BLOCKS: usize = 64;
// A threshold below 0.5 would let a non-majority edge extend a trace, one
// above 1 would forbid every extension, and a zero length would forbid even
// singleton traces.
const _: () = assert!(TRACE_THRESHOLD >= 0.5 && TRACE_THRESHOLD <= 1.0);
const _: () = assert!(TRACE_MAX_BLOCKS >= 1);

/// Selects traces covering every block of `program`.
///
/// Every block appears in exactly one trace; blocks the profile never saw
/// become singleton traces with zero weight (laid out last).
#[must_use]
pub fn select_traces(program: &Program, profile: &Profile) -> Vec<Trace> {
    let n = program.num_blocks();
    let mut selected = vec![false; n];

    // Most-likely predecessor map: for backward growth we need, per block,
    // the predecessor edges and their weights.
    let mut pred_edges: HashMap<BlockId, Vec<(BlockId, f64)>> = HashMap::new();
    for b in program.blocks() {
        for (succ, w) in profile.edge_weights(program, b.id) {
            pred_edges.entry(succ).or_default().push((b.id, w));
        }
    }

    // Seeds in descending profile weight (stable on block id for ties).
    let mut seeds: Vec<BlockId> = (0..n as u32).map(BlockId).collect();
    seeds.sort_by_key(|&b| (std::cmp::Reverse(profile.block_count(b)), b.0));

    let mut traces = Vec::new();
    for seed in seeds {
        if selected[seed.0 as usize] {
            continue;
        }
        selected[seed.0 as usize] = true;
        let seed_func = program.block(seed).func;
        let mut blocks = vec![seed];

        // Grow forward from the tail.
        loop {
            if blocks.len() >= TRACE_MAX_BLOCKS {
                break;
            }
            let tail = *blocks.last().expect("nonempty");
            let edges = profile.edge_weights(program, tail);
            let total: f64 = edges.iter().map(|(_, w)| w).sum();
            let Some(&(succ, w)) = edges.iter().max_by(|a, b| a.1.total_cmp(&b.1)) else {
                break;
            };
            if total <= 0.0
                || w / total < TRACE_THRESHOLD
                || selected[succ.0 as usize]
                || program.block(succ).func != seed_func
            {
                break;
            }
            selected[succ.0 as usize] = true;
            blocks.push(succ);
        }

        // Grow backward from the head.
        loop {
            if blocks.len() >= TRACE_MAX_BLOCKS {
                break;
            }
            let head = blocks[0];
            let Some(preds) = pred_edges.get(&head) else {
                break;
            };
            let Some(&(pred, w)) = preds.iter().max_by(|a, b| a.1.total_cmp(&b.1)) else {
                break;
            };
            // The predecessor joins the trace only if `head` is also the
            // predecessor's most likely successor (mutual-best, per Fisher).
            let pred_edges_fwd = profile.edge_weights(program, pred);
            let pred_total: f64 = pred_edges_fwd.iter().map(|(_, w)| w).sum();
            let best_fwd = pred_edges_fwd
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|&(s, _)| s);
            if w <= 0.0
                || pred_total <= 0.0
                || best_fwd != Some(head)
                || w / pred_total < TRACE_THRESHOLD
                || selected[pred.0 as usize]
                || program.block(pred).func != seed_func
            {
                break;
            }
            selected[pred.0 as usize] = true;
            blocks.insert(0, pred);
        }

        let weight = blocks
            .iter()
            .map(|&b| profile.block_count(b))
            .max()
            .unwrap_or(0);
        traces.push(Trace { blocks, weight });
    }
    crate::hooks::check_traces(program, &traces);
    traces
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchmech_workloads::{suite, InputId, Workload, WorkloadSpec};

    fn profiled() -> (Workload, Profile) {
        let mut s = WorkloadSpec::base_int("tsel-unit", 21);
        s.funcs = 4;
        let w = Workload::generate(s);
        let p = Profile::collect(&w, &InputId::PROFILE, 20_000);
        (w, p)
    }

    #[test]
    fn traces_partition_all_blocks() {
        let (w, p) = profiled();
        let traces = select_traces(&w.program, &p);
        let mut seen = vec![false; w.program.num_blocks()];
        for t in &traces {
            for &b in &t.blocks {
                assert!(!seen[b.0 as usize], "block {b} appears twice");
                seen[b.0 as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every block must be covered");
    }

    #[test]
    fn traces_never_cross_functions() {
        let (w, p) = profiled();
        for t in select_traces(&w.program, &p) {
            let func = w.program.block(t.blocks[0]).func;
            for &b in &t.blocks {
                assert_eq!(w.program.block(b).func, func);
            }
        }
    }

    #[test]
    fn consecutive_trace_blocks_are_cfg_successors() {
        let (w, p) = profiled();
        for t in select_traces(&w.program, &p) {
            for pair in t.blocks.windows(2) {
                let succs: Vec<_> = w
                    .program
                    .block(pair[0])
                    .terminator
                    .local_successors()
                    .into_iter()
                    .map(|(_, s)| s)
                    .collect();
                assert!(
                    succs.contains(&pair[1]),
                    "{} -> {} is not a CFG edge",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn hot_traces_are_multi_block() {
        let w = suite::benchmark("compress").expect("known");
        let p = Profile::collect(&w, &InputId::PROFILE, 50_000);
        let traces = select_traces(&w.program, &p);
        let longest = traces
            .iter()
            .map(|t| t.blocks.len())
            .max()
            .expect("nonempty");
        assert!(
            longest >= 3,
            "expected multi-block traces, longest = {longest}"
        );
    }

    #[test]
    fn trace_edges_meet_the_threshold_across_the_suite() {
        for w in suite::full_suite() {
            let name = &w.spec.name;
            let p = Profile::collect(&w, &InputId::PROFILE, 10_000);
            for t in select_traces(&w.program, &p) {
                assert!(t.blocks.len() <= TRACE_MAX_BLOCKS, "{name}");
                for pair in t.blocks.windows(2) {
                    let edges = p.edge_weights(&w.program, pair[0]);
                    let total: f64 = edges.iter().map(|(_, w)| w).sum();
                    let chained: f64 = edges
                        .iter()
                        .filter(|(s, _)| *s == pair[1])
                        .map(|(_, w)| w)
                        .sum();
                    assert!(
                        total > 0.0 && chained / total >= TRACE_THRESHOLD,
                        "{name}: {} -> {} has probability {chained}/{total}",
                        pair[0],
                        pair[1]
                    );
                }
            }
        }
    }
}
