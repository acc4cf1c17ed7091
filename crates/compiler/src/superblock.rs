//! Superblock formation by tail duplication (Hwu et al.'s superblock
//! construction, applied here for fetch-geometry rather than scheduling).
//!
//! Trace selection gives hot multi-block paths, but side entrances into the
//! middle of a trace keep the trace from being one long sequential run: a
//! join forces the layout to either break the run or accept cold control
//! transfers into it. Tail duplication removes the joins: from the first
//! side-entered block onward, the trace tail is *duplicated*, every side
//! edge is redirected into the duplicate chain, and the original tail keeps
//! exactly one predecessor — its trace predecessor. The hot path becomes a
//! superblock (single entry, multiple exits) that branch straightening and
//! the layout can then turn into a long fall-through run.
//!
//! Duplicated conditional branches get *fresh* branch ids; the returned
//! `rel_branch` map ties each new id back to the branch it was copied from
//! so behavior models and profiles can be aliased (see
//! `BehaviorMap::with_origin`).

use std::collections::{HashMap, HashSet};

use fetchmech_isa::{BlockId, BranchId, CfgView, Program, Terminator};

use crate::profile::Profile;
use crate::traceselect::{select_traces, Trace, TraceSelectConfig};

/// The result of superblock formation.
#[derive(Debug, Clone)]
pub struct SuperblockResult {
    /// Program with duplicated trace tails appended as new blocks.
    pub program: Program,
    /// Block layout order: function-major, traces and duplicate chains
    /// chained by likely-successor weight so hot transitions fall through
    /// (a permutation of all blocks, originals and copies).
    pub order: Vec<BlockId>,
    /// Per block of the new program, the block of the *input* program it
    /// corresponds to (identity for originals).
    pub rel_block: Vec<BlockId>,
    /// Per branch id of the new program, the input-program branch it was
    /// copied from (identity for originals).
    pub rel_branch: Vec<BranchId>,
    /// Every `(duplicate, original)` pair, in creation order.
    pub duplicated: Vec<(BlockId, BlockId)>,
    /// Number of traces that actually had a tail duplicated.
    pub formed: usize,
}

/// Redirects every edge of `term` that targets `from` to `to`.
fn retarget(term: &mut Terminator, from: BlockId, to: BlockId) {
    match term {
        Terminator::FallThrough { next } | Terminator::Jump { target: next } => {
            if *next == from {
                *next = to;
            }
        }
        Terminator::CondBranch { taken, fall, .. } => {
            if *taken == from {
                *taken = to;
            }
            if *fall == from {
                *fall = to;
            }
        }
        // Callees are function entries and entries are never duplicated;
        // only the return-to (call fall-through) edge can point at a tail.
        Terminator::Call { return_to, .. } => {
            if *return_to == from {
                *return_to = to;
            }
        }
        Terminator::Return | Terminator::Halt => {}
    }
}

/// Forms superblocks: selects traces on `profile`, then tail-duplicates
/// every side-entered trace suffix, within a code-growth budget of
/// `growth_limit` (fraction of the program's static instruction count).
///
/// # Panics
///
/// Panics if the edited program fails re-validation (duplication with fresh
/// branch ids cannot break structural invariants).
#[must_use]
pub fn superblock(
    program: &Program,
    profile: &Profile,
    config: &TraceSelectConfig,
    growth_limit: f64,
) -> SuperblockResult {
    let traces = select_traces(program, profile, config);
    let view = CfgView::local(program);
    let entries: HashSet<BlockId> = program.func_entries().iter().copied().collect();

    let n0 = program.num_blocks();
    let mut edit = program.edit();
    let mut rel_block: Vec<BlockId> = (0..n0 as u32).map(BlockId).collect();
    let mut rel_branch: Vec<BranchId> = (0..program.num_branches()).map(BranchId).collect();
    let mut duplicated = Vec::new();
    let mut formed = 0usize;
    // Duplicate chain per trace index, for the order below.
    let mut chains: Vec<Vec<BlockId>> = vec![Vec::new(); traces.len()];

    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let budget = (growth_limit.max(0.0) * program.static_inst_upper_bound() as f64) as usize;
    let mut spent = 0usize;

    // Hottest traces get the budget first.
    let mut by_weight: Vec<usize> = (0..traces.len())
        .filter(|&i| traces[i].weight > 0 && traces[i].blocks.len() >= 2)
        .collect();
    by_weight.sort_by_key(|&i| (std::cmp::Reverse(traces[i].weight), i));

    for ti in by_weight {
        let t = &traces[ti].blocks;
        // The duplicable suffix ends at the first function entry (entries
        // carry the implicit caller edge and cannot be duplicated).
        let end = (1..t.len())
            .find(|&j| entries.contains(&t[j]))
            .unwrap_or(t.len());
        // It starts at the first side-entered block: one with a predecessor
        // other than its trace predecessor.
        let Some(start) =
            (1..end).find(|&j| view.predecessors(t[j]).iter().any(|&p| p != t[j - 1]))
        else {
            continue;
        };

        let cost: usize = t[start..end]
            .iter()
            .map(|&b| program.block(b).insts.len() + 1)
            .sum();
        if spent + cost > budget {
            continue;
        }
        spent += cost;
        formed += 1;

        // Clone the tail blocks, giving duplicated conditional branches
        // fresh ids mapped back to their originals. Terminators are cloned
        // from the *edited* program: an earlier trace may already have
        // redirected this block's edges into its own duplicate chain.
        let mut chain = Vec::with_capacity(end - start);
        for &orig in &t[start..end] {
            let insts = edit.block(orig).insts.clone();
            let func = edit.block(orig).func;
            let mut term = edit.block(orig).terminator;
            if let Terminator::CondBranch { id, .. } = &mut term {
                let from = rel_branch[id.0 as usize];
                *id = edit.alloc_branch();
                debug_assert_eq!(id.0 as usize, rel_branch.len());
                rel_branch.push(from);
            }
            let dup = edit.add_block(func, insts, term);
            debug_assert_eq!(dup.0 as usize, rel_block.len());
            rel_block.push(orig);
            duplicated.push((dup, orig));
            chain.push(dup);
        }

        // Redirect every edge into t[start..end] — except the unique
        // in-trace edge t[j-1] -> t[j] — to the duplicate. This includes
        // edges from the duplicates themselves, which links the chain
        // (dup(t[j-1])'s cloned edge to t[j] becomes dup(t[j-1]) ->
        // dup(t[j])) and keeps duplicate-path rejoins inside the chain.
        for (pos, &orig) in t[start..end].iter().enumerate() {
            let dup = chain[pos];
            let keep = t[pos + start - 1];
            for u in 0..edit.num_blocks() {
                let u = BlockId(u as u32);
                if u == keep {
                    continue;
                }
                let mut term = edit.block(u).terminator;
                retarget(&mut term, orig, dup);
                if term != edit.block(u).terminator {
                    edit.set_terminator(u, term);
                }
            }
        }
        chains[ti] = chain;
    }

    let new_program = edit
        .finish()
        .expect("tail duplication preserves program validity");
    // Alias the input profile onto the duplicated program: copies inherit
    // their origin's counts. This overstates duplicate hotness (flow splits
    // between original and copy) but preserves branch directions, which is
    // all the chaining below needs.
    let new_profile = profile.project(&rel_block, &rel_branch);
    let order = layout_order(&new_program, &new_profile, &traces, &chains, &rel_block);
    let result = SuperblockResult {
        program: new_program,
        order,
        rel_block,
        rel_branch,
        duplicated,
        formed,
    };
    debug_assert_eq!(result.order.len(), result.program.num_blocks());
    result
}

/// Places `traces` over the unchanged `program`: the [`layout_order`] of
/// zero code growth, which is how `reorder` lays out its traces.
pub(crate) fn place_traces(program: &Program, profile: &Profile, traces: &[Trace]) -> Vec<BlockId> {
    layout_order(
        program,
        profile,
        traces,
        &vec![Vec::new(); traces.len()],
        &[],
    )
}

/// Function-major order with likely-successor chaining over layout units.
///
/// Each trace and each duplicate chain is a unit. Within a function, units
/// start in flow order (minimum *origin* block id, so a duplicate chain
/// starts out next to the code it was copied from, and join traces near
/// their predecessors), then, Pettis-Hansen style, each placed unit pulls
/// the unplaced unit whose head is the most likely successor of its tail.
/// Without the chain step, unit-to-unit transitions that are `FallThrough`
/// edges in the CFG land non-adjacent and materialize as jump instructions,
/// *adding* taken breaks instead of removing them.
fn layout_order(
    program: &Program,
    profile: &Profile,
    traces: &[Trace],
    chains: &[Vec<BlockId>],
    rel_block: &[BlockId],
) -> Vec<BlockId> {
    struct Unit<'a> {
        blocks: &'a [BlockId],
        key: u32,
    }
    let mut by_func: Vec<Vec<Unit>> = (0..program.num_funcs()).map(|_| Vec::new()).collect();
    for (i, t) in traces.iter().enumerate() {
        let f = program.block(t.blocks[0]).func.0 as usize;
        let key = t.blocks.iter().map(|b| b.0).min().unwrap_or(u32::MAX);
        by_func[f].push(Unit {
            blocks: &t.blocks,
            key,
        });
        if !chains[i].is_empty() {
            let key = chains[i]
                .iter()
                .map(|&b| rel_block[b.0 as usize].0)
                .min()
                .unwrap_or(u32::MAX);
            by_func[f].push(Unit {
                blocks: &chains[i],
                key,
            });
        }
    }
    let mut order = Vec::with_capacity(program.num_blocks());
    for mut units in by_func {
        units.sort_by_key(|u| (u.key, u.blocks[0].0));
        let head_of: HashMap<BlockId, usize> = units
            .iter()
            .enumerate()
            .map(|(i, u)| (u.blocks[0], i))
            .collect();
        let mut placed = vec![false; units.len()];
        let mut last_tail: Option<BlockId> = None;
        for _ in 0..units.len() {
            // Prefer the unit headed by the most likely successor of the
            // last placed tail; fall back to flow order when the chain
            // breaks (exit edge, successor already placed, or cold tail).
            let next = last_tail
                .and_then(|tail| {
                    profile
                        .edge_weights(program, tail)
                        .into_iter()
                        .filter(|&(_, w)| w > 0.0)
                        .max_by(|a, b| a.1.total_cmp(&b.1))
                        .map(|(succ, _)| succ)
                })
                .and_then(|succ| head_of.get(&succ).copied())
                .filter(|&i| !placed[i])
                .unwrap_or_else(|| {
                    placed
                        .iter()
                        .position(|&p| !p)
                        .expect("unplaced unit remains")
                });
            placed[next] = true;
            order.extend(units[next].blocks.iter().copied());
            last_tail = units[next].blocks.last().copied();
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchmech_workloads::{suite, InputId, Workload};

    fn formed(name: &str) -> (Workload, Profile, SuperblockResult) {
        let w = suite::benchmark(name).expect("known");
        let p = Profile::collect(&w, &InputId::PROFILE, 30_000);
        let r = superblock(&w.program, &p, &TraceSelectConfig::default(), 0.25);
        (w, p, r)
    }

    #[test]
    fn duplication_happens_and_maps_are_consistent() {
        let (w, _, r) = formed("compress");
        assert!(r.formed > 0, "compress has side-entered hot traces");
        assert!(r.program.num_blocks() > w.program.num_blocks());
        assert_eq!(r.rel_block.len(), r.program.num_blocks());
        assert_eq!(r.rel_branch.len(), r.program.num_branches() as usize);
        // Originals map to themselves; duplicates map into the input range.
        for b in 0..w.program.num_blocks() {
            assert_eq!(r.rel_block[b], BlockId(b as u32));
        }
        for (dup, orig) in &r.duplicated {
            assert_eq!(r.rel_block[dup.0 as usize], *orig);
            assert_eq!(
                r.program.block(*dup).insts,
                w.program.block(*orig).insts,
                "duplicate body differs from original"
            );
        }
    }

    #[test]
    fn order_is_a_permutation_of_all_blocks() {
        let (_, _, r) = formed("compress");
        let mut seen = vec![false; r.program.num_blocks()];
        for &b in &r.order {
            assert!(!seen[b.0 as usize], "block {b} placed twice");
            seen[b.0 as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn duplicated_tails_have_a_single_predecessor() {
        let (_, _, r) = formed("compress");
        let view = CfgView::local(&r.program);
        let dups: HashSet<BlockId> = r.duplicated.iter().map(|&(d, _)| d).collect();
        for &(dup, orig) in &r.duplicated {
            // The original tail block now has exactly one predecessor (its
            // trace predecessor) unless the chain rejoined it.
            let preds = view.predecessors(orig);
            let outside: Vec<_> = preds.iter().filter(|p| !dups.contains(p)).collect();
            assert!(
                outside.len() <= 1,
                "original {orig} still has side entrances: {outside:?}"
            );
            // Duplicates are reachable: something points at them.
            assert!(
                !view.predecessors(dup).is_empty(),
                "duplicate {dup} is orphaned"
            );
        }
    }

    #[test]
    fn growth_budget_is_respected() {
        let (w, p, _) = formed("compress");
        for limit in [0.0, 0.05, 0.25] {
            let r = superblock(&w.program, &p, &TraceSelectConfig::default(), limit);
            let grown: usize = r
                .duplicated
                .iter()
                .map(|&(_, o)| w.program.block(o).insts.len() + 1)
                .sum();
            #[allow(
                clippy::cast_precision_loss,
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss
            )]
            let budget = (limit * w.program.static_inst_upper_bound() as f64) as usize;
            assert!(grown <= budget, "grew {grown} > budget {budget}");
        }
    }

    #[test]
    fn zero_growth_only_places_code() {
        // At zero growth the former only places code: every program, block
        // and branch stays as is, and the order is `reorder`'s placement.
        for w in suite::full_suite() {
            let name = &w.spec.name;
            let p = Profile::collect(&w, &InputId::PROFILE, 10_000);
            let config = TraceSelectConfig::default();
            let r = superblock(&w.program, &p, &config, 0.0);
            assert_eq!(r.formed, 0, "{name}");
            assert!(r.duplicated.is_empty(), "{name}");
            let blocks: Vec<BlockId> = (0..w.program.num_blocks() as u32).map(BlockId).collect();
            let branches: Vec<BranchId> = (0..w.program.num_branches()).map(BranchId).collect();
            assert_eq!(r.rel_block, blocks, "{name}");
            assert_eq!(r.rel_branch, branches, "{name}");
            assert_eq!(r.program, w.program, "{name}");
            let traces = select_traces(&w.program, &p, &config);
            assert_eq!(r.order, place_traces(&w.program, &p, &traces), "{name}");
        }
    }
}
