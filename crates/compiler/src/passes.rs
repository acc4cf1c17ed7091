//! The optimization pass pipeline: an ordered sequence of verified program
//! transforms.
//!
//! Each pass application records everything the translation-validation
//! layer (the analysis crate) needs to check it *statically*: the before and
//! after programs, block/branch relation maps, the layout orders, and a
//! pass-specific edit summary declaring exactly what changed. The pipeline
//! also threads *cumulative* origin maps back to the original program so
//! branch behavior models can be aliased onto duplicated branches
//! (`BehaviorMap::with_origin`) and profiles can be remapped between passes.
//!
//! Passes:
//! - [`PassKind::Lvn`] — local value numbering ([`mod@crate::lvn`]).
//! - [`PassKind::Dce`] — dead-code elimination ([`mod@crate::dce`]).
//! - [`PassKind::Superblock`] — tail duplication ([`mod@crate::superblock`]).
//! - [`PassKind::Straighten`] — branch-sense inversion so hot successors
//!   fall through in the current layout order.

use std::collections::HashMap;

use fetchmech_isa::{BlockId, BranchId, Program, Terminator};

use crate::dce::{dce, DeadSite};
use crate::lvn::{lvn, LvnRewrite};
use crate::profile::Profile;
use crate::superblock::superblock;

/// One pass of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassKind {
    /// Local value numbering: redundant pure computations become copies.
    Lvn,
    /// Dead-code elimination: writes no execution can observe are removed.
    Dce,
    /// Superblock formation: side-entered trace tails are duplicated.
    Superblock,
    /// Branch straightening: branch senses inverted so the hot successor
    /// falls through in layout order.
    Straighten,
}

impl PassKind {
    /// Every pass, in the default pipeline order.
    pub const ALL: [Self; 4] = [Self::Lvn, Self::Dce, Self::Superblock, Self::Straighten];

    /// Stable CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Lvn => "lvn",
            Self::Dce => "dce",
            Self::Superblock => "superblock",
            Self::Straighten => "straighten",
        }
    }

    /// Parses a CLI name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl std::fmt::Display for PassKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Code-growth budget for the pipeline's tail duplication, as a fraction of
/// the program's static instruction count.
pub(crate) const SUPERBLOCK_GROWTH: f64 = 0.25;

/// The pass-specific edit summary: a *declaration* of what the pass did,
/// which the validation layer checks against the before/after programs.
#[derive(Debug, Clone)]
pub enum PassEdit {
    /// LVN rewrote these instructions to copies.
    Lvn {
        /// Every rewrite, sorted by `(block, inst)`.
        rewrites: Vec<LvnRewrite>,
    },
    /// DCE removed these body instructions (before-program coordinates).
    Dce {
        /// Removed sites, sorted by `(block, inst)`.
        removed: Vec<DeadSite>,
        /// Rounds to the fixpoint.
        rounds: usize,
    },
    /// Superblock formation duplicated these blocks.
    Superblock {
        /// `(duplicate, original)` pairs in creation order.
        duplicated: Vec<(BlockId, BlockId)>,
        /// Number of traces that had a tail duplicated.
        formed: usize,
    },
    /// Straightening inverted this many branch senses.
    Straighten {
        /// Number of inverted conditional branches.
        inverted: usize,
    },
}

/// One recorded pass application: everything needed to validate the step.
#[derive(Debug, Clone)]
pub struct PassApplication {
    /// Which pass ran.
    pub pass: PassKind,
    /// The program the pass consumed.
    pub before: Program,
    /// The program the pass produced.
    pub after: Program,
    /// Per after-program block, the before-program block it corresponds to.
    pub rel_block: Vec<BlockId>,
    /// Per after-program branch, the before-program branch it corresponds
    /// to.
    pub rel_branch: Vec<BranchId>,
    /// Per before-program block, the *original* (pipeline input) block it
    /// descends from.
    pub block_origin_before: Vec<BlockId>,
    /// Per after-program block, the original block it descends from.
    pub block_origin_after: Vec<BlockId>,
    /// Per before-program branch, the original branch it descends from.
    pub branch_origin_before: Vec<BranchId>,
    /// Per after-program branch, the original branch it descends from.
    pub branch_origin_after: Vec<BranchId>,
    /// Layout order before the pass.
    pub order_before: Vec<BlockId>,
    /// Layout order after the pass.
    pub order_after: Vec<BlockId>,
    /// The pass's declared edit.
    pub edit: PassEdit,
}

/// The pipeline result.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The final program.
    pub program: Program,
    /// The final layout order (a permutation of the final program's blocks).
    pub order: Vec<BlockId>,
    /// Per final block, the original-program block it descends from.
    pub block_origin: Vec<BlockId>,
    /// Per final branch, the original-program branch it descends from.
    pub branch_origin: Vec<BranchId>,
    /// Every pass application, in execution order.
    pub applications: Vec<PassApplication>,
}

fn identity_blocks(n: usize) -> Vec<BlockId> {
    (0..n as u32).map(BlockId).collect()
}

fn identity_branches(n: u32) -> Vec<BranchId> {
    (0..n).map(BranchId).collect()
}

/// Inverts conditional branches whose *taken* edge leads to the next block
/// in `order`, so the hot path falls through. Returns the edited program
/// and the inversion count. The pipeline's `straighten` pass, and the last
/// step of `reorder`.
pub(crate) fn straighten(program: &Program, order: &[BlockId]) -> (Program, usize) {
    let position: HashMap<BlockId, usize> =
        order.iter().enumerate().map(|(i, &b)| (b, i)).collect();
    let mut edits = HashMap::new();
    let mut count = 0usize;
    for block in program.blocks() {
        if let Terminator::CondBranch {
            id,
            srcs,
            taken,
            fall,
            inverted,
        } = block.terminator
        {
            let next = order.get(position[&block.id] + 1).copied();
            if Some(taken) == next && taken != fall {
                edits.insert(
                    block.id,
                    Terminator::CondBranch {
                        id,
                        srcs,
                        taken: fall,
                        fall: taken,
                        inverted: !inverted,
                    },
                );
                count += 1;
            }
        }
    }
    let edited = program
        .with_terminators(&edits)
        .expect("sense inversion preserves program validity");
    (edited, count)
}

/// Runs `passes` in order over `program`, recording every application.
///
/// `profile` must have the *original* program's dimensions; it is remapped
/// through the cumulative origin maps for passes that consume it. The final
/// result is handed to the optimize verification hook (debug builds).
///
/// # Panics
///
/// Panics if an intermediate program fails re-validation (a pass bug), or
/// if the installed verification hook rejects the result.
#[must_use]
pub fn optimize(program: &Program, profile: &Profile, passes: &[PassKind]) -> Optimized {
    assert_eq!(
        profile.num_blocks(),
        program.num_blocks(),
        "profile dimensions must match the input program"
    );
    let mut cur = program.clone();
    let mut order = identity_blocks(program.num_blocks());
    let mut cum_block = identity_blocks(program.num_blocks());
    let mut cum_branch = identity_branches(program.num_branches());
    let mut applications = Vec::with_capacity(passes.len());

    for &pass in passes {
        let before = cur.clone();
        let order_before = order.clone();
        let block_origin_before = cum_block.clone();
        let branch_origin_before = cum_branch.clone();

        let (after, rel_block, rel_branch, order_after, edit) = match pass {
            PassKind::Lvn => {
                let r = lvn(&cur);
                (
                    r.program,
                    identity_blocks(before.num_blocks()),
                    identity_branches(before.num_branches()),
                    order.clone(),
                    PassEdit::Lvn {
                        rewrites: r.rewrites,
                    },
                )
            }
            PassKind::Dce => {
                let r = dce(&cur);
                (
                    r.program,
                    identity_blocks(before.num_blocks()),
                    identity_branches(before.num_branches()),
                    order.clone(),
                    PassEdit::Dce {
                        removed: r.removed,
                        rounds: r.rounds,
                    },
                )
            }
            PassKind::Superblock => {
                let prof = profile.project(&cum_block, &cum_branch);
                let r = superblock(&cur, &prof, SUPERBLOCK_GROWTH);
                (
                    r.program,
                    r.rel_block,
                    r.rel_branch,
                    r.order,
                    PassEdit::Superblock {
                        duplicated: r.duplicated,
                        formed: r.formed,
                    },
                )
            }
            PassKind::Straighten => {
                let (p, inverted) = straighten(&cur, &order);
                (
                    p,
                    identity_blocks(before.num_blocks()),
                    identity_branches(before.num_branches()),
                    order.clone(),
                    PassEdit::Straighten { inverted },
                )
            }
        };

        cum_block = rel_block.iter().map(|&b| cum_block[b.0 as usize]).collect();
        let branch_origin_after: Vec<BranchId> = rel_branch
            .iter()
            .map(|&i| branch_origin_before[i.0 as usize])
            .collect();
        applications.push(PassApplication {
            pass,
            before,
            after: after.clone(),
            rel_block,
            rel_branch,
            block_origin_before,
            block_origin_after: cum_block.clone(),
            branch_origin_before,
            branch_origin_after: branch_origin_after.clone(),
            order_before,
            order_after: order_after.clone(),
            edit,
        });
        cur = after;
        order = order_after;
        cum_branch = branch_origin_after;
    }

    let optimized = Optimized {
        program: cur,
        order,
        block_origin: cum_block,
        branch_origin: cum_branch,
        applications,
    };
    crate::hooks::check_optimize(program, &optimized);
    optimized
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchmech_workloads::{suite, InputId, Workload};

    fn run(name: &str, passes: &[PassKind]) -> (Workload, Profile, Optimized) {
        let w = suite::benchmark(name).expect("known");
        let p = Profile::collect(&w, &InputId::PROFILE, 30_000);
        let o = optimize(&w.program, &p, passes);
        (w, p, o)
    }

    #[test]
    fn full_pipeline_keeps_maps_consistent() {
        let (w, _, o) = run("compress", &PassKind::ALL);
        assert_eq!(o.applications.len(), 4);
        assert_eq!(o.block_origin.len(), o.program.num_blocks());
        assert_eq!(o.branch_origin.len(), o.program.num_branches() as usize);
        for &b in &o.block_origin {
            assert!((b.0 as usize) < w.program.num_blocks());
        }
        for &br in &o.branch_origin {
            assert!(br.0 < w.program.num_branches());
        }
        // The order is a permutation of the final program's blocks.
        let mut seen = vec![false; o.program.num_blocks()];
        for &b in &o.order {
            assert!(!seen[b.0 as usize]);
            seen[b.0 as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Applications chain: each after is the next before.
        for pair in o.applications.windows(2) {
            assert_eq!(pair[0].after, pair[1].before);
        }
        assert_eq!(o.applications.last().expect("nonempty").after, o.program);
    }

    #[test]
    fn straighten_inverts_toward_the_superblock_order() {
        let (_, _, o) = run("eqntott", &[PassKind::Superblock, PassKind::Straighten]);
        let PassEdit::Straighten { inverted } = &o.applications[1].edit else {
            panic!("expected straighten edit");
        };
        assert!(*inverted > 0, "branchy code should invert something");
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let (w, _, o) = run("compress", &[]);
        assert_eq!(o.program, w.program);
        assert!(o.applications.is_empty());
        assert_eq!(o.order, identity_blocks(w.program.num_blocks()));
    }

    #[test]
    fn pass_names_round_trip() {
        for p in PassKind::ALL {
            assert_eq!(PassKind::parse(p.name()), Some(p));
        }
        assert_eq!(PassKind::parse("nope"), None);
    }
}
