//! Profile collection: block and branch-edge counts from profiling runs.
//!
//! The paper's methodology (§4): five training inputs generate profile
//! statistics; the processor simulation then runs a sixth, held-out input.
//! [`Profile::collect`] executes a workload on its natural layout for each
//! profiling input and accumulates per-block execution counts and per-branch
//! taken/not-taken counts.

use fetchmech_isa::{BlockId, BranchId, Layout, LayoutOptions, OpClass, Program};
use fetchmech_workloads::{InputId, Workload};

/// Aggregated execution profile of one workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Executions of each block's first instruction, by `BlockId` index.
    block_count: Vec<u64>,
    /// Hardware-taken counts per conditional branch.
    taken: Vec<u64>,
    /// Execution counts per conditional branch.
    total: Vec<u64>,
}

impl Profile {
    /// Collects a profile by running `workload` on its natural layout for
    /// `insts_per_input` instructions on each of the given inputs.
    ///
    /// Profiles are collected on the *natural* (unoptimized) layout, whose
    /// conditional branches all have their original sense, so hardware-taken
    /// counts equal semantic-taken counts.
    #[must_use]
    pub fn collect(workload: &Workload, inputs: &[InputId], insts_per_input: u64) -> Self {
        let program = &workload.program;
        let layout = Layout::natural(program, LayoutOptions::new(16))
            .expect("natural layout of a valid program");
        let mut profile = Self {
            block_count: vec![0; program.num_blocks()],
            taken: vec![0; program.num_branches() as usize],
            total: vec![0; program.num_branches() as usize],
        };
        for &input in inputs {
            for inst in workload.executor(&layout, input, insts_per_input) {
                let laid = layout
                    .inst_at(inst.addr)
                    .expect("trace address maps to layout");
                // Count block entries at the block's first instruction.
                if layout.block_addr(laid.block) == inst.addr {
                    profile.block_count[laid.block.0 as usize] += 1;
                }
                if inst.op == OpClass::CondBranch {
                    let id = laid.ctrl.and_then(|c| c.branch_id).expect("branch id");
                    profile.total[id.0 as usize] += 1;
                    if inst.ctrl.expect("branch ctrl").taken {
                        profile.taken[id.0 as usize] += 1;
                    }
                }
            }
        }
        crate::hooks::check_profile(program, &profile);
        profile
    }

    /// Builds a profile from raw per-block and per-branch count vectors.
    ///
    /// Intended for tests that need to construct (or deliberately corrupt)
    /// profiles without running an executor; a profile of a derived program
    /// comes from [`Profile::project`]. `taken`
    /// and `total` must have equal length; dimensions against any particular
    /// program are *not* checked here — that is the analysis layer's job.
    ///
    /// # Panics
    ///
    /// Panics if `taken` and `total` differ in length.
    #[must_use]
    pub fn from_raw(block_count: Vec<u64>, taken: Vec<u64>, total: Vec<u64>) -> Self {
        assert_eq!(taken.len(), total.len(), "taken/total length mismatch");
        Self {
            block_count,
            taken,
            total,
        }
    }

    /// Projects this profile onto a program derived from the profiled one:
    /// block `i` of the derived program gets the counts of `block_origin[i]`
    /// and branch `j` those of `branch_origin[j]`. A duplicate inherits its
    /// origin's full counts, so duplicated flow is counted twice; branch
    /// directions, which is what trace seeding and chaining read, survive.
    ///
    /// # Panics
    ///
    /// Panics if an origin is out of range for this profile.
    #[must_use]
    pub fn project(&self, block_origin: &[BlockId], branch_origin: &[BranchId]) -> Self {
        let (taken, total) = branch_origin.iter().map(|&o| self.branch_counts(o)).unzip();
        Self {
            block_count: block_origin.iter().map(|&o| self.block_count(o)).collect(),
            taken,
            total,
        }
    }

    /// Number of blocks this profile has counts for.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.block_count.len()
    }

    /// Number of conditional branches this profile has counts for.
    #[must_use]
    pub fn num_branches(&self) -> usize {
        self.total.len()
    }

    /// Execution count of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    #[must_use]
    pub fn block_count(&self, block: BlockId) -> u64 {
        self.block_count[block.0 as usize]
    }

    /// `(taken, total)` execution counts of `branch`.
    ///
    /// # Panics
    ///
    /// Panics if `branch` is out of range.
    #[must_use]
    pub fn branch_counts(&self, branch: BranchId) -> (u64, u64) {
        (self.taken[branch.0 as usize], self.total[branch.0 as usize])
    }

    /// Probability the branch's *taken* edge is followed (0.5 when the branch
    /// was never executed during profiling).
    #[must_use]
    pub fn taken_prob(&self, branch: BranchId) -> f64 {
        let (t, n) = self.branch_counts(branch);
        if n == 0 {
            0.5
        } else {
            t as f64 / n as f64
        }
    }

    /// The probability-weighted count of each successor edge of `block`,
    /// as `(successor, estimated count)` pairs. Unexecuted blocks report
    /// zero-count edges.
    #[must_use]
    pub fn edge_weights(&self, program: &Program, block: BlockId) -> Vec<(BlockId, f64)> {
        let b = program.block(block);
        let count = self.block_count(block) as f64;
        match b.terminator.branch_id() {
            Some(id) => {
                let p = self.taken_prob(id);
                b.terminator
                    .local_successors()
                    .into_iter()
                    .map(|(kind, succ)| {
                        let w = match kind {
                            fetchmech_isa::EdgeKind::Taken => count * p,
                            _ => count * (1.0 - p),
                        };
                        (succ, w)
                    })
                    .collect()
            }
            None => b
                .terminator
                .local_successors()
                .into_iter()
                .map(|(_, succ)| (succ, count))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchmech_workloads::{suite, WorkloadSpec};

    fn workload() -> Workload {
        let mut s = WorkloadSpec::base_int("profile-unit", 11);
        s.funcs = 4;
        Workload::generate(s)
    }

    #[test]
    fn profile_counts_are_consistent() {
        let w = workload();
        let p = Profile::collect(&w, &InputId::PROFILE, 20_000);
        // Entry block runs at least once per restart.
        assert!(p.block_count(w.program.entry()) > 0);
        for i in 0..w.program.num_branches() {
            let (t, n) = p.branch_counts(BranchId(i));
            assert!(t <= n, "taken exceeds total for br{i}");
        }
        // Some branch actually executed.
        let any = (0..w.program.num_branches()).any(|i| p.branch_counts(BranchId(i)).1 > 0);
        assert!(any);
    }

    #[test]
    fn profile_is_deterministic() {
        let w = workload();
        let a = Profile::collect(&w, &InputId::PROFILE, 10_000);
        let b = Profile::collect(&w, &InputId::PROFILE, 10_000);
        assert_eq!(a, b);
    }

    #[test]
    fn edge_weights_sum_to_block_count_for_branches() {
        let w = suite::benchmark("compress").expect("known");
        let p = Profile::collect(&w, &[InputId(0)], 20_000);
        for b in w.program.blocks() {
            if b.terminator.branch_id().is_some() {
                let total: f64 = p
                    .edge_weights(&w.program, b.id)
                    .iter()
                    .map(|(_, w)| w)
                    .sum();
                let count = p.block_count(b.id) as f64;
                // Totals agree within rounding (branch may sit after a
                // partial block execution at the trace cut).
                assert!(
                    (total - count).abs() <= count * 0.25 + 2.0,
                    "block {} edge weights {total} vs count {count}",
                    b.id
                );
            }
        }
    }

    #[test]
    fn project_copies_counts_through_the_origin_maps() {
        let p = Profile::from_raw(vec![5, 7, 0], vec![3, 1], vec![4, 2]);
        let (b, br) = (BlockId, BranchId);
        assert_eq!(p.project(&[b(0), b(1), b(2)], &[br(0), br(1)]), p);
        // Block 3 is a copy of block 1, branch 2 a copy of branch 0.
        let q = p.project(&[b(0), b(1), b(2), b(1)], &[br(0), br(1), br(0)]);
        let want = Profile::from_raw(vec![5, 7, 0, 7], vec![3, 1, 3], vec![4, 2, 4]);
        assert_eq!(q, want);
    }

    #[test]
    fn unexecuted_branch_defaults_to_half() {
        let w = workload();
        let p = Profile {
            block_count: vec![0; 4],
            taken: vec![0],
            total: vec![0],
        };
        let _ = w;
        assert_eq!(p.taken_prob(BranchId(0)), 0.5);
    }
}
