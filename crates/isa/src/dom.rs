//! Dominator trees over [`Program`] control-flow graphs.
//!
//! The Cooper–Harvey–Kennedy iterative algorithm, computed per function over
//! a [`CfgView`]. This lives in the ISA crate (rather than the analysis
//! crate, where it originated) because the compiler's SSA construction needs
//! dominance and the analysis crate depends on the compiler; the analysis
//! crate re-exports [`Dominators`] from its `dataflow` module for
//! compatibility.

use crate::cfg::{BlockId, CfgView, Program};

/// The dominator forest of a program: one tree per function, over the
/// intra-procedural CFG (Cooper–Harvey–Kennedy iterative algorithm).
#[derive(Debug, Clone)]
pub struct Dominators {
    idom: Vec<Option<BlockId>>,
}

impl Dominators {
    /// Computes immediate dominators for every block, per function.
    /// Function entries are their own immediate dominators; blocks
    /// unreachable from their function entry get `None`.
    #[must_use]
    pub fn compute(program: &Program, view: &CfgView) -> Self {
        let n = program.num_blocks();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        let mut rpo_index = vec![usize::MAX; n];

        for &entry in program.func_entries() {
            let rpo = view.reverse_postorder(entry);
            for (i, &b) in rpo.iter().enumerate() {
                rpo_index[b.0 as usize] = i;
            }
            idom[entry.0 as usize] = Some(entry);
            let mut changed = true;
            while changed {
                changed = false;
                for &b in rpo.iter().skip(1) {
                    let mut new_idom: Option<BlockId> = None;
                    for &p in view.predecessors(b) {
                        if idom[p.0 as usize].is_none() {
                            continue; // predecessor not yet processed / unreachable
                        }
                        new_idom = Some(match new_idom {
                            None => p,
                            Some(cur) => Self::intersect(&idom, &rpo_index, p, cur),
                        });
                    }
                    if new_idom.is_some() && idom[b.0 as usize] != new_idom {
                        idom[b.0 as usize] = new_idom;
                        changed = true;
                    }
                }
            }
        }
        Self { idom }
    }

    fn intersect(
        idom: &[Option<BlockId>],
        rpo_index: &[usize],
        mut a: BlockId,
        mut b: BlockId,
    ) -> BlockId {
        while a != b {
            while rpo_index[a.0 as usize] > rpo_index[b.0 as usize] {
                a = idom[a.0 as usize].expect("processed block has idom");
            }
            while rpo_index[b.0 as usize] > rpo_index[a.0 as usize] {
                b = idom[b.0 as usize].expect("processed block has idom");
            }
        }
        a
    }

    /// The immediate dominator of `block` (`Some(block)` itself for
    /// function entries, `None` for blocks unreachable from their entry).
    #[must_use]
    pub fn idom(&self, block: BlockId) -> Option<BlockId> {
        self.idom[block.0 as usize]
    }

    /// Returns `true` if `a` dominates `b` (reflexively).
    #[must_use]
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.0 as usize] {
                Some(parent) if parent != cur => cur = parent,
                _ => return false,
            }
        }
    }

    /// Depth of `block` in its dominator tree (entries are depth 0;
    /// unreachable blocks report 0).
    #[must_use]
    pub fn depth(&self, block: BlockId) -> usize {
        let mut depth = 0;
        let mut cur = block;
        while let Some(parent) = self.idom[cur.0 as usize] {
            if parent == cur {
                break;
            }
            depth += 1;
            cur = parent;
        }
        depth
    }

    /// Dominance frontiers (Cytron et al.): `frontiers[b]` holds every block
    /// `j` with a predecessor dominated by `b` where `b`'s strict dominance
    /// stops. `view` must be the same local view the tree was computed from.
    ///
    /// Function entries are implicit merge points: control also arrives from
    /// the (virtual) caller edge, so an entry with any real predecessor — a
    /// loop whose backedge re-enters the function head — behaves as if a
    /// virtual root preceded it. This is exactly the frontier SSA phi
    /// placement needs.
    #[must_use]
    pub fn frontiers(&self, program: &Program, view: &CfgView) -> Vec<Vec<BlockId>> {
        let n = self.idom.len();
        let mut is_entry = vec![false; n];
        for &e in program.func_entries() {
            if (e.0 as usize) < n {
                is_entry[e.0 as usize] = true;
            }
        }
        let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        #[allow(clippy::needless_range_loop)]
        for b in 0..n {
            let block = BlockId(b as u32);
            let preds = view.predecessors(block);
            let merge = preds.len() >= 2 || (is_entry[b] && !preds.is_empty());
            if !merge || self.idom[b].is_none() {
                continue;
            }
            let idom_b = self.idom[b].expect("checked above");
            for &p in preds {
                let mut runner = p;
                loop {
                    // With the virtual-root reading, an entry's strict
                    // dominators are exhausted only once the walk has pushed
                    // at the entry itself.
                    if !is_entry[b] && runner == idom_b {
                        break;
                    }
                    if !df[runner.0 as usize].contains(&block) {
                        df[runner.0 as usize].push(block);
                    }
                    if is_entry[b] && runner == block {
                        break;
                    }
                    match self.idom[runner.0 as usize] {
                        Some(parent) if parent != runner => runner = parent,
                        _ => break,
                    }
                }
            }
        }
        df
    }

    /// Dominator-tree children, per block (entries are roots; their
    /// self-idom does not make them their own child).
    #[must_use]
    pub fn children(&self) -> Vec<Vec<BlockId>> {
        let n = self.idom.len();
        let mut kids: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for b in 0..n {
            if let Some(parent) = self.idom[b] {
                if parent.0 as usize != b {
                    kids[parent.0 as usize].push(BlockId(b as u32));
                }
            }
        }
        kids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{Inst, ProgramBuilder, Terminator};
    use crate::op::OpClass;
    use crate::reg::Reg;

    /// entry → {left, right} → join → exit, with a backedge join → entry.
    fn diamond() -> Program {
        let mut b = ProgramBuilder::new();
        let f = b.begin_func();
        let top = b.new_block(f);
        let left = b.new_block(f);
        let right = b.new_block(f);
        let join = b.new_block(f);
        let exit = b.new_block(f);
        b.push_inst(
            top,
            Inst::new(OpClass::IntAlu, Some(Reg::int(1)), [None, None]),
        );
        b.set_cond_branch(top, [Some(Reg::int(1)), None], left, right);
        b.set_terminator(left, Terminator::Jump { target: join });
        b.set_terminator(right, Terminator::Jump { target: join });
        b.set_cond_branch(join, [Some(Reg::int(1)), None], top, exit);
        b.set_terminator(exit, Terminator::Halt);
        b.set_entry(top);
        b.finish().expect("valid diamond")
    }

    #[test]
    fn frontier_of_diamond_arms_is_the_join() {
        let p = diamond();
        let view = CfgView::local(&p);
        let dom = Dominators::compute(&p, &view);
        let df = dom.frontiers(&p, &view);
        // left and right each stop dominating at the join.
        assert_eq!(df[1], vec![BlockId(3)]);
        assert_eq!(df[2], vec![BlockId(3)]);
        // The join→top backedge makes the loop-header entry a merge point
        // (virtual caller edge + backedge): both join and top itself carry
        // top in their frontier, so defs anywhere in the loop get header phis.
        assert_eq!(df[3], vec![BlockId(0)]);
        assert_eq!(df[0], vec![BlockId(0)]);
    }

    #[test]
    fn children_mirror_idoms() {
        let p = diamond();
        let view = CfgView::local(&p);
        let dom = Dominators::compute(&p, &view);
        let kids = dom.children();
        // top immediately dominates left, right, and the join.
        assert_eq!(kids[0], vec![BlockId(1), BlockId(2), BlockId(3)]);
        for (parent, children) in kids.iter().enumerate() {
            for c in children {
                assert_eq!(dom.idom(*c), Some(BlockId(parent as u32)));
            }
        }
    }
}
