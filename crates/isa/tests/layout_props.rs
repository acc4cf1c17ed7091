//! Property tests for code layout over randomly-generated programs: address
//! assignment, target resolution, padding alignment, and jump elision.

use std::collections::HashSet;

use fetchmech_isa::{
    Addr, BlockId, Inst, Layout, LayoutOptions, OpClass, PadMode, Program, ProgramBuilder, Reg,
    Terminator, WORD_BYTES,
};
use proptest::prelude::*;

/// Builds a random (but always valid) single-function program: a chain of
/// blocks with random bodies, whose terminators reference random blocks in
/// the same function.
fn arb_program() -> impl Strategy<Value = Program> {
    (
        2usize..24,                                                     // blocks
        proptest::collection::vec(0usize..6, 2..24),                    // body lengths
        proptest::collection::vec((0u8..5, 0u32..24, 0u32..24), 2..24), // terminators
    )
        .prop_map(|(n, lens, terms)| {
            let mut b = ProgramBuilder::new();
            let f = b.begin_func();
            let blocks: Vec<BlockId> = (0..n).map(|_| b.new_block(f)).collect();
            for (i, &blk) in blocks.iter().enumerate() {
                let len = lens[i % lens.len()];
                for j in 0..len {
                    let op = if j % 3 == 0 {
                        OpClass::Load
                    } else {
                        OpClass::IntAlu
                    };
                    b.push_inst(
                        blk,
                        Inst::new(op, Some(Reg::int(1)), [Some(Reg::int(2)), None]),
                    );
                }
                let (kind, x, y) = terms[i % terms.len()];
                let pick = |v: u32| blocks[(v as usize) % n];
                if i + 1 == n {
                    // Last block always halts so the program terminates.
                    b.set_terminator(blk, Terminator::Halt);
                    continue;
                }
                match kind {
                    0 => b.set_terminator(blk, Terminator::FallThrough { next: pick(x) }),
                    1 => {
                        b.set_cond_branch(blk, [Some(Reg::int(1)), None], pick(x), pick(y));
                    }
                    2 => b.set_terminator(blk, Terminator::Jump { target: pick(x) }),
                    3 => b.set_terminator(blk, Terminator::Halt),
                    _ => b.set_terminator(blk, Terminator::FallThrough { next: pick(y) }),
                }
            }
            b.set_entry(blocks[0]);
            b.finish().expect("constructed program is valid")
        })
}

/// A random permutation order for a program with `n` blocks.
fn arb_order(n: usize) -> impl Strategy<Value = Vec<BlockId>> {
    Just((0..n as u32).map(BlockId).collect::<Vec<_>>()).prop_shuffle()
}

proptest! {
    /// Layout addresses are contiguous words starting at the base, in every
    /// order and padding mode.
    #[test]
    fn addresses_are_contiguous(
        program in arb_program(),
        pad_all in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let orders = {
            let n = program.num_blocks();
            let mut order: Vec<BlockId> = (0..n as u32).map(BlockId).collect();
            // Cheap deterministic shuffle from the seed.
            let mut s = seed;
            for i in (1..n).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (s % (i as u64 + 1)) as usize);
            }
            order
        };
        let mut opts = LayoutOptions::new(16);
        if pad_all {
            opts = opts.with_pad(PadMode::PadAll);
        }
        let layout = Layout::new(&program, &orders, opts).expect("valid order");
        for (i, inst) in layout.code().iter().enumerate() {
            prop_assert_eq!(inst.addr, layout.options().base.add_words(i as u64));
            prop_assert_eq!(layout.index_of(inst.addr), Some(i));
        }
    }

    /// Every control target resolves to the laid-out address of its block,
    /// regardless of block order.
    #[test]
    fn targets_resolve_to_block_addresses(program in arb_program(), seed in any::<u64>()) {
        let n = program.num_blocks();
        let mut order: Vec<BlockId> = (0..n as u32).map(BlockId).collect();
        let mut s = seed | 1;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let layout = Layout::new(&program, &order, LayoutOptions::new(16)).expect("valid order");
        for inst in layout.code() {
            if inst.op == OpClass::CondBranch {
                let target = inst.ctrl.expect("ctrl").target.expect("target");
                let block = match program.block(inst.block).terminator {
                    Terminator::CondBranch { taken, .. } => taken,
                    _ => unreachable!("cond branch from non-branch terminator"),
                };
                prop_assert_eq!(target, layout.block_addr(block));
            }
            if inst.op == OpClass::Halt {
                prop_assert_eq!(inst.ctrl.expect("ctrl").target, Some(layout.entry_addr()));
            }
        }
    }

    /// Pad-all aligns every block to a cache-block boundary, and the nop
    /// count matches the alignment gaps exactly.
    #[test]
    fn pad_all_alignment_is_exact(program in arb_program()) {
        let bs = 32u64;
        let opts = LayoutOptions::new(bs).with_pad(PadMode::PadAll);
        let layout = Layout::natural(&program, opts).expect("layout");
        for b in 0..program.num_blocks() as u32 {
            prop_assert_eq!(layout.block_addr(BlockId(b)).byte() % bs, 0);
        }
        let nops = layout.code().iter().filter(|i| i.op == OpClass::Nop).count();
        prop_assert_eq!(nops, layout.stats().pad_nops);
    }

    /// Pad-trace pads exactly the marked blocks (the following block starts
    /// aligned) and no nops appear anywhere else.
    #[test]
    fn pad_trace_pads_only_marked_blocks(program in arb_program(), mask in any::<u32>()) {
        let bs = 16u64;
        let ends: HashSet<BlockId> = (0..program.num_blocks() as u32)
            .filter(|b| mask & (1 << (b % 32)) != 0)
            .map(BlockId)
            .collect();
        let opts = LayoutOptions::new(bs).with_pad(PadMode::PadTrace(ends.clone()));
        let layout = Layout::natural(&program, opts).expect("layout");
        let order = layout.order().to_vec();
        for w in order.windows(2) {
            if ends.contains(&w[0]) {
                prop_assert_eq!(
                    layout.block_addr(w[1]).byte() % bs,
                    0,
                    "block after marked {} must be aligned",
                    w[0]
                );
            }
        }
        // Nops belong only to marked blocks.
        for inst in layout.code() {
            if inst.op == OpClass::Nop {
                prop_assert!(ends.contains(&inst.block), "stray nop after {}", inst.block);
            }
        }
    }

    /// Elision accounting: total laid instructions equal body instructions
    /// plus materialized terminators plus padding.
    #[test]
    fn size_accounting_is_exact(program in arb_program()) {
        let layout = Layout::natural(&program, LayoutOptions::new(16)).expect("layout");
        let bodies: usize = program.blocks().iter().map(|b| b.insts.len()).sum();
        let ctrl = layout
            .code()
            .iter()
            .filter(|i| i.op.is_control() || i.op == OpClass::Halt)
            .count();
        prop_assert_eq!(layout.code().len(), bodies + ctrl + layout.stats().pad_nops);
        // Word-size identity.
        prop_assert_eq!(layout.code_bytes(), layout.code().len() as u64 * WORD_BYTES);
        // The upper bound from the program is indeed an upper bound.
        prop_assert!(layout.code().len() <= program.static_inst_upper_bound());
    }

    /// `index_of` is the exact inverse of instruction addresses and rejects
    /// everything else.
    #[test]
    fn index_of_is_partial_inverse(program in arb_program(), probe in 0u64..(1 << 18)) {
        let layout = Layout::natural(&program, LayoutOptions::new(16)).expect("layout");
        let addr = Addr::new(probe);
        match layout.index_of(addr) {
            Some(i) => prop_assert_eq!(layout.code()[i].addr, addr),
            None => {
                let in_range = addr >= layout.options().base
                    && addr.byte() < layout.options().base.byte() + layout.code_bytes();
                let aligned = addr.byte().is_multiple_of(WORD_BYTES);
                prop_assert!(!(in_range && aligned), "in-range aligned {addr} must map");
            }
        }
    }
}

#[test]
fn arb_order_strategy_is_exercised() {
    // Keep the helper honest (and used) with a single plain test.
    use proptest::strategy::{Strategy, ValueTree};
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::deterministic();
    let tree = arb_order(5).new_tree(&mut runner).expect("tree");
    let order = tree.current();
    let set: HashSet<u32> = order.iter().map(|b| b.0).collect();
    assert_eq!(set.len(), 5);
}
