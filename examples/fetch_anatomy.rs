//! Fetch anatomy: watch the alignment mechanisms work cycle by cycle.
//!
//! Builds a tiny hand-written program containing a hammock (a short forward
//! intra-block branch), warms the BTB, and prints the packet each scheme
//! delivers per cycle — making it visible *why* the collapsing buffer wins:
//! it is the only scheme that delivers the branch, skips the hammock gap,
//! and continues, all in one cycle.
//!
//! ```text
//! cargo run --release --example fetch_anatomy
//! ```

use fetchmech::isa::{
    disasm, Inst, Layout, LayoutOptions, OpClass, ProgramBuilder, Reg, Terminator,
};
use fetchmech::pipeline::MachineModel;
use fetchmech::sim::build_fetch_unit;
use fetchmech::workloads::{BehaviorMap, BranchModel, Executor, InputId};
use fetchmech::SchemeKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A loop whose body contains a hammock: the branch at the top of the
    // body usually skips two instructions, landing in the same 16-byte
    // cache block.
    let mut b = ProgramBuilder::new();
    let f = b.begin_func();
    let head = b.new_block(f);
    let then_blk = b.new_block(f);
    let join = b.new_block(f);
    let exit = b.new_block(f);
    b.push_inst(
        head,
        Inst::new(
            OpClass::IntAlu,
            Some(Reg::int(1)),
            [Some(Reg::int(1)), None],
        ),
    );
    // Hammock: usually skip `then_blk`. The skipped region is one
    // instruction, so the branch and its target share a 16-byte cache block
    // (a Table 2 "intra-block branch").
    let skip = b.set_cond_branch(head, [Some(Reg::int(1)), None], join, then_blk);
    b.push_inst(
        then_blk,
        Inst::new(OpClass::Load, Some(Reg::int(3)), [Some(Reg::int(2)), None]),
    );
    b.set_terminator(then_blk, Terminator::FallThrough { next: join });
    b.push_inst(
        join,
        Inst::new(
            OpClass::IntAlu,
            Some(Reg::int(4)),
            [Some(Reg::int(1)), None],
        ),
    );
    b.push_inst(
        join,
        Inst::new(OpClass::Store, None, [Some(Reg::int(4)), Some(Reg::int(1))]),
    );
    // Loop back to head most of the time.
    let back = b.set_cond_branch(join, [Some(Reg::int(4)), None], head, exit);
    b.set_terminator(exit, Terminator::Halt);
    b.set_entry(head);
    let program = b.finish()?;

    let machine = MachineModel::p14();
    let layout = Layout::natural(&program, LayoutOptions::new(machine.block_bytes))?;
    println!("program ({}-byte cache blocks):", machine.block_bytes);
    for inst in layout.code() {
        let marker = if inst.addr.offset_words(machine.block_bytes) == 0 {
            "|"
        } else {
            " "
        };
        println!("  {marker} {}", disasm(inst));
    }

    // Behaviour: skip the hammock 85% of the time; loop for ~50 iterations.
    let behaviors = BehaviorMap::new({
        let mut v = vec![BranchModel::Bernoulli(0.5); program.num_branches() as usize];
        v[skip.0 as usize] = BranchModel::Bernoulli(0.85);
        v[back.0 as usize] = BranchModel::Loop { mean_trips: 50.0 };
        v
    });

    for scheme in [
        SchemeKind::Sequential,
        SchemeKind::BankedSequential,
        SchemeKind::CollapsingBuffer,
    ] {
        let trace: Vec<_> = Executor::new(
            &program,
            &layout,
            behaviors.clone(),
            InputId::TEST,
            7,
            4_000,
        )
        .collect();
        let mut unit = build_fetch_unit(&machine, scheme, trace);
        // Warm the caches and predictor on the first ~2000 instructions.
        let mut cycle = 0u64;
        let mut consumed = 0usize;
        while consumed < 2_000 {
            let p = unit.cycle(cycle, 0);
            if p.ends_mispredicted() {
                unit.on_mispredict_resolved(cycle + 1);
            }
            consumed += p.len();
            cycle += 1;
        }
        // Show a few steady-state cycles.
        println!("\n{scheme} (steady state):");
        let mut shown = 0;
        while shown < 4 {
            cycle += 1;
            let p = unit.cycle(cycle, 0);
            if p.ends_mispredicted() {
                unit.on_mispredict_resolved(cycle + 1);
            }
            if p.is_empty() {
                continue;
            }
            let ops: Vec<String> = p
                .insts
                .iter()
                .map(|fi| format!("{}@{}", fi.inst.op.mnemonic(), fi.inst.addr))
                .collect();
            println!("  cycle +{shown}: [{}]", ops.join(", "));
            shown += 1;
        }
        println!(
            "  collapsed intra-block branches: {}, crossed inter-block: {}",
            unit.stats().collapsed,
            unit.stats().crossed_taken
        );
    }
    Ok(())
}
