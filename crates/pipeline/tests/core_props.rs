//! Property tests for the out-of-order core: conservation, bounds, and
//! in-order retirement over random instruction mixes.

use fetchmech_isa::{Addr, DynCtrl, DynInst, OpClass, Reg};
use fetchmech_pipeline::{FetchedInst, OooConfig, OooCore};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = OooConfig> {
    (1u32..13, 2u32..33, 1u32..5).prop_map(|(issue, window, units)| OooConfig {
        issue_rate: issue,
        window,
        rob: window * 2,
        fxu: units,
        fpu: units,
        branch_units: units,
        mem_units: units,
    })
}

#[derive(Debug, Clone, Copy)]
struct Gen {
    kind: u8,
    dest: u8,
    src: u8,
}

fn arb_insts() -> impl Strategy<Value = Vec<Gen>> {
    proptest::collection::vec(
        (0u8..6, 0u8..24, 0u8..24).prop_map(|(kind, dest, src)| Gen { kind, dest, src }),
        1..300,
    )
}

fn materialize(g: Gen, addr_word: u64) -> FetchedInst {
    let addr = Addr::from_word_index(addr_word);
    let dest = Some(Reg::int(1 + g.dest % 24));
    let src = Some(Reg::int(1 + g.src % 24));
    let inst = match g.kind {
        0 | 1 => DynInst::simple(addr, OpClass::IntAlu, dest, [src, None]),
        2 => DynInst::simple(
            addr,
            OpClass::FpAdd,
            Some(Reg::fp(g.dest % 24)),
            [Some(Reg::fp(g.src % 24)), None],
        ),
        3 => DynInst::simple(addr, OpClass::Load, dest, [src, None]),
        4 => DynInst::simple(addr, OpClass::Store, None, [dest, src]),
        _ => DynInst {
            addr,
            op: OpClass::CondBranch,
            dest: None,
            srcs: [src, None],
            next_pc: addr.add_words(1),
            ctrl: Some(DynCtrl {
                taken: false,
                target: addr.add_words(16),
                link: None,
            }),
        },
    };
    FetchedInst {
        inst,
        mispredicted: false,
    }
}

proptest! {
    /// Every dispatched instruction eventually retires; total cycles stay
    /// within an issue-rate-derived bound; the unresolved-branch counter
    /// returns to zero.
    #[test]
    fn conservation_and_bounds(cfg in arb_config(), gens in arb_insts()) {
        let insts: Vec<FetchedInst> =
            gens.iter().enumerate().map(|(i, &g)| materialize(g, i as u64)).collect();
        let mut core = OooCore::new(cfg);
        let mut cycle = 0u64;
        let mut next = 0usize;
        let mut max_unresolved = 0;
        loop {
            core.begin_cycle(cycle);
            core.fire(cycle);
            let mut d = 0;
            while next < insts.len() && d < cfg.issue_rate && core.can_accept() {
                core.dispatch(&insts[next]);
                next += 1;
                d += 1;
            }
            max_unresolved = max_unresolved.max(core.unresolved_cond());
            cycle += 1;
            if next == insts.len() && core.drained() {
                break;
            }
            prop_assert!(cycle < 40 * insts.len() as u64 + 1000, "runaway core");
        }
        prop_assert_eq!(core.stats().retired, insts.len() as u64);
        prop_assert_eq!(core.stats().dispatched, insts.len() as u64);
        prop_assert_eq!(core.unresolved_cond(), 0);
        // Lower bound: with W-wide retire, N instructions need >= N/W cycles.
        let floor = insts.len() as u64 / u64::from(cfg.issue_rate);
        prop_assert!(cycle >= floor, "cycle {cycle} below retire floor {floor}");
    }

    /// The window is a hard bound: at no point can more than `window`
    /// dispatched-but-unfired instructions exist. (Checked indirectly:
    /// dispatch is refused exactly when the window or ROB is full, so the
    /// core must never panic and always make progress.)
    #[test]
    fn tiny_windows_never_deadlock(gens in arb_insts()) {
        let cfg = OooConfig {
            issue_rate: 2,
            window: 2,
            rob: 3,
            fxu: 1,
            fpu: 1,
            branch_units: 1,
            mem_units: 1,
        };
        let insts: Vec<FetchedInst> =
            gens.iter().enumerate().map(|(i, &g)| materialize(g, i as u64)).collect();
        let mut core = OooCore::new(cfg);
        let mut cycle = 0u64;
        let mut next = 0usize;
        loop {
            core.begin_cycle(cycle);
            core.fire(cycle);
            while next < insts.len() && core.can_accept() {
                core.dispatch(&insts[next]);
                next += 1;
            }
            cycle += 1;
            if next == insts.len() && core.drained() {
                break;
            }
            prop_assert!(cycle < 100 * insts.len() as u64 + 1000, "deadlock");
        }
        prop_assert_eq!(core.stats().retired, insts.len() as u64);
    }
}
