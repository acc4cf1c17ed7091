//! Model-based property tests for the BTB, plus statistical properties of
//! the direction predictors.

use std::collections::HashMap;

use fetchmech_bpred::{Btb, Gshare, Tournament};
use fetchmech_isa::rng::Pcg64;
use fetchmech_isa::Addr;
use proptest::prelude::*;

/// Reference model of a direct-mapped, full-tag BTB with 2-bit counters.
#[derive(Default)]
struct RefBtb {
    entries: usize,
    slots: HashMap<usize, (u64, u64, u8)>, // slot -> (word tag, target byte, counter)
}

impl RefBtb {
    fn new(entries: usize) -> Self {
        Self {
            entries,
            slots: HashMap::new(),
        }
    }

    fn predict(&self, addr: Addr, is_cond: bool) -> (bool, Option<u64>) {
        let word = addr.word_index();
        match self.slots.get(&((word % self.entries as u64) as usize)) {
            Some(&(tag, target, counter)) if tag == word => {
                let taken = if is_cond { counter >= 2 } else { true };
                (taken, Some(target))
            }
            _ => (false, None),
        }
    }

    fn update(&mut self, addr: Addr, is_cond: bool, taken: bool, target: Addr) {
        let word = addr.word_index();
        let slot = (word % self.entries as u64) as usize;
        match self.slots.get_mut(&slot) {
            Some(e) if e.0 == word => {
                if is_cond {
                    e.2 = if taken {
                        (e.2 + 1).min(3)
                    } else {
                        e.2.saturating_sub(1)
                    };
                }
                if taken {
                    e.1 = target.byte();
                }
            }
            _ => {
                if taken {
                    self.slots.insert(slot, (word, target.byte(), 2));
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Op {
    addr_word: u64,
    is_cond: bool,
    taken: bool,
    target_word: u64,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u64..4096, any::<bool>(), any::<bool>(), 0u64..4096).prop_map(
            |(addr_word, is_cond, taken, target_word)| Op {
                addr_word,
                is_cond,
                taken,
                target_word,
            },
        ),
        1..400,
    )
}

proptest! {
    /// Predict/update agree with the reference model over arbitrary
    /// interleavings of branches, aliasing included.
    #[test]
    fn btb_matches_reference_model(ops in arb_ops()) {
        let entries = 256;
        let mut dut = Btb::new(entries);
        let mut model = RefBtb::new(entries);
        for op in ops {
            let addr = Addr::from_word_index(op.addr_word);
            let target = Addr::from_word_index(op.target_word);
            let got = dut.predict(addr, op.is_cond);
            let (taken, tgt) = model.predict(addr, op.is_cond);
            prop_assert_eq!(got.taken, taken, "direction at word {}", op.addr_word);
            prop_assert_eq!(got.target.map(|a| a.byte()), tgt, "target at word {}", op.addr_word);
            dut.update(addr, op.is_cond, op.taken, target);
            model.update(addr, op.is_cond, op.taken, target);
        }
    }

    /// On strongly-biased i.i.d. branches, every predictor family converges
    /// to better-than-chance accuracy.
    #[test]
    fn predictors_learn_biased_branches(seed in 1u64..5000) {
        let mut rng = Pcg64::new(seed);
        let mut gshare = Gshare::new();
        let mut tourney = Tournament::new();
        let n_branches = 16usize;
        let biases: Vec<f64> =
            (0..n_branches).map(|_| if rng.chance(0.5) { 0.92 } else { 0.08 }).collect();
        let rounds = 4000usize;
        let mut g_ok = 0usize;
        let mut t_ok = 0usize;
        let mut total = 0usize;
        for i in 0..rounds {
            let b = i % n_branches;
            let addr = Addr::from_word_index(64 + 8 * b as u64);
            let taken = rng.chance(biases[b]);
            let gp = gshare.predict(addr);
            let tp = tourney.predict(addr);
            if i > rounds / 2 {
                total += 1;
                g_ok += usize::from(gp == taken);
                t_ok += usize::from(tp == taken);
            }
            gshare.update(addr, taken);
            tourney.update(addr, taken);
        }
        // 92/8 biases: chance is 50%, oracle-static is 92%.
        prop_assert!(g_ok * 100 > total * 70, "gshare {g_ok}/{total}");
        prop_assert!(t_ok * 100 > total * 78, "tournament {t_ok}/{total}");
    }
}
