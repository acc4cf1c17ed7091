//! A two-level adaptive direction predictor (gshare).
//!
//! The paper's concluding remarks point at "other, more sophisticated
//! predictors … designed for machines with high misprediction penalty"
//! (Yeh's two-level schemes, McFarling's combining predictors) and ask
//! whether such a predictor would make the shifter-based (higher-penalty)
//! collapsing buffer viable. This module provides the gshare member of that
//! family: a global branch-history register XOR-folded into the PC indexes a
//! table of 2-bit saturating counters. Targets still come from the BTB; only
//! the *direction* of conditional branches improves.

use fetchmech_isa::Addr;

/// log2 of the pattern-history-table size: a 4K-entry PHT, comparable in
/// storage to the paper's 1024-entry BTB.
const INDEX_BITS: u32 = 12;
/// Global-history length in branches. Short histories resist the context
/// dilution caused by uncorrelated branches interleaved into the history.
const HISTORY_BITS: u32 = 6;
const _: () = assert!(INDEX_BITS >= 1 && INDEX_BITS <= 24 && HISTORY_BITS <= INDEX_BITS);
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;
const HISTORY_MASK: u64 = (1 << HISTORY_BITS) - 1;

/// The gshare predictor.
///
/// # Examples
///
/// ```
/// use fetchmech_bpred::Gshare;
/// use fetchmech_isa::Addr;
///
/// let mut g = Gshare::new();
/// let pc = Addr::new(0x1000);
/// // Train past the point where the global history saturates to all-taken.
/// for _ in 0..64 {
///     g.update(pc, true);
/// }
/// assert!(g.predict(pc), "an always-taken branch trains to taken");
/// ```
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<u8>,
    history: u64,
}

impl Default for Gshare {
    fn default() -> Self {
        Self::new()
    }
}

impl Gshare {
    /// Creates a 4K-entry predictor with 6 bits of global history and all
    /// counters weakly not-taken.
    #[must_use]
    pub fn new() -> Self {
        Self {
            table: vec![1; 1 << INDEX_BITS],
            history: 0,
        }
    }

    fn index(&self, addr: Addr) -> usize {
        // Fold the history into the *upper* index bits so the PC dominates
        // the low bits: uncorrelated branches then perturb few table entries
        // instead of scattering every branch across the table.
        let h = (self.history & HISTORY_MASK) << (INDEX_BITS - HISTORY_BITS);
        ((addr.word_index() ^ h) & INDEX_MASK) as usize
    }

    /// Predicts the direction of the conditional branch at `addr`.
    #[must_use]
    pub fn predict(&self, addr: Addr) -> bool {
        self.table[self.index(addr)] >= 2
    }

    /// Trains with the resolved outcome and shifts the global history.
    pub fn update(&mut self, addr: Addr, taken: bool) {
        let idx = self.index(addr);
        let c = &mut self.table[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = (self.history << 1) | u64::from(taken);
    }
}

/// McFarling's combining ("tournament") predictor: a per-branch bimodal
/// table and a [`Gshare`] component, arbitrated by a chooser table of 2-bit
/// counters. This is reference \[11\] of the paper ("Combining branch
/// predictors", DEC WRL TN-36) — the natural reading of the concluding
/// remarks' "more sophisticated predictors".
#[derive(Debug, Clone)]
pub struct Tournament {
    gshare: Gshare,
    /// PC-indexed 2-bit counters (the bimodal component).
    bimodal: Vec<u8>,
    /// PC-indexed chooser: >= 2 selects gshare, < 2 selects bimodal.
    chooser: Vec<u8>,
}

impl Default for Tournament {
    fn default() -> Self {
        Self::new()
    }
}

impl Tournament {
    /// Creates a tournament whose bimodal and chooser tables share the
    /// gshare component's 4K-entry index width.
    #[must_use]
    pub fn new() -> Self {
        let entries = 1usize << INDEX_BITS;
        Self {
            gshare: Gshare::new(),
            bimodal: vec![1; entries],
            // Start neutral-toward-bimodal: the per-branch component warms
            // up faster, and the chooser migrates hard branches to gshare.
            chooser: vec![1; entries],
        }
    }

    fn pc_index(&self, addr: Addr) -> usize {
        (addr.word_index() & INDEX_MASK) as usize
    }

    /// Predicts the direction of the conditional branch at `addr`.
    #[must_use]
    pub fn predict(&self, addr: Addr) -> bool {
        let idx = self.pc_index(addr);
        if self.chooser[idx] >= 2 {
            self.gshare.predict(addr)
        } else {
            self.bimodal[idx] >= 2
        }
    }

    /// Trains both components and the chooser with the resolved outcome.
    pub fn update(&mut self, addr: Addr, taken: bool) {
        let idx = self.pc_index(addr);
        let g_pred = self.gshare.predict(addr);
        let b_pred = self.bimodal[idx] >= 2;
        // Chooser moves toward whichever component was right when they
        // disagree.
        if g_pred != b_pred {
            let c = &mut self.chooser[idx];
            if g_pred == taken {
                *c = (*c + 1).min(3);
            } else {
                *c = c.saturating_sub(1);
            }
        }
        let b = &mut self.bimodal[idx];
        if taken {
            *b = (*b + 1).min(3);
        } else {
            *b = b.saturating_sub(1);
        }
        self.gshare.update(addr, taken);
    }
}

/// Which direction predictor the front end uses for conditional branches.
/// Targets always come from the BTB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PredictorKind {
    /// The paper's baseline: 2-bit counters stored in the BTB entries.
    #[default]
    TwoBitBtb,
    /// McFarling's combining predictor (bimodal + gshare + chooser) — the
    /// paper's reference \[11\] and its concluding remarks' "more
    /// sophisticated predictor".
    Tournament,
}

impl std::fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictorKind::TwoBitBtb => f.write_str("2-bit BTB"),
            PredictorKind::Tournament => write!(
                f,
                "tournament {}K/{HISTORY_BITS}-bit",
                (1usize << INDEX_BITS) / 1024
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_taken_branch_trains_quickly() {
        let mut g = Gshare::new();
        let pc = Addr::new(0x1000);
        // More iterations than history bits, so the final index is trained.
        for _ in 0..64 {
            g.update(pc, true);
        }
        assert!(g.predict(pc));
    }

    #[test]
    fn alternating_pattern_is_learned_via_history() {
        // A strict T/N alternation defeats a per-branch 2-bit counter but is
        // perfectly predictable with global history.
        let mut g = Gshare::new();
        let pc = Addr::new(0x2000);
        let mut correct_tail = 0;
        for i in 0..2000u32 {
            let taken = i % 2 == 0;
            let p = g.predict(pc);
            if i >= 1000 && p == taken {
                correct_tail += 1;
            }
            g.update(pc, taken);
        }
        assert!(
            correct_tail > 950,
            "gshare should learn a strict alternation: {correct_tail}/1000"
        );
    }

    #[test]
    fn short_loop_exit_is_learned() {
        // taken,taken,taken,not-taken repeated: history disambiguates the
        // exit iteration.
        let mut g = Gshare::new();
        let pc = Addr::new(0x3000);
        let mut correct_tail = 0;
        for i in 0..4000u32 {
            let taken = i % 4 != 3;
            let p = g.predict(pc);
            if i >= 2000 && p == taken {
                correct_tail += 1;
            }
            g.update(pc, taken);
        }
        assert!(correct_tail > 1900, "loop pattern: {correct_tail}/2000");
    }

    #[test]
    fn predictor_kind_displays() {
        assert_eq!(PredictorKind::TwoBitBtb.to_string(), "2-bit BTB");
        assert_eq!(PredictorKind::Tournament.to_string(), "tournament 4K/6-bit");
    }

    #[test]
    fn tournament_never_trails_bimodal_on_random_branches() {
        use fetchmech_isa::rng::Pcg64;
        let mut t = Tournament::new();
        let mut bimodal_only = vec![1u8; 4096];
        let mut rng = Pcg64::new(11);
        let mut t_correct = 0u32;
        let mut b_correct = 0u32;
        // 64 branches with random biases, interleaved.
        let biases: Vec<f64> = (0..64).map(|_| rng.next_f64()).collect();
        for i in 0..60_000u64 {
            let b = (i % 64) as usize;
            let pc = Addr::from_word_index(100 + 16 * b as u64);
            let taken = rng.chance(biases[b]);
            let tp = t.predict(pc);
            let idx = (pc.word_index() & 4095) as usize;
            let bp = bimodal_only[idx] >= 2;
            if i > 20_000 {
                t_correct += u32::from(tp == taken);
                b_correct += u32::from(bp == taken);
            }
            t.update(pc, taken);
            let c = &mut bimodal_only[idx];
            if taken {
                *c = (*c + 1).min(3)
            } else {
                *c = c.saturating_sub(1)
            }
        }
        assert!(
            t_correct as f64 >= b_correct as f64 * 0.98,
            "tournament {t_correct} vs bimodal {b_correct}"
        );
    }

    #[test]
    fn tournament_beats_bimodal_on_alternation() {
        let mut t = Tournament::new();
        let pc = Addr::new(0x4000);
        let mut correct_tail = 0;
        for i in 0..4000u32 {
            let taken = i % 2 == 0;
            let p = t.predict(pc);
            if i >= 2000 && p == taken {
                correct_tail += 1;
            }
            t.update(pc, taken);
        }
        // A per-branch 2-bit counter gets ~50% here; the tournament's gshare
        // side learns the alternation and the chooser routes to it.
        assert!(correct_tail > 1800, "alternation: {correct_tail}/2000");
    }
}
