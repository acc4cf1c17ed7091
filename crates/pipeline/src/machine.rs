//! Machine models: the P14, P18, and P112 configurations of Table 1.

use std::fmt;

use fetchmech_bpred::{BtbConfig, PredictorKind};
use fetchmech_cache::CacheConfig;

use crate::ooo::OooConfig;

/// A complete machine configuration (Table 1 of the paper, plus the
/// parameters the paper leaves unspecified — see DESIGN.md §1).
///
/// `Hash` covers every field, `name` included, so a model can key the
/// experiment lab's simulation memo.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MachineModel {
    /// Model name ("P14", "P18", "P112", or a custom label).
    pub name: String,
    /// Instructions issued (dispatched and retired) per cycle.
    pub issue_rate: u32,
    /// Scheduling-window (reservation station) entries.
    pub window: u32,
    /// Reorder-buffer entries (2× window by default).
    pub rob: u32,
    /// Instruction-cache capacity in bytes.
    pub icache_bytes: u64,
    /// Instruction-cache block size in bytes (one issue-width of
    /// instructions).
    pub block_bytes: u64,
    /// Fixed-point units.
    pub fxu: u32,
    /// Floating-point units.
    pub fpu: u32,
    /// Branch units.
    pub branch_units: u32,
    /// Load/store (data-cache interface) units.
    pub mem_units: u32,
    /// Maximum unresolved predicted conditional branches fetch may run ahead
    /// of ("speculates beyond N branches").
    pub spec_depth: u32,
    /// Branch-target-buffer entries.
    pub btb_entries: usize,
    /// Fetch-pipeline misprediction penalty in cycles (2 with the BTB→cache
    /// bypass; 3 models the shifter-based collapsing buffer of Figure 11).
    pub fetch_penalty: u32,
    /// Instruction-cache miss penalty in cycles.
    pub icache_miss_penalty: u32,
    /// Direction predictor for conditional branches (targets always come
    /// from the BTB). The paper's machines use [`PredictorKind::TwoBitBtb`];
    /// the gshare option implements the concluding remarks' "more
    /// sophisticated predictor" study.
    pub predictor: PredictorKind,
    /// Return-address-stack entries; `0` (the paper's machines) disables it
    /// and returns are predicted through the BTB like any other transfer.
    pub ras_entries: u32,
}

impl MachineModel {
    /// The P14 model: 4-issue, 16-entry window, 32 KB I-cache with 16 B
    /// blocks, 2 FXU / 2 FPU / 2 BR, speculation beyond 2 branches.
    #[must_use]
    pub fn p14() -> Self {
        Self::scaled("P14", 4, 16, 32 * 1024, 2, 2)
    }

    /// The P18 model: 8-issue, 24-entry window, 64 KB I-cache with 32 B
    /// blocks, 4 FXU / 4 FPU / 4 BR, speculation beyond 4 branches.
    #[must_use]
    pub fn p18() -> Self {
        Self::scaled("P18", 8, 24, 64 * 1024, 4, 4)
    }

    /// The P112 model: 12-issue, 32-entry window, 128 KB I-cache with 64 B
    /// blocks, 6 FXU / 6 FPU / 6 BR, speculation beyond 6 branches.
    #[must_use]
    pub fn p112() -> Self {
        Self::scaled("P112", 12, 32, 128 * 1024, 6, 6)
    }

    fn scaled(
        name: &str,
        issue_rate: u32,
        window: u32,
        icache_bytes: u64,
        units: u32,
        spec_depth: u32,
    ) -> Self {
        Self {
            name: name.to_owned(),
            issue_rate,
            window,
            rob: window * 2,
            icache_bytes,
            // A block holds at least the issue rate of instructions, rounded
            // up to a power of two (P112: 12 instructions -> 64 B blocks).
            block_bytes: (u64::from(issue_rate) * fetchmech_isa::WORD_BYTES).next_power_of_two(),
            fxu: units,
            fpu: units,
            branch_units: units,
            mem_units: units,
            spec_depth,
            btb_entries: 1024,
            fetch_penalty: 2,
            icache_miss_penalty: 10,
            predictor: PredictorKind::TwoBitBtb,
            ras_entries: 0,
        }
    }

    /// All three paper models, in issue-rate order.
    #[must_use]
    pub fn paper_models() -> Vec<MachineModel> {
        vec![Self::p14(), Self::p18(), Self::p112()]
    }

    /// Looks up a paper model by name, case-insensitively (`"p14"`, `"P18"`,
    /// `"p112"`, …) — the single parser behind every CLI/API `--machine`
    /// option.
    #[must_use]
    pub fn by_name(name: &str) -> Option<MachineModel> {
        Self::paper_models()
            .into_iter()
            .find(|m| m.name.eq_ignore_ascii_case(name))
    }

    /// Instructions per cache block (equals the issue rate for the paper
    /// models).
    #[must_use]
    pub fn insts_per_block(&self) -> u32 {
        (self.block_bytes / fetchmech_isa::WORD_BYTES) as u32
    }

    /// The out-of-order core configuration for this machine.
    #[must_use]
    pub fn ooo_config(&self) -> OooConfig {
        OooConfig {
            issue_rate: self.issue_rate,
            window: self.window,
            rob: self.rob,
            fxu: self.fxu,
            fpu: self.fpu,
            branch_units: self.branch_units,
            mem_units: self.mem_units,
        }
    }

    /// The instruction-cache configuration with the given bank count.
    #[must_use]
    pub fn cache_config(&self, banks: u32) -> CacheConfig {
        CacheConfig::new(self.icache_bytes, self.block_bytes, banks)
    }

    /// The BTB configuration: `btb_entries` entries (1024 in the paper's
    /// machines), 2-bit counters.
    #[must_use]
    pub fn btb_config(&self) -> BtbConfig {
        BtbConfig {
            entries: self.btb_entries,
            counter_bits: 2,
        }
    }

    /// Number of cache blocks a run of `insts` instructions starting at
    /// `start` touches (zero-length runs touch none).
    #[must_use]
    pub fn lines_spanned(&self, start: fetchmech_isa::Addr, insts: u64) -> u64 {
        if insts == 0 {
            return 0;
        }
        let last = start.add_words(insts - 1);
        last.block_index(self.block_bytes) - start.block_index(self.block_bytes) + 1
    }

    /// Maximum instructions `scheme` can deliver in one cycle on a
    /// straight-line (taken-branch-free, all-hit) run starting `offset_words`
    /// into a cache block: the bandwidth cap, limited by one block for
    /// sequential and by an aligned pair for the two-bank schemes (on a
    /// straight-line run the banked schemes' predicted successor is the next
    /// sequential block, whose bank parity always differs).
    #[must_use]
    pub fn straight_line_packet(&self, scheme: crate::SchemeKind, offset_words: u64) -> u32 {
        let w = u64::from(self.insts_per_block());
        let avail = match scheme.max_packet_blocks() {
            Some(1) => w - offset_words % w,
            Some(_) => 2 * w - offset_words % w,
            None => u64::from(self.issue_rate),
        };
        avail.min(u64::from(self.issue_rate)) as u32
    }

    /// Returns this model with a different fetch misprediction penalty
    /// (used by the Figure 11 shifter-implementation study).
    #[must_use]
    pub fn with_fetch_penalty(mut self, penalty: u32) -> Self {
        self.fetch_penalty = penalty;
        self
    }

    /// Returns this model with a different conditional-branch direction
    /// predictor (the concluding remarks' future-work study).
    #[must_use]
    pub fn with_predictor(mut self, predictor: PredictorKind) -> Self {
        self.predictor = predictor;
        self
    }

    /// Returns this model with a return-address stack of `entries` slots
    /// (an era-appropriate extension the paper's machines lack).
    #[must_use]
    pub fn with_ras(mut self, entries: u32) -> Self {
        self.ras_entries = entries;
        self
    }
}

impl fmt::Display for MachineModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}-issue, window {}, {}KB I-cache ({}B blocks), {}F/{}FP/{}BR, spec {}",
            self.name,
            self.issue_rate,
            self.window,
            self.icache_bytes / 1024,
            self.block_bytes,
            self.fxu,
            self.fpu,
            self.branch_units,
            self.spec_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameters() {
        let p14 = MachineModel::p14();
        assert_eq!(p14.issue_rate, 4);
        assert_eq!(p14.window, 16);
        assert_eq!(p14.icache_bytes, 32 * 1024);
        assert_eq!(p14.block_bytes, 16);
        assert_eq!((p14.fxu, p14.fpu, p14.branch_units), (2, 2, 2));
        assert_eq!(p14.spec_depth, 2);

        let p18 = MachineModel::p18();
        assert_eq!(p18.issue_rate, 8);
        assert_eq!(p18.window, 24);
        assert_eq!(p18.block_bytes, 32);
        assert_eq!(p18.spec_depth, 4);

        let p112 = MachineModel::p112();
        assert_eq!(p112.issue_rate, 12);
        assert_eq!(p112.window, 32);
        assert_eq!(p112.icache_bytes, 128 * 1024);
        assert_eq!(p112.block_bytes, 64);
        assert_eq!((p112.fxu, p112.fpu, p112.branch_units), (6, 6, 6));
        assert_eq!(p112.spec_depth, 6);
    }

    #[test]
    fn block_holds_at_least_issue_width() {
        for m in MachineModel::paper_models() {
            assert!(m.insts_per_block() >= m.issue_rate, "{}", m.name);
        }
        assert_eq!(MachineModel::p112().insts_per_block(), 16);
    }

    #[test]
    fn btb_is_paper_config() {
        let c = MachineModel::p18().btb_config();
        assert_eq!(c.entries, 1024);
        assert_eq!(c.counter_bits, 2);
    }

    #[test]
    fn with_fetch_penalty_overrides() {
        let m = MachineModel::p14().with_fetch_penalty(3);
        assert_eq!(m.fetch_penalty, 3);
    }

    #[test]
    fn display_mentions_name() {
        assert!(MachineModel::p112().to_string().contains("P112"));
    }
}
