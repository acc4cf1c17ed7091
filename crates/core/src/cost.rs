//! Hardware-cost estimates for the alignment structures — the design
//! parameters of the paper's Figures 6 and 8.
//!
//! The paper quantifies each structure in transmission gates, multiplexers,
//! latches, and gate delays as a function of `k`, the number of instructions
//! per cache block. This module reproduces those formulas so the cost side
//! of the cost/performance trade-off is part of the library, not just the
//! paper's prose.

use std::fmt;

/// Cost parameters of one hardware structure, as the paper states them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructureCost {
    /// Structure name.
    pub name: &'static str,
    /// Transmission gates.
    pub transmission_gates: u32,
    /// 32-bit multiplexer count (valid select) or demultiplexer count
    /// (crossbar).
    pub muxes: u32,
    /// 1-bit latches (shifter implementation only).
    pub latches: u32,
    /// Best-case delay in gate/latch delays.
    pub delay_best: u32,
    /// Worst-case delay in gate/latch delays.
    pub delay_worst: u32,
}

impl fmt::Display for StructureCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} transmission gates, {} muxes, {} latches, delay {}..{}",
            self.name,
            self.transmission_gates,
            self.muxes,
            self.latches,
            self.delay_best,
            self.delay_worst
        )
    }
}

/// The interchange switch of Figure 6(a): `64k` transmission gates, two gate
/// delays, for blocks of `k` 32-bit instructions.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub(crate) fn interchange_switch(k: u32) -> StructureCost {
    assert!(k > 0, "blocks hold at least one instruction");
    StructureCost {
        name: "interchange switch",
        transmission_gates: 64 * k,
        muxes: 0,
        latches: 0,
        delay_best: 2,
        delay_worst: 2,
    }
}

/// The valid-select logic of Figure 6(b): `3(k + (k-1) + 2)` 32-bit
/// multiplexers ("3 k-to-1, 3 (k-1)-to-1, 3 2-to-1"), four gate delays.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub(crate) fn valid_select(k: u32) -> StructureCost {
    assert!(k > 0, "blocks hold at least one instruction");
    StructureCost {
        name: "valid select",
        transmission_gates: 0,
        muxes: 3 * (k + (k - 1) + 2),
        latches: 0,
        delay_best: 4,
        delay_worst: 4,
    }
}

/// The shifter-implemented collapsing buffer of Figure 8(a): `64k` 1-bit
/// registers plus `64k - 32` transmission gates; input-dependent delay from
/// one latch delay up to `lg k` latch delays (the paper's worked example:
/// two latch delays for P14's `k = 4`).
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub(crate) fn collapsing_shifter(k: u32) -> StructureCost {
    assert!(k > 0, "blocks hold at least one instruction");
    let ceil_log2 = if k <= 1 {
        0
    } else {
        32 - (k - 1).leading_zeros()
    };
    StructureCost {
        name: "collapsing buffer (shifter)",
        transmission_gates: 64 * k - 32,
        muxes: 0,
        latches: 64 * k,
        delay_best: 1,
        delay_worst: ceil_log2.max(1),
    }
}

/// The bus-based crossbar collapsing buffer of Figure 8(b): `2k` 1-to-k
/// 32-bit demultiplexers, one gate delay plus bus propagation.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub(crate) fn collapsing_crossbar(k: u32) -> StructureCost {
    assert!(k > 0, "blocks hold at least one instruction");
    StructureCost {
        name: "collapsing buffer (crossbar)",
        transmission_gates: 0,
        muxes: 2 * k,
        latches: 0,
        delay_best: 1,
        delay_worst: 1, // + bus propagation, which the paper leaves symbolic
    }
}

/// All four structures for a machine with `k` instructions per cache block.
#[must_use]
pub fn all_structures(k: u32) -> [StructureCost; 4] {
    [
        interchange_switch(k),
        valid_select(k),
        collapsing_shifter(k),
        collapsing_crossbar(k),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_p14_numbers() {
        // k = 4 (16-byte blocks): the paper's worked example.
        let sw = interchange_switch(4);
        assert_eq!(sw.transmission_gates, 256); // 64k
        assert_eq!(sw.delay_worst, 2);

        let vs = valid_select(4);
        // 3 k-to-1 + 3 (k-1)-to-1 + 3 2-to-1 = 3*(4 + 3 + 2) = 27 muxes.
        assert_eq!(vs.muxes, 27);
        assert_eq!(vs.delay_worst, 4);

        let sh = collapsing_shifter(4);
        assert_eq!(sh.latches, 256); // 64k 1-bit registers
        assert_eq!(sh.transmission_gates, 224); // 64k - 32
                                                // The paper's worked example: two latch delays for P14 (k = 4).
        assert_eq!(sh.delay_worst, 2);
        assert_eq!(sh.delay_best, 1);

        let cb = collapsing_crossbar(4);
        assert_eq!(cb.muxes, 8); // 2k demuxes
        assert_eq!(cb.delay_worst, 1);
    }

    #[test]
    fn costs_scale_linearly_with_block_size() {
        for (k_small, k_big) in [(4u32, 8), (8, 16)] {
            assert_eq!(
                interchange_switch(k_big).transmission_gates,
                2 * interchange_switch(k_small).transmission_gates
            );
            assert_eq!(
                collapsing_crossbar(k_big).muxes,
                2 * collapsing_crossbar(k_small).muxes
            );
        }
    }

    #[test]
    fn crossbar_is_the_low_latency_implementation() {
        for k in [4u32, 8, 16] {
            assert!(
                collapsing_crossbar(k).delay_worst <= collapsing_shifter(k).delay_worst,
                "k = {k}"
            );
        }
    }

    #[test]
    fn display_mentions_the_structure() {
        let s = valid_select(8).to_string();
        assert!(s.contains("valid select"));
        assert!(s.contains("muxes"));
    }

    #[test]
    fn all_structures_cover_the_figures() {
        let all = all_structures(16);
        assert_eq!(all.len(), 4);
        let names: Vec<_> = all.iter().map(|s| s.name).collect();
        assert!(names.contains(&"interchange switch"));
        assert!(names.contains(&"collapsing buffer (crossbar)"));
    }
}
