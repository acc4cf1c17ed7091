//! The five fetch schemes the paper evaluates.

use std::fmt;
use std::str::FromStr;

/// An instruction-fetch alignment mechanism (§3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SchemeKind {
    /// Fetch one cache block; deliver from the fetch offset to the first
    /// predicted-taken branch or the block end (the realistic lower bound).
    Sequential,
    /// Two-bank cache with next-block prefetch: delivery may run across the
    /// sequential block boundary but still ends at any predicted-taken
    /// branch.
    InterleavedSequential,
    /// Fetches the current block and the BTB-predicted successor block
    /// simultaneously (when they fall in different banks); delivery may cross
    /// one *inter-block* taken branch. Intra-block branch targets cannot be
    /// aligned.
    BankedSequential,
    /// Banked-sequential plus a collapsing buffer that squeezes out the gaps
    /// left by forward *intra-block* branches (the paper's contribution;
    /// crossbar implementation, two-cycle fetch misprediction penalty).
    CollapsingBuffer,
    /// Unlimited alignment bandwidth: the upper bound. Still pays I-cache
    /// misses and branch mispredictions.
    Perfect,
}

impl SchemeKind {
    /// All schemes, in the paper's presentation order (ending with the
    /// `perfect` bound). The variants are declared in this order, so
    /// `scheme as usize` indexes both this array and [`Self::HARDWARE`].
    pub const ALL: [SchemeKind; 5] = [
        SchemeKind::Sequential,
        SchemeKind::InterleavedSequential,
        SchemeKind::BankedSequential,
        SchemeKind::CollapsingBuffer,
        SchemeKind::Perfect,
    ];

    /// The four realizable hardware schemes (everything but `perfect`).
    pub const HARDWARE: [SchemeKind; 4] = [
        SchemeKind::Sequential,
        SchemeKind::InterleavedSequential,
        SchemeKind::BankedSequential,
        SchemeKind::CollapsingBuffer,
    ];

    /// Short stable name (also accepted by [`FromStr`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Sequential => "sequential",
            SchemeKind::InterleavedSequential => "interleaved",
            SchemeKind::BankedSequential => "banked",
            SchemeKind::CollapsingBuffer => "collapsing",
            SchemeKind::Perfect => "perfect",
        }
    }

    /// Number of independently-addressable cache banks the scheme assumes.
    #[must_use]
    pub fn banks(self) -> u32 {
        match self {
            SchemeKind::Sequential | SchemeKind::Perfect => 1,
            _ => 2,
        }
    }

    /// Maximum distinct cache blocks one packet may touch: `Some(1)` for
    /// the one-block sequential scheme, `Some(2)` for the paired schemes,
    /// `None` (unbounded) for the perfect front end.
    #[must_use]
    pub(crate) fn max_packet_blocks(self) -> Option<u32> {
        match self {
            SchemeKind::Sequential => Some(1),
            SchemeKind::InterleavedSequential
            | SchemeKind::BankedSequential
            | SchemeKind::CollapsingBuffer => Some(2),
            SchemeKind::Perfect => None,
        }
    }

    /// Whether the second fetched block is the BTB-predicted successor
    /// (banked/collapsing) rather than the forced next-sequential block
    /// (interleaved) or nothing at all.
    #[must_use]
    pub fn predicts_second_block(self) -> bool {
        matches!(
            self,
            SchemeKind::BankedSequential | SchemeKind::CollapsingBuffer
        )
    }

    /// Whether delivery may continue past a correctly-predicted taken
    /// *inter-block* transfer within one cycle (at most once per cycle for
    /// the banked schemes; without limit for perfect).
    #[must_use]
    pub fn crosses_taken(self) -> bool {
        matches!(
            self,
            SchemeKind::BankedSequential | SchemeKind::CollapsingBuffer | SchemeKind::Perfect
        )
    }

    /// Whether delivery may continue past a correctly-predicted taken
    /// *forward intra-block* transfer, squeezing out the gap (the
    /// collapsing buffer's contribution; perfect subsumes it).
    #[must_use]
    pub fn collapses_forward(self) -> bool {
        matches!(self, SchemeKind::CollapsingBuffer | SchemeKind::Perfect)
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from parsing a [`SchemeKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchemeError(String);

impl fmt::Display for ParseSchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown scheme {:?} (expected sequential, interleaved, banked, collapsing, or perfect)",
            self.0
        )
    }
}

impl std::error::Error for ParseSchemeError {}

impl FromStr for SchemeKind {
    type Err = ParseSchemeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SchemeKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| ParseSchemeError(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discriminants_index_all_and_hardware() {
        for (i, k) in SchemeKind::ALL.into_iter().enumerate() {
            assert_eq!(k as usize, i);
        }
        assert_eq!(SchemeKind::HARDWARE, SchemeKind::ALL[..4]);
    }

    #[test]
    fn names_roundtrip() {
        for k in SchemeKind::ALL {
            assert_eq!(k.name().parse::<SchemeKind>().expect("roundtrip"), k);
        }
    }

    #[test]
    fn unknown_name_errors() {
        let err = "warp".parse::<SchemeKind>().unwrap_err();
        assert!(err.to_string().contains("warp"));
    }

    #[test]
    fn hardware_excludes_perfect() {
        assert!(!SchemeKind::HARDWARE.contains(&SchemeKind::Perfect));
        assert_eq!(SchemeKind::HARDWARE.len() + 1, SchemeKind::ALL.len());
    }

    #[test]
    fn bank_counts() {
        assert_eq!(SchemeKind::Sequential.banks(), 1);
        assert_eq!(SchemeKind::BankedSequential.banks(), 2);
        assert_eq!(SchemeKind::CollapsingBuffer.banks(), 2);
    }
}
