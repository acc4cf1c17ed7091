//! # fetchmech-cache
//!
//! Instruction-cache models for the `fetchmech` reproduction of the ISCA '95
//! fetch-mechanisms paper.
//!
//! All three machine models (P14/P18/P112) use a direct-mapped instruction
//! cache whose block holds exactly one issue-width of instructions (16 B /
//! 32 B / 64 B). The interleaved, banked, and collapsing-buffer fetch schemes
//! additionally view the cache as two independently-addressable banks; bank
//! selection is by block index parity. [`ICache`] models tags, fills, and
//! hit/miss statistics; data contents are immaterial to a timing simulator
//! and are not stored.
//!
//! # Examples
//!
//! ```
//! use fetchmech_cache::{CacheConfig, ICache};
//! use fetchmech_isa::Addr;
//!
//! let mut cache = ICache::new(CacheConfig::new(32 * 1024, 16, 2));
//! assert!(!cache.access(Addr::new(0x1000)).is_hit()); // cold miss fills
//! assert!(cache.access(Addr::new(0x1004)).is_hit());  // same block
//! assert_eq!(cache.stats().misses, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use fetchmech_isa::Addr;

/// Geometry of a direct-mapped, banked instruction cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Block (line) size in bytes.
    pub block_bytes: u64,
    /// Number of independently-addressable banks (1 for plain *sequential*,
    /// 2 for the interleaved/banked/collapsing schemes).
    pub banks: u32,
}

impl CacheConfig {
    /// Creates a cache configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes` and `block_bytes` are powers of two with
    /// `size_bytes >= block_bytes`, and `banks` is a nonzero power of two.
    #[must_use]
    pub fn new(size_bytes: u64, block_bytes: u64, banks: u32) -> Self {
        assert!(
            size_bytes.is_power_of_two(),
            "cache size must be a power of two"
        );
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        assert!(size_bytes >= block_bytes, "cache smaller than one block");
        assert!(
            banks > 0 && banks.is_power_of_two(),
            "banks must be a nonzero power of two"
        );
        Self {
            size_bytes,
            block_bytes,
            banks,
        }
    }

    /// Number of blocks (sets, for a direct-mapped cache).
    #[must_use]
    #[inline]
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / self.block_bytes
    }

    /// Bank holding the block that contains `addr` (block-index parity
    /// interleaving, as in Figure 4 of the paper).
    #[must_use]
    #[inline]
    pub fn bank_of(&self, addr: Addr) -> u32 {
        // `banks` is validated to be a power of two.
        (addr.block_index(self.block_bytes) & u64::from(self.banks - 1)) as u32
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB direct-mapped, {}B blocks, {} bank(s)",
            self.size_bytes / 1024,
            self.block_bytes,
            self.banks
        )
    }
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The block was resident.
    Hit,
    /// The block was not resident and has been filled.
    Miss,
}

impl Access {
    /// Returns `true` for [`Access::Hit`].
    #[must_use]
    #[inline]
    pub fn is_hit(self) -> bool {
        self == Access::Hit
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total block accesses.
    pub accesses: u64,
    /// Accesses that missed (and filled).
    pub misses: u64,
}

/// A direct-mapped instruction cache (tags only).
#[derive(Debug, Clone)]
pub struct ICache {
    config: CacheConfig,
    tags: Vec<Option<u64>>,
    stats: CacheStats,
}

impl ICache {
    /// Creates an empty (all-invalid) cache.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        Self {
            config,
            tags: vec![None; config.num_sets() as usize],
            stats: CacheStats::default(),
        }
    }

    /// Returns the configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accesses the block containing `addr`, filling it on a miss.
    #[inline]
    pub fn access(&mut self, addr: Addr) -> Access {
        self.stats.accesses += 1;
        // Size and block bytes are powers of two, so set selection is a
        // mask and the tag a shift (this is the simulator's hottest loop).
        let block = addr.block_index(self.config.block_bytes);
        let sets = self.config.num_sets();
        let set = (block & (sets - 1)) as usize;
        let tag = block >> sets.trailing_zeros();
        if self.tags[set] == Some(tag) {
            Access::Hit
        } else {
            self.tags[set] = Some(tag);
            self.stats.misses += 1;
            Access::Miss
        }
    }

    /// Returns `true` if the block containing `addr` is resident, without
    /// updating state or statistics.
    #[must_use]
    pub fn probe(&self, addr: Addr) -> bool {
        let block = addr.block_index(self.config.block_bytes);
        let sets = self.config.num_sets();
        let set = (block & (sets - 1)) as usize;
        let tag = block >> sets.trailing_zeros();
        self.tags[set] == Some(tag)
    }

    /// Returns the bank holding `addr`'s block.
    #[must_use]
    pub fn bank_of(&self, addr: Addr) -> u32 {
        self.config.bank_of(addr)
    }

    /// Returns accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ICache {
        // 256 B, 16 B blocks => 16 sets.
        ICache::new(CacheConfig::new(256, 16, 2))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert_eq!(c.access(Addr::new(0x40)), Access::Miss);
        assert_eq!(c.access(Addr::new(0x4c)), Access::Hit);
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn conflicting_blocks_evict() {
        let mut c = small();
        // 0x000 and 0x100 map to the same set (16 sets * 16 B = 256 B stride).
        assert_eq!(c.access(Addr::new(0x000)), Access::Miss);
        assert_eq!(c.access(Addr::new(0x100)), Access::Miss);
        assert_eq!(
            c.access(Addr::new(0x000)),
            Access::Miss,
            "must have been evicted"
        );
    }

    #[test]
    fn distinct_sets_coexist() {
        let mut c = small();
        for i in 0..16u64 {
            assert_eq!(c.access(Addr::new(i * 16)), Access::Miss);
        }
        for i in 0..16u64 {
            assert_eq!(c.access(Addr::new(i * 16)), Access::Hit);
        }
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = small();
        assert!(!c.probe(Addr::new(0x40)));
        assert_eq!(c.stats().accesses, 0);
        c.access(Addr::new(0x40));
        assert!(c.probe(Addr::new(0x40)));
        assert_eq!(c.stats().accesses, 1);
    }

    #[test]
    fn banks_alternate_by_block() {
        let c = small();
        assert_eq!(c.bank_of(Addr::new(0x00)), 0);
        assert_eq!(c.bank_of(Addr::new(0x10)), 1);
        assert_eq!(c.bank_of(Addr::new(0x20)), 0);
        // Addresses within one block share a bank.
        assert_eq!(c.bank_of(Addr::new(0x1c)), 1);
    }

    #[test]
    fn paper_geometries_are_constructible() {
        for (size, block) in [(32 * 1024, 16), (64 * 1024, 32), (128 * 1024, 64)] {
            let c = ICache::new(CacheConfig::new(size, block, 2));
            assert_eq!(c.config().num_sets() * block, size);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = CacheConfig::new(3000, 16, 2);
    }
}
