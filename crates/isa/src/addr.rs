//! Virtual addresses and cache-block geometry helpers.

use std::fmt;

/// Size of one instruction word in bytes (fixed 32-bit encoding).
pub const WORD_BYTES: u64 = 4;

/// A byte-granular virtual address.
///
/// Instruction addresses in this simulator are always word-aligned
/// (multiples of [`WORD_BYTES`]); the constructors preserve that invariant
/// for word-indexed construction and `Addr::new` accepts arbitrary byte
/// addresses for cache arithmetic.
///
/// The address space is 32 bits, like the paper's PA-RISC testbed, so an
/// address is stored in a `u32`; the API speaks `u64` and every constructor
/// panics on a byte address at or past 2³² rather than wrap.
///
/// # Examples
///
/// ```
/// use fetchmech_isa::Addr;
///
/// let a = Addr::from_word_index(3);
/// assert_eq!(a.byte(), 12);
/// assert_eq!(a.word_index(), 3);
/// assert_eq!(a.offset_words(16), 3); // within a 16-byte block
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u32);

const _: () = assert!(std::mem::size_of::<Addr>() == 4);

impl Addr {
    /// One past the largest byte address: the address space is 32 bits.
    pub(crate) const LIMIT: u64 = 1 << 32;

    /// Creates an address from a raw byte value.
    ///
    /// # Panics
    ///
    /// Panics if `byte` does not fit in 32 bits.
    #[must_use]
    #[inline]
    pub const fn new(byte: u64) -> Self {
        assert!(byte < Self::LIMIT, "byte address past the 32-bit space");
        Self(byte as u32)
    }

    /// Creates a word-aligned address from an instruction-word index.
    ///
    /// # Panics
    ///
    /// Panics if the byte address does not fit in 32 bits.
    #[must_use]
    pub const fn from_word_index(index: u64) -> Self {
        Self::new(index * WORD_BYTES)
    }

    /// Returns the raw byte address.
    #[must_use]
    #[inline]
    pub const fn byte(self) -> u64 {
        self.0 as u64
    }

    /// Returns the instruction-word index (`byte / 4`).
    #[must_use]
    #[inline]
    pub const fn word_index(self) -> u64 {
        self.byte() / WORD_BYTES
    }

    /// Returns the address advanced by `n` instruction words.
    ///
    /// # Panics
    ///
    /// Panics if the result does not fit in 32 bits.
    #[must_use]
    #[inline]
    pub const fn add_words(self, n: u64) -> Self {
        Self::new(self.byte() + n * WORD_BYTES)
    }

    /// Returns the address of the cache block containing `self` for the
    /// given block size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two.
    #[must_use]
    #[inline]
    pub fn block_base(self, block_bytes: u64) -> Self {
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        Self::new(self.byte() & !(block_bytes - 1))
    }

    /// Returns the block index (`byte / block_bytes`).
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two.
    #[must_use]
    #[inline]
    pub fn block_index(self, block_bytes: u64) -> u64 {
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        self.byte() >> block_bytes.trailing_zeros()
    }

    /// Returns the word offset of this address within its cache block.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two.
    #[must_use]
    pub fn offset_words(self, block_bytes: u64) -> u64 {
        (self.byte() - self.block_base(block_bytes).byte()) / WORD_BYTES
    }

    /// Returns `true` if `self` and `other` lie in the same cache block.
    #[must_use]
    pub(crate) fn same_block(self, other: Addr, block_bytes: u64) -> bool {
        self.block_base(block_bytes) == other.block_base(block_bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.byte()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_index_roundtrip() {
        for i in [0u64, 1, 7, 1000, u64::from(u32::MAX / 4)] {
            assert_eq!(Addr::from_word_index(i).word_index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "32-bit space")]
    fn new_past_32_bits_panics() {
        let _ = Addr::new(1 << 32);
    }

    #[test]
    #[should_panic(expected = "32-bit space")]
    fn add_words_past_32_bits_panics() {
        let last = Addr::from_word_index(u64::from(u32::MAX / 4));
        let _ = last.add_words(1);
    }

    #[test]
    fn block_base_masks_low_bits() {
        let a = Addr::new(0x1234);
        assert_eq!(a.block_base(16).byte(), 0x1230);
        assert_eq!(a.block_base(64).byte(), 0x1200);
    }

    #[test]
    fn offset_words_within_block() {
        let a = Addr::new(0x1238);
        assert_eq!(a.offset_words(16), 2);
        assert_eq!(a.offset_words(64), 14);
    }

    #[test]
    fn same_block_detection() {
        let a = Addr::new(0x100);
        assert!(a.same_block(Addr::new(0x10c), 16));
        assert!(!a.same_block(Addr::new(0x110), 16));
        assert!(a.same_block(Addr::new(0x13c), 64));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_block_panics() {
        let _ = Addr::new(0).block_base(24);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Addr::new(0x1c).to_string(), "0x0000001c");
    }
}
