//! Architectural registers.

use std::fmt;

/// Number of integer architectural registers.
pub const NUM_INT_REGS: u8 = 32;
/// Number of floating-point architectural registers.
pub const NUM_FP_REGS: u8 = 32;

/// An architectural register: 32 integer (`r0`–`r31`) and 32 floating-point
/// (`f0`–`f31`) registers, mirroring the PA-RISC-flavoured intermediate code
/// the paper traced.
///
/// `r0` is a normal register here (not hard-wired to zero); the simulator only
/// tracks dataflow identity, never values.
///
/// # Examples
///
/// ```
/// use fetchmech_isa::Reg;
///
/// let r = Reg::int(5);
/// assert_eq!(r.to_string(), "r5");
/// assert_eq!(r.file_index(), 5);
/// assert_eq!(Reg::fp(5).file_index(), 37); // fp registers follow the 32 int regs
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Reg {
    /// Integer register `r<n>`.
    Int(u8),
    /// Floating-point register `f<n>`.
    Fp(u8),
}

impl Reg {
    /// Creates integer register `r<n>`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[must_use]
    pub fn int(n: u8) -> Self {
        assert!(n < NUM_INT_REGS, "integer register index {n} out of range");
        Reg::Int(n)
    }

    /// Creates floating-point register `f<n>`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[must_use]
    pub fn fp(n: u8) -> Self {
        assert!(n < NUM_FP_REGS, "fp register index {n} out of range");
        Reg::Fp(n)
    }

    /// Returns a dense index over both files: `0..32` for integer registers,
    /// `32..64` for floating-point. Useful for flat rename tables.
    #[must_use]
    #[inline]
    pub fn file_index(self) -> usize {
        match self {
            Reg::Int(n) => n as usize,
            Reg::Fp(n) => NUM_INT_REGS as usize + n as usize,
        }
    }

    /// Inverse of [`Reg::file_index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= 64`.
    #[must_use]
    pub fn from_file_index(index: usize) -> Self {
        let total = (NUM_INT_REGS + NUM_FP_REGS) as usize;
        assert!(index < total, "file index {index} out of range");
        if index < NUM_INT_REGS as usize {
            Reg::Int(index as u8)
        } else {
            Reg::Fp((index - NUM_INT_REGS as usize) as u8)
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::Int(n) => write!(f, "r{n}"),
            Reg::Fp(n) => write!(f, "f{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_index_roundtrip() {
        for i in 0..64 {
            assert_eq!(Reg::from_file_index(i).file_index(), i);
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Reg::int(0).to_string(), "r0");
        assert_eq!(Reg::fp(31).to_string(), "f31");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_out_of_range_panics() {
        let _ = Reg::int(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn file_index_out_of_range_panics() {
        let _ = Reg::from_file_index(64);
    }
}
