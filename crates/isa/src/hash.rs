//! FNV-1a 64: the one stable, dependency-free hash the workspace derives
//! seeds, content fingerprints and on-disk checksums from. Its output is
//! part of persistent formats (store checksums, uploaded-program seeds), so
//! it must never change.

/// FNV-1a 64 offset basis: the hash of the empty input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the running hash `h`, so a hash over several parts
/// is `fnv1a64_extend(fnv1a64(a), b)`.
#[must_use]
pub fn fnv1a64_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a 64 of `bytes`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a64_vectors() {
        assert_eq!(fnv1a64(b""), FNV_OFFSET);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn extend_continues_an_earlier_hash() {
        assert_eq!(fnv1a64_extend(fnv1a64(b"ab"), b"cd"), fnv1a64(b"abcd"));
    }
}
