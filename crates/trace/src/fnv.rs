//! Stable FNV-1a hashing.
//!
//! The result store and the sweep cache persist hashes to disk: cache
//! keys are FNV-1a digests of canonical key strings, and cached
//! objects carry FNV-1a checksums. These values must therefore be
//! *stable* — identical across platforms, Rust versions, and releases
//! — which rules out [`std::hash`] (whose hashers are explicitly
//! allowed to change). This module pins the exact FNV-1a parameters
//! the workspace relies on; the constants here must never change (a
//! change silently invalidates every cache on disk — bump the cache's
//! own version instead).
//!
//! # Examples
//!
//! ```
//! use bpred_trace::fnv;
//!
//! assert_eq!(fnv::fnv64(b""), 0xcbf2_9ce4_8422_2325);
//! // The IETF test vector for "a".
//! assert_eq!(fnv::fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
//! assert_eq!(fnv::fnv128_hex(b"").len(), 32);
//! ```

/// FNV-1a 64-bit offset basis.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;
/// FNV-1a 128-bit offset basis.
pub const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
pub const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64(FNV64_OFFSET)
    }

    /// Feeds bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV64_PRIME);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes everything written, so an encoder can stream into the hash
/// instead of building the bytes first.
impl std::io::Write for Fnv64 {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        // The inherent `Fnv64::write`, which feeds the hash.
        Fnv64::write(self, bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// FNV-1a 64-bit hash of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// FNV-1a 128-bit hash of a byte slice.
pub fn fnv128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// FNV-1a 128-bit hash rendered as 32 lowercase hex digits — the
/// content-address format of the result store.
pub fn fnv128_hex(bytes: &[u8]) -> String {
    format!("{:032x}", fnv128(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors_hold() {
        // Published FNV-1a test vectors; these pin the constants.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv128(b""), FNV128_OFFSET);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }

    #[test]
    fn io_writes_feed_the_hash() {
        let mut h = Fnv64::new();
        std::io::Write::write_all(&mut h, b"foobar").unwrap();
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }

    #[test]
    fn hex_digest_is_fixed_width() {
        for input in [&b""[..], b"x", b"a longer input with spaces"] {
            let hex = fnv128_hex(input);
            assert_eq!(hex.len(), 32);
            assert!(hex.bytes().all(|b| b.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(fnv128_hex(b"cell|a"), fnv128_hex(b"cell|b"));
        assert_ne!(fnv64(b"espresso"), fnv64(b"mpeg_play"));
    }
}
