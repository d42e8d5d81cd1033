//! FNV-1a — the Fowler–Noll–Vo hash, 32- and 64-bit variants.
//!
//! SSDeep's context-triggered piecewise hashing uses an FNV-style
//! multiply-xor step as its piecewise (chunk) hash; `siren-fuzzy` builds on
//! [`Fnv32`]. The 64-bit variant is used for cheap in-memory keys.

/// FNV-1a 32-bit offset basis.
pub const FNV32_OFFSET: u32 = 0x811C_9DC5;
/// FNV-1a 32-bit prime.
pub const FNV32_PRIME: u32 = 0x0100_0193;
/// FNV-1a 64-bit offset basis.
pub const FNV64_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01B3;

/// One-shot FNV-1a/32 over `data`.
pub fn fnv1a32(data: &[u8]) -> u32 {
    let mut h = Fnv32::new();
    h.update(data);
    h.digest()
}

/// One-shot FNV-1a/64 over `data`.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(data);
    h.digest()
}

/// Streaming FNV-1a/32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv32 {
    state: u32,
}

impl Default for Fnv32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv32 {
    /// Start from the standard offset basis.
    pub const fn new() -> Self {
        Self {
            state: FNV32_OFFSET,
        }
    }

    /// Start from an arbitrary state (SSDeep seeds its piecewise hash with
    /// a non-standard constant; see `siren-fuzzy`).
    pub const fn with_state(state: u32) -> Self {
        Self { state }
    }

    /// Absorb bytes.
    pub fn update(&mut self, data: &[u8]) {
        let mut h = self.state;
        for &b in data {
            h ^= u32::from(b);
            h = h.wrapping_mul(FNV32_PRIME);
        }
        self.state = h;
    }

    /// Current state as digest.
    pub const fn digest(&self) -> u32 {
        self.state
    }
}

/// Streaming FNV-1a/64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Start from the standard offset basis.
    pub const fn new() -> Self {
        Self {
            state: FNV64_OFFSET,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, data: &[u8]) {
        let mut h = self.state;
        for &b in data {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV64_PRIME);
        }
        self.state = h;
    }

    /// Current state as digest.
    pub const fn digest(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Canonical FNV-1a test vectors (from the FNV reference material).
    #[test]
    fn fnv32_known_vectors() {
        assert_eq!(fnv1a32(b""), 0x811C_9DC5);
        assert_eq!(fnv1a32(b"a"), 0xE40C_292C);
        assert_eq!(fnv1a32(b"foobar"), 0xBF9C_F968);
    }

    #[test]
    fn fnv64_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn streaming_equivalence() {
        let mut h = Fnv32::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.digest(), fnv1a32(b"foobar"));

        let mut h = Fnv64::new();
        for &b in b"foobar" {
            h.update(&[b]);
        }
        assert_eq!(h.digest(), fnv1a64(b"foobar"));
    }
}
