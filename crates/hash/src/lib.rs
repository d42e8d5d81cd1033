//! # siren-hash — fast non-cryptographic and baseline cryptographic hashing
//!
//! The SIREN paper uses three distinct kinds of hashing and this crate
//! provides all of them from scratch (no external hashing dependencies):
//!
//! * [`xxh64()`] / [`Xxh64`] — the XXH64 algorithm, used as a fast
//!   non-cryptographic hash. The paper's `siren.so` hashes the path of
//!   `/proc/self/exe` with `XXH3_128bits` purely to disambiguate PID
//!   collisions in the database; [`xxh3_128`] plays that role here.
//! * [`xxh3_128`] / [`Xxh3_128`] — a 128-bit hash following the XXH3
//!   construction (stripe accumulation over a pseudo-random secret with
//!   wide multiplies). Cross-compatibility with the reference C
//!   implementation is **not** guaranteed (no official vectors were
//!   available offline); SIREN only requires determinism and dispersion,
//!   both of which are tested.
//! * [`sha1()`] — SHA-1, implemented for the XALT-style *baseline*: XALT
//!   identifies executables by a cryptographic hash, which recognizes only
//!   byte-identical files. The ablation experiments contrast this with
//!   fuzzy hashing.
//! * [`fnv1a32`] / [`fnv1a64`] — FNV-1a, the piecewise hash family that
//!   SSDeep's CTPH builds on (see the `siren-fuzzy` crate).
//!
//! Encoding helpers ([`to_hex`]/[`from_hex`], [`to_base64`]) are also provided since fuzzy
//! hashes and record keys are exchanged as text over the wire protocol.

pub mod encode;
pub mod fnv;
pub mod sha1;
pub mod xxh3;
pub mod xxh64;

pub use encode::{from_hex, to_base64, to_hex, BASE64_ALPHABET};
pub use fnv::{fnv1a32, fnv1a64, Fnv32, Fnv64};
pub use sha1::{sha1, sha1_hex, Sha1};
pub use xxh3::{xxh3_128, xxh3_128_hex, Xxh3_128};
pub use xxh64::{xxh64, Xxh64};

/// A 128-bit hash value, as produced by [`xxh3_128`].
///
/// Stored as two 64-bit words (`high`, `low`) to keep the type `Copy` and
/// trivially comparable; the canonical text form is 32 lowercase hex
/// digits, high word first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Hash128 {
    /// Most-significant 64 bits.
    pub high: u64,
    /// Least-significant 64 bits.
    pub low: u64,
}

impl Hash128 {
    /// Construct from the two 64-bit halves.
    pub const fn new(high: u64, low: u64) -> Self {
        Self { high, low }
    }

    /// Render as 32 lowercase hex digits (high word first).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.high, self.low)
    }

    /// Parse the canonical 32-hex-digit form produced by [`Hash128::to_hex`].
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let high = u64::from_str_radix(&s[..16], 16).ok()?;
        let low = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Self { high, low })
    }

    /// Collapse to 64 bits (xor-fold), useful for hash-table keys.
    pub fn fold64(self) -> u64 {
        self.high ^ self.low
    }
}

impl std::fmt::Display for Hash128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.high, self.low)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash128_hex_round_trip() {
        let h = Hash128::new(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
        let s = h.to_hex();
        assert_eq!(s.len(), 32);
        assert_eq!(Hash128::from_hex(&s), Some(h));
    }

    #[test]
    fn hash128_from_hex_rejects_garbage() {
        assert_eq!(Hash128::from_hex(""), None);
        assert_eq!(Hash128::from_hex("zz"), None);
        assert_eq!(Hash128::from_hex(&"g".repeat(32)), None);
        assert_eq!(Hash128::from_hex(&"0".repeat(31)), None);
        assert_eq!(Hash128::from_hex(&"0".repeat(33)), None);
    }

    #[test]
    fn hash128_display_matches_to_hex() {
        let h = Hash128::new(7, 9);
        assert_eq!(format!("{h}"), h.to_hex());
    }

    #[test]
    fn hash128_fold_is_xor() {
        let h = Hash128::new(0xff00, 0x00ff);
        assert_eq!(h.fold64(), 0xffff);
    }
}
