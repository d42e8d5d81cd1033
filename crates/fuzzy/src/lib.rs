//! # siren-fuzzy — SSDeep-style context-triggered piecewise hashing (CTPH)
//!
//! This crate implements the fuzzy-hashing core of the SIREN paper: the
//! spamsum/SSDeep algorithm of Kornblum ("Identifying almost identical
//! files using context triggered piecewise hashing", Digital Investigation
//! 3, 2006), plus the similarity comparison that converts two fuzzy hashes
//! into a 0–100 score.
//!
//! ## How CTPH works
//!
//! A 7-byte **rolling hash** slides over the input. Whenever the rolling
//! state is congruent to `block_size - 1` modulo the block size, the input
//! is "cut" at a content-defined boundary and the FNV-style **piecewise
//! hash** accumulated since the previous cut is emitted as a single base64
//! character. The concatenation of those characters (at most 64) is the
//! signature for that block size; a second signature at double the block
//! size (at most 32 chars) is kept so that hashes of files that straddle a
//! block-size doubling remain comparable. The result is rendered as
//! `block_size:sig1:sig2`.
//!
//! Because boundaries are chosen by *content*, inserting or deleting bytes
//! only perturbs the characters near the edit — unlike cryptographic
//! hashing where any edit flips the whole digest (the "avalanche effect"
//! the paper contrasts against).
//!
//! ## Comparison
//!
//! [`compare()`] scores two fuzzy hashes 0–100 using spamsum's weighted
//! Damerau–Levenshtein distance over the signature strings, gated by a
//! common 7-gram requirement, exactly as described in §2.1 of the paper.
//! Those weights make the distance an indel distance, which the
//! `compare` module computes bit-parallel without allocating.
//! That same gate powers [`FuzzyIndex`] (the `index` module): an
//! inverted 7-gram index that prunes similarity-search candidates to
//! the entries that could possibly score above 0, with a guaranteed-
//! identical-results fallback to the full scan.
//!
//! ## Two implementations, one semantics
//!
//! * [`fuzzy_hash_reference`] — the two-pass "recompute at half block size"
//!   algorithm exactly as published in the spamsum paper; simple, obviously
//!   correct, and used as the test oracle.
//! * [`FuzzyHasher`] — a single-pass streaming engine that maintains all 31
//!   block-size contexts simultaneously (the approach of `fuzzy.c` in
//!   ssdeep). Property tests assert byte-for-byte agreement with the
//!   reference on arbitrary inputs.
//!
//! Note: agreement with the *reference C ssdeep binary* is not asserted
//! anywhere (no vectors available offline); the two independent in-repo
//! implementations and the invariant suite stand in for that. The edit
//! distance equals the original spamsum weights' (insert/delete 1,
//! substitute 3, transpose 5), matching the paper's description of
//! Damerau–Levenshtein comparison; `tests/properties.rs` checks it
//! against that weighted recurrence.

pub mod batch;
pub mod compare;
pub mod generate;
pub mod index;
pub mod roll;

pub use batch::{compare_many, compare_matrix, similarity_search, SearchHit};
pub use compare::{compare, compare_parsed, score_strings};
pub use generate::{fuzzy_hash, fuzzy_hash_reference, FuzzyHasher};
pub use index::FuzzyIndex;
pub use roll::RollingHash;

/// Maximum signature length (characters) for the primary block size.
pub const SPAMSUM_LENGTH: usize = 64;
/// Smallest block size the algorithm will use.
pub const MIN_BLOCKSIZE: u32 = 3;
/// Rolling-hash window width in bytes.
pub const ROLLING_WINDOW: usize = 7;
/// Initial state of the piecewise FNV hash (spamsum's `HASH_INIT`).
pub const HASH_INIT: u32 = 0x2802_1967;
/// Number of simultaneously maintained block-size contexts (3 · 2^i).
pub const NUM_BLOCKHASHES: usize = 31;

/// A parsed fuzzy hash: `block_size:sig1:sig2`.
///
/// `sig1` is the signature at `block_size` (≤ 64 chars), `sig2` at
/// `2 × block_size` (≤ 32 chars). Comparable only against hashes whose
/// block size is equal, half, or double.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FuzzyHash {
    /// Content-defined chunking block size (3 · 2^i).
    pub block_size: u32,
    /// Signature at `block_size`.
    pub sig1: String,
    /// Signature at `2 × block_size`.
    pub sig2: String,
}

/// Errors from parsing a textual fuzzy hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Not exactly three `:`-separated fields.
    FieldCount,
    /// Block size field is not a positive integer.
    BlockSize,
    /// Block size is not of the form `3 · 2^i`.
    BlockSizeSeries,
    /// Signature contains a character outside the base64 alphabet.
    Alphabet,
    /// Signature longer than the spec allows.
    TooLong,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ParseError::FieldCount => "expected block_size:sig1:sig2",
            ParseError::BlockSize => "block size is not a positive integer",
            ParseError::BlockSizeSeries => "block size is not 3*2^i",
            ParseError::Alphabet => "signature contains non-base64 character",
            ParseError::TooLong => "signature exceeds maximum length",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ParseError {}

impl FuzzyHash {
    /// Parse `block_size:sig1:sig2`.
    pub fn parse(s: &str) -> Result<Self, ParseError> {
        let mut parts = s.splitn(3, ':');
        let bs = parts.next().ok_or(ParseError::FieldCount)?;
        let sig1 = parts.next().ok_or(ParseError::FieldCount)?;
        let sig2 = parts.next().ok_or(ParseError::FieldCount)?;

        let block_size: u32 = bs.parse().map_err(|_| ParseError::BlockSize)?;
        if block_size == 0 {
            return Err(ParseError::BlockSize);
        }
        if !is_valid_block_size(block_size) {
            return Err(ParseError::BlockSizeSeries);
        }
        if sig1.len() > SPAMSUM_LENGTH || sig2.len() > SPAMSUM_LENGTH / 2 {
            return Err(ParseError::TooLong);
        }
        let ok = |s: &str| s.bytes().all(|b| siren_hash::BASE64_ALPHABET.contains(&b));
        if !ok(sig1) || !ok(sig2) {
            return Err(ParseError::Alphabet);
        }
        Ok(Self {
            block_size,
            sig1: sig1.to_string(),
            sig2: sig2.to_string(),
        })
    }

    /// Render back to `block_size:sig1:sig2`.
    pub fn to_string_repr(&self) -> String {
        format!("{}:{}:{}", self.block_size, self.sig1, self.sig2)
    }
}

impl std::fmt::Display for FuzzyHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.block_size, self.sig1, self.sig2)
    }
}

impl std::str::FromStr for FuzzyHash {
    type Err = ParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// Is `bs` a member of the `3 · 2^i` series?
pub fn is_valid_block_size(bs: u32) -> bool {
    let mut v = MIN_BLOCKSIZE;
    loop {
        if v == bs {
            return true;
        }
        match v.checked_mul(2) {
            Some(next) if next <= bs => v = next,
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip() {
        let h = FuzzyHash::parse("3:ABC:de").unwrap();
        assert_eq!(h.block_size, 3);
        assert_eq!(h.sig1, "ABC");
        assert_eq!(h.sig2, "de");
        assert_eq!(h.to_string_repr(), "3:ABC:de");
        assert_eq!(format!("{h}"), "3:ABC:de");
    }

    #[test]
    fn parse_empty_signatures() {
        let h = FuzzyHash::parse("3::").unwrap();
        assert!(h.sig1.is_empty());
        assert!(h.sig2.is_empty());
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!(FuzzyHash::parse("3:ABC"), Err(ParseError::FieldCount));
        assert_eq!(FuzzyHash::parse("x:A:B"), Err(ParseError::BlockSize));
        assert_eq!(FuzzyHash::parse("0:A:B"), Err(ParseError::BlockSize));
        assert_eq!(FuzzyHash::parse("5:A:B"), Err(ParseError::BlockSizeSeries));
        assert_eq!(FuzzyHash::parse("3:A B:C"), Err(ParseError::Alphabet));
        assert_eq!(
            FuzzyHash::parse(&format!("3:{}:", "A".repeat(65))),
            Err(ParseError::TooLong)
        );
        assert_eq!(
            FuzzyHash::parse(&format!("3::{}", "A".repeat(33))),
            Err(ParseError::TooLong)
        );
    }

    #[test]
    fn block_size_series() {
        for bs in [3u32, 6, 12, 24, 48, 96, 192, 384, 768, 1536, 3072] {
            assert!(is_valid_block_size(bs), "{bs}");
        }
        for bs in [1u32, 2, 4, 5, 7, 9, 13, 100] {
            assert!(!is_valid_block_size(bs), "{bs}");
        }
    }

    #[test]
    fn from_str_impl() {
        let h: FuzzyHash = "6:abc:XY".parse().unwrap();
        assert_eq!(h.block_size, 6);
    }
}
