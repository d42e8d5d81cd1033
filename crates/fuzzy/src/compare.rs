//! Fuzzy-hash comparison: the 0–100 similarity score.
//!
//! The pipeline (mirroring `fuzzy_compare` in ssdeep and §2.1 of the
//! paper):
//!
//! 1. Block sizes must be equal, double, or half — otherwise the hashes
//!    describe chunkings at incomparable granularities and the score is 0.
//! 2. Runs of more than three identical characters are collapsed to three;
//!    long runs carry almost no information (they arise from repetitive
//!    input) and would otherwise inflate scores.
//! 3. The two signatures must share at least one 7-character substring
//!    (the width of the rolling window); without that the match is noise.
//! 4. The edit distance between them is scaled into 0–100, where 100
//!    means effectively identical. spamsum weighs edits as insert/delete
//!    1, substitute 3, transpose 5; since a substitution costs more than
//!    a delete plus an insert, and a transposition more than the two
//!    indels that achieve it, that weighted Damerau–Levenshtein distance
//!    is the indel distance `n + m − 2·LCS`.
//! 5. For small block sizes the score is capped: short signatures of
//!    common block sizes can collide by chance, so their evidence is
//!    weaker.
//!
//! A signature is at most 64 bytes, so it fits one `u64` bit-vector. One
//! 256-entry table of match masks per comparison drives both the 7-gram
//! gate (seven rolling masks, shift-and) and the LCS (Hyyrö's
//! bit-parallel recurrence, "Bit-parallel LCS-length computation
//! revisited", 2004); collapsed signatures live in stack buffers, so
//! [`compare_parsed`] never allocates.

use crate::{FuzzyHash, ParseError, MIN_BLOCKSIZE, ROLLING_WINDOW, SPAMSUM_LENGTH};

/// Pattern bytes one [`MatchMasks`] holds: one bit each in a `u64`.
const WORD: usize = u64::BITS as usize;

/// Compare two textual fuzzy hashes. Errors if either fails to parse.
pub fn compare(a: &str, b: &str) -> Result<u32, ParseError> {
    Ok(compare_parsed(&FuzzyHash::parse(a)?, &FuzzyHash::parse(b)?))
}

/// Compare two parsed fuzzy hashes, returning a similarity score 0–100.
pub fn compare_parsed(a: &FuzzyHash, b: &FuzzyHash) -> u32 {
    let (bs1, bs2) = (a.block_size, b.block_size);

    // Identical non-trivial hashes are a perfect match, regardless of
    // signature length (short signatures would otherwise be rejected by
    // the common-substring gate; identity is stronger evidence).
    if bs1 == bs2 && a.sig1 == b.sig1 && a.sig2 == b.sig2 && !a.sig1.is_empty() {
        return 100;
    }

    if bs1 != bs2 && bs1 != bs2.wrapping_mul(2) && bs2 != bs1.wrapping_mul(2) {
        return 0;
    }

    if bs1 == bs2 {
        let s1 = score_signatures(&a.sig1, &b.sig1, bs1);
        let s2 = score_signatures(&a.sig2, &b.sig2, bs1.wrapping_mul(2));
        s1.max(s2)
    } else if bs1 == bs2.wrapping_mul(2) {
        // a's primary signature is at b's doubled block size.
        score_signatures(&a.sig1, &b.sig2, bs1)
    } else {
        score_signatures(&a.sig2, &b.sig1, bs2)
    }
}

/// Run-collapse two raw signatures into stack buffers and score them. A
/// signature still longer than [`SPAMSUM_LENGTH`] after collapsing
/// scores 0, as in [`score_strings`].
fn score_signatures(s1: &str, s2: &str, block_size: u32) -> u32 {
    let (mut buf1, mut buf2) = ([0u8; SPAMSUM_LENGTH], [0u8; SPAMSUM_LENGTH]);
    match (
        collapse_into(s1.as_bytes(), &mut buf1),
        collapse_into(s2.as_bytes(), &mut buf2),
    ) {
        (Some(c1), Some(c2)) => score_bytes(c1, c2, block_size),
        _ => 0,
    }
}

/// The bytes of `s` with every run of more than three identical bytes cut
/// to three.
fn collapsed(s: &[u8]) -> impl Iterator<Item = u8> + '_ {
    let mut run = 0usize;
    let mut prev = 0u8;
    s.iter().copied().filter(move |&c| {
        if c == prev {
            run += 1;
        } else {
            run = 1;
            prev = c;
        }
        run <= 3
    })
}

/// [`collapsed`] written into `buf`; `None` when it does not fit.
fn collapse_into<'b>(s: &[u8], buf: &'b mut [u8; SPAMSUM_LENGTH]) -> Option<&'b [u8]> {
    let mut len = 0;
    for c in collapsed(s) {
        *buf.get_mut(len)? = c;
        len += 1;
    }
    Some(&buf[..len])
}

/// Collapse runs of more than three identical characters to exactly three.
pub fn eliminate_sequences(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    out.extend(collapsed(s.as_bytes()).map(char::from));
    out
}

/// Match masks of a pattern of at most [`WORD`] bytes: bit `i` of
/// `masks[c]` is set where byte `i` of the pattern is `c`.
struct MatchMasks {
    masks: [u64; 256],
}

impl MatchMasks {
    fn new(pattern: &[u8]) -> Self {
        assert!(pattern.len() <= WORD, "pattern exceeds one match-mask word");
        let mut masks = [0u64; 256];
        for (i, &c) in pattern.iter().enumerate() {
            masks[usize::from(c)] |= 1 << i;
        }
        Self { masks }
    }

    /// Does `text` share a [`ROLLING_WINDOW`]-byte substring with the
    /// pattern? After reading a text byte, bit `i` of `grams[k]` is set
    /// when pattern bytes `i − k ..= i` equal the last `k + 1` text bytes.
    fn shares_gram(&self, text: &[u8]) -> bool {
        let mut grams = [0u64; ROLLING_WINDOW];
        for &c in text {
            let m = self.masks[usize::from(c)];
            for k in (1..ROLLING_WINDOW).rev() {
                grams[k] = (grams[k - 1] << 1) & m;
            }
            grams[0] = m;
            if grams[ROLLING_WINDOW - 1] != 0 {
                return true;
            }
        }
        false
    }

    /// Longest-common-subsequence length of the pattern and `text`
    /// (Hyyrö 2004): each zero bit of `v` marks a pattern position that
    /// ends one more step of the LCS; bits past the pattern stay set.
    ///
    /// A pattern longer than one word runs as consecutive 64-byte blocks,
    /// low block first, whose additions carry into the next block:
    /// `carries` holds one bit per text byte, on entry the previous
    /// block's carries out (zero for the first) and on return this
    /// block's. An empty `carries` is a pattern with no other block.
    fn lcs(&self, text: &[u8], carries: &mut [u64]) -> usize {
        let mut v = !0u64;
        for (j, &c) in text.iter().enumerate() {
            let u = v & self.masks[usize::from(c)];
            let (word, bit) = (j / WORD, j % WORD);
            let carry_in = carries.get(word).map_or(0, |w| (w >> bit) & 1);
            let (sum, c1) = v.overflowing_add(u);
            let (sum, c2) = sum.overflowing_add(carry_in);
            if let Some(w) = carries.get_mut(word) {
                *w = (*w & !(1 << bit)) | (u64::from(c1 | c2) << bit);
            }
            v = sum | (v & !u);
        }
        (!v).count_ones() as usize
    }
}

/// Do `s1` and `s2` share a common substring of at least
/// [`ROLLING_WINDOW`] characters?
pub fn has_common_substring(s1: &str, s2: &str) -> bool {
    let (a, b) = (s1.as_bytes(), s2.as_bytes());
    // Windows of `a` one word wide overlapping by a gram less one byte:
    // every gram of `a` lies whole inside one of them.
    let step = WORD - (ROLLING_WINDOW - 1);
    (0..a.len().saturating_sub(ROLLING_WINDOW - 1))
        .step_by(step)
        .any(|start| MatchMasks::new(&a[start..a.len().min(start + WORD)]).shares_gram(b))
}

/// spamsum's edit distance: insert/delete 1, substitute 3, transpose 5,
/// which is the indel distance `n + m − 2·LCS` (a substitution or a
/// transposition is never cheaper than the indels that achieve it),
/// computed bit-parallel one 64-byte block of `s1` at a time.
pub fn edit_distance(s1: &str, s2: &str) -> u32 {
    let (a, b) = (s1.as_bytes(), s2.as_bytes());
    // Carries pass between blocks only when `a` spans more than one, so
    // a one-word `a` allocates nothing.
    let carry_words = if a.len() > WORD {
        b.len().div_ceil(WORD)
    } else {
        0
    };
    let mut carries = vec![0u64; carry_words];
    let lcs: usize = a
        .chunks(WORD)
        .map(|block| MatchMasks::new(block).lcs(b, &mut carries))
        .sum();
    (a.len() + b.len() - 2 * lcs) as u32
}

/// Score two signature strings that were produced at block size
/// `block_size`. 0 if the evidence gate fails; otherwise 0–100.
pub fn score_strings(s1: &str, s2: &str, block_size: u32) -> u32 {
    score_bytes(s1.as_bytes(), s2.as_bytes(), block_size)
}

fn score_bytes(s1: &[u8], s2: &[u8], block_size: u32) -> u32 {
    if s1.len() > SPAMSUM_LENGTH || s2.len() > SPAMSUM_LENGTH {
        return 0;
    }
    let masks = MatchMasks::new(s1);
    if !masks.shares_gram(s2) {
        return 0;
    }

    let total_len = (s1.len() + s2.len()) as u64;
    let d = total_len - 2 * masks.lcs(s2, &mut []) as u64;

    // Scale the distance by signature length into 0..100 as spamsum does
    // (two integer divisions, preserved faithfully).
    let mut score = d * SPAMSUM_LENGTH as u64 / total_len;
    score = 100 * score / SPAMSUM_LENGTH as u64;
    if score >= 100 {
        return 0;
    }
    let mut score = (100 - score) as u32;

    // Small block sizes make weaker claims: cap by how much data the
    // matched chunks can actually represent.
    let cap = (block_size / MIN_BLOCKSIZE).saturating_mul(s1.len().min(s2.len()) as u32);
    if score > cap {
        score = cap;
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzzy_hash;

    #[test]
    fn eliminate_sequences_basic() {
        assert_eq!(eliminate_sequences(""), "");
        assert_eq!(eliminate_sequences("abc"), "abc");
        assert_eq!(eliminate_sequences("aaab"), "aaab");
        assert_eq!(eliminate_sequences("aaaab"), "aaab");
        assert_eq!(eliminate_sequences("aaaaaaa"), "aaa");
        assert_eq!(eliminate_sequences("abbbbbbc"), "abbbc");
    }

    #[test]
    fn common_substring_gate() {
        assert!(!has_common_substring("", ""));
        assert!(!has_common_substring("abcdef", "abcdef")); // < 7 chars
        assert!(has_common_substring("XXabcdefgYY", "abcdefg"));
        assert!(!has_common_substring("abcdefg", "gfedcba"));
        // Past one word: the shared gram straddles the first 64-byte
        // window of `long`.
        let long = format!("{}abcdefg{}", "x".repeat(60), "y".repeat(40));
        assert!(has_common_substring(&long, "--abcdefg--"));
        assert!(has_common_substring("--abcdefg--", &long));
        assert!(!has_common_substring(&long, "--abcdeXg--"));
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abcd"), 1);
        assert_eq!(edit_distance("abcd", "abc"), 1);
        // Substitution costs 3, but delete+insert costs 2 — spamsum picks 2.
        assert_eq!(edit_distance("abc", "axc"), 2);
        assert_eq!(edit_distance("ab", "ba"), 2); // transpose(5) loses to 2 indels
    }

    #[test]
    fn edit_distance_symmetry() {
        let pairs = [("kitten", "sitting"), ("flaw", "lawn"), ("", "abc")];
        for (a, b) in pairs {
            assert_eq!(edit_distance(a, b), edit_distance(b, a));
        }
    }

    #[test]
    fn identical_hashes_score_100() {
        let data: Vec<u8> = (0..5_000u32).map(|i| (i % 251) as u8).collect();
        let h = fuzzy_hash(&data);
        assert_eq!(compare_parsed(&h, &h), 100);
    }

    #[test]
    fn empty_hashes_score_zero() {
        let e1 = FuzzyHash::parse("3::").unwrap();
        let e2 = FuzzyHash::parse("3::").unwrap();
        assert_eq!(compare_parsed(&e1, &e2), 0);
    }

    #[test]
    fn incompatible_block_sizes_score_zero() {
        let a = FuzzyHash {
            block_size: 3,
            sig1: "ABCDEFGH".into(),
            sig2: "ABCD".into(),
        };
        let b = FuzzyHash {
            block_size: 48,
            sig1: "ABCDEFGH".into(),
            sig2: "ABCD".into(),
        };
        assert_eq!(compare_parsed(&a, &b), 0);
    }

    #[test]
    fn largest_block_size_doubles_without_overflow() {
        // 3·2^30 is the largest block size a parse accepts; its doubled
        // block size wraps exactly as the block-size gate's does.
        let a = FuzzyHash::parse("3221225472:ABCDEFGHIJ:KLMNOPQ").unwrap();
        let b = FuzzyHash::parse("3221225472:ABCDEFGHIX:KLMNOPZ").unwrap();
        // sig1s: indel distance 2 over 20 bytes → 91; sig2s share no gram.
        assert_eq!(compare_parsed(&a, &b), 91);
        assert_eq!(compare_parsed(&b, &a), 91);
        let half = FuzzyHash::parse("1610612736:ABCDEFGHIJ:ABCDEFGHIJ").unwrap();
        assert_eq!(compare_parsed(&a, &half), 100);
        assert_eq!(compare_parsed(&half, &a), 100);
    }

    #[test]
    fn double_block_size_compares_cross_signatures() {
        // a at block size 6 vs b at block size 3: a.sig1 should be compared
        // with b.sig2 (both representing chunking at size 6).
        let sig = "KJHGFDSAqwertyuiop".to_string();
        let a = FuzzyHash {
            block_size: 6,
            sig1: sig.clone(),
            sig2: "zz".into(),
        };
        let b = FuzzyHash {
            block_size: 3,
            sig1: "yy".into(),
            sig2: sig.clone(),
        };
        assert!(compare_parsed(&a, &b) > 0);
        assert_eq!(compare_parsed(&a, &b), compare_parsed(&b, &a));
    }

    #[test]
    fn score_is_symmetric_on_real_hashes() {
        let d1: Vec<u8> = (0..20_000u32).map(|i| (i * 7 % 253) as u8).collect();
        let mut d2 = d1.clone();
        d2.extend_from_slice(b"trailing modification content");
        let h1 = fuzzy_hash(&d1);
        let h2 = fuzzy_hash(&d2);
        assert_eq!(compare_parsed(&h1, &h2), compare_parsed(&h2, &h1));
    }

    #[test]
    fn compare_text_api() {
        assert_eq!(compare("3:abc:de", "3:abc:de").unwrap(), 100);
        assert!(compare("not-a-hash", "3:abc:de").is_err());
    }

    #[test]
    fn small_edit_scores_high_large_rewrite_scores_low() {
        // Non-periodic data: periodic inputs produce degenerate repetitive
        // signatures that the sequence-elimination step collapses, which is
        // correct but not what this test probes.
        let mut x = 0x1234_5678u32;
        let mut rnd = || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x >> 8) as u8
        };
        let base: Vec<u8> = (0..30_000).map(|_| rnd()).collect();
        let mut near = base.clone();
        near[15_000] ^= 0xFF; // single-byte flip

        let mut far: Vec<u8> = base.clone();
        for b in far.iter_mut().take(15_000) {
            *b = rnd(); // rewrite half the file
        }

        let hb = fuzzy_hash(&base);
        let hn = fuzzy_hash(&near);
        let hf = fuzzy_hash(&far);
        let near_score = compare_parsed(&hb, &hn);
        let far_score = compare_parsed(&hb, &hf);
        assert!(
            near_score > far_score,
            "near {near_score} vs far {far_score}"
        );
        assert!(
            near_score >= 80,
            "near edit should score high: {near_score}"
        );
    }

    #[test]
    fn score_strings_rejects_overlong() {
        let long = "A".repeat(65);
        assert_eq!(score_strings(&long, &long, 3), 0);
    }

    #[test]
    fn overlong_signature_scores_by_its_collapsed_length() {
        // 68 raw bytes collapse to 64 and still score; 65 distinct bytes
        // stay over the limit and score 0.
        const ALPHABET: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
        let sig = |tail: &str| format!("{}{tail}", &ALPHABET[..58]);
        let fits = FuzzyHash {
            block_size: 96,
            sig1: sig("xxxxxxxyz+"),
            sig2: String::new(),
        };
        let other = FuzzyHash {
            block_size: 96,
            sig1: sig("xxxyz+"),
            sig2: "Q".into(),
        };
        assert_eq!(eliminate_sequences(&fits.sig1).len(), 64);
        assert_eq!(compare_parsed(&fits, &other), 100);
        let over = FuzzyHash {
            sig1: ALPHABET.chars().chain(['A']).collect(),
            ..fits.clone()
        };
        assert_eq!(compare_parsed(&over, &other), 0);
    }

    #[test]
    fn block_size_cap_limits_short_matches() {
        // At MIN_BLOCKSIZE, a 7-char identical pair can score at most
        // bs/MIN * min_len = 1 * 7 = 7.
        let s = "ABCDEFG";
        assert!(score_strings(s, s, MIN_BLOCKSIZE) <= 7);
        // At a large block size the cap is inert.
        assert!(score_strings(s, s, 3 * 1024) > 90);
    }
}
