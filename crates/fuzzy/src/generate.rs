//! Fuzzy-hash generation.
//!
//! Two interchangeable implementations of the same semantics:
//!
//! * [`fuzzy_hash_reference`] — the two-pass algorithm exactly as published
//!   by Kornblum: pick the block size from the input length, hash, and
//!   halve/retry while the signature is too short. O(n log n) worst case,
//!   requires the whole input in memory. Used as the test oracle.
//! * [`FuzzyHasher`] — a single-pass streaming engine that maintains up to
//!   31 block-size contexts (`3 · 2^i`) simultaneously, forking new
//!   contexts upward as the input grows and retiring low contexts that can
//!   no longer be selected (the `fuzzy.c` approach). O(n), constant memory,
//!   supports incremental `update()` — this is what the collector uses.
//!
//! Property tests in `tests/` assert the two produce identical output for
//! arbitrary inputs.

use crate::roll::RollingHash;
use crate::{FuzzyHash, HASH_INIT, MIN_BLOCKSIZE, NUM_BLOCKHASHES, SPAMSUM_LENGTH};
use siren_hash::BASE64_ALPHABET;

#[inline]
fn b64_char(h: u32) -> u8 {
    BASE64_ALPHABET[(h % 64) as usize]
}

#[inline]
fn fnv_step(h: u32, c: u8) -> u32 {
    (h ^ u32::from(c)).wrapping_mul(0x0100_0193)
}

/// Block size of context level `i`.
#[inline]
fn block_size(i: usize) -> u32 {
    MIN_BLOCKSIZE << i
}

/// Hash `data` with the streaming engine (the primary implementation).
pub fn fuzzy_hash(data: &[u8]) -> FuzzyHash {
    let mut h = FuzzyHasher::new();
    h.update(data);
    h.digest()
}

/// One full pass of the published spamsum algorithm at a fixed block size.
/// Returns `(sig1, sig2)` including the trailing partial-chunk characters.
fn reference_pass(data: &[u8], bs: u32) -> (String, String) {
    let mut roll = RollingHash::new();
    let mut h1 = HASH_INIT;
    let mut h2 = HASH_INIT;
    let mut sig1 = Vec::with_capacity(SPAMSUM_LENGTH);
    let mut sig2 = Vec::with_capacity(SPAMSUM_LENGTH / 2);
    let bs2 = bs * 2;

    for &c in data {
        h1 = fnv_step(h1, c);
        h2 = fnv_step(h2, c);
        let rs = roll.update(c);
        if rs % bs == bs - 1 && sig1.len() < SPAMSUM_LENGTH - 1 {
            sig1.push(b64_char(h1));
            h1 = HASH_INIT;
        }
        if rs % bs2 == bs2 - 1 && sig2.len() < SPAMSUM_LENGTH / 2 - 1 {
            sig2.push(b64_char(h2));
            h2 = HASH_INIT;
        }
    }

    if roll.sum() != 0 {
        sig1.push(b64_char(h1));
        sig2.push(b64_char(h2));
    }

    (
        String::from_utf8(sig1).unwrap(),
        String::from_utf8(sig2).unwrap(),
    )
}

/// The published two-pass spamsum algorithm (test oracle).
pub fn fuzzy_hash_reference(data: &[u8]) -> FuzzyHash {
    let mut bs = MIN_BLOCKSIZE;
    while u64::from(bs) * (SPAMSUM_LENGTH as u64) < data.len() as u64 {
        bs = bs.saturating_mul(2);
    }
    loop {
        let (sig1, sig2) = reference_pass(data, bs);
        if bs > MIN_BLOCKSIZE && sig1.len() < SPAMSUM_LENGTH / 2 {
            bs /= 2;
        } else {
            return FuzzyHash {
                block_size: bs,
                sig1,
                sig2,
            };
        }
    }
}

/// Per-block-size context of the streaming engine.
#[derive(Debug, Clone)]
struct BlockhashContext {
    /// Piecewise FNV for the full-length signature; reset at every chunk
    /// boundary while `digest` is below its cap.
    h: u32,
    /// Piecewise FNV for the half-length (double-block-size role)
    /// signature; reset at boundaries only while `half_digest` is below
    /// its cap, so that after the cap it accumulates to the end of input —
    /// matching the reference's truncated second signature exactly.
    half_h: u32,
    digest: Vec<u8>,
    half_digest: Vec<u8>,
}

impl BlockhashContext {
    fn new() -> Self {
        Self {
            h: HASH_INIT,
            half_h: HASH_INIT,
            digest: Vec::with_capacity(SPAMSUM_LENGTH),
            half_digest: Vec::with_capacity(SPAMSUM_LENGTH / 2),
        }
    }
}

/// Single-pass streaming CTPH engine.
///
/// ```
/// use siren_fuzzy::FuzzyHasher;
/// let mut h = FuzzyHasher::new();
/// h.update(b"some executable ");
/// h.update(b"content here");
/// let fh = h.digest();
/// assert_eq!(fh, siren_fuzzy::fuzzy_hash(b"some executable content here"));
/// ```
#[derive(Debug, Clone)]
pub struct FuzzyHasher {
    contexts: Vec<BlockhashContext>,
    /// Lowest still-maintained context level.
    bh_start: usize,
    /// One past the highest existing context level.
    bh_end: usize,
    roll: RollingHash,
    total: u64,
}

impl Default for FuzzyHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl FuzzyHasher {
    /// New engine with the context-retirement optimization enabled.
    pub fn new() -> Self {
        Self {
            contexts: vec![BlockhashContext::new()],
            bh_start: 0,
            bh_end: 1,
            roll: RollingHash::new(),
            total: 0,
        }
    }

    /// Absorb input.
    pub fn update(&mut self, data: &[u8]) {
        for &c in data {
            self.step(c);
        }
    }

    #[inline]
    fn step(&mut self, c: u8) {
        self.total += 1;

        for ctx in &mut self.contexts[self.bh_start..self.bh_end] {
            ctx.h = fnv_step(ctx.h, c);
            ctx.half_h = fnv_step(ctx.half_h, c);
        }

        let rs = self.roll.update(c);

        // Chunk-boundary triggers cascade: a trigger at level i+1 implies
        // a trigger at level i, so walk upward and stop at the first miss.
        let mut i = self.bh_start;
        while i < self.bh_end {
            let bs = block_size(i);
            if rs % bs != bs - 1 {
                break;
            }
            // A first emission at the top level means the input is now
            // large enough that the next block size may be needed: fork a
            // new context inheriting the accumulated (never-reset) state.
            if self.contexts[i].digest.is_empty() {
                self.try_fork();
            }
            let ctx = &mut self.contexts[i];
            if ctx.digest.len() < SPAMSUM_LENGTH - 1 {
                ctx.digest.push(b64_char(ctx.h));
                ctx.h = HASH_INIT;
            }
            if ctx.half_digest.len() < SPAMSUM_LENGTH / 2 - 1 {
                ctx.half_digest.push(b64_char(ctx.half_h));
                ctx.half_h = HASH_INIT;
            }
            i += 1;
        }

        self.try_reduce();
    }

    /// Add context level `bh_end`, inheriting hash state from the current
    /// top (whose piecewise hashes have never been reset — see caller).
    fn try_fork(&mut self) {
        if self.bh_end >= NUM_BLOCKHASHES {
            return;
        }
        let top = &self.contexts[self.bh_end - 1];
        let mut fresh = BlockhashContext::new();
        fresh.h = top.h;
        fresh.half_h = top.half_h;
        self.contexts.push(fresh);
        self.bh_end += 1;
    }

    /// Retire the lowest context once it can no longer be selected: the
    /// input has outgrown its block size *and* the next level already has
    /// enough signature characters that digest-time adaptation will not
    /// descend past it. Both conditions are monotone in the input length,
    /// so retiring early never changes the final digest.
    fn try_reduce(&mut self) {
        while self.bh_end - self.bh_start > 1 {
            let next_bs = u64::from(block_size(self.bh_start + 1));
            if next_bs * (SPAMSUM_LENGTH as u64) >= self.total {
                break;
            }
            if self.contexts[self.bh_start + 1].digest.len() < SPAMSUM_LENGTH / 2 {
                break;
            }
            // Free the retired context's memory eagerly; it will never be
            // read again.
            self.contexts[self.bh_start].digest = Vec::new();
            self.contexts[self.bh_start].half_digest = Vec::new();
            self.bh_start += 1;
        }
    }

    /// Produce the fuzzy hash of everything consumed so far. Non-destructive:
    /// the engine can keep absorbing input afterwards.
    pub fn digest(&self) -> FuzzyHash {
        let rs = self.roll.sum();

        // Initial block-size guess from the total length, clamped to the
        // range of live contexts.
        let mut bi = self.bh_start;
        while bi < NUM_BLOCKHASHES - 1
            && u64::from(block_size(bi)) * (SPAMSUM_LENGTH as u64) < self.total
        {
            bi += 1;
        }
        if bi >= self.bh_end {
            bi = self.bh_end - 1;
        }

        // Adapt downward while the signature is too short (matches the
        // reference's halve-and-retry loop).
        let sig1_len = |i: usize| self.contexts[i].digest.len() + usize::from(rs != 0);
        while bi > self.bh_start && sig1_len(bi) < SPAMSUM_LENGTH / 2 {
            bi -= 1;
        }

        let ctx = &self.contexts[bi];
        let mut sig1 = ctx.digest.clone();
        if rs != 0 {
            sig1.push(b64_char(ctx.h));
        }

        let mut sig2 = Vec::new();
        if bi + 1 < self.bh_end {
            let above = &self.contexts[bi + 1];
            sig2 = above.half_digest.clone();
            if rs != 0 {
                sig2.push(b64_char(above.half_h));
            }
        } else if rs != 0 {
            // No higher context exists (input still tiny): the double-block
            // signature is the single partial-chunk character, exactly what
            // the reference pass produces when no 2·bs boundary was hit.
            sig2.push(b64_char(ctx.half_h));
        }

        FuzzyHash {
            block_size: block_size(bi),
            sig1: String::from_utf8(sig1).unwrap(),
            sig2: String::from_utf8(sig2).unwrap(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, seed: u32) -> Vec<u8> {
        // Deterministic pseudo-random bytes (xorshift), no rand dependency.
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 8) as u8
            })
            .collect()
    }

    #[test]
    fn empty_input() {
        let h = fuzzy_hash(b"");
        assert_eq!(h.to_string_repr(), "3::");
        assert_eq!(fuzzy_hash_reference(b""), h);
    }

    #[test]
    fn reference_and_streaming_agree_small() {
        for len in [1usize, 2, 6, 7, 8, 63, 64, 100, 192, 500] {
            let data = pattern(len, 42);
            assert_eq!(fuzzy_hash_reference(&data), fuzzy_hash(&data), "len {len}");
        }
    }

    #[test]
    fn reference_and_streaming_agree_large() {
        for (len, seed) in [(10_000usize, 1u32), (50_000, 2), (200_000, 3)] {
            let data = pattern(len, seed);
            assert_eq!(fuzzy_hash_reference(&data), fuzzy_hash(&data), "len {len}");
        }
    }

    #[test]
    fn streaming_split_points_agree() {
        let data = pattern(30_000, 5);
        let whole = fuzzy_hash(&data);
        for split in [1usize, 100, 15_000, 29_999] {
            let mut h = FuzzyHasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.digest(), whole, "split {split}");
        }
    }

    #[test]
    fn digest_is_non_destructive() {
        let data = pattern(5_000, 11);
        let mut h = FuzzyHasher::new();
        h.update(&data[..2_500]);
        let _ = h.digest();
        h.update(&data[2_500..]);
        assert_eq!(h.digest(), fuzzy_hash(&data));
    }

    #[test]
    fn block_size_grows_with_input() {
        let small = fuzzy_hash(&pattern(100, 1));
        let large = fuzzy_hash(&pattern(1_000_000, 1));
        assert!(large.block_size > small.block_size);
    }

    #[test]
    fn signature_lengths_respect_caps() {
        for len in [100usize, 10_000, 1_000_000] {
            let h = fuzzy_hash(&pattern(len, 3));
            assert!(h.sig1.len() <= SPAMSUM_LENGTH, "sig1 {}", h.sig1.len());
            assert!(h.sig2.len() <= SPAMSUM_LENGTH / 2, "sig2 {}", h.sig2.len());
        }
    }

    #[test]
    fn similar_inputs_similar_hashes() {
        // The defining CTPH property: a small in-place edit leaves most of
        // the signature intact.
        let a = pattern(20_000, 77);
        let mut b = a.clone();
        for byte in &mut b[10_000..10_016] {
            *byte ^= 0xFF;
        }
        let ha = fuzzy_hash(&a);
        let hb = fuzzy_hash(&b);
        assert!(
            crate::compare_parsed(&ha, &hb) >= 60,
            "edit destroyed similarity: {} vs {}",
            ha,
            hb
        );
    }

    #[test]
    fn unrelated_inputs_score_zero_or_low() {
        let ha = fuzzy_hash(&pattern(20_000, 1));
        let hb = fuzzy_hash(&pattern(20_000, 999_999));
        assert!(crate::compare_parsed(&ha, &hb) <= 20);
    }
}
