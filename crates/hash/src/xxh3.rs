//! XXH3-128 — a 128-bit hash following the XXH3 construction.
//!
//! The paper's `siren.so` calls `XXH3_128bits` on the executable path to
//! build a per-process disambiguation key (the `HASH` field of the UDP
//! header). SIREN never compares this value against external databases, so
//! what matters is determinism, speed, and dispersion — not bit-for-bit
//! compatibility with the reference C implementation.
//!
//! This implementation follows the XXH3 *construction*: input is processed
//! in 64-byte stripes, each stripe mixed against a 192-byte secret with
//! 32→64-bit wide multiplies accumulated into eight 64-bit lanes, with a
//! scramble step every 8 stripes and distinct short-input paths. The
//! default secret is derived deterministically from XXH64 (the reference
//! secret bytes were not available offline); this deviation is recorded in
//! `DESIGN.md`.

use crate::xxh64::xxh64;
use crate::Hash128;

const SECRET_LEN: usize = 192;
const STRIPE_LEN: usize = 64;
const ACC_NB: usize = 8;
const SECRET_CONSUME_RATE: usize = 8;
const P32_1: u64 = 0x9E37_79B1;
const P32_2: u64 = 0x85EB_CA77;
const P32_3: u64 = 0xC2B2_AE3D;
const P64_1: u64 = 0x9E37_79B1_85EB_CA87;
const P64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P64_3: u64 = 0x1656_67B1_9E37_79F9;

/// The crate's default 192-byte secret, generated once, deterministically.
fn default_secret() -> [u8; SECRET_LEN] {
    let mut secret = [0u8; SECRET_LEN];
    let mut i = 0;
    while i < SECRET_LEN {
        let word = xxh64(b"siren-xxh3-secret", (i / 8) as u64 + 0xA5A5);
        secret[i..i + 8].copy_from_slice(&word.to_le_bytes());
        i += 8;
    }
    secret
}

#[inline]
fn read_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

#[inline]
fn read_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
}

/// Full 64x64→128-bit multiply, folded to 64 bits by xor of halves.
#[inline]
fn mul128_fold64(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

#[inline]
fn xxh3_avalanche(mut h: u64) -> u64 {
    h ^= h >> 37;
    h = h.wrapping_mul(0x1656_6791_9E37_79F9);
    h ^= h >> 32;
    h
}

/// One stripe of 64 bytes accumulated into the 8 lanes.
#[inline]
fn accumulate_stripe(acc: &mut [u64; ACC_NB], stripe: &[u8], secret: &[u8], secret_off: usize) {
    for lane in 0..ACC_NB {
        let data_val = read_u64(stripe, lane * 8);
        let key = read_u64(secret, secret_off + lane * 8);
        let data_key = data_val ^ key;
        // Swap-accumulate into the neighbour lane as XXH3 does, to spread
        // entropy across the accumulator array.
        acc[lane ^ 1] = acc[lane ^ 1].wrapping_add(data_val);
        acc[lane] = acc[lane].wrapping_add(u64::from(data_key as u32).wrapping_mul(data_key >> 32));
    }
}

#[inline]
fn scramble_acc(acc: &mut [u64; ACC_NB], secret: &[u8]) {
    let off = SECRET_LEN - STRIPE_LEN;
    for (lane, a) in acc.iter_mut().enumerate() {
        let key = read_u64(secret, off + lane * 8);
        let mut v = *a;
        v ^= v >> 47;
        v ^= key;
        v = v.wrapping_mul(P32_1);
        *a = v;
    }
}

fn merge_accs(acc: &[u64; ACC_NB], secret: &[u8], secret_off: usize, start: u64) -> u64 {
    let mut result = start;
    for i in 0..4 {
        result = result.wrapping_add(mul128_fold64(
            acc[2 * i] ^ read_u64(secret, secret_off + 16 * i),
            acc[2 * i + 1] ^ read_u64(secret, secret_off + 16 * i + 8),
        ));
    }
    xxh3_avalanche(result)
}

fn hash_long_128(data: &[u8], secret: &[u8; SECRET_LEN]) -> Hash128 {
    let mut acc: [u64; ACC_NB] = [P32_3, P64_1, P64_2, P64_3, P32_2, P32_1, P64_2, P32_3];

    let stripes_per_block = (SECRET_LEN - STRIPE_LEN) / SECRET_CONSUME_RATE;
    let total_stripes = data.len() / STRIPE_LEN;

    let mut stripe_idx = 0usize;
    while stripe_idx < total_stripes {
        let in_block = stripe_idx % stripes_per_block;
        let stripe = &data[stripe_idx * STRIPE_LEN..stripe_idx * STRIPE_LEN + STRIPE_LEN];
        accumulate_stripe(&mut acc, stripe, secret, in_block * SECRET_CONSUME_RATE);
        stripe_idx += 1;
        if stripe_idx.is_multiple_of(stripes_per_block) {
            scramble_acc(&mut acc, secret);
        }
    }

    // Final (possibly partial) stripe: XXH3 hashes the *last* 64 bytes.
    if !data.len().is_multiple_of(STRIPE_LEN) && data.len() >= STRIPE_LEN {
        let stripe = &data[data.len() - STRIPE_LEN..];
        accumulate_stripe(&mut acc, stripe, secret, SECRET_LEN - STRIPE_LEN - 9);
    }

    let low = merge_accs(&acc, secret, 11, (data.len() as u64).wrapping_mul(P64_1));
    let high = merge_accs(
        &acc,
        secret,
        SECRET_LEN - 64 - 11,
        !(data.len() as u64).wrapping_mul(P64_2),
    );
    Hash128 { high, low }
}

/// XXH3-128 of an input of at most 240 bytes. `seed` is the algorithm's
/// seed; this crate always hashes with seed 0.
fn hash_short_128(data: &[u8], secret: &[u8; SECRET_LEN], seed: u64) -> Hash128 {
    let len = data.len() as u64;
    match data.len() {
        0 => {
            let low = xxh3_avalanche(seed ^ read_u64(secret, 56) ^ read_u64(secret, 64));
            let high = xxh3_avalanche(seed ^ read_u64(secret, 72) ^ read_u64(secret, 80));
            Hash128 { high, low }
        }
        1..=3 => {
            let c1 = u64::from(data[0]);
            let c2 = u64::from(data[data.len() >> 1]);
            let c3 = u64::from(data[data.len() - 1]);
            let combined = (c1 << 16) | (c2 << 24) | c3 | (len << 8);
            let low = xxh3_avalanche(
                (combined ^ (u64::from(read_u32(secret, 0)) ^ u64::from(read_u32(secret, 4))))
                    .wrapping_add(seed)
                    .wrapping_mul(P64_1),
            );
            let high = xxh3_avalanche(
                (combined.rotate_left(13)
                    ^ (u64::from(read_u32(secret, 8)) ^ u64::from(read_u32(secret, 12))))
                .wrapping_sub(seed)
                .wrapping_mul(P64_2),
            );
            Hash128 { high, low }
        }
        4..=8 => {
            let lo = u64::from(read_u32(data, 0));
            let hi = u64::from(read_u32(data, data.len() - 4));
            let input64 = lo.wrapping_add(hi << 32);
            let keyed = input64 ^ (read_u64(secret, 16) ^ read_u64(secret, 24)).wrapping_add(seed);
            let mut m = u128::from(keyed).wrapping_mul(u128::from(P64_1.wrapping_add(len << 2)));
            m ^= m >> 35;
            m = m.wrapping_mul(0x9FB2_1C65_1E98_DF25);
            m ^= m >> 28;
            Hash128 {
                high: xxh3_avalanche((m >> 64) as u64),
                low: xxh3_avalanche(m as u64),
            }
        }
        9..=16 => {
            let lo = read_u64(data, 0)
                ^ (read_u64(secret, 32) ^ read_u64(secret, 40)).wrapping_add(seed);
            let hi = read_u64(data, data.len() - 8)
                ^ (read_u64(secret, 48) ^ read_u64(secret, 56)).wrapping_sub(seed);
            let low = xxh3_avalanche(
                mul128_fold64(lo, P64_1)
                    .wrapping_add(hi)
                    .wrapping_add(len.wrapping_mul(P64_2)),
            );
            let high = xxh3_avalanche(mul128_fold64(hi, P64_2).wrapping_add(lo).wrapping_sub(len));
            Hash128 { high, low }
        }
        // 17..=240: overlapping 16-byte windows mixed against successive
        // secret words. Windows step by 16 but the last window is clamped
        // to the final 16 bytes, so every input byte is always covered
        // (including lengths 17..31 where no aligned window would fit).
        _ => {
            let mut acc_lo = len.wrapping_mul(P64_1);
            let mut acc_hi = !len.wrapping_mul(P64_2);
            let windows = data.len().div_ceil(16);
            for i in 0..windows {
                let off = (i * 16).min(data.len() - 16);
                let soff = (i * 16) % 128;
                let mixed = mul128_fold64(
                    read_u64(data, off) ^ read_u64(secret, soff).wrapping_add(seed),
                    read_u64(data, off + 8) ^ read_u64(secret, soff + 8).wrapping_sub(seed),
                );
                if i % 2 == 0 {
                    acc_lo = acc_lo.wrapping_add(mixed);
                    acc_hi ^= mixed.rotate_left(29);
                } else {
                    acc_hi = acc_hi.wrapping_add(mixed);
                    acc_lo ^= mixed.rotate_left(41);
                }
            }
            Hash128 {
                high: xxh3_avalanche(acc_hi.wrapping_add(acc_lo.rotate_left(31))),
                low: xxh3_avalanche(acc_lo.wrapping_add(acc_hi.rotate_left(17))),
            }
        }
    }
}

/// One-shot 128-bit hash (seed 0, default secret).
pub fn xxh3_128(data: &[u8]) -> Hash128 {
    Xxh3_128::new().hash(data)
}

/// One-shot 128-bit hash rendered as 32 hex digits — the textual `HASH`
/// header-field form used by the wire protocol.
pub fn xxh3_128_hex(data: &[u8]) -> String {
    xxh3_128(data).to_hex()
}

/// Reusable XXH3-128 hasher holding a secret (amortizes secret generation).
#[derive(Clone)]
pub struct Xxh3_128 {
    secret: [u8; SECRET_LEN],
}

impl Default for Xxh3_128 {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Xxh3_128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Xxh3_128").finish_non_exhaustive()
    }
}

impl Xxh3_128 {
    /// Hasher with seed 0 and the default secret.
    pub fn new() -> Self {
        Self {
            secret: default_secret(),
        }
    }

    /// Hash a full input buffer.
    pub fn hash(&self, data: &[u8]) -> Hash128 {
        if data.len() <= 240 {
            hash_short_128(data, &self.secret, 0)
        } else {
            hash_long_128(data, &self.secret)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        let d = b"/usr/bin/bash";
        assert_eq!(xxh3_128(d), xxh3_128(d));
    }

    #[test]
    fn all_short_paths_disperse() {
        // Cover lengths hitting every branch: 0, 1-3, 4-8, 9-16, 17-240.
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        let mut seen = HashSet::new();
        for len in 0..=300 {
            assert!(
                seen.insert(xxh3_128(&data[..len])),
                "collision at len {len}"
            );
        }
    }

    #[test]
    fn long_path_bit_flip_sensitivity() {
        let mut data = vec![0xABu8; 4096];
        let base = xxh3_128(&data);
        for pos in [0, 63, 64, 1000, 4095] {
            data[pos] ^= 0x01;
            assert_ne!(xxh3_128(&data), base, "flip at {pos} undetected");
            data[pos] ^= 0x01;
        }
        assert_eq!(xxh3_128(&data), base);
    }

    #[test]
    fn path_strings_do_not_collide() {
        // The actual SIREN use-case: distinct /proc/self/exe paths must map
        // to distinct HASH header fields.
        let paths = [
            "/usr/bin/bash",
            "/usr/bin/srun",
            "/usr/bin/lua5.3",
            "/usr/bin/rm",
            "/usr/bin/mkdir",
            "/users/u4/project/bin/a.out",
            "/users/u4/project/bin/a.out2",
            "/appl/software/icon/bin/icon",
        ];
        let mut seen = HashSet::new();
        for p in paths {
            assert!(seen.insert(xxh3_128(p.as_bytes())), "collision for {p}");
        }
    }

    #[test]
    fn hex_form_is_32_chars() {
        assert_eq!(xxh3_128_hex(b"x").len(), 32);
    }

    #[test]
    fn avalanche_quality_rough() {
        // Flipping one input bit should flip a substantial number of output
        // bits on average (loose statistical check, deterministic input).
        let base_data = vec![0x5Au8; 512];
        let base = xxh3_128(&base_data);
        let mut total_flipped = 0u32;
        let trials = 64;
        for i in 0..trials {
            let mut d = base_data.clone();
            d[i * 8 % 512] ^= 1 << (i % 8);
            let h = xxh3_128(&d);
            total_flipped += (h.high ^ base.high).count_ones() + (h.low ^ base.low).count_ones();
        }
        let avg = total_flipped as f64 / trials as f64;
        assert!(avg > 40.0, "average flipped bits too low: {avg}");
        assert!(avg < 88.0, "average flipped bits suspiciously high: {avg}");
    }
}
