//! SHA-1 — implemented for the XALT-style identification **baseline**.
//!
//! XALT (the closest related framework discussed in §5 of the paper)
//! identifies executables by a `sha1` hash: byte-identical files match,
//! anything else does not. SIREN's contribution is to replace that brittle
//! exact matching with similarity-preserving fuzzy hashing; the ablation
//! experiments need the exact-hash baseline to quantify the difference.
//!
//! SHA-1 is cryptographically broken for collision resistance; it is used
//! here only as a file-identity fingerprint, mirroring XALT.

const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// One-shot SHA-1, returning the 20-byte digest.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h = Sha1::new();
    h.update(data);
    h.digest()
}

/// One-shot SHA-1 rendered as 40 lowercase hex digits.
pub fn sha1_hex(data: &[u8]) -> String {
    crate::encode::to_hex(&sha1(data))
}

/// Streaming SHA-1 hasher.
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);

        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }

        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            let mut tmp = [0u8; 64];
            tmp.copy_from_slice(block);
            self.compress(&tmp);
            data = rest;
        }

        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | (!b & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
    }

    /// Finish (non-destructively) and return the 20-byte digest.
    pub fn digest(&self) -> [u8; 20] {
        let mut clone = self.clone();
        let bit_len = clone.total_len.wrapping_mul(8);
        clone.update_padding();
        // update_padding already appended the 0x80 + zeros; now the length.
        let mut block = clone.buf;
        block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        clone.compress(&block);

        let mut out = [0u8; 20];
        for (i, word) in clone.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Pad with 0x80 then zeros so that exactly 8 bytes remain in the final
    /// block for the 64-bit length.
    fn update_padding(&mut self) {
        let mut pad = [0u8; 64];
        pad[0] = 0x80;
        let pad_len = if self.buf_len < 56 {
            56 - self.buf_len
        } else {
            120 - self.buf_len
        };
        // Feed padding through `update` but without counting it in total_len.
        let saved = self.total_len;
        self.update(&pad[..pad_len]);
        self.total_len = saved;
        debug_assert_eq!(self.buf_len, 56);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_vector() {
        assert_eq!(sha1_hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn abc_vector() {
        assert_eq!(sha1_hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            sha1_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..200u8).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 200] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.digest(), sha1(&data), "split {split}");
        }
    }

    #[test]
    fn digest_is_idempotent() {
        let mut h = Sha1::new();
        h.update(b"idempotent");
        let a = h.digest();
        let b = h.digest();
        assert_eq!(a, b);
        // And can keep updating after digest.
        h.update(b" more");
        assert_eq!(h.digest(), sha1(b"idempotent more"));
    }

    #[test]
    fn length_boundary_cases() {
        // Padding edge cases: lengths around the 55/56-byte boundary.
        let mut digests = std::collections::HashSet::new();
        for len in 50..70 {
            let data = vec![b'x'; len];
            assert!(digests.insert(sha1(&data)), "collision at len {len}");
        }
    }
}
