//! The spamsum rolling hash.
//!
//! A cheap hash over a sliding 7-byte window, designed so that its value
//! depends *only* on the last [`ROLLING_WINDOW`]
//! bytes. This is what makes chunk boundaries content-defined: the same
//! 7 bytes always produce the same boundary decision regardless of where
//! they appear in the file, so an insertion far away cannot shift every
//! subsequent boundary.

use crate::ROLLING_WINDOW;

/// Rolling hash state (spamsum's `roll_state`).
///
/// `h1` is the sum of window bytes, `h2` a position-weighted sum, and `h3`
/// a shift/xor mixer; the hash is their wrapping sum.
#[derive(Debug, Clone, Default)]
pub struct RollingHash {
    window: [u8; ROLLING_WINDOW],
    h1: u32,
    h2: u32,
    h3: u32,
    n: usize,
}

impl RollingHash {
    /// Fresh state (empty window).
    pub fn new() -> Self {
        Self::default()
    }

    /// Slide one byte into the window and return the updated hash.
    #[inline]
    pub fn update(&mut self, c: u8) -> u32 {
        let c32 = u32::from(c);
        self.h2 = self.h2.wrapping_sub(self.h1);
        self.h2 = self.h2.wrapping_add(ROLLING_WINDOW as u32 * c32);

        self.h1 = self.h1.wrapping_add(c32);
        self.h1 = self
            .h1
            .wrapping_sub(u32::from(self.window[self.n % ROLLING_WINDOW]));

        self.window[self.n % ROLLING_WINDOW] = c;
        self.n += 1;

        self.h3 <<= 5;
        self.h3 ^= c32;

        self.sum()
    }

    /// Current hash value.
    #[inline]
    pub fn sum(&self) -> u32 {
        self.h1.wrapping_add(self.h2).wrapping_add(self.h3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_state_is_zero() {
        assert_eq!(RollingHash::new().sum(), 0);
        assert_eq!(RollingHash::new().n, 0);
    }

    #[test]
    fn depends_only_on_window() {
        // After >= 7 bytes, the hash must be a function of the last 7 only
        // (h3 is a 32-bit shift register: 5 bits x 7 = 35 > 32, so older
        // bytes are fully shifted out).
        let tail = b"ABCDEFG";
        let mut a = RollingHash::new();
        for &c in b"xxxxxxxxxxxx" {
            a.update(c);
        }
        for &c in tail {
            a.update(c);
        }

        let mut b = RollingHash::new();
        for &c in b"completely different prefix material" {
            b.update(c);
        }
        for &c in tail {
            b.update(c);
        }
        assert_eq!(a.sum(), b.sum());
    }

    #[test]
    fn short_inputs_differ_from_empty() {
        let mut r = RollingHash::new();
        r.update(b'a');
        assert_ne!(r.sum(), 0);
        assert_eq!(r.n, 1);
    }

    #[test]
    fn order_sensitive() {
        let mut a = RollingHash::new();
        let mut b = RollingHash::new();
        for &c in b"abcdefg" {
            a.update(c);
        }
        for &c in b"gfedcba" {
            b.update(c);
        }
        assert_ne!(a.sum(), b.sum());
    }

    #[test]
    fn update_returns_current_sum() {
        let mut r = RollingHash::new();
        for &c in b"stream" {
            let ret = r.update(c);
            assert_eq!(ret, r.sum());
        }
    }
}
