//! The seeded generator behind every synthetic trace and benchmark input.

use std::ops::Range;

/// SplitMix64: a reproducible stream from a 64-bit seed. For traces and test
/// data only; key material comes from `cdstore_crypto::os_random`.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in the non-empty `range`: 128 bits from two draws, reduced
    /// modulo the range's span.
    pub fn gen_range(&mut self, range: Range<usize>) -> usize {
        let wide = (u128::from(self.next_u64()) << 64) | u128::from(self.next_u64());
        range.start + (wide % (range.end - range.start) as u128) as usize
    }

    /// `true` with probability `p`: 53 bits of one draw, as a float, `< p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} out of range");
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Fills `dest` with little-endian words, the tail from one more word.
    pub fn fill(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes()[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_splitmix64_stream() {
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn draws_stay_in_bounds_and_fill_covers_the_tail() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!((3..10).contains(&rng.gen_range(3..10)));
        }
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        let mut buf = [0u8; 13];
        rng.fill(&mut buf);
        assert_ne!(buf[8..], [0u8; 5]);
    }
}
