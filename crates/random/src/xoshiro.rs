//! Xoshiro256**: the workspace's default general-purpose PRNG.
//!
//! Chosen because it is small (32 bytes of state), very fast (a handful of
//! ALU ops per word, relevant for the `O(1)` update-time experiments where
//! RNG cost must not dominate) and has excellent statistical quality.

use crate::{splitmix::SplitMix64, StreamRng};

/// The xoshiro256** 1.0 generator of Blackman and Vigna.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a full 256-bit state.
    ///
    /// # Panics
    ///
    /// Panics if the state is all zeros (the all-zero state is a fixed point
    /// of the transition function).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s.iter().any(|&w| w != 0), "xoshiro state must be non-zero");
        Self { s }
    }

    /// The full 256-bit internal state, exactly as [`Xoshiro256::from_state`]
    /// would accept it. Together they let checkpoint/restore code capture the
    /// generator's *position* in its stream precisely: restoring the state
    /// and continuing produces the same draw sequence as never stopping.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Seeds the generator from a single 64-bit value by expanding it through
    /// [`SplitMix64`], as recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // SplitMix64 output is never all-zero across four consecutive words
        // for any seed, so `from_state` cannot panic here.
        Self::from_state(s)
    }

    /// Equivalent to calling `next_u64` 2^128 times; used to carve
    /// independent streams out of one seed (one per parallel sampler
    /// instance) without allocating fresh entropy.
    pub fn jump(&mut self) -> Self {
        const JUMP: [u64; 4] = [
            0x180E_C6D3_3CFD_0ABA,
            0xD5A6_1266_F0C9_392C,
            0xA958_6F2C_B0B1_F3DB,
            0x39AB_DC45_29B1_661C,
        ];
        let snapshot = self.clone();
        let mut s0 = 0u64;
        let mut s1 = 0u64;
        let mut s2 = 0u64;
        let mut s3 = 0u64;
        for &jump_word in &JUMP {
            for b in 0..64 {
                if (jump_word & (1u64 << b)) != 0 {
                    s0 ^= self.s[0];
                    s1 ^= self.s[1];
                    s2 ^= self.s[2];
                    s3 ^= self.s[3];
                }
                self.next_u64();
            }
        }
        self.s = [s0, s1, s2, s3];
        snapshot
    }
}

impl StreamRng for Xoshiro256 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl Xoshiro256 {
    /// Fills a byte slice with uniform random bytes (the `rand::RngCore`
    /// surface, exposed directly so the crate stays dependency-free in
    /// offline builds — implement `RngCore` by delegating here if `rand`
    /// interop is needed).
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&StreamRng::next_u64(self).to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = StreamRng::next_u64(self).to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_state_rejected() {
        let _ = Xoshiro256::from_state([0; 4]);
    }

    #[test]
    fn reference_vector() {
        // Reference output for the all-ones-ish state used by the rand_xoshiro
        // test-suite convention: state [1, 2, 3, 4].
        let mut rng = Xoshiro256::from_state([1, 2, 3, 4]);
        let expected: [u64; 6] = [
            11520,
            0,
            1509978240,
            1215971899390074240,
            1216172134540287360,
            607988272756665600,
        ];
        for &e in &expected {
            assert_eq!(StreamRng::next_u64(&mut rng), e);
        }
    }

    #[test]
    fn jump_streams_are_disjoint_prefixes() {
        let mut base = Xoshiro256::seed_from_u64(123);
        let streams: Vec<Xoshiro256> = (0..4).map(|_| base.jump()).collect();
        let mut prefixes: Vec<Vec<u64>> = streams
            .into_iter()
            .map(|mut s| (0..32).map(|_| StreamRng::next_u64(&mut s)).collect())
            .collect();
        prefixes.sort();
        prefixes.dedup();
        assert_eq!(prefixes.len(), 4, "jumped streams should not collide");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
