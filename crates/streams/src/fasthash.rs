//! A fast non-cryptographic hasher for the engine's internal maps.
//!
//! The hot path of every sampler touches a hash map on each stream update
//! (the shared suffix-count table), and `std`'s default SipHash costs more
//! than the rest of the update combined. (The Misra–Gries counters keep a
//! flat open-addressing table of their own and use no hash map.)
//! Keys in those maps are attacker-independent `u64` coordinates already
//! drawn from the stream, so a multiply–xor mixer (the finalizer of
//! splitmix64, which passes avalanche tests) is sufficient and several
//! times faster.
//!
//! Only *internal* bookkeeping maps use this hasher; nothing about the
//! samplers' distributional guarantees depends on its quality, and the
//! structures remain correct (just slower-in-the-worst-case) under
//! adversarial keys.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `u64`-oriented multiply–xor hasher (splitmix64 finalizer).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback for non-u64 keys: fold 8-byte words.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        let mut z = self.state ^ i;
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.state = z ^ (z >> 31);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }
}

/// The `BuildHasher` for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with the fast hasher.
pub type FastHashMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` keyed with the fast hasher.
pub type FastHashSet<K> = HashSet<K, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrips() {
        let mut m: FastHashMap<u64, u64> = FastHashMap::default();
        for i in 0..10_000u64 {
            m.insert(i, i * 3);
        }
        for i in 0..10_000u64 {
            assert_eq!(m.get(&i), Some(&(i * 3)));
        }
        assert_eq!(m.get(&10_001), None);
    }

    #[test]
    fn hasher_avalanches_low_bits() {
        // Consecutive keys must not collide in the low bits the table uses.
        use std::hash::BuildHasher;
        let build = FastBuildHasher::default();
        let mut low_bits: Vec<u64> = (0..1024u64)
            .map(|i| {
                let mut h = build.build_hasher();
                h.write_u64(i);
                h.finish() & 0xFFF
            })
            .collect();
        low_bits.sort_unstable();
        low_bits.dedup();
        assert!(
            low_bits.len() > 700,
            "too many low-bit collisions: {}",
            low_bits.len()
        );
    }
}
