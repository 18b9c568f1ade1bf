//! Hash families used as randomness substrates.
//!
//! Two families are provided:
//!
//! * [`KWiseHash`] — `k`-wise independent polynomial hashing over the
//!   Mersenne prime `2^61 - 1`, used by the baseline perfect `L_p`
//!   sampler's private Count-Sketch, which needs limited-independence
//!   guarantees.
//! * [`TabulationHash`] — simple tabulation hashing, used where a "random
//!   oracle like" hash with strong empirical behaviour is wanted (e.g. the
//!   random-oracle `F_0` sampler of Remark 5.1, which we reproduce only as a
//!   comparator).

use crate::{StreamRng, Xoshiro256};

/// The Mersenne prime 2^61 - 1 used as the field for polynomial hashing.
pub const MERSENNE_61: u64 = (1u64 << 61) - 1;

/// Reduces a 128-bit product modulo the Mersenne prime 2^61 - 1.
#[inline]
fn mod_mersenne61(x: u128) -> u64 {
    // x = hi * 2^61 + lo  ≡  hi + lo (mod 2^61 - 1)
    let lo = (x as u64) & MERSENNE_61;
    let hi = (x >> 61) as u64;
    let mut r = lo + hi;
    if r >= MERSENNE_61 {
        r -= MERSENNE_61;
    }
    r
}

/// A `k`-wise independent hash family based on degree-(k-1) polynomials over
/// the field `GF(2^61 - 1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KWiseHash {
    /// Polynomial coefficients, lowest degree first. Length = independence k.
    coefficients: Vec<u64>,
}

impl KWiseHash {
    /// Draws a fresh `k`-wise independent function.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new<R: StreamRng>(rng: &mut R, k: usize) -> Self {
        assert!(k >= 1, "independence k must be at least 1");
        let coefficients = (0..k).map(|_| rng.gen_range(MERSENNE_61)).collect();
        Self { coefficients }
    }

    /// The polynomial coefficients, lowest degree first (the function's
    /// entire state — two instances with equal coefficients are the same
    /// hash function). Exposed for checkpoint/restore code.
    pub fn coefficients(&self) -> &[u64] {
        &self.coefficients
    }

    /// Rebuilds a function from previously captured coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `coefficients` is empty or any coefficient is outside the
    /// field `[0, 2^61 - 1)`.
    pub fn from_coefficients(coefficients: Vec<u64>) -> Self {
        assert!(
            !coefficients.is_empty(),
            "independence k must be at least 1"
        );
        assert!(
            coefficients.iter().all(|&c| c < MERSENNE_61),
            "coefficients must lie in the Mersenne field"
        );
        Self { coefficients }
    }

    /// Evaluates the polynomial at `key`, producing a value in
    /// `[0, 2^61 - 1)`.
    #[inline]
    pub fn hash(&self, key: u64) -> u64 {
        let x = key % MERSENNE_61;
        let mut acc: u64 = 0;
        // Horner evaluation, highest degree first.
        for &c in self.coefficients.iter().rev() {
            acc = mod_mersenne61((acc as u128) * (x as u128) + c as u128);
        }
        acc
    }

    /// Hashes into `[0, buckets)`.
    #[inline]
    pub fn bucket(&self, key: u64, buckets: usize) -> usize {
        debug_assert!(buckets > 0);
        (self.hash(key) % buckets as u64) as usize
    }

    /// Hashes to a uniform sign in `{-1, +1}`.
    #[inline]
    pub fn sign(&self, key: u64) -> i64 {
        if self.hash(key) & 1 == 0 {
            1
        } else {
            -1
        }
    }
}

/// Simple tabulation hashing over 8 byte-indexed tables.
///
/// Tabulation hashing is 3-independent but behaves like a much stronger hash
/// in practice (Patrascu–Thorup); it is the stand-in for the random oracle of
/// Remark 5.1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TabulationHash {
    tables: Box<[[u64; 256]; 8]>,
}

impl TabulationHash {
    /// Draws a fresh tabulation hash function (8 tables of 256 words, 16 KiB).
    pub fn new<R: StreamRng>(rng: &mut R) -> Self {
        let mut tables = Box::new([[0u64; 256]; 8]);
        for table in tables.iter_mut() {
            for entry in table.iter_mut() {
                *entry = rng.next_u64();
            }
        }
        Self { tables }
    }

    /// Creates a tabulation hash deterministically from a seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        Self::new(&mut rng)
    }

    /// Hashes a 64-bit key to a 64-bit value.
    #[inline]
    pub fn hash(&self, key: u64) -> u64 {
        let bytes = key.to_le_bytes();
        let mut h = 0u64;
        for (i, &b) in bytes.iter().enumerate() {
            h ^= self.tables[i][b as usize];
        }
        h
    }

    /// Hashes a key into the unit interval `[0, 1)`.
    #[inline]
    pub fn unit(&self, key: u64) -> f64 {
        const SCALE: f64 = 1.0 / ((1u64 << 53) as f64);
        (self.hash(key) >> 11) as f64 * SCALE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_rng;

    #[test]
    fn mersenne_reduction_matches_naive() {
        for x in [
            0u128,
            1,
            MERSENNE_61 as u128,
            (MERSENNE_61 as u128) * 17 + 5,
            u128::from(u64::MAX) * 3,
        ] {
            assert_eq!(mod_mersenne61(x) as u128, x % MERSENNE_61 as u128);
        }
    }

    #[test]
    fn kwise_is_deterministic_per_instance() {
        let mut rng = default_rng(11);
        let h = KWiseHash::new(&mut rng, 4);
        assert_eq!(h.hash(12345), h.hash(12345));
        assert_eq!(h.coefficients().len(), 4);
    }

    #[test]
    fn kwise_signs_are_balanced() {
        let mut rng = default_rng(17);
        let h = KWiseHash::new(&mut rng, 4);
        let sum: i64 = (0..100_000u64).map(|k| h.sign(k)).sum();
        assert!(sum.abs() < 3_000, "sign sum {sum} too biased");
    }

    #[test]
    fn kwise_pairwise_collision_rate_is_small() {
        let mut rng = default_rng(23);
        let h = KWiseHash::new(&mut rng, 2);
        let buckets = 1024;
        let mut collisions = 0usize;
        for a in 0..200u64 {
            for b in (a + 1)..200u64 {
                if h.bucket(a, buckets) == h.bucket(b, buckets) {
                    collisions += 1;
                }
            }
        }
        // Expected collisions ≈ C(200,2)/1024 ≈ 19.4; allow generous slack.
        assert!(collisions < 80, "too many collisions: {collisions}");
    }

    #[test]
    fn tabulation_unit_values_cover_interval() {
        let h = TabulationHash::from_seed(9);
        let mut min = 1.0f64;
        let mut max = 0.0f64;
        for key in 0..10_000u64 {
            let u = h.unit(key);
            assert!((0.0..1.0).contains(&u));
            min = min.min(u);
            max = max.max(u);
        }
        assert!(min < 0.01 && max > 0.99);
    }

    #[test]
    fn tabulation_is_seed_deterministic() {
        let a = TabulationHash::from_seed(77);
        let b = TabulationHash::from_seed(77);
        let c = TabulationHash::from_seed(78);
        assert_eq!(a.hash(42), b.hash(42));
        assert_ne!(a.hash(42), c.hash(42));
    }
}
