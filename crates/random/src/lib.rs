//! # tps-random
//!
//! Randomness substrate for the `truly-perfect-samplers` workspace.
//!
//! The truly perfect samplers of Jayaram, Woodruff and Zhou (PODS 2022) are
//! *sampling based* rather than sketching based, and their correctness rests
//! on a small number of randomness primitives:
//!
//! * uniform reservoir sampling over a stream of unknown length
//!   ([`reservoir`]),
//! * uniform random subsets of the universe `[n]` (used by the `F_0`
//!   sampler, [`subset`]),
//! * exponential and `p`-stable random variables (used only by the
//!   *baseline* perfect-but-not-truly-perfect samplers reproduced from prior
//!   work, [`exponential`](mod@exponential) and [`stable`]),
//! * cheap hash families standing in for the random oracle in comparator
//!   algorithms ([`hashing`]).
//!
//! All generators are deterministic given a seed so that every experiment in
//! the benchmark harness is reproducible.
//!
//! The crate deliberately exposes its own small [`StreamRng`] trait rather
//! than requiring a specific external RNG everywhere, and carries no
//! external dependencies; `rand` interop can be layered on by implementing
//! `RngCore` in terms of [`StreamRng::next_u64`] and
//! [`Xoshiro256::fill_bytes`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exponential;
pub mod hashing;
pub mod reservoir;
pub mod splitmix;
pub mod stable;
pub mod subset;
pub mod xoshiro;

pub use exponential::{exponential, exponential_with_rate, AntiRanks};
pub use hashing::{KWiseHash, MultiplyShiftHash, TabulationHash, MERSENNE_61};
pub use reservoir::{ReservoirItem, ReservoirSampler, SkipReservoirSampler, WeightedReservoir};
pub use splitmix::SplitMix64;
pub use subset::{random_subset, sample_without_replacement};
pub use xoshiro::Xoshiro256;

/// A minimal random number generator interface used throughout the
/// workspace.
///
/// The trait is intentionally tiny: every algorithm in the paper consumes
/// uniform 64-bit words, uniform reals in `[0, 1)`, bounded integers or
/// Bernoulli trials, and nothing else.
pub trait StreamRng {
    /// Returns the next uniformly distributed 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniform double in the half-open interval `[0, 1)`.
    ///
    /// Uses the upper 53 bits of [`StreamRng::next_u64`], which yields every
    /// representable multiple of 2^-53 with equal probability.
    fn next_f64(&mut self) -> f64 {
        // 2^-53
        const SCALE: f64 = 1.0 / ((1u64 << 53) as f64);
        (self.next_u64() >> 11) as f64 * SCALE
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire's nearly-divisionless unbiased bounded generation.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.next_f64() < p
    }

    /// Returns a uniform `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }
}

/// Creates the workspace's default RNG ([`Xoshiro256`]) from a 64-bit seed.
///
/// The seed is expanded through [`SplitMix64`] as recommended by the
/// xoshiro authors, so that low-entropy seeds (0, 1, 2, ...) still produce
/// well-mixed states.
pub fn default_rng(seed: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = default_rng(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} outside [0,1)");
        }
    }

    #[test]
    fn gen_range_is_within_bound_and_roughly_uniform() {
        let mut rng = default_rng(13);
        let bound = 10u64;
        let mut counts = [0u64; 10];
        let trials = 100_000;
        for _ in 0..trials {
            let v = rng.gen_range(bound);
            assert!(v < bound);
            counts[v as usize] += 1;
        }
        let expected = trials as f64 / bound as f64;
        for (i, &c) in counts.iter().enumerate() {
            let ratio = c as f64 / expected;
            assert!(
                (0.9..1.1).contains(&ratio),
                "bucket {i} count {c} deviates from uniform"
            );
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = default_rng(1);
        assert!(rng.gen_bool(1.0));
        assert!(rng.gen_bool(2.0));
        assert!(!rng.gen_bool(0.0));
        assert!(!rng.gen_bool(-0.5));
    }

    #[test]
    fn gen_bool_probability_is_respected() {
        let mut rng = default_rng(99);
        let trials = 200_000;
        let hits = (0..trials).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / trials as f64;
        assert!((frac - 0.25).abs() < 0.01, "empirical frequency {frac}");
    }

    #[test]
    fn default_rng_is_deterministic() {
        let mut a = default_rng(42);
        let mut b = default_rng(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = default_rng(42);
        let mut b = default_rng(43);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }
}
