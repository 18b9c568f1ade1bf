//! Seed-derived exponential random variables.
//!
//! The *baseline* perfect `L_p` samplers reproduced from Jayaram–Woodruff
//! (FOCS 2018) scale each coordinate by `1 / E_i^{1/p}` for independent
//! exponentials `E_i` and report the coordinate attaining the maximum. They
//! need `E_i` to be the same variable every time coordinate `i` is updated,
//! so [`indexed_exponential`] derives it from a seed and the index instead
//! of storing it.

/// Deterministically derives a per-coordinate standard exponential from a
/// seed and an index, so that repeated updates to the same coordinate see the
/// same variable without storing it (the consistency requirement discussed in
/// the paper's derandomization appendix).
#[inline]
pub fn indexed_exponential(seed: u64, index: u64) -> f64 {
    let word = crate::splitmix::SplitMix64::mix_pair(seed, index);
    const SCALE: f64 = 1.0 / ((1u64 << 53) as f64);
    let u = 1.0 - ((word >> 11) as f64 * SCALE);
    -u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_exponential_is_consistent() {
        let a = indexed_exponential(5, 100);
        let b = indexed_exponential(5, 100);
        let c = indexed_exponential(5, 101);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a > 0.0);
    }
}
