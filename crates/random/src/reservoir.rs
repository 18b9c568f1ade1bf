//! Reservoir sampling.
//!
//! Reservoir sampling (Vitter 1985) is the backbone of the paper's framework:
//! Algorithm 1 is exactly "reservoir-sample one position of the stream and
//! count how many times the sampled item re-appears afterwards". Classic
//! reservoir sampling is itself already a *truly perfect* `L_1` sampler for
//! insertion-only streams, which is the `p = 1` base case of Theorem 1.4.
//!
//! [`ReservoirSampler`] is the size-`k` uniform reservoir, one coin per
//! update. The samplers' own reservoirs skip ahead inside
//! `tps_core::engine`; this one backs the AMS `F_p` estimator's units.

use crate::StreamRng;

/// An item held in a reservoir together with the stream position
/// (1-based timestamp) at which it was sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReservoirItem<T> {
    /// The sampled value.
    pub value: T,
    /// 1-based position in the stream at which this value was (last) chosen.
    pub timestamp: u64,
}

/// A classic size-`k` uniform reservoir sampler.
///
/// After `m ≥ k` updates, every subset-free position of the stream is present
/// in the reservoir with probability exactly `k / m`; for `k = 1` the single
/// held position is uniform over `[m]`.
#[derive(Debug, Clone)]
pub struct ReservoirSampler<T> {
    capacity: usize,
    seen: u64,
    items: Vec<ReservoirItem<T>>,
}

impl<T> ReservoirSampler<T> {
    /// Creates a reservoir holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Self {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity),
        }
    }

    /// Number of stream items offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Current reservoir contents.
    pub fn items(&self) -> &[ReservoirItem<T>] {
        &self.items
    }

    /// Rebuilds a reservoir from previously captured state (checkpoint /
    /// restore): `seen` items offered so far, of which `items` are held.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, more than `capacity` items are supplied,
    /// or more items are held than were seen.
    pub fn from_parts(capacity: usize, seen: u64, items: Vec<ReservoirItem<T>>) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        assert!(items.len() <= capacity, "more items than capacity");
        assert!(items.len() as u64 <= seen, "more items held than seen");
        Self {
            capacity,
            seen,
            items,
        }
    }

    /// Offers one stream item. Returns `true` if the item was admitted into
    /// the reservoir (possibly replacing an older item).
    pub fn offer<R: StreamRng>(&mut self, rng: &mut R, value: T) -> bool {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(ReservoirItem {
                value,
                timestamp: self.seen,
            });
            return true;
        }
        // Replace a uniformly random slot with probability capacity / seen.
        let j = rng.gen_range(self.seen);
        if (j as usize) < self.capacity {
            self.items[j as usize] = ReservoirItem {
                value,
                timestamp: self.seen,
            };
            true
        } else {
            false
        }
    }

    /// Returns the single held item for capacity-1 reservoirs, if any.
    pub fn single(&self) -> Option<&ReservoirItem<T>> {
        if self.capacity == 1 {
            self.items.first()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_rng;

    #[test]
    fn size_one_reservoir_is_uniform_over_positions() {
        let mut rng = default_rng(21);
        let m = 20u64;
        let trials = 60_000;
        let mut counts = vec![0u64; m as usize];
        for _ in 0..trials {
            let mut res = ReservoirSampler::new(1);
            for pos in 0..m {
                res.offer(&mut rng, pos);
            }
            counts[res.single().unwrap().value as usize] += 1;
        }
        let expected = trials as f64 / m as f64;
        for (i, &c) in counts.iter().enumerate() {
            let ratio = c as f64 / expected;
            assert!((0.85..1.15).contains(&ratio), "position {i} ratio {ratio}");
        }
    }

    #[test]
    fn size_k_reservoir_inclusion_probability() {
        let mut rng = default_rng(22);
        let m = 50u64;
        let k = 5usize;
        let trials = 20_000;
        let mut hit = 0u64;
        for _ in 0..trials {
            let mut res = ReservoirSampler::new(k);
            for pos in 0..m {
                res.offer(&mut rng, pos);
            }
            if res.items().iter().any(|it| it.value == 7) {
                hit += 1;
            }
        }
        let frac = hit as f64 / trials as f64;
        let expected = k as f64 / m as f64;
        assert!(
            (frac - expected).abs() < 0.02,
            "inclusion {frac} vs {expected}"
        );
    }

    #[test]
    fn reservoir_timestamp_tracks_position() {
        let mut rng = default_rng(23);
        let mut res = ReservoirSampler::new(1);
        res.offer(&mut rng, 'a');
        let item = res.single().unwrap();
        assert_eq!(item.timestamp, 1);
        assert_eq!(res.seen(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: ReservoirSampler<u32> = ReservoirSampler::new(0);
    }
}
