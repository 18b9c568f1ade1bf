//! Order statistics for the benchmark's timings.
//!
//! * Percentiles are nearest-rank: the `q` percentile of `n` sorted
//!   samples is the sample at 1-based rank `ceil(q·n)`.
//! * A tail percentile is only worth reporting when at least
//!   [`MIN_BEYOND_TAIL`] samples lie beyond it; [`Tail::resolved`] is that
//!   rule, and the workloads keep measuring until every tail they report
//!   is resolved.
//! * Open-loop requests are timed from the moment they were *due*, not
//!   from when the generator got round to sending them, so a stall that
//!   delays later requests shows up in their latency; how late the
//!   generator ran is reported separately ([`OpenLoopSample`]).
//!
//! Quantiles are kept as integer parts per ten thousand so rank
//! arithmetic is exact (`0.9 * 100.0` is not 90 in floating point).

use std::time::{Duration, Instant};

/// Samples that must lie strictly beyond a tail percentile before the
/// tail is reported.
pub const MIN_BEYOND_TAIL: usize = 10;

/// A named percentile, e.g. `p90`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tail {
    /// Metric-name spelling (`p50`, `p90`, `p99`, …).
    pub name: &'static str,
    /// The quantile in parts per ten thousand (`p90` = 9000).
    pub per_10k: usize,
}

pub const P50: Tail = Tail {
    name: "p50",
    per_10k: 5_000,
};
pub const P90: Tail = Tail {
    name: "p90",
    per_10k: 9_000,
};
pub const P99: Tail = Tail {
    name: "p99",
    per_10k: 9_900,
};
impl Tail {
    /// The 1-based nearest rank of this percentile among `n` samples.
    pub fn rank(self, n: usize) -> usize {
        (self.per_10k * n).div_ceil(10_000).clamp(1, n.max(1))
    }

    /// How many of `n` samples lie strictly beyond this percentile.
    pub fn beyond(self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        n - self.rank(n)
    }

    /// Whether `n` samples put at least [`MIN_BEYOND_TAIL`] beyond this
    /// percentile.
    pub fn resolved(self, n: usize) -> bool {
        self.beyond(n) >= MIN_BEYOND_TAIL
    }

    /// The smallest sample count that puts `k` samples beyond this
    /// percentile.
    pub fn samples_for(self, k: usize) -> usize {
        (1..)
            .find(|&n| self.beyond(n) >= k)
            .expect("every tail below 100% is reachable")
    }
}

/// A bag of samples of one timing (any unit; the caller names it).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// The nearest-rank percentile `tail`, or `None` without samples.
    pub fn percentile(&self, tail: Tail) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(self.sorted()[tail.rank(self.values.len()) - 1])
    }

    pub fn median(&self) -> Option<f64> {
        self.percentile(P50)
    }
}

/// One open-loop request: when its slot in the schedule was due, when the
/// generator actually sent it, and when the reply arrived.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopSample {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
}

impl OpenLoopSample {
    /// Latency charged from the due time (includes generator lateness).
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// A fixed-rate send schedule: request `i` is due at `start + i·period`,
/// whatever happened to earlier requests.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopSchedule {
    start: Instant,
    period: Duration,
}

impl OpenLoopSchedule {
    pub fn new(start: Instant, per_second: f64) -> Self {
        Self {
            start,
            period: Duration::from_secs_f64(1.0 / per_second),
        }
    }

    pub fn due(&self, index: u64) -> Instant {
        self.start + self.period.mul_f64(index as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for v in (1..=100).rev() {
            s.push(v as f64);
        }
        assert_eq!(s.median(), Some(50.0));
        assert_eq!(s.percentile(P90), Some(90.0));
        assert_eq!(s.percentile(P99), Some(99.0));
        assert_eq!(Samples::default().median(), None);
        let mut one = Samples::default();
        one.push(7.0);
        assert_eq!(one.percentile(P99), Some(7.0));
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly ten lie beyond it.
        assert_eq!(P90.beyond(100), 10);
        assert!(P90.resolved(100));
        assert!(!P90.resolved(99));
        assert_eq!(P90.samples_for(MIN_BEYOND_TAIL), 100);
        assert_eq!(P99.samples_for(MIN_BEYOND_TAIL), 1_000);
        assert_eq!(P50.samples_for(MIN_BEYOND_TAIL), 20);
        assert_eq!(P99.samples_for(20), 2_000);
        assert_eq!(P90.beyond(0), 0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let start = Instant::now();
        let schedule = OpenLoopSchedule::new(start, 200.0);
        assert_eq!(schedule.due(2) - schedule.due(1), Duration::from_millis(5));
        // Request 1 is stuck behind a 20 ms stall of request 0: it is
        // sent 15 ms late and answered 1 ms after sending.
        let due = schedule.due(1);
        let sent = due + Duration::from_millis(15);
        let sample = OpenLoopSample {
            due,
            sent,
            done: sent + Duration::from_millis(1),
        };
        assert_eq!(sample.lateness(), Duration::from_millis(15));
        assert_eq!(sample.latency(), Duration::from_millis(16));
        // On time: latency is the service time alone.
        let prompt = OpenLoopSample {
            due,
            sent: due,
            done: due + Duration::from_millis(2),
        };
        assert_eq!(prompt.lateness(), Duration::ZERO);
        assert_eq!(prompt.latency(), Duration::from_millis(2));
    }
}
