//! Truly perfect samplers for the sliding-window model
//! (Section 4: Algorithm 4 / Theorem 4.1 / Corollary 4.2, and Algorithm 6 /
//! the sliding-window part of Theorem 1.4).
//!
//! In the sliding-window model only the `W` most recent updates are active.
//! The construction keeps *cohorts* of Algorithm-1 sampler units, starting a
//! fresh cohort every `W` updates and retaining the two most recent ones.
//! At query time the older of the two cohorts has seen every active update
//! (its suffix has length at most `2W`), so:
//!
//! * a unit whose sampled timestamp falls inside the window is a uniform
//!   sample of the window's positions (conditioned on being active, which
//!   happens with probability at least 1/2), and
//! * all occurrences counted after that timestamp are themselves active, so
//!   the usual telescoping rejection step applies unchanged.
//!
//! Each cohort *is* one [`SkipAheadEngine`]
//! — the same skip-ahead + shared-suffix-table core the insertion-only
//! framework runs — plus the window bookkeeping this module owns: the
//! cohort's global start position (to translate engine-local admission
//! positions into stream timestamps), cohort birth/retirement at epoch
//! boundaries, and the activity filter at query time. The engine's batch ≡
//! loop law therefore carries over verbatim; this module only has to split
//! batches at cohort-epoch boundaries.
//!
//! For bounded-increment measures (the M-estimators of Corollary 4.2) the
//! rejection normaliser is the closed-form `ζ`; for `L_p` with `p ∈ (1, 2]`
//! (Algorithm 6) it is `p·F^{p−1}` where `F` is the sliding-window `L_p`
//! norm estimate maintained by a smooth histogram
//! ([`tps_window::SlidingWindowLpEstimate`], Theorem A.5). The estimate is
//! randomized, so — exactly as in the paper — the `L_p` variant's guarantee
//! is conditioned on the estimator's high-probability correctness event,
//! while the M-estimator variant is unconditionally truly perfect.

use crate::engine::SkipAheadEngine;
use tps_random::{StreamRng, Xoshiro256};
use tps_streams::codec::{self, CodecError, Restore, Snapshot, SnapshotReader, SnapshotWriter};
use tps_streams::{
    Item, MeasureFn, SampleOutcome, SlidingWindowSampler, SpaceUsage, Timestamp, WindowSpec,
};
use tps_window::SlidingWindowLpEstimate;

/// A cohort of Algorithm-1 sampler units all started at the same stream
/// position: one shared skip-ahead engine plus the global start offset
/// needed to translate engine-local admission positions into stream
/// timestamps.
///
/// The engine's RNG is split off the manager's at creation. Each cohort
/// owning its own draw sequence keeps replacements *per cohort*
/// independent of how updates are grouped across cohorts, which is what
/// lets the batch path process one cohort at a time and still satisfy the
/// batch ≡ loop law.
#[derive(Debug)]
struct Cohort {
    /// 1-based stream position of the first update this cohort has seen.
    start: Timestamp,
    engine: SkipAheadEngine,
}

impl Cohort {
    fn new(start: Timestamp, size: usize, rng: Xoshiro256) -> Self {
        Self {
            start,
            engine: SkipAheadEngine::new(size, rng),
        }
    }

    /// Global stream position of an engine-local admission position.
    fn global_timestamp(&self, admitted_at: Timestamp) -> Timestamp {
        self.start - 1 + admitted_at
    }
}

/// Shared cohort management for both sliding-window samplers.
#[derive(Debug)]
struct CohortManager {
    window: WindowSpec,
    per_cohort: usize,
    cohorts: Vec<Cohort>,
    time: Timestamp,
    rng: Xoshiro256,
}

impl CohortManager {
    fn new(window: u64, per_cohort: usize, seed: u64) -> Self {
        Self {
            window: WindowSpec::new(window),
            per_cohort,
            cohorts: Vec::new(),
            time: 0,
            rng: Xoshiro256::seed_from_u64(seed),
        }
    }

    /// Starts a fresh cohort if the *next* update opens a new epoch
    /// (positions 1, W+1, 2W+1, …), keeping only the two most recent.
    fn maybe_start_cohort(&mut self) {
        if self.time.is_multiple_of(self.window.width) {
            let cohort_rng = Xoshiro256::seed_from_u64(self.rng.next_u64());
            self.cohorts
                .push(Cohort::new(self.time + 1, self.per_cohort, cohort_rng));
            if self.cohorts.len() > 2 {
                self.cohorts.remove(0);
            }
        }
    }

    fn update(&mut self, item: Item) {
        self.maybe_start_cohort();
        self.time += 1;
        for cohort in &mut self.cohorts {
            cohort.engine.update(item);
        }
    }

    /// Batch path: split the batch at cohort-epoch boundaries (at most one
    /// per `W` updates) and hand each intervening run to the cohorts'
    /// engines in one amortised call.
    fn update_batch(&mut self, items: &[Item]) {
        let width = self.window.width;
        let mut idx = 0;
        while idx < items.len() {
            self.maybe_start_cohort();
            // Updates until the next epoch boundary (the boundary item
            // itself starts the next chunk).
            let until_boundary = (width - self.time % width) as usize;
            let end = (idx + until_boundary).min(items.len());
            let chunk = &items[idx..end];
            self.time += chunk.len() as u64;
            for cohort in &mut self.cohorts {
                cohort.engine.update_batch(chunk);
            }
            idx = end;
        }
    }

    /// Merges two lockstep cohort managers (equal window, per-cohort unit
    /// count and clock) cohort by cohort: the cohorts are positionally
    /// aligned because both managers birthed them at the same epoch
    /// boundaries, so each pair of engines merges through the shared-clock
    /// [`SkipAheadEngine::merge_lockstep`] path — admission positions name
    /// the same global ticks on both sides and are preserved verbatim, so
    /// the activity filter keeps working on the merged cohorts.
    ///
    /// # Panics
    ///
    /// Panics unless windows, unit counts and clocks are all equal.
    fn merge(mut self, mut other: Self) -> Self {
        assert_eq!(
            self.window.width, other.window.width,
            "merging sliding samplers requires equal windows"
        );
        assert_eq!(
            self.per_cohort, other.per_cohort,
            "merging sliding samplers requires equal per-cohort unit counts"
        );
        assert_eq!(
            self.time, other.time,
            "merging sliding samplers requires lockstep clocks"
        );
        let mine = std::mem::take(&mut self.cohorts);
        let theirs = std::mem::take(&mut other.cohorts);
        assert_eq!(mine.len(), theirs.len());
        self.cohorts = mine
            .into_iter()
            .zip(theirs)
            .map(|(a, b)| {
                assert_eq!(a.start, b.start, "cohort epochs diverged");
                Cohort {
                    start: a.start,
                    engine: a.engine.merge_lockstep(b.engine, &mut self.rng),
                }
            })
            .collect();
        self
    }

    /// The cohort that has seen every active update: the most recent cohort
    /// whose start is at or before the window start.
    fn covering_cohort(&self) -> Option<&Cohort> {
        let window_start = self.window.earliest_active(self.time);
        self.cohorts.iter().rev().find(|c| c.start <= window_start)
    }

    /// Active `(item, suffix_count)` pairs of the covering cohort's units.
    fn active_candidates(&self) -> Vec<(Item, u64)> {
        let Some(cohort) = self.covering_cohort() else {
            return Vec::new();
        };
        cohort
            .engine
            .candidates()
            .filter_map(|c| {
                if self
                    .window
                    .is_active(cohort.global_timestamp(c.admitted_at), self.time)
                {
                    Some((c.item, c.suffix_count))
                } else {
                    None
                }
            })
            .collect()
    }

    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .cohorts
                .iter()
                .map(|c| {
                    std::mem::size_of::<Cohort>() - std::mem::size_of::<SkipAheadEngine>()
                        + c.engine.space_bytes()
                })
                .sum::<usize>()
    }
}

/// Wire format: window width, per-cohort unit count, clock, the manager's
/// RNG position, then each live cohort's global start and engine.
impl Snapshot for CohortManager {
    const TAG: u16 = codec::tag::COHORT_MANAGER;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_tag(Self::TAG);
        w.put_u64(self.window.width);
        w.put_usize(self.per_cohort);
        w.put_u64(self.time);
        self.rng.encode_into(w);
        w.put_len(self.cohorts.len());
        for cohort in &self.cohorts {
            w.put_u64(cohort.start);
            cohort.engine.encode_into(w);
        }
    }
}

impl Restore for CohortManager {
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        let width = r.get_u64()?;
        if width == 0 {
            return Err(CodecError::InvalidValue {
                what: "window must be positive",
            });
        }
        let per_cohort = r.get_usize()?;
        // `per_cohort` sizes every *future* cohort engine (the live
        // cohorts' slot counts are cross-checked below, but an empty
        // manager has no corroborating engine), so bound it to keep a
        // crafted snapshot from smuggling an unbounded allocation into the
        // first post-restore epoch. Live unit counts are in the thousands.
        const MAX_UNITS_PER_COHORT: usize = 1 << 20;
        if per_cohort == 0 || per_cohort > MAX_UNITS_PER_COHORT {
            return Err(CodecError::InvalidValue {
                what: "per-cohort unit count out of range",
            });
        }
        let time = r.get_u64()?;
        let rng = Xoshiro256::decode_from(r)?;
        let count = r.get_len(8)?;
        if count > 2 {
            return Err(CodecError::InvalidValue {
                what: "at most the two most recent cohorts are retained",
            });
        }
        let mut cohorts = Vec::with_capacity(count);
        let mut prev_start = 0u64;
        for _ in 0..count {
            let start = r.get_u64()?;
            // Cohorts are born at epoch boundaries (positions 1, W+1, …),
            // retained newest-last, and ingest at least one update before
            // the manager comes to rest.
            if start <= prev_start || start > time || (start - 1) % width != 0 {
                return Err(CodecError::InvalidValue {
                    what: "cohort start is not an in-range epoch boundary",
                });
            }
            prev_start = start;
            let engine = SkipAheadEngine::decode_from(r)?;
            if engine.slot_count() != per_cohort {
                return Err(CodecError::InvalidValue {
                    what: "cohort engine slot count disagrees with the manager",
                });
            }
            // No constraint is placed on `engine.seen()` relative to the
            // epoch suffix: a directly fed cohort has seen exactly
            // `time + 1 − start` updates, but a lockstep merge sums the
            // shards' counts, and a merged sampler can (however
            // inadvisedly) keep ingesting — all reachable states must
            // round-trip, and the engine's own decoder already enforces
            // the invariants that queries rely on.
            cohorts.push(Cohort { start, engine });
        }
        Ok(Self {
            window: WindowSpec::new(width),
            per_cohort,
            cohorts,
            time,
            rng,
        })
    }
}

/// The truly perfect sliding-window `G`-sampler for bounded-increment
/// measures (Algorithm 4 / Theorem 4.1 / Corollary 4.2).
#[derive(Debug)]
pub struct SlidingWindowGSampler<G: MeasureFn> {
    g: G,
    manager: CohortManager,
}

impl<G: MeasureFn> SlidingWindowGSampler<G> {
    /// Creates the sampler for windows of `window` updates with failure
    /// probability at most `delta`.
    ///
    /// The per-cohort instance count follows Theorem 4.1:
    /// `O(ζ·W/F̂_G(W) · log 1/δ)`, with an extra factor 2 because a unit's
    /// sample is active only with probability at least 1/2.
    ///
    /// # Panics
    ///
    /// Panics unless `window ≥ 1` and `δ ∈ (0, 1)`.
    pub fn new(g: G, window: u64, delta: f64, seed: u64) -> Self {
        assert!(window >= 1, "window must be positive");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        let zeta = g.increment_bound(window).max(f64::MIN_POSITIVE);
        let fg = g.fg_lower_bound(window).max(f64::MIN_POSITIVE);
        // Success probability per unit ≥ (1/2)·F_G/(ζ·2W) ≥ fg/(4·ζ·W).
        let per_unit = (fg / (4.0 * zeta * window as f64)).clamp(1e-12, 1.0);
        let per_cohort = if per_unit >= 1.0 {
            1
        } else {
            (delta.ln() / (1.0 - per_unit).ln()).ceil().max(1.0) as usize
        };
        Self {
            g,
            manager: CohortManager::new(window, per_cohort, seed),
        }
    }

    /// Number of sampler units per cohort.
    pub fn units_per_cohort(&self) -> usize {
        self.manager.per_cohort
    }

    /// Merges two lockstep shard samplers (equal window, unit count and
    /// clock) into one that samples the **union** of the two active
    /// windows: cohorts merge pairwise through the shared-clock engine
    /// merge, so each merged unit holds a uniform one of the combined
    /// update instances with its original global timestamp, and the usual
    /// activity filter plus telescoping rejection apply at query time.
    ///
    /// The model is *parallel streams on one clock* (e.g. per-link network
    /// feeds sampled jointly): each shard observes its own updates tick for
    /// tick. Exactness needs item-disjoint shards (all occurrences of an
    /// item on one side, so suffix counts stay exact); constant-increment
    /// measures are exact regardless. The merged sampler is a query-time
    /// snapshot — keep feeding the shards and re-merge for later queries.
    /// The `L_p` sliding sampler is deliberately *not* mergeable: its
    /// rejection normaliser comes from a randomized smooth-histogram
    /// estimate whose checkpoints cannot be combined without breaking the
    /// certainty analysis; shard the bounded-increment sampler instead.
    ///
    /// # Panics
    ///
    /// Panics unless windows, unit counts and clocks are all equal.
    pub fn merge(self, other: Self) -> Self {
        Self {
            g: self.g,
            manager: self.manager.merge(other.manager),
        }
    }
}

impl<G: MeasureFn> SlidingWindowSampler for SlidingWindowGSampler<G> {
    fn update(&mut self, item: Item) {
        self.manager.update(item);
    }

    fn update_batch(&mut self, items: &[Item]) {
        self.manager.update_batch(items);
    }

    fn sample(&mut self) -> SampleOutcome {
        if self.manager.time == 0 {
            return SampleOutcome::Empty;
        }
        let zeta = self.g.increment_bound(self.manager.window.width);
        if zeta.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return SampleOutcome::Fail;
        }
        let candidates = self.manager.active_candidates();
        for (item, c) in candidates {
            let accept = (self.g.value(c + 1) - self.g.value(c)) / zeta;
            if self.manager.rng.gen_bool(accept) {
                return SampleOutcome::Index(item);
            }
        }
        SampleOutcome::Fail
    }

    fn window(&self) -> u64 {
        self.manager.window.width
    }
}

impl<G: MeasureFn> SpaceUsage for SlidingWindowGSampler<G> {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.manager.space_bytes()
    }
}

/// Wire format: the measure and the cohort manager.
impl<G: MeasureFn + Snapshot> Snapshot for SlidingWindowGSampler<G> {
    const TAG: u16 = codec::tag::SLIDING_G_SAMPLER;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_tag(Self::TAG);
        self.g.encode_into(w);
        self.manager.encode_into(w);
    }
}

impl<G: MeasureFn + Restore> Restore for SlidingWindowGSampler<G> {
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        Ok(Self {
            g: G::decode_from(r)?,
            manager: CohortManager::decode_from(r)?,
        })
    }
}

/// The truly perfect sliding-window `L_p` sampler for `p ∈ (1, 2]`
/// (Algorithm 6 / Theorem 1.4, sliding-window part).
#[derive(Debug)]
pub struct SlidingWindowLpSampler {
    p: f64,
    manager: CohortManager,
    estimate: SlidingWindowLpEstimate,
}

impl SlidingWindowLpSampler {
    /// Creates the sampler for windows of `window` updates with failure
    /// probability roughly `delta` (conditioned on the window-norm
    /// estimator's success, as in the paper).
    ///
    /// The per-cohort unit count is `O(W^{1−1/p} log 1/δ)`.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ (1, 2]`, `window ≥ 1` and `δ ∈ (0, 1)`.
    pub fn new(p: f64, window: u64, delta: f64, seed: u64) -> Self {
        Self::with_estimator_size(p, window, delta, 3, 80, seed)
    }

    /// Like [`SlidingWindowLpSampler::new`] but with an explicit size
    /// (`rows × cols` AMS units per smooth-histogram checkpoint) for the
    /// window-norm estimator. Smaller estimators are cheaper but give a
    /// looser normaliser, which only affects the failure probability.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ (1, 2]`, `window ≥ 1` and `δ ∈ (0, 1)`.
    pub fn with_estimator_size(
        p: f64,
        window: u64,
        delta: f64,
        estimator_rows: usize,
        estimator_cols: usize,
        seed: u64,
    ) -> Self {
        assert!(
            p > 1.0 && p <= 2.0,
            "sliding-window Lp sampler requires p in (1, 2]"
        );
        assert!(window >= 1, "window must be positive");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        // Success probability per unit ≥ 1/(2·p·2^{p-1}·W^{1-1/p})
        // (Theorem 1.4 with the extra 1/2 for window activity).
        let pool = (window as f64).powf(1.0 - 1.0 / p).max(1.0);
        let per_unit = (1.0 / (2.0 * p * 2f64.powf(p - 1.0) * pool)).clamp(1e-12, 1.0);
        let per_cohort = if per_unit >= 1.0 {
            1
        } else {
            (delta.ln() / (1.0 - per_unit).ln()).ceil().max(1.0) as usize
        };
        let estimate = SlidingWindowLpEstimate::new(
            p,
            window,
            estimator_rows,
            estimator_cols,
            Xoshiro256::seed_from_u64(seed ^ 0x5EED),
        );
        Self {
            p,
            manager: CohortManager::new(window, per_cohort, seed),
            estimate,
        }
    }

    /// Number of sampler units per cohort.
    pub fn units_per_cohort(&self) -> usize {
        self.manager.per_cohort
    }

    /// The exponent `p`.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl SlidingWindowSampler for SlidingWindowLpSampler {
    fn update(&mut self, item: Item) {
        self.manager.update(item);
        self.estimate.update(item);
    }

    fn update_batch(&mut self, items: &[Item]) {
        self.manager.update_batch(items);
        // The smooth-histogram estimator keeps per-item checkpoint logic;
        // its updates commute with the cohorts', so feeding it after the
        // whole cohort batch leaves identical state.
        for &item in items {
            self.estimate.update(item);
        }
    }

    fn sample(&mut self) -> SampleOutcome {
        if self.manager.time == 0 {
            return SampleOutcome::Empty;
        }
        let norm = self.estimate.lp_estimate().max(1.0);
        let zeta = self.p * norm.powf(self.p - 1.0);
        let candidates = self.manager.active_candidates();
        for (item, c) in candidates {
            let c = c as f64;
            let accept = (((c + 1.0).powf(self.p) - c.powf(self.p)) / zeta).min(1.0);
            if self.manager.rng.gen_bool(accept) {
                return SampleOutcome::Index(item);
            }
        }
        SampleOutcome::Fail
    }

    fn window(&self) -> u64 {
        self.manager.window.width
    }
}

impl SpaceUsage for SlidingWindowLpSampler {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.manager.space_bytes() + self.estimate.space_bytes()
    }
}

/// Wire format: the exponent, the cohort manager, and the smooth-histogram
/// window-norm estimator (checkpoints, inner AMS units and factory RNG
/// included, so the normaliser's draw sequence continues unbroken).
impl Snapshot for SlidingWindowLpSampler {
    const TAG: u16 = codec::tag::SLIDING_LP_SAMPLER;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_tag(Self::TAG);
        w.put_f64(self.p);
        self.manager.encode_into(w);
        self.estimate.encode_into(w);
    }
}

impl Restore for SlidingWindowLpSampler {
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        let p = r.get_f64()?;
        if !(p > 1.0 && p <= 2.0) {
            return Err(CodecError::InvalidValue {
                what: "sliding-window Lp sampler requires p in (1, 2]",
            });
        }
        let manager = CohortManager::decode_from(r)?;
        let estimate = SlidingWindowLpEstimate::decode_from(r)?;
        // Live state carries bit-identical exponents in the sampler and
        // its window-norm estimator; a disagreeing pair would silently
        // normalise one distribution by another's norm.
        if estimate.p().to_bits() != p.to_bits() {
            return Err(CodecError::InvalidValue {
                what: "sliding Lp sampler and its estimator disagree on the exponent",
            });
        }
        Ok(Self {
            p,
            manager,
            estimate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_streams::frequency::FrequencyVector;
    use tps_streams::stats::SampleHistogram;
    use tps_streams::{Huber, Lp};

    /// A stream whose window content differs sharply from its prefix, so any
    /// failure to expire old items shows up as sampling mass on items that
    /// should be gone.
    fn two_phase_stream(window: usize) -> Vec<Item> {
        let mut stream = Vec::new();
        // Old phase: heavy on items 1..=3.
        for t in 0..(3 * window) {
            stream.push((t % 3) as u64 + 1);
        }
        // Active phase (exactly one window): items 10..=13, skewed.
        for t in 0..window {
            let item = match t % 8 {
                0..=4 => 10u64,
                5 | 6 => 11,
                _ => 12,
            };
            stream.push(item);
        }
        stream
    }

    #[test]
    fn huber_window_sampler_matches_window_distribution() {
        let window = 100usize;
        let stream = two_phase_stream(window);
        let g = Huber::new(2.0);
        let target = FrequencyVector::from_window(&stream, WindowSpec::new(window as u64))
            .g_distribution(&g);
        let mut histogram = SampleHistogram::new();
        for seed in 0..2_500u64 {
            let mut s = SlidingWindowGSampler::new(g, window as u64, 0.15, 30_000 + seed);
            for &x in &stream {
                SlidingWindowSampler::update(&mut s, x);
            }
            histogram.record(SlidingWindowSampler::sample(&mut s));
        }
        assert!(
            histogram.fail_rate() < 0.15,
            "fail rate {}",
            histogram.fail_rate()
        );
        // No expired item may ever be reported.
        for expired in [1u64, 2, 3] {
            assert_eq!(
                histogram.count(expired),
                0,
                "expired item {expired} was sampled"
            );
        }
        let tv = histogram.tv_distance(&target);
        assert!(tv < 0.05, "TV {tv}");
    }

    #[test]
    fn l1_window_sampler_via_g_framework() {
        // Lp with p = 1 has constant increments, so it can run through the
        // bounded-increment sliding-window sampler and must reproduce the
        // window's frequency distribution.
        let window = 120usize;
        let stream = two_phase_stream(window);
        let g = Lp::new(1.0);
        let target = FrequencyVector::from_window(&stream, WindowSpec::new(window as u64))
            .lp_distribution(1.0);
        let mut histogram = SampleHistogram::new();
        for seed in 0..3_000u64 {
            let mut s = SlidingWindowGSampler::new(g, window as u64, 0.1, 40_000 + seed);
            for &x in &stream {
                SlidingWindowSampler::update(&mut s, x);
            }
            histogram.record(SlidingWindowSampler::sample(&mut s));
        }
        assert!(histogram.fail_rate() < 0.1);
        assert!(histogram.tv_distance(&target) < 0.05);
    }

    #[test]
    fn l2_window_sampler_matches_window_distribution() {
        let window = 48usize;
        let stream = two_phase_stream(window);
        let target = FrequencyVector::from_window(&stream, WindowSpec::new(window as u64))
            .lp_distribution(2.0);
        let mut histogram = SampleHistogram::new();
        for seed in 0..600u64 {
            let mut s = SlidingWindowLpSampler::with_estimator_size(
                2.0,
                window as u64,
                0.1,
                2,
                12,
                50_000 + seed,
            );
            for &x in &stream {
                SlidingWindowSampler::update(&mut s, x);
            }
            histogram.record(SlidingWindowSampler::sample(&mut s));
        }
        assert!(
            histogram.fail_rate() < 0.2,
            "fail rate {}",
            histogram.fail_rate()
        );
        for expired in [1u64, 2, 3] {
            assert_eq!(
                histogram.count(expired),
                0,
                "expired item {expired} was sampled"
            );
        }
        let tv = histogram.tv_distance(&target);
        assert!(tv < 0.1, "TV {tv}");
    }

    #[test]
    fn empty_stream_reports_empty() {
        let mut g = SlidingWindowGSampler::new(Huber::new(1.0), 10, 0.1, 1);
        assert_eq!(SlidingWindowSampler::sample(&mut g), SampleOutcome::Empty);
        let mut lp = SlidingWindowLpSampler::new(2.0, 10, 0.1, 1);
        assert_eq!(SlidingWindowSampler::sample(&mut lp), SampleOutcome::Empty);
    }

    #[test]
    fn window_accessor_reports_width() {
        let g = SlidingWindowGSampler::new(Huber::new(1.0), 77, 0.1, 1);
        assert_eq!(SlidingWindowSampler::window(&g), 77);
    }

    #[test]
    fn unit_count_grows_with_window_for_lp() {
        let small = SlidingWindowLpSampler::new(2.0, 64, 0.2, 1).units_per_cohort();
        let large = SlidingWindowLpSampler::new(2.0, 4_096, 0.2, 1).units_per_cohort();
        let ratio = large as f64 / small as f64;
        // sqrt scaling: (4096/64)^{1/2} = 8.
        assert!((4.0..16.0).contains(&ratio), "ratio {ratio}");
    }
}
